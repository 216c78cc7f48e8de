package dist

import (
	"fmt"
	"strings"
	"testing"

	"distmatch/internal/graph"
)

// stepProg adapts closures to RoundProgram for concise test machines.
type stepProg struct {
	init    func(nd *Node) bool
	onRound func(nd *Node, in []Incoming) bool
}

func (p *stepProg) Init(nd *Node) bool                   { return p.init(nd) }
func (p *stepProg) OnRound(nd *Node, in []Incoming) bool { return p.onRound(nd, in) }

// TestFlatStatsAccounting is the flat twin of TestStatsAccounting: the
// same hand-countable triangle traffic, expressed as a state machine, must
// produce exactly the same Stats the coroutine test pins.
func TestFlatStatsAccounting(t *testing.T) {
	g := triangle(t)
	st := RunFlat(g, Config{Seed: 7, Profile: true}, func(*Node) RoundProgram {
		round := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SendAll(Signal{})
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				round++
				switch round {
				case 1:
					if len(in) != 2 {
						t.Errorf("node %d: %d incoming, want 2", nd.ID(), len(in))
					}
					if nd.ID() == 0 {
						nd.Send(1, Count(17))
					}
					return true
				case 2:
					for _, m := range in {
						if c, ok := m.Msg.(Count); !ok || c != 17 {
							t.Errorf("node %d: unexpected delivery %v", nd.ID(), m)
						}
					}
					nd.SubmitOr(false)
					return true
				default:
					return false
				}
			},
		}
	})
	if st.Rounds != 3 || st.Messages != 7 || st.Bits != 11 ||
		st.MaxMessageBits != 5 || st.OracleCalls != 3 {
		t.Fatalf("flat stats diverge from the audited coroutine values: %v", st)
	}
	if len(st.Profile) != 3 || !st.Profile[2].Oracle {
		t.Fatalf("flat profile malformed: %+v", st.Profile)
	}
	if pr := st.PipelinedRounds(2); pr != 5 {
		t.Fatalf("PipelinedRounds(2) = %d, want 5", pr)
	}
}

// TestFlatEquivalentToCoroutine runs one engine-level program in both
// forms — sends, plain rounds, an OR round and a max round, staggered
// completion — and requires identical Stats and identical per-node
// transcripts.
func TestFlatEquivalentToCoroutine(t *testing.T) {
	g := ring(257)
	const rounds = 6
	transcript := func(run func(out []uint64) *Stats) ([]uint64, *Stats) {
		out := make([]uint64, g.N())
		return out, run(out)
	}
	note := func(out []uint64, nd *Node, in []Incoming) {
		h := out[nd.ID()]
		for _, m := range in {
			h = h*1000003 + uint64(m.Port)<<32 + uint64(float64(m.Msg.(Count)))
		}
		out[nd.ID()] = h
	}
	coro, coroStats := transcript(func(out []uint64) *Stats {
		return Run(g, Config{Seed: 5, Profile: true}, func(nd *Node) {
			r := nd.Rand()
			for i := 0; i < rounds; i++ {
				nd.Send(r.Intn(nd.Deg()), Count(float64(nd.ID()+i)))
				in := nd.Step()
				note(out, nd, in)
			}
			nd.StepOr(nd.ID()%3 == 0)
			nd.StepMax(float64(nd.ID()))
			if nd.ID()%2 == 0 {
				nd.Step() // stagger completion across a round
			}
		})
	})
	for _, workers := range []int{1, 2, 7} {
		flat, flatStats := transcript(func(out []uint64) *Stats {
			return RunFlat(g, Config{Seed: 5, Profile: true, Workers: workers}, func(*Node) RoundProgram {
				i := 0
				return &stepProg{
					init: func(nd *Node) bool {
						nd.Send(nd.Rand().Intn(nd.Deg()), Count(float64(nd.ID())))
						return true
					},
					onRound: func(nd *Node, in []Incoming) bool {
						switch {
						case i < rounds:
							note(out, nd, in)
							i++
							if i < rounds {
								nd.Send(nd.Rand().Intn(nd.Deg()), Count(float64(nd.ID()+i)))
								return true
							}
							nd.SubmitOr(nd.ID()%3 == 0)
							return true
						case i == rounds:
							i++
							nd.SubmitMax(float64(nd.ID()))
							return true
						default:
							i++
							return nd.ID()%2 == 0 && i == rounds+2
						}
					},
				}
			})
		})
		for v := range coro {
			if coro[v] != flat[v] {
				t.Fatalf("workers=%d: node %d transcript differs", workers, v)
			}
		}
		if coroStats.Rounds != flatStats.Rounds || coroStats.Messages != flatStats.Messages ||
			coroStats.Bits != flatStats.Bits || coroStats.OracleCalls != flatStats.OracleCalls ||
			coroStats.MaxMessageBits != flatStats.MaxMessageBits {
			t.Fatalf("workers=%d: stats differ: %v vs %v", workers, coroStats, flatStats)
		}
	}
}

// TestFlatOracleResults pins SubmitOr/SubmitMax semantics: the global
// result aggregates every submitted value and arrives in the next round.
func TestFlatOracleResults(t *testing.T) {
	g := path4(t)
	vals := []float64{3, -8, 11, 0.5}
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init: func(nd *Node) bool {
				nd.SubmitOr(nd.ID() == 2)
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				step++
				switch step {
				case 1:
					if !nd.GlobalOr() {
						t.Errorf("node %d: OR with one true input reported false", nd.ID())
					}
					nd.SubmitMax(vals[nd.ID()])
					return true
				default:
					if nd.GlobalMax() != 11 {
						t.Errorf("node %d: max = %v, want 11", nd.ID(), nd.GlobalMax())
					}
					return false
				}
			},
		}
	})
}

// TestFlatEarlyReturnAndFinalSends mirrors the coroutine contract: a
// program may end at any round; sends from its final segment still arrive.
func TestFlatEarlyReturnAndFinalSends(t *testing.T) {
	g := path4(t)
	var got Incoming
	st := RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		step := 0
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					nd.Send(0, Bit(true)) // farewell, then exit
					return false
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				step++
				if step == 1 && nd.ID() == 1 {
					if len(in) != 1 {
						t.Errorf("node 1: want the farewell, got %v", in)
					} else {
						got = in[0]
					}
				}
				return step < 2
			},
		}
	})
	if b, ok := got.Msg.(Bit); !ok || !bool(b) {
		t.Fatalf("farewell not delivered: %+v", got)
	}
	if st.Rounds != 2 || st.Messages != 1 {
		t.Fatalf("stats = %v, want rounds=2 messages=1", st)
	}
}

// TestFlatPanicPropagation: a panic inside OnRound aborts the run and
// re-panics in the caller; lowest node id wins deterministically.
func TestFlatPanicPropagation(t *testing.T) {
	g := ring(6)
	for trial := 0; trial < 3; trial++ {
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != "boom-1" {
					t.Fatalf("got %v, want boom-1", r)
				}
			}()
			RunFlat(g, Config{Seed: uint64(trial), Workers: 1 + trial}, func(*Node) RoundProgram {
				return &stepProg{
					init: func(nd *Node) bool { return true },
					onRound: func(nd *Node, in []Incoming) bool {
						if nd.ID()%2 == 1 {
							panic(fmt.Sprintf("boom-%d", nd.ID()))
						}
						return true
					},
				}
			})
			t.Fatal("RunFlat returned despite panic")
		}()
	}
}

// TestFlatDesyncDetection: a round where some continuing nodes submit an
// oracle value and others don't must panic, exactly like mixed Step kinds.
func TestFlatDesyncDetection(t *testing.T) {
	g := triangle(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "desync") {
			t.Fatalf("expected desync panic, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool {
				if nd.ID() == 0 {
					nd.SubmitOr(true)
				}
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool { return false },
		}
	})
	t.Fatal("desync was not detected")
}

// TestFlatMaxRounds: the runaway guard works identically on flat.
func TestFlatMaxRounds(t *testing.T) {
	g := triangle(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "MaxRounds") {
			t.Fatalf("expected MaxRounds panic, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1, MaxRounds: 10}, func(*Node) RoundProgram {
		return &stepProg{
			init:    func(nd *Node) bool { return true },
			onRound: func(nd *Node, in []Incoming) bool { return true },
		}
	})
	t.Fatal("runaway flat protocol was not stopped")
}

// TestFlatRejectsBlockingPrimitives: calling Step from a RoundProgram is a
// programming error with a dedicated message, not a nil-deref.
func TestFlatRejectsBlockingPrimitives(t *testing.T) {
	g := triangle(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "coroutine backend") {
			t.Fatalf("expected backend-misuse panic, got %v", r)
		}
	}()
	RunFlat(g, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool {
				nd.Step()
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool { return false },
		}
	})
	t.Fatal("blocking Step inside a RoundProgram was not rejected")
}

// TestFlatZeroAndTinyGraphs: degenerate inputs behave like the coroutine
// backend.
func TestFlatZeroAndTinyGraphs(t *testing.T) {
	empty := graph.NewBuilder(0).MustBuild()
	st := RunFlat(empty, Config{Seed: 1}, func(*Node) RoundProgram {
		t.Error("factory ran on empty graph")
		return nil
	})
	if st.Rounds != 0 {
		t.Fatalf("empty graph ran %d rounds", st.Rounds)
	}
	lone := graph.NewBuilder(1).MustBuild()
	ran := false
	st = RunFlat(lone, Config{Seed: 1}, func(*Node) RoundProgram {
		return &stepProg{
			init: func(nd *Node) bool {
				ran = true
				nd.SendAll(Signal{}) // degree 0: a no-op
				return true
			},
			onRound: func(nd *Node, in []Incoming) bool {
				if len(in) != 0 {
					t.Errorf("lone node received %v", in)
				}
				return false
			},
		}
	})
	if !ran || st.Rounds != 1 || st.Messages != 0 {
		t.Fatalf("lone node run malformed: ran=%v %v", ran, st)
	}
}

// TestLogBudget pins the shared budget helper against the historical
// hand-rolled loop (8·⌈log₂ n⌉ + 8 for c = 8) and the fractional form.
func TestLogBudget(t *testing.T) {
	oldBudget := func(n int) int {
		b := 8
		for p := 1; p < n; p *= 2 {
			b += 8
		}
		return b
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 127, 128, 129, 1 << 20} {
		if got, want := LogBudget(n, 8), oldBudget(n); got != want {
			t.Fatalf("LogBudget(%d, 8) = %d, want %d", n, got, want)
		}
	}
	if LogBudget(1024, 4) != 4*10+4 {
		t.Fatalf("LogBudget(1024, 4) = %d, want 44", LogBudget(1024, 4))
	}
	if LogBudgetFrac(10, 4) != 44 || LogBudgetFrac(9.1, 4) != 44 {
		t.Fatal("LogBudgetFrac ceiling wrong")
	}
}
