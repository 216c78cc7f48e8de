package dist

// The active-set conformance suite of PR 5 — the harness that makes
// sub-round execution safe to rely on:
//
//   - TestActiveConformance: a run restricted to an active set is
//     bit-identical (outputs, rounds, messages, bits, peak width,
//     per-round profile) to a full-sweep run of the same protocol whose
//     excluded nodes are silent observers — across topologies × worker
//     counts × both backends × one-shot and Runner paths × the sparse
//     and dense sweep forms; and the honest accounting (NodeRounds,
//     OracleCalls counting active nodes only) is pinned exactly.
//   - TestActiveInactiveNodesUntouched: the engine invariant "inactive
//     nodes execute nothing, send/receive nothing, and their RNG streams
//     do not advance" — the property that catches silent sweep leaks.
//   - TestActiveRunnerMailboxShrinkGrow: mailbox state across SetActive
//     shrink/grow cycles, including undelivered final-segment traffic and
//     aborted runs — the double-buffer-reuse regression test.
//   - TestActiveExpandByHops & friends: the frontier-growth API against
//     a hand-checked reference, live-edge masks included.

import (
	"reflect"
	"testing"

	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// tval is the test payload: a 64-bit value.
type tval uint64

func (tval) Bits() int { return 64 }

// regionalRounds is the barrier count of the conformance protocol.
const regionalRounds = 7

// regionalBlocking is the conformance protocol in blocking form. A
// participant draws one random value per round, sends a per-port mix of
// it to participating neighbors, folds everything it receives into an
// accumulator, and every third barrier is an oracle round. A
// non-participant is a silent observer: it steps through the identical
// barrier structure but never sends, never draws, and submits the oracle
// identity — the exact shape of core's participate=false phases, and the
// shape active-set execution is allowed to skip.
func regionalBlocking(part []bool, out []uint64) func(*Node) {
	return func(nd *Node) {
		if !part[nd.ID()] {
			for r := 0; r < regionalRounds; r++ {
				if r%3 == 2 {
					nd.StepOr(false)
				} else {
					nd.Step()
				}
			}
			return
		}
		acc := uint64(nd.ID())
		for r := 0; r < regionalRounds; r++ {
			x := nd.Rand().Uint64()
			for p := 0; p < nd.Deg(); p++ {
				if part[nd.NbrID(p)] {
					nd.Send(p, tval(x^uint64(p)))
				}
			}
			var in []Incoming
			if r%3 == 2 {
				var any bool
				in, any = nd.StepOr(x%3 == 0)
				if any {
					acc += 13
				}
			} else {
				in = nd.Step()
			}
			for _, m := range in {
				acc += uint64(m.Msg.(tval))
			}
		}
		out[nd.ID()] = acc
	}
}

// regionalFlat is the segment-for-segment transliteration of
// regionalBlocking (same sends, same RNG draws, same barriers).
type regionalFlat struct {
	part []bool
	out  []uint64
	r    int
	acc  uint64
	x    uint64
}

func (m *regionalFlat) segment(nd *Node) {
	m.x = nd.Rand().Uint64()
	for p := 0; p < nd.Deg(); p++ {
		if m.part[nd.NbrID(p)] {
			nd.Send(p, tval(m.x^uint64(p)))
		}
	}
	if m.r%3 == 2 {
		nd.SubmitOr(m.x%3 == 0)
	}
}

func (m *regionalFlat) Init(nd *Node) bool {
	m.r, m.acc = 0, 0
	if !m.part[nd.ID()] {
		return true
	}
	m.acc = uint64(nd.ID())
	m.segment(nd)
	return true
}

func (m *regionalFlat) OnRound(nd *Node, in []Incoming) bool {
	if !m.part[nd.ID()] {
		m.r++
		if m.r >= regionalRounds {
			return false
		}
		if m.r%3 == 2 {
			nd.SubmitOr(false)
		}
		return true
	}
	if m.r%3 == 2 && nd.GlobalOr() {
		m.acc += 13
	}
	for _, d := range in {
		m.acc += uint64(d.Msg.(tval))
	}
	m.r++
	if m.r >= regionalRounds {
		m.out[nd.ID()] = m.acc
		return false
	}
	m.segment(nd)
	return true
}

// maskOf materializes an id list as (mask, sorted-insertion list) over n
// nodes.
func maskOf(n int, ids []int32) []bool {
	mask := make([]bool, n)
	for _, v := range ids {
		mask[v] = true
	}
	return mask
}

// activeStatsEqual asserts the bit-identity contract between a full-sweep
// run over silent observers and the active-set run of the same protocol:
// everything equal except the honest work accounting, which must count
// exactly the active nodes.
func activeStatsEqual(t *testing.T, label string, full, act *Stats, activeCount int) {
	t.Helper()
	if full.Rounds != act.Rounds || full.Messages != act.Messages ||
		full.Bits != act.Bits || full.MaxMessageBits != act.MaxMessageBits {
		t.Fatalf("%s: stats differ: full %v vs active %v", label, full, act)
	}
	if !reflect.DeepEqual(full.Profile, act.Profile) {
		t.Fatalf("%s: per-round profiles differ:\nfull %+v\nact  %+v", label, full.Profile, act.Profile)
	}
	if full.PipelinedRounds(16) != act.PipelinedRounds(16) {
		t.Fatalf("%s: pipelined round estimates differ", label)
	}
	// Honest accounting: the active run stepped activeCount nodes per
	// round (regionalRounds barriers plus the final return segment) and
	// only they used the oracle (barriers with r%3 == 2).
	oracleRounds := 0
	for r := 0; r < regionalRounds; r++ {
		if r%3 == 2 {
			oracleRounds++
		}
	}
	if want := int64(activeCount) * int64(regionalRounds+1); act.NodeRounds != want {
		t.Fatalf("%s: active NodeRounds = %d, want %d", label, act.NodeRounds, want)
	}
	if want := int64(activeCount) * int64(oracleRounds); act.OracleCalls != want {
		t.Fatalf("%s: active OracleCalls = %d, want %d", label, act.OracleCalls, want)
	}
}

// TestActiveConformance is the cross-backend active-set conformance
// suite: every (topology × active set × worker count × backend) cell
// compares the full-sweep observer run against one-shot Config.ActiveSet
// and Runner.SetActive executions.
func TestActiveConformance(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":  gen.Gnp(rng.New(41), 24, 0.18),
		"path": gen.Path(17),
		"star": gen.Star(12),
		"ring": ring(16),
	}
	for name, g := range tops {
		n := g.N()
		sets := map[string][]int32{
			"sparse": {1, 2, 3},                                     // list sweep
			"dense":  make([]int32, 0, n),                           // mask sweep
			"one":    {int32(n - 1)},                                // singleton, reporter ≠ 0
			"spread": {0, int32(n / 2), int32(n - 2), int32(n - 1)}, // crosses chunks
		}
		for v := 0; v < n; v += 2 {
			sets["dense"] = append(sets["dense"], int32(v))
		}
		for sname, ids := range sets {
			part := maskOf(n, ids)
			for _, workers := range []int{1, 2, 3} {
				label := name + "/" + sname
				fullOut := make([]uint64, n)
				fullSt := Run(g, Config{Seed: 5, Workers: workers, Profile: true},
					regionalBlocking(part, fullOut))

				// Coroutine backend, one-shot Config.ActiveSet.
				actOut := make([]uint64, n)
				actSt := Run(g, Config{Seed: 5, Workers: workers, Profile: true, ActiveSet: ids},
					regionalBlocking(part, actOut))
				activeStatsEqual(t, label+"/coro", fullSt, actSt, len(ids))
				if !reflect.DeepEqual(fullOut, actOut) {
					t.Fatalf("%s/coro workers=%d: outputs differ\nfull %v\nact  %v", label, workers, fullOut, actOut)
				}

				// Flat backend, one-shot.
				flatFull := make([]uint64, n)
				ffSt := RunFlat(g, Config{Seed: 5, Workers: workers, Profile: true},
					func(*Node) RoundProgram { return &regionalFlat{part: part, out: flatFull} })
				activeStatsEqual(t, label+"/flat-vs-coro", fullSt, ffSt, n) // full flat: NodeRounds over all n
				if !reflect.DeepEqual(fullOut, flatFull) {
					t.Fatalf("%s: flat full-sweep output diverges from coroutine", label)
				}
				flatAct := make([]uint64, n)
				faSt := RunFlat(g, Config{Seed: 5, Workers: workers, Profile: true, ActiveSet: ids},
					func(*Node) RoundProgram { return &regionalFlat{part: part, out: flatAct} })
				activeStatsEqual(t, label+"/flat", ffSt, faSt, len(ids))
				if !reflect.DeepEqual(fullOut, flatAct) {
					t.Fatalf("%s/flat workers=%d: outputs differ", label, workers)
				}

				// Runner path: SetActive, then ClearActive back to full —
				// both directions of the restriction on one warm engine.
				rn := NewRunner(g, Config{Workers: workers, Profile: true})
				rn.SetActive(ids)
				runnerOut := make([]uint64, n)
				rSt := rn.RunFlat(5, func(*Node) RoundProgram { return &regionalFlat{part: part, out: runnerOut} })
				activeStatsEqual(t, label+"/runner", fullSt, rSt, len(ids))
				if !reflect.DeepEqual(fullOut, runnerOut) {
					t.Fatalf("%s/runner: outputs differ", label)
				}
				rn.ClearActive()
				clearOut := make([]uint64, n)
				cSt := rn.RunFlat(5, func(*Node) RoundProgram { return &regionalFlat{part: part, out: clearOut} })
				activeStatsEqual(t, label+"/runner-clear", fullSt, cSt, n)
				if !reflect.DeepEqual(fullOut, clearOut) {
					t.Fatalf("%s/runner-clear: outputs differ", label)
				}
				rn.Close()
			}
		}
	}
}

// TestActiveInactiveNodesUntouched is the engine-invariant property test:
// across both backends and both sweep forms, an inactive node executes no
// program segment, sends and receives nothing, and its RNG stream does
// not advance. Any silent full sweep — a backend stepping everyone, a
// reset touching every stream — fails here.
func TestActiveInactiveNodesUntouched(t *testing.T) {
	g := gen.Gnp(rng.New(9), 20, 0.25)
	n := g.N()
	for _, tc := range []struct {
		name string
		ids  []int32
	}{
		{"sparse", []int32{2, 5, 7}},
		{"dense", []int32{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}},
	} {
		part := maskOf(n, tc.ids)
		rn := NewRunner(g, Config{Workers: 2})
		rn.SetActive(tc.ids)

		// Snapshot every RNG stream before the run (white-box: the
		// engine's per-node streams).
		before := make([]rng.Rand, n)
		copy(before, rn.e.rnds)

		started := make([]bool, n)
		received := make([][]int, n)
		rn.RunFlat(3, func(nd *Node) RoundProgram {
			started[nd.ID()] = true
			return &regionalFlat{part: part, out: make([]uint64, n)}
		})
		// Also record who delivered to whom via a second, logging run.
		rn.RunFlat(4, func(nd *Node) RoundProgram {
			return asLogger(part, received)
		})

		for v := 0; v < n; v++ {
			if part[v] {
				if !started[v] {
					t.Fatalf("%s: active node %d never started", tc.name, v)
				}
				for _, from := range received[v] {
					if !part[from] {
						t.Fatalf("%s: active node %d received from inactive %d", tc.name, v, from)
					}
				}
				continue
			}
			if started[v] {
				t.Fatalf("%s: inactive node %d was started", tc.name, v)
			}
			if len(received[v]) != 0 {
				t.Fatalf("%s: inactive node %d collected %d messages", tc.name, v, len(received[v]))
			}
			if rn.e.rnds[v] != before[v] {
				t.Fatalf("%s: inactive node %d's RNG stream advanced", tc.name, v)
			}
		}
		// Coroutine path too: inactive streams must survive a blocking run.
		copy(before, rn.e.rnds)
		rn.Run(5, regionalBlocking(part, make([]uint64, n)))
		for v := 0; v < n; v++ {
			if !part[v] && rn.e.rnds[v] != before[v] {
				t.Fatalf("%s/coro: inactive node %d's RNG stream advanced", tc.name, v)
			}
		}
		rn.Close()
	}
}

// loggerProg records the sender of every delivered message for two
// rounds: round 0 everyone sends its id everywhere, round 1 collects.
type loggerProg struct {
	part     []bool
	received [][]int
	r        int
}

func asLogger(part []bool, received [][]int) RoundProgram {
	return &loggerProg{part: part, received: received}
}

func (m *loggerProg) Init(nd *Node) bool {
	m.received[nd.ID()] = m.received[nd.ID()][:0]
	nd.SendAll(tval(nd.ID()))
	return true
}

func (m *loggerProg) OnRound(nd *Node, in []Incoming) bool {
	for _, d := range in {
		m.received[nd.ID()] = append(m.received[nd.ID()], int(uint64(d.Msg.(tval))))
	}
	return false
}

// poisonProg leaves undelivered traffic behind: it sends a marker in its
// final segment (never collected by anyone) and returns without a
// barrier.
type poisonProg struct{}

func (poisonProg) Init(nd *Node) bool {
	nd.SendAll(tval(0xDEAD))
	return false
}

func (poisonProg) OnRound(*Node, []Incoming) bool { return false }

// TestActiveRunnerMailboxShrinkGrow pins dist.Runner's mailbox state
// across changing active sets — the double-buffer-reuse path. Poison
// traffic parked in inactive nodes' slots by one run (final-segment
// sends, aborted runs) must never surface when a later run re-activates
// those nodes, across shrink → grow → full → shrink cycles spanning both
// sweep forms.
func TestActiveRunnerMailboxShrinkGrow(t *testing.T) {
	g := gen.Path(8) // 0-1-2-...-7
	n := g.N()
	rn := NewRunner(g, Config{})
	defer rn.Close()
	received := make([][]int, n)

	checkClean := func(step string, ids []int32) {
		t.Helper()
		rn.SetActive(ids)
		part := maskOf(n, ids)
		rn.RunFlat(7, func(nd *Node) RoundProgram { return asLogger(part, received) })
		for _, v := range ids {
			for _, from := range received[v] {
				if from == 0xDEAD {
					t.Fatalf("%s: node %d collected poison from a previous run", step, v)
				}
				if !part[from] {
					t.Fatalf("%s: node %d heard inactive node %d", step, v, from)
				}
			}
		}
	}

	// 1. A tiny run leaves poison in the neighbors' (inactive) slots.
	rn.SetActive([]int32{3})
	rn.RunFlat(1, func(*Node) RoundProgram { return poisonProg{} })
	// 2. Grow across the poisoned slots (sparse form).
	checkClean("grow-sparse", []int32{2, 3, 4})
	// 3. Poison again, then grow past the density cutover (mask form).
	rn.SetActive([]int32{1})
	rn.RunFlat(2, func(*Node) RoundProgram { return poisonProg{} })
	checkClean("grow-dense", []int32{0, 1, 2, 3, 4, 5})
	// 4. Full sweep dirties everything; shrinking back must clear it.
	// (The abort path of the cycle is TestActiveAbortedRunLeavesRunnerClean.)
	rn.ClearActive()
	rn.RunFlat(3, func(*Node) RoundProgram { return poisonProg{} })
	checkClean("full-then-shrink", []int32{6, 7})
	// 5. And back to a full sweep: the regional runs must not have
	// corrupted anyone.
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	checkCleanFull := func() {
		t.Helper()
		rn.ClearActive()
		partAll := maskOf(n, all)
		rn.RunFlat(9, func(nd *Node) RoundProgram { return asLogger(partAll, received) })
		for v := 0; v < n; v++ {
			for _, from := range received[v] {
				if from == 0xDEAD {
					t.Fatalf("full: node %d collected poison", v)
				}
			}
			want := 0
			if v > 0 {
				want++
			}
			if v < n-1 {
				want++
			}
			if len(received[v]) != want {
				t.Fatalf("full: node %d got %d messages, want %d", v, len(received[v]), want)
			}
		}
	}
	checkCleanFull()
}

// TestActiveAbortedRunLeavesRunnerClean covers the abort path of the
// shrink/grow cycle: a MaxRounds panic strands messages in both buffers;
// the next run — over a different active set that includes previously
// inactive nodes — must not see them, and the Runner stays reusable.
func TestActiveAbortedRunLeavesRunnerClean(t *testing.T) {
	g := gen.Path(8)
	n := g.N()
	rn := NewRunner(g, Config{MaxRounds: 2})
	defer rn.Close()

	rn.SetActive([]int32{2, 3, 4})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected MaxRounds panic")
			}
		}()
		rn.RunFlat(1, func(*Node) RoundProgram { return &endlessPoison{} })
	}()

	received := make([][]int, n)
	ids := []int32{1, 2, 3, 4, 5}
	part := maskOf(n, ids)
	rn.SetActive(ids)
	rn.RunFlat(2, func(nd *Node) RoundProgram { return asLogger(part, received) })
	for _, v := range ids {
		for _, from := range received[v] {
			if from == 0xDEAD || !part[from] {
				t.Fatalf("node %d heard stale/inactive sender %d after abort", v, from)
			}
		}
	}
}

// endlessPoison floods poison every round forever (MaxRounds kills it).
type endlessPoison struct{}

func (endlessPoison) Init(nd *Node) bool { nd.SendAll(tval(0xDEAD)); return true }
func (endlessPoison) OnRound(nd *Node, in []Incoming) bool {
	nd.SendAll(tval(0xDEAD))
	return true
}

// TestActiveExpandByHops checks the frontier-growth primitive against
// hand-computed balls, including live-edge masks and incremental
// activation.
func TestActiveExpandByHops(t *testing.T) {
	g := gen.Path(10) // 0-1-...-9
	rn := NewRunner(g, Config{})
	defer rn.Close()

	rn.SetActive([]int32{0})
	if got := rn.ExpandByHops(3); got != 4 {
		t.Fatalf("ExpandByHops(3) from {0} on a path = %d nodes, want 4", got)
	}
	for v := 0; v < 10; v++ {
		if want := v <= 3; rn.NodeActive(v) != want {
			t.Fatalf("node %d active = %v, want %v", v, rn.NodeActive(v), want)
		}
	}
	// A dead edge stops the frontier.
	rn.SetEdgeLive(g.EdgeBetween(2, 3), false)
	rn.SetActive([]int32{0})
	if got := rn.ExpandByHops(5); got != 3 {
		t.Fatalf("ExpandByHops over a dead edge = %d nodes, want 3 ({0,1,2})", got)
	}
	// Incremental activation seeds a new frontier; expanding again grows
	// the ball around the whole current set.
	rn.ActivateNode(7)
	if got := rn.ExpandByHops(1); got != 6 {
		t.Fatalf("after ActivateNode(7)+ExpandByHops(1): %d nodes, want 6", got)
	}
	if !rn.NodeActive(6) || !rn.NodeActive(8) {
		t.Fatal("hop from node 7 missing a neighbor")
	}
	rn.ResetTopology()
	// Without an active set every node is active and expansion is a no-op.
	rn.ClearActive()
	if got := rn.ExpandByHops(2); got != 10 {
		t.Fatalf("ExpandByHops with all active = %d, want n", got)
	}
	if rn.ActivateNode(3) {
		t.Fatal("ActivateNode reported an addition with every node active")
	}
	if rn.ActiveNodes() != nil || rn.ActiveMask() != nil {
		t.Fatal("all-active views should be nil")
	}
}

// TestActiveEmptyAndReporter: an empty active set runs no nodes and
// costs nothing; Reporter designates the lowest active id on every
// sweep form.
func TestActiveEmptyAndReporter(t *testing.T) {
	g := ring(12)
	st := RunFlat(g, Config{ActiveSet: []int32{}}, func(*Node) RoundProgram {
		t.Fatal("factory called with an empty active set")
		return nil
	})
	if st.Rounds != 0 || st.Messages != 0 || st.NodeRounds != 0 {
		t.Fatalf("empty active set ran work: %v", st)
	}

	rn := NewRunner(g, Config{})
	defer rn.Close()
	for _, ids := range [][]int32{{7, 3, 9}, {4, 0, 2, 6, 8, 10}} {
		rn.SetActive(ids)
		min := ids[0]
		for _, v := range ids {
			if v < min {
				min = v
			}
		}
		var got []int
		rn.Run(1, func(nd *Node) {
			if nd.Reporter() {
				got = append(got, nd.ID())
			}
		})
		if len(got) != 1 || int32(got[0]) != min {
			t.Fatalf("reporter for %v = %v, want [%d]", ids, got, min)
		}
	}
	rn.ClearActive()
	var got []int
	rn.Run(1, func(nd *Node) {
		if nd.Reporter() {
			got = append(got, nd.ID())
		}
	})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("full-sweep reporter = %v, want [0]", got)
	}
}

// TestActivePanicTransport: a panic inside an active node's program
// aborts the run, re-panics in the caller, and leaves the Runner
// reusable with a different active set — on both backends.
func TestActivePanicTransport(t *testing.T) {
	g := ring(10)
	rn := NewRunner(g, Config{})
	defer rn.Close()
	rn.SetActive([]int32{4, 5, 6})

	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected the node panic to propagate")
			}
		}()
		f()
	}
	mustPanic(func() {
		rn.RunFlat(1, func(*Node) RoundProgram { return panicOnInit{} })
	})
	mustPanic(func() {
		rn.Run(1, func(nd *Node) {
			if nd.ID() == 5 {
				panic("boom")
			}
			nd.Step()
		})
	})
	// The Runner is still healthy under a new active set.
	rn.SetActive([]int32{0, 1})
	st := rn.RunFlat(2, func(*Node) RoundProgram { return poisonProg{} })
	if st.Messages != 4 {
		t.Fatalf("post-panic run sent %d messages, want 4", st.Messages)
	}
}

type panicOnInit struct{}

func (panicOnInit) Init(nd *Node) bool {
	if nd.ID() == 5 {
		panic("boom")
	}
	return false
}
func (panicOnInit) OnRound(*Node, []Incoming) bool { return false }

// TestActiveCloseAfterClearActive: closing a Runner after ClearActive
// must not consult the last run's sweep plan, whichever form it took —
// a dense (mask) plan used to dereference the cleared active set. Both
// sweep forms, both backends, and a replaced active set before Close.
func TestActiveCloseAfterClearActive(t *testing.T) {
	g := ring(16)
	n := g.N()
	dense := make([]int32, 0, n/2)
	for v := 0; v < n; v += 2 {
		dense = append(dense, int32(v))
	}
	for _, form := range []struct {
		name string
		ids  []int32
	}{{"list", []int32{5}}, {"mask", dense}} {
		for _, flat := range []bool{true, false} {
			for _, then := range []string{"clear", "replace"} {
				rn := NewRunner(g, Config{})
				rn.SetActive(form.ids)
				if flat {
					rn.RunFlat(1, func(*Node) RoundProgram { return oneRound{} })
				} else {
					rn.Run(1, func(nd *Node) { nd.SendAll(tval(1)); nd.Step() })
				}
				if then == "clear" {
					rn.ClearActive()
				} else {
					rn.SetActive([]int32{1})
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s form, flat=%v, %s: Close panicked: %v", form.name, flat, then, r)
						}
					}()
					rn.Close()
				}()
			}
		}
	}
}

// oneRound sends once to every neighbor and finishes on delivery.
type oneRound struct{}

func (oneRound) Init(nd *Node) bool                   { nd.SendAll(tval(1)); return true }
func (oneRound) OnRound(nd *Node, in []Incoming) bool { return false }
