package core

// Flat-vs-reference equivalence proofs for the strict CONGEST port
// (flat_strict.go): same seed ⇒ bit-identical matching and identical
// Stats — including the capacity-capped MaxMessageBits and the chunked
// per-round profile — on random and pathological topologies, both
// termination modes, several worker counts and capacities, and under
// crash-fault plans. Any divergence is a transliteration bug in
// flat_strict.go or bipartite_strict.go.

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// TestFlatMatchesCoroutineStrict is the flat-vs-reference equivalence proof for the
// Lemma 3.7 pipelining of Algorithm 3.
func TestFlatMatchesCoroutineStrict(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.BipartiteGnp(rng.New(41), 24, 22, 0.15),
		"path":     gen.Path(25), // long augmenting chains
		"star":     gen.Star(12),
		"edgeless": graph.NewBuilder(5).MustBuild(),
	}
	for name, g := range tops {
		for _, capacity := range []int{1, 3, 8} {
			for _, oracle := range []bool{true, false} {
				label := modeLabel(name, oracle)
				cm, cst := bipartiteMCMStrictCoroutine(g, 2,
					dist.Config{Seed: 19, Profile: true}, capacity, oracle)
				if cst.MaxMessageBits > capacity {
					t.Fatalf("%s/cap=%d: coroutine peak width %d exceeds capacity", label, capacity, cst.MaxMessageBits)
				}
				for _, workers := range []int{1, 3, 8} {
					fm, fst := BipartiteMCMStrictWithConfig(g, 2,
						dist.Config{Seed: 19, Profile: true, Workers: workers}, capacity, oracle)
					matchingsEqual(t, label, g, cm, fm)
					statsEqual(t, label, cst, fst)
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineGeneralStrict is the flat-vs-reference equivalence proof
// for Algorithm 4 with strict inner phases (Theorem 3.11's O(log n)-bit
// claim as an execution constraint).
func TestFlatMatchesCoroutineGeneralStrict(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":   gen.Gnp(rng.New(43), 18, 0.25),
		"cycle": gen.Cycle(15), // odd cycle: genuinely non-bipartite
	}
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			opts := GeneralOptions{Iters: 12, IdleStop: 6, Oracle: oracle, StrictCapacityBits: 6}
			label := modeLabel(name, oracle)
			cm, cst := generalMCMCoroutine(g, 3,
				dist.Config{Seed: 23, Profile: true}, opts)
			for _, workers := range []int{1, 4} {
				fm, fst := GeneralMCMWithConfig(g, 3,
					dist.Config{Seed: 23, Profile: true, Workers: workers}, opts)
				matchingsEqual(t, label, g, cm, fm)
				statsEqual(t, label, cst, fst)
			}
		}
	}
}

// TestFlatMatchesCoroutineStrictFaulted replays crash-fault plans against
// both forms of the strict phase pipeline: a crashed node goes silent,
// which the protocol tolerates (silence never trips the route-validation
// panics), and the two forms must stay bit-identical through it. The
// runs are driven at the engine level because a crashed node never writes
// its matched edge — the comparison is the raw per-node outcome array
// (crashed entries keep the -2 sentinel), not a collected Matching.
func TestFlatMatchesCoroutineStrictFaulted(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(47), 20, 20, 0.2)
	const k, capacity = 2, 5
	outcome := func(nd *dist.Node, st *MatchState, matched []int32) {
		matched[nd.ID()] = -1
		if st.MatchedPort >= 0 {
			matched[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		}
	}
	for _, planSeed := range []uint64{1, 2, 3} {
		plan := dist.RandomFaultPlan(planSeed, g.N(), g.M(), dist.FaultProfile{Rounds: 40, Crashes: 3})
		cmatched := make([]int32, g.N())
		for i := range cmatched {
			cmatched[i] = -2
		}
		cst := dist.Run(g, dist.Config{Seed: 29, Profile: true, Faults: plan}, func(nd *dist.Node) {
			st := &MatchState{MatchedPort: -1}
			runPhasesStrict(nd, st, nd.Side(), true, allPorts, k, true, capacity)
			outcome(nd, st, cmatched)
		})
		for _, workers := range []int{1, 6} {
			fmatched := make([]int32, g.N())
			for i := range fmatched {
				fmatched[i] = -2
			}
			fst := dist.RunFlat(g, dist.Config{Seed: 29, Profile: true, Faults: plan, Workers: workers},
				func(nd *dist.Node) dist.RoundProgram {
					env := &phaseEnv{
						st:          MatchState{MatchedPort: -1},
						side:        nd.Side(),
						participate: true,
						active:      allPorts,
					}
					m := &strictPhasesMachine{}
					m.reset(env, k, true, capacity)
					return dist.AsProgram(m, func(nd *dist.Node) { outcome(nd, &env.st, fmatched) })
				})
			if !reflect.DeepEqual(cmatched, fmatched) {
				t.Fatalf("plan %d: outcomes differ: %v vs %v", planSeed, cmatched, fmatched)
			}
			statsEqual(t, "faulted", cst, fst)
			if cst.CrashedNodes != fst.CrashedNodes || cst.SuppressedMessages != fst.SuppressedMessages {
				t.Fatalf("plan %d: fault accounting differs: coro %v vs flat %v", planSeed, cst, fst)
			}
		}
	}
}
