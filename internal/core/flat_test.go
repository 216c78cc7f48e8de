package core

// Flat-vs-reference equivalence proofs for the flat ports of Algorithms 3-5:
// same seed ⇒ bit-identical matching and identical Stats (rounds,
// messages, bits, peak width, oracle calls, per-round profile) on random
// and pathological topologies, both termination modes, several worker
// counts. Any divergence is a transliteration bug in flat*.go.

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

func statsEqual(t *testing.T, label string, coro, flat *dist.Stats) {
	t.Helper()
	if coro.Rounds != flat.Rounds || coro.Messages != flat.Messages ||
		coro.Bits != flat.Bits || coro.MaxMessageBits != flat.MaxMessageBits ||
		coro.OracleCalls != flat.OracleCalls {
		t.Fatalf("%s: stats differ: coro %v vs flat %v", label, coro, flat)
	}
	if !reflect.DeepEqual(coro.Profile, flat.Profile) {
		t.Fatalf("%s: per-round profiles differ", label)
	}
}

func matchingsEqual(t *testing.T, label string, g *graph.Graph, coro, flat *graph.Matching) {
	t.Helper()
	if !reflect.DeepEqual(coro.Edges(g), flat.Edges(g)) {
		t.Fatalf("%s: matchings differ: %v vs %v", label, coro.Edges(g), flat.Edges(g))
	}
}

func modeLabel(name string, oracle bool) string {
	if oracle {
		return name + "/oracle"
	}
	return name + "/budget"
}

// TestFlatMatchesCoroutineBipartite is the flat-vs-reference equivalence proof for
// Algorithm 3 (Theorem 3.8).
func TestFlatMatchesCoroutineBipartite(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.BipartiteGnp(rng.New(31), 40, 36, 0.12),
		"dense":    gen.BipartiteGnp(rng.New(32), 14, 14, 0.5),
		"path":     gen.Path(41), // long augmenting chains
		"star":     gen.Star(24),
		"cycle":    gen.Cycle(32),
		"edgeless": graph.NewBuilder(5).MustBuild(),
	}
	for name, g := range tops {
		for _, k := range []int{1, 3} {
			for _, oracle := range []bool{true, false} {
				label := modeLabel(name, oracle)
				cm, cst := bipartiteMCMCoroutine(g, k,
					dist.Config{Seed: 97, Profile: true}, oracle)
				for _, workers := range []int{1, 3, 8} {
					fm, fst := BipartiteMCMWithConfig(g, k,
						dist.Config{Seed: 97, Profile: true, Workers: workers}, oracle)
					matchingsEqual(t, label, g, cm, fm)
					statsEqual(t, label, cst, fst)
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineGeneral is the flat-vs-reference equivalence proof for
// Algorithm 4 (Theorem 3.11), across idle-stop settings.
func TestFlatMatchesCoroutineGeneral(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.Gnp(rng.New(33), 30, 0.2),
		"cycle":    gen.Cycle(21), // odd cycle: genuinely non-bipartite
		"edgeless": graph.NewBuilder(4).MustBuild(),
	}
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			for _, idle := range []int{0, 6} {
				opts := GeneralOptions{Iters: 30, IdleStop: idle, Oracle: oracle}
				label := modeLabel(name, oracle)
				cm, cst := generalMCMCoroutine(g, 3,
					dist.Config{Seed: 55, Profile: true}, opts)
				for _, workers := range []int{1, 4} {
					fm, fst := GeneralMCMWithConfig(g, 3,
						dist.Config{Seed: 55, Profile: true, Workers: workers}, opts)
					matchingsEqual(t, label, g, cm, fm)
					statsEqual(t, label, cst, fst)
				}
			}
		}
	}
}

// TestFlatMatchesCoroutineWeighted is the flat-vs-reference equivalence proof for
// Algorithm 5 (Theorem 4.5), per-iteration trace snapshots included.
func TestFlatMatchesCoroutineWeighted(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnm-uniform": gen.UniformWeights(rng.New(61), gen.Gnm(rng.New(62), 48, 140), 1, 100),
		"gnm-exp":     gen.ExpWeights(rng.New(63), gen.Gnm(rng.New(64), 32, 90), 10),
		"chain":       gen.AdversarialChain(24),
		"unit":        gen.Cycle(20),
		"edgeless":    graph.NewBuilder(3).MustBuild(),
	}
	eps := 0.25
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			label := modeLabel(name, oracle)
			ctrace := make([]*graph.Matching, WeightedIters(eps)+1)
			cm, cst := weightedMWMCoroutine(g,
				dist.Config{Seed: 77, Profile: true}, eps, oracle, ctrace)
			for _, workers := range []int{1, 5} {
				ftrace := make([]*graph.Matching, WeightedIters(eps)+1)
				fm, fst := WeightedMWMWithConfig(g,
					dist.Config{Seed: 77, Profile: true, Workers: workers}, eps, oracle, ftrace)
				matchingsEqual(t, label, g, cm, fm)
				statsEqual(t, label, cst, fst)
				for i := range ctrace {
					matchingsEqual(t, label+"/trace", g, ctrace[i], ftrace[i])
				}
			}
		}
	}
}

// TestFlatBipartiteGuarantee re-checks the Theorem 3.8 guarantee on a
// flat run in its own right (not just equality with the coroutine run).
func TestFlatBipartiteGuarantee(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(35), 60, 60, 0.08)
	k := 3
	m, _ := BipartiteMCMWithConfig(g, k, dist.Config{Seed: 9}, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Maximality up to length 2k−1: no short augmenting path survives.
	if got := CountLeadersProbe(g, m, 2*k-1); got {
		t.Fatal("flat run left an augmenting path of length <= 2k-1")
	}
}

// CountLeadersProbe runs the counting BFS on a fixed matching and reports
// whether any leader (endpoint of an augmenting path of length ≤ ell)
// exists.
func CountLeadersProbe(g *graph.Graph, m *graph.Matching, ell int) bool {
	counts, _ := CountPaths(g, m, ell)
	for v := 0; v < g.N(); v++ {
		if g.Side(v) == 1 && m.Free(v) && counts[v] > 0 {
			return true
		}
	}
	return false
}
