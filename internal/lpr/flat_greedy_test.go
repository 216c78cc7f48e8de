package lpr

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// TestFlatGreedyMatchesCoroutine is the flat-vs-reference equivalence proof for
// LocalGreedy, including its Θ(n)-round pathology: same seed ⇒
// bit-identical matching and identical Stats across topologies,
// termination modes and worker counts.
func TestFlatGreedyMatchesCoroutine(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnm-uniform": gen.UniformWeights(rng.New(41), gen.Gnm(rng.New(42), 120, 400), 1, 100),
		"chain":       gen.AdversarialChain(80), // the E7 serialization pathology
		"star":        gen.UniformWeights(rng.New(43), gen.Star(40), 1, 10),
		"unit":        gen.Cycle(48),
		"edgeless":    graph.NewBuilder(4).MustBuild(),
	}
	for name, g := range tops {
		for _, mode := range []struct {
			label    string
			maxIters int
			oracle   bool
		}{
			{"oracle", 0, true},
			{"budget", 12, false},
			{"budget0", 0, false}, // zero iterations: no rounds at all
		} {
			label := name + "/" + mode.label
			cm, cst := localGreedyCoroutine(g,
				dist.Config{Seed: 19, Profile: true}, mode.maxIters, mode.oracle)
			for _, workers := range []int{1, 3, 8} {
				fm, fst := LocalGreedyWithConfig(g,
					dist.Config{Seed: 19, Profile: true, Workers: workers}, mode.maxIters, mode.oracle)
				if !reflect.DeepEqual(cm.Edges(g), fm.Edges(g)) {
					t.Fatalf("%s: matchings differ: %v vs %v", label, cm.Edges(g), fm.Edges(g))
				}
				statsEqual(t, label, cst, fst)
			}
		}
	}
}

// TestFlatGreedyHalfApprox re-checks the ½-approximation of a converged
// flat run in its own right.
func TestFlatGreedyHalfApprox(t *testing.T) {
	g := gen.UniformWeights(rng.New(44), gen.Gnm(rng.New(45), 80, 240), 1, 50)
	m, _ := LocalGreedyWithConfig(g, dist.Config{Seed: 7}, 0, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Run to convergence LocalGreedy is maximal on positive edges: no
	// positive edge may have both endpoints free.
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if g.Weight(e) > 0 && m.Free(u) && m.Free(v) {
			t.Fatalf("edge %d (%d,%d) has both endpoints free", e, u, v)
		}
	}
}
