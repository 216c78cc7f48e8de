package core

// Flat-vs-reference equivalence proof for the LOCAL-model generic algorithm
// (flat_generic.go): same seed ⇒ bit-identical matching and identical
// Stats — including the Θ(|V|+|E|)-bit message accounting of the flooded
// neighborhood tables — across topologies, termination modes and worker
// counts. Any divergence is a transliteration bug in flat_generic.go or
// generic.go.

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

func TestFlatMatchesCoroutineGeneric(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":      gen.Gnp(rng.New(71), 12, 0.3),
		"cycle":    gen.Cycle(9), // odd cycle: genuinely non-bipartite
		"path":     gen.Path(10),
		"edgeless": graph.NewBuilder(3).MustBuild(),
	}
	eps := 0.5 // k = 2: phases ℓ = 1, 3 with flood radius 6
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			label := modeLabel(name, oracle)
			cm, cst := genericMCMCoroutine(g, eps,
				dist.Config{Seed: 13, Profile: true}, oracle)
			for _, workers := range []int{1, 3} {
				fm, fst := GenericMCMWithConfig(g, eps,
					dist.Config{Seed: 13, Profile: true, Workers: workers}, oracle)
				matchingsEqual(t, label, g, cm, fm)
				statsEqual(t, label, cst, fst)
			}
		}
	}
	// The flat default must also uphold the Theorem 3.1 guarantee in its
	// own right: a valid matching with no augmenting path of length ≤ 3.
	g := gen.Gnp(rng.New(73), 14, 0.25)
	m, _ := GenericMCM(g, eps, 5, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
}
