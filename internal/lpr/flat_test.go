package lpr

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

// TestFlatMatchesCoroutine is the flat-vs-reference equivalence proof for the
// weight-class (¼−ε)-MWM: same seed ⇒ bit-identical matching and
// identical Stats on random, adversarial-chain and degenerate topologies,
// both termination modes, several worker counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnm-uniform": gen.UniformWeights(rng.New(71), gen.Gnm(rng.New(72), 150, 500), 1, 100),
		"gnm-exp":     gen.ExpWeights(rng.New(73), gen.Gnm(rng.New(74), 100, 300), 10),
		"chain":       gen.AdversarialChain(60),
		"star":        gen.UniformWeights(rng.New(75), gen.Star(50), 1, 10),
		"unit":        gen.Cycle(64), // all weights 1: a single weight class
		"edgeless":    graph.NewBuilder(4).MustBuild(),
	}
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			cm, cst := runCoroutine(g, dist.Config{Seed: 88, Profile: true}, 0.1, oracle)
			for _, workers := range []int{1, 3, 8} {
				fm, fst := RunWithConfig(g, dist.Config{Seed: 88, Profile: true, Workers: workers}, 0.1, oracle)
				label := name
				if oracle {
					label += "/oracle"
				} else {
					label += "/budget"
				}
				if !reflect.DeepEqual(cm.Edges(g), fm.Edges(g)) {
					t.Fatalf("%s: matchings differ: %v vs %v", label, cm.Edges(g), fm.Edges(g))
				}
				statsEqual(t, label, cst, fst)
			}
		}
	}
}

// TestFlatGuaranteeHolds re-checks the approximation guarantee on a flat
// run in its own right.
func TestFlatGuaranteeHolds(t *testing.T) {
	g := gen.UniformWeights(rng.New(81), gen.Gnm(rng.New(82), 120, 360), 1, 50)
	m, _ := RunWithConfig(g, dist.Config{Seed: 4}, 0.05, true)
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	if m.Weight(g) <= 0 {
		t.Fatal("flat run produced an empty matching on a weighted graph")
	}
}
