package mis

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

// TestFlatMatchesCoroutine is the flat-vs-reference equivalence proof for Luby's
// MIS: same seed ⇒ identical membership vector and identical Stats on
// random and pathological topologies, both termination modes, several
// worker counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	tops := map[string]*graph.Graph{
		"gnp":         gen.Gnp(rng.New(51), 150, 0.04),
		"star":        gen.Star(80),
		"complete":    gen.Complete(20),
		"cycle":       gen.Cycle(101),
		"tree":        gen.RandomTree(rng.New(52), 120),
		"edgeless":    graph.NewBuilder(6).MustBuild(),
		"single-node": graph.NewBuilder(1).MustBuild(),
	}
	for name, g := range tops {
		for _, oracle := range []bool{true, false} {
			cm, cst := runCoroutine(g, dist.Config{Seed: 77, Profile: true}, oracle)
			for _, workers := range []int{1, 3, 8} {
				fm, fst := RunWithConfig(g, dist.Config{Seed: 77, Profile: true, Workers: workers}, oracle)
				label := name
				if oracle {
					label += "/oracle"
				} else {
					label += "/budget"
				}
				if !reflect.DeepEqual(cm, fm) {
					t.Fatalf("%s: membership vectors differ", label)
				}
				statsEqual(t, label, cst, fst)
			}
		}
	}
}

// TestFlatIsMaximal double-checks the flat result is a valid MIS in its
// own right (not just equal to the coroutine one).
func TestFlatIsMaximal(t *testing.T) {
	g := gen.Gnp(rng.New(61), 200, 0.05)
	member, _ := RunWithConfig(g, dist.Config{Seed: 9}, true)
	if msg := Verify(g, member); msg != "" {
		t.Fatalf("flat MIS invalid: %s", msg)
	}
}
