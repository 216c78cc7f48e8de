package israeliitai

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// diffTopologies is the differential test bed: random graphs plus the
// pathological shapes (star: one hot responder; complete: dense proposal
// storms; path/cycle: long sparse chains; lone edge and edgeless: trivia).
func diffTopologies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"gnp-sparse":  gen.Gnp(rng.New(11), 200, 2.0/199),
		"gnp-dense":   gen.Gnp(rng.New(12), 80, 0.3),
		"bipartite":   gen.BipartiteGnp(rng.New(13), 60, 60, 0.08),
		"star":        gen.Star(64),
		"complete":    gen.Complete(24),
		"path":        gen.Path(97),
		"cycle":       gen.Cycle(128),
		"tree":        gen.RandomTree(rng.New(14), 150),
		"lone-edge":   gen.Path(2),
		"edgeless":    graph.NewBuilder(5).MustBuild(),
		"single-node": graph.NewBuilder(1).MustBuild(),
	}
}

// statsEqual compares every externally observable Stats field, including
// the per-round profile and the pipelining re-costing (which exercises the
// private per-round max-bits record).
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
	if coro.PipelinedRounds(16) != flat.PipelinedRounds(16) {
		t.Fatalf("%s: pipelined round estimates differ", label)
	}
}

func matchingsEqual(t *testing.T, label string, g *graph.Graph, a, b *graph.Matching) {
	t.Helper()
	if !reflect.DeepEqual(a.Edges(g), b.Edges(g)) {
		t.Fatalf("%s: matchings differ: %v vs %v", label, a.Edges(g), b.Edges(g))
	}
}

// TestFlatMatchesCoroutine is the flat-vs-reference equivalence proof for
// Israeli–Itai: same seed ⇒ bit-identical matching and identical Stats on
// every topology, in both termination modes, at multiple worker counts.
func TestFlatMatchesCoroutine(t *testing.T) {
	for name, g := range diffTopologies(t) {
		for _, oracle := range []bool{true, false} {
			cfg := dist.Config{Seed: 99, Profile: true}
			cm, cst := runCoroutine(g, cfg, Budget(g.N()), oracle)
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := dist.Config{Seed: 99, Profile: true, Workers: workers}
				fm, fst := RunWithConfig(g, cfg, oracle)
				label := name
				if oracle {
					label += "/oracle"
				} else {
					label += "/budget"
				}
				matchingsEqual(t, label, g, cm, fm)
				statsEqual(t, label, cst, fst)
			}
		}
	}
}

// TestFlatRunBudgetMatches covers the truncated RunBudget variant (E12's
// substrate) including tiny budgets where many nodes stay free.
func TestFlatRunBudgetMatches(t *testing.T) {
	g := gen.RandomTree(rng.New(21), 300)
	for _, iters := range []int{1, 2, 5} {
		cm, cst := runCoroutine(g, dist.Config{Seed: 5}, iters, false)
		fm, fst := runFlat(g, dist.Config{Seed: 5, Workers: 3}, iters, false)
		matchingsEqual(t, "tree", g, cm, fm)
		statsEqual(t, "tree", cst, fst)
	}
}

// TestFlatDefaultBackend pins that the exported entry points are the flat
// form: Run is indistinguishable from a direct runFlat call.
func TestFlatDefaultBackend(t *testing.T) {
	g := gen.Gnp(rng.New(31), 120, 0.05)
	am, ast := Run(g, 17, true)
	fm, fst := runFlat(g, dist.Config{Seed: 17}, Budget(g.N()), true)
	matchingsEqual(t, "run-vs-flat", g, am, fm)
	statsEqual(t, "run-vs-flat", ast, fst)
}

// TestFlatDeterministicAcrossWorkers re-proves the engine determinism
// guarantee on the flat form with a real protocol.
func TestFlatDeterministicAcrossWorkers(t *testing.T) {
	g := gen.Gnp(rng.New(41), 257, 0.03)
	base, bst := RunWithConfig(g, dist.Config{Seed: 3, Workers: 1}, true)
	for _, workers := range []int{2, 5, 64} {
		m, st := RunWithConfig(g, dist.Config{Seed: 3, Workers: workers}, true)
		matchingsEqual(t, "workers", g, base, m)
		statsEqual(t, "workers", bst, st)
	}
}
