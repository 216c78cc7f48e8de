package check

// Flat-vs-reference equivalence for the verification protocol: the flat form every
// entry point runs (flat.go) must be bit-identical — report, rounds,
// messages, bits, peak width, oracle calls, per-round profile — to the
// blocking reference form (program in check.go), on valid, broken and
// improvable matchings, with and without a live-edge mask.

import (
	"reflect"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
	"distmatch/internal/rng"
)

func runBoth(t *testing.T, label string, g *graph.Graph, matchedEdge []int32, probeLen int) Report {
	t.Helper()
	blockRep := Report{ShortestAug: -2}
	blockSt := dist.Run(g, dist.Config{Seed: 11, Profile: true}, program(matchedEdge, probeLen, &blockRep))
	flatRep := Report{ShortestAug: -2}
	flatSt := dist.RunFlat(g, dist.Config{Seed: 11, Profile: true}, flatProgram(matchedEdge, probeLen, &flatRep))
	if blockRep != flatRep {
		t.Fatalf("%s: reports differ: blocking %+v vs flat %+v", label, blockRep, flatRep)
	}
	if blockSt.Rounds != flatSt.Rounds || blockSt.Messages != flatSt.Messages ||
		blockSt.Bits != flatSt.Bits || blockSt.MaxMessageBits != flatSt.MaxMessageBits ||
		blockSt.OracleCalls != flatSt.OracleCalls || blockSt.NodeRounds != flatSt.NodeRounds {
		t.Fatalf("%s: stats differ: blocking %v vs flat %v", label, blockSt, flatSt)
	}
	if !reflect.DeepEqual(blockSt.Profile, flatSt.Profile) {
		t.Fatalf("%s: per-round profiles differ", label)
	}
	return flatRep
}

func TestFlatMatchesBlocking(t *testing.T) {
	for _, probe := range []int{0, 3, 5} {
		// A maximal matching from Israeli–Itai on a bipartite graph.
		g := gen.BipartiteGnp(rng.New(5), 14, 12, 0.25)
		m, _ := israeliitai.Run(g, 3, true)
		me := make([]int32, g.N())
		for v := range me {
			me[v] = int32(m.MatchedEdge(v))
		}
		rep := runBoth(t, "maximal", g, me, probe)
		if !rep.Valid || !rep.Maximal {
			t.Fatalf("probe=%d: maximal matching rejected: %+v", probe, rep)
		}

		// An empty matching on the same graph: invalid it is not, maximal
		// it is not (if any edge exists), and every augmenting path has
		// length 1.
		empty := make([]int32, g.N())
		for v := range empty {
			empty[v] = -1
		}
		rep = runBoth(t, "empty", g, empty, probe)
		if g.M() > 0 && (rep.Maximal || (probe > 0 && rep.ShortestAug != 1)) {
			t.Fatalf("probe=%d: empty matching misjudged: %+v", probe, rep)
		}

		// A deliberately asymmetric assignment must be flagged invalid by
		// both forms identically.
		bad := make([]int32, g.N())
		for v := range bad {
			bad[v] = -1
		}
		if g.M() > 0 {
			x, _ := g.Endpoints(0)
			bad[x] = 0 // one endpoint claims edge 0, the other doesn't
			rep = runBoth(t, "asymmetric", g, bad, probe)
			if rep.Valid {
				t.Fatalf("probe=%d: asymmetric assignment accepted", probe)
			}
		}

		// Non-bipartite: the Berge probe is skipped by both forms.
		ng := gen.Cycle(9)
		none := make([]int32, ng.N())
		for v := range none {
			none[v] = -1
		}
		rep = runBoth(t, "nonbipartite", ng, none, probe)
		if rep.ShortestAug != -2 {
			t.Fatalf("probe=%d: Berge probe ran on a non-bipartite graph", probe)
		}
	}
}

// TestFlatMatchesBlockingOnRunner pins the equivalence on the
// mutable-topology path the Maintainer audits through: a Runner with a
// live-edge mask, both forms, including a dead matched edge (which
// must be reported invalid).
func TestFlatMatchesBlockingOnRunner(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(9), 10, 10, 0.3)
	if g.M() < 4 {
		t.Skip("degenerate random graph")
	}
	me := make([]int32, g.N())
	for v := range me {
		me[v] = -1
	}
	x, y := g.Endpoints(1)
	me[x], me[y] = 1, 1

	for _, deadMatched := range []bool{false, true} {
		r := dist.NewRunner(g, dist.Config{Profile: true})
		r.SetEdgeLive(0, false)
		if deadMatched {
			r.SetEdgeLive(1, false)
		}
		blockRep := Report{ShortestAug: -2}
		blockSt := r.Run(21, program(me, 3, &blockRep))
		flatRep := Report{ShortestAug: -2}
		flatSt := r.RunFlat(21, flatProgram(me, 3, &flatRep))
		if blockRep != flatRep {
			t.Fatalf("deadMatched=%v: reports differ: %+v vs %+v", deadMatched, blockRep, flatRep)
		}
		if blockSt.Rounds != flatSt.Rounds || blockSt.Messages != flatSt.Messages || blockSt.Bits != flatSt.Bits {
			t.Fatalf("deadMatched=%v: stats differ: %v vs %v", deadMatched, blockSt, flatSt)
		}
		if !reflect.DeepEqual(blockSt.Profile, flatSt.Profile) {
			t.Fatalf("deadMatched=%v: profiles differ", deadMatched)
		}
		if flatRep.Valid != !deadMatched {
			t.Fatalf("deadMatched=%v: Valid=%v", deadMatched, flatRep.Valid)
		}
		r.Close()
	}
}
