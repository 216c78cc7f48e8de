package core

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

func sameStats(t *testing.T, label string, got, want *dist.Stats) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Messages != want.Messages ||
		got.Bits != want.Bits || got.OracleCalls != want.OracleCalls ||
		got.MaxMessageBits != want.MaxMessageBits {
		t.Fatalf("%s: stats diverge: got %+v want %+v", label, got, want)
	}
}

func sameMatching(t *testing.T, label string, g *graph.Graph, got, want *graph.Matching) {
	t.Helper()
	ge, we := got.Edges(g), want.Edges(g)
	if len(ge) != len(we) {
		t.Fatalf("%s: size %d != %d", label, len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("%s: matchings differ: %v vs %v", label, ge, we)
		}
	}
}

func TestBipartiteMCMSeedsMatchesFresh(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(41), 24, 20, 0.15)
	seeds := []uint64{3, 17, 92, 12345}
	ms, sts := BipartiteMCMSeeds(g, 3, dist.Config{}, seeds, true)
	for i, seed := range seeds {
		wm, wst := BipartiteMCMWithConfig(g, 3, dist.Config{Seed: seed}, true)
		sameMatching(t, "seeds", g, ms[i], wm)
		sameStats(t, "seeds", sts[i], wst)
	}
}

func TestGeneralMCMSeedsMatchesFresh(t *testing.T) {
	g := gen.Gnp(rng.New(42), 24, 0.2)
	seeds := []uint64{5, 77, 3021}
	opts := GeneralOptions{Oracle: true, IdleStop: 10}
	ms, sts := GeneralMCMSeeds(g, 3, dist.Config{}, seeds, opts)
	for i, seed := range seeds {
		wm, wst := GeneralMCMWithConfig(g, 3, dist.Config{Seed: seed}, opts)
		sameMatching(t, "seeds", g, ms[i], wm)
		sameStats(t, "seeds", sts[i], wst)
	}
}

// TestRepairFullRegionMatchesMCM: a full-region repair from the empty
// matching on an unmasked runner is exactly BipartiteMCM — same phases,
// same draws, bit-identical output from the flat repair and from its
// blocking reference.
func TestRepairFullRegionMatchesMCM(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(43), 20, 20, 0.18)
	want, wst := BipartiteMCMWithConfig(g, 3, dist.Config{Seed: 9}, true)
	for name, repair := range map[string]func(*dist.Runner, uint64, []int32, []bool, RepairOptions) *dist.Stats{
		"flat":      RepairBipartite,
		"coroutine": repairBipartiteCoroutine,
	} {
		r := dist.NewRunner(g, dist.Config{})
		matchedEdge := make([]int32, g.N())
		for v := range matchedEdge {
			matchedEdge[v] = -1
		}
		st := repair(r, 9, matchedEdge, nil, RepairOptions{K: 3, Oracle: true})
		got := graph.CollectMatching(g, matchedEdge)
		sameMatching(t, name, g, got, want)
		sameStats(t, name, st, wst)
		r.Close()
	}
}

// TestRepairRegionFreezesBoundary: repair confined to a region leaves
// every out-of-region node's assignment untouched and produces a valid
// matching on the runner's live subgraph.
func TestRepairRegionFreezesBoundary(t *testing.T) {
	r0 := rng.New(44)
	for trial := 0; trial < 20; trial++ {
		g := gen.BipartiteGnp(r0.Fork(uint64(trial)), 12, 12, 0.25)
		if g.M() < 4 {
			continue
		}
		run := dist.NewRunner(g, dist.Config{})
		m, _ := BipartiteMCM(g, 2, uint64(trial), true)
		matchedEdge := make([]int32, g.N())
		for v := range matchedEdge {
			matchedEdge[v] = int32(m.MatchedEdge(v))
		}
		// Delete one matched edge (if any): unmatch and mask it.
		var region []bool
		if me := m.Edges(g); len(me) > 0 {
			e := me[trial%len(me)]
			u, v := g.Endpoints(e)
			matchedEdge[u], matchedEdge[v] = -1, -1
			run.SetEdgeLive(e, false)
			// Region: 4-hop ball around the endpoints, closed under mates.
			region = ball(g, []int{u, v}, 4, run)
			for w := range region {
				if region[w] && matchedEdge[w] >= 0 {
					region[g.Other(int(matchedEdge[w]), w)] = true
				}
			}
		} else {
			run.Close()
			continue
		}
		before := append([]int32(nil), matchedEdge...)
		RepairBipartite(run, uint64(trial), matchedEdge, region, RepairOptions{K: 2, Oracle: true})
		for v := 0; v < g.N(); v++ {
			if !region[v] && matchedEdge[v] != before[v] {
				t.Fatalf("trial %d: frozen node %d changed: %d -> %d", trial, v, before[v], matchedEdge[v])
			}
		}
		live := run.LiveSubgraph()
		got := graph.CollectMatching(g, matchedEdge)
		// Valid on the live subgraph: every matched edge must still exist.
		for _, e := range got.Edges(g) {
			u, v := g.Endpoints(e)
			if live.EdgeBetween(u, v) == -1 {
				t.Fatalf("trial %d: matched edge %d is dead", trial, e)
			}
		}
		if err := got.Verify(g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The repair must have recovered at least a maximal matching's
		// guarantee on the live subgraph within the region; globally we
		// only check it never shrank below the deletion's cost.
		if got.Size() < m.Size()-1 {
			t.Fatalf("trial %d: size %d fell below %d-1", trial, got.Size(), m.Size())
		}
		run.Close()
	}
}

// ball marks all nodes within depth hops of the sources over live edges.
func ball(g *graph.Graph, src []int, depth int, r *dist.Runner) []bool {
	in := make([]bool, g.N())
	frontier := append([]int(nil), src...)
	for _, v := range src {
		in[v] = true
	}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int
		for _, v := range frontier {
			for p := 0; p < g.Deg(v); p++ {
				if !r.EdgeLive(g.EdgeAt(v, p)) {
					continue
				}
				u := g.NbrAt(v, p)
				if !in[u] {
					in[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return in
}
