package dynamic

import (
	"testing"

	"distmatch/internal/check"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// unpinnedGraph is the subgraph a Maintainer certifies: its live
// subgraph minus every edge at a pinned node, on the slab's node ids.
func unpinnedGraph(mt *Maintainer) *graph.Graph {
	lg := mt.LiveGraph()
	b := graph.NewBuilder(lg.N())
	for v := 0; v < lg.N(); v++ {
		b.SetSide(v, int8(lg.Side(v)))
	}
	for e := 0; e < lg.M(); e++ {
		x, y := lg.Endpoints(e)
		if !mt.Pinned(x) && !mt.Pinned(y) {
			b.AddWeightedEdge(x, y, lg.Weight(e))
		}
	}
	return b.MustBuild()
}

// randomPins draws a new pinned set for mt: each node flips its pin with
// probability 1/4, except that a matched node is never pinned.
func randomPins(r *rng.Rand, mt *Maintainer) []bool {
	m := mt.Matching()
	pins := make([]bool, mt.Graph().N())
	for v := range pins {
		pins[v] = mt.Pinned(v)
		if r.Intn(4) == 0 && (pins[v] || m.MatchedEdge(v) < 0) {
			pins[v] = !pins[v]
		}
	}
	return pins
}

// pinOnly returns a pinned set holding just the given nodes.
func pinOnly(n int, nodes ...int) []bool {
	pins := make([]bool, n)
	for _, v := range nodes {
		pins[v] = true
	}
	return pins
}

// TestPinnedNodesAreTaken pins the Maintainer's pinned-set contract on
// the 4x4 slab (X = 0..3, Y = 4..7): repairs and recomputes never match
// a pinned node, an augmenting path that needs a pinned node does not
// fail the audit, releasing a pin seeds the next Apply, and Restore
// clears pins while LiveGraph ignores them throughout.
func TestPinnedNodesAreTaken(t *testing.T) {
	g := slab44()
	n := g.N()

	t.Run("repairs skip pinned", func(t *testing.T) {
		mt := New(g, Options{K: 2, Seed: 3, StartEmpty: true, AuditEvery: 1})
		defer mt.Close()
		if err := mt.SetPinned(pinOnly(n, 0)); err != nil {
			t.Fatal(err)
		}
		var all Batch
		for e := 0; e < g.M(); e++ {
			all = append(all, Update{Edge: e, Op: Insert})
		}
		rep := mt.Apply(all)
		if !rep.Audited || !rep.CertificateOK {
			t.Fatalf("audit on K4,4 minus a pinned node: %+v", rep)
		}
		if m := mt.Matching(); m.MatchedEdge(0) >= 0 || m.Size() != 3 {
			t.Fatalf("matching %v: want size 3 leaving pinned X0 free", m.Edges(g))
		}
		mt.Recompute()
		if m := mt.Matching(); m.MatchedEdge(0) >= 0 || m.Size() != 3 {
			t.Fatalf("recompute matched %v: want size 3 leaving pinned X0 free", m.Edges(g))
		}
		if lg := mt.LiveGraph(); lg.M() != g.M() {
			t.Fatalf("LiveGraph has %d edges, want all %d: pins must not hide live edges", lg.M(), g.M())
		}
		for e := 0; e < g.M(); e++ {
			if !mt.Live(e) {
				t.Fatalf("edge %d at a pinned node reads dead", e)
			}
		}
		// A matched node cannot be pinned, and SetPinned then changes
		// nothing.
		x1 := mt.Matching().MatchedEdge(1)
		if x1 < 0 {
			t.Fatal("X1 unmatched on K4,4 minus X0")
		}
		if err := mt.SetPinned(pinOnly(n, 1)); err == nil {
			t.Fatal("pinning matched X1 succeeded")
		}
		if !mt.Pinned(0) || mt.Pinned(1) {
			t.Fatal("a rejected SetPinned changed the pinned set")
		}
		// Nor can an adopted matching match a pinned node.
		adopt := make([]int32, n)
		for v := range adopt {
			adopt[v] = -1
		}
		adopt[0], adopt[4] = int32(eid(0, 0)), int32(eid(0, 0))
		if err := mt.Adopt(adopt); err == nil {
			t.Fatal("Adopt of a matching through pinned X0 succeeded")
		}
	})

	t.Run("audit ignores pinned paths and unpin seeds", func(t *testing.T) {
		mt := New(g, Options{K: 2, Seed: 5, StartEmpty: true, AuditEvery: -1})
		defer mt.Close()
		mt.Apply(Batch{{Edge: eid(1, 1), Op: Insert}}) // X1–Y1 matched
		if err := mt.SetPinned(pinOnly(n, 0)); err != nil {
			t.Fatal(err)
		}
		// X0–Y1 arrives at the pinned node, X1–Y2 next to the match: the
		// only augmenting path, X0–Y1=X1–Y2, runs through pinned X0.
		rep := mt.Apply(Batch{{Edge: eid(0, 1), Op: Insert}, {Edge: eid(1, 2), Op: Insert}})
		if rep.Touched != 2 {
			t.Fatalf("Touched %d, want 2 (the edge at pinned X0 stays out of the repair)", rep.Touched)
		}
		if mt.Matching().Size() != 1 {
			t.Fatalf("matching %v grew through pinned X0", mt.Matching().Edges(g))
		}
		lg := mt.LiveGraph()
		me := make([]int32, n)
		for v := range me {
			me[v] = -1
		}
		le := int32(lg.EdgeBetween(1, 5))
		me[1], me[5] = le, le
		if ref, _ := check.MatchingRaw(lg, me, 3, 1); ref.ShortestAug != 3 {
			t.Fatalf("true live graph: shortest augmenting path %d, want 3", ref.ShortestAug)
		}
		arep := mt.Audit()
		if !arep.CertificateOK || mt.Totals().AuditFailures != 0 {
			t.Fatalf("audit failed on a path through a pinned node: %+v, totals %+v", arep, mt.Totals())
		}
		if mt.Matching().Size() != 1 {
			t.Fatal("audit rematched through pinned X0")
		}

		// Releasing X0 seeds the next Apply, even an empty one: the
		// regional repair finds the path and matches X0.
		if err := mt.SetPinned(make([]bool, n)); err != nil {
			t.Fatal(err)
		}
		rep = mt.Apply(nil)
		if rep.Touched != 1 || rep.RegionNodes == 0 || rep.Recomputed {
			t.Fatalf("empty Apply after unpin: %+v, want a regional repair seeded by X0", rep)
		}
		if m := mt.Matching(); m.Size() != 2 || m.MatchedEdge(0) < 0 {
			t.Fatalf("matching %v after unpin: want X0 rematched, size 2", m.Edges(g))
		}
	})

	t.Run("restore clears pins", func(t *testing.T) {
		mt := New(g, Options{K: 2, Seed: 7, StartEmpty: true})
		defer mt.Close()
		mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}, {Edge: eid(1, 1), Op: Insert}})
		if err := mt.SetPinned(pinOnly(n, 2, 6)); err != nil {
			t.Fatal(err)
		}
		mt.Apply(Batch{{Edge: eid(2, 2), Op: Insert}})
		if mt.Matching().MatchedEdge(2) >= 0 {
			t.Fatal("pinned X2 matched")
		}
		if lg := mt.LiveGraph(); lg.M() != 3 || lg.EdgeBetween(2, 6) < 0 {
			t.Fatalf("LiveGraph has %d edges, want 3 including pinned X2–Y2", lg.M())
		}
		live := make([]bool, g.M())
		for e := range live {
			live[e] = mt.Live(e)
		}
		matched := make([]int32, n)
		for v := range matched {
			matched[v] = int32(mt.Matching().MatchedEdge(v))
		}
		if err := mt.Restore(live, nil, matched); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if mt.Pinned(v) {
				t.Fatalf("node %d still pinned after Restore", v)
			}
		}
		mt.Apply(nil) // Recovering: the forced audit finds X2–Y2 and repairs
		if m := mt.Matching(); m.Size() != 3 || m.MatchedEdge(2) < 0 {
			t.Fatalf("matching %v after Restore: want X2–Y2 matched, size 3", m.Edges(g))
		}
	})
}
