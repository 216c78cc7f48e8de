package shard

import (
	"fmt"
	"testing"

	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// testSlab is a bipartite G(n,p) slab big enough to give every one of 4
// shards real nodes and internal edges.
func testSlab(seed uint64, nx, ny int, prob float64) *graph.Graph {
	return gen.BipartiteGnp(rng.New(seed), nx, ny, prob)
}

// randomPoolBatch mirrors the dynamic fuzz batch generator on the global
// slab: random inserts, deletes and weight changes.
func randomPoolBatch(r *rng.Rand, m, maxOps int) dynamic.Batch {
	n := 1 + r.Intn(maxOps)
	b := make(dynamic.Batch, 0, n)
	for i := 0; i < n; i++ {
		e := r.Intn(m)
		switch r.Intn(3) {
		case 0:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Insert})
		case 1:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Delete})
		default:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.SetWeight, Weight: r.Float64()})
		}
	}
	return b
}

// checkPool asserts the composed matching is a valid matching whose
// edges are all live in the pool mirror.
func checkPool(t *testing.T, p *Pool, label string) *graph.Matching {
	t.Helper()
	m := p.Matching()
	if err := m.Verify(p.g); err != nil {
		t.Fatalf("%s: composed matching invalid: %v", label, err)
	}
	for _, e := range m.Edges(p.g) {
		if !p.Live(e) {
			t.Fatalf("%s: composed matching names dead edge %d", label, e)
		}
	}
	return m
}

// TestPoolPartition pins the side-aware block partition: every node
// owned, blocks contiguous per side and nearly balanced, every edge
// either internal (both endpoints same shard) or crossing.
func TestPoolPartition(t *testing.T) {
	g := testSlab(3, 16, 16, 0.3)
	p := New(g, Options{Shards: 4, StartEmpty: true})
	defer p.Close()

	counts := make([]int, 4)
	lastShard := [2]int{-1, -1}
	for v := 0; v < g.N(); v++ {
		s := p.Owner(v)
		if s < 0 || s >= 4 {
			t.Fatalf("node %d unowned: %d", v, s)
		}
		counts[s]++
		// Within each side, ascending nodes must see non-decreasing
		// shard ids (contiguous blocks).
		side := g.Side(v)
		if s < lastShard[side] {
			t.Fatalf("side-%d node %d jumps back to shard %d", side, v, s)
		}
		lastShard[side] = s
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no nodes", s)
		}
	}
	internal := 0
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		s := p.EdgeShard(e)
		if s >= 0 {
			if p.Owner(u) != s || p.Owner(v) != s {
				t.Fatalf("edge %d claimed by shard %d but endpoints owned by %d,%d",
					e, s, p.Owner(u), p.Owner(v))
			}
			internal++
		} else if p.Owner(u) == p.Owner(v) {
			t.Fatalf("edge %d marked crossing but both endpoints in shard %d", e, p.Owner(u))
		}
	}
	if internal == 0 || internal == g.M() {
		t.Fatalf("degenerate partition: %d internal of %d edges", internal, g.M())
	}
}

// TestPoolLocalEdgeMapping cross-checks the rank-based local edge id
// mapping against the sub-slab's own EdgeBetween for every internal
// edge — the correctness backbone of all routing.
func TestPoolLocalEdgeMapping(t *testing.T) {
	g := testSlab(5, 12, 12, 0.4)
	p := New(g, Options{Shards: 4, StartEmpty: true})
	defer p.Close()
	for e := 0; e < g.M(); e++ {
		s := p.EdgeShard(e)
		if s < 0 {
			continue
		}
		slot := p.shards[s]
		u, v := g.Endpoints(e)
		lu, lv := int(p.localNode[u]), int(p.localNode[v])
		want := slot.sub.EdgeBetween(lu, lv)
		if got := int(p.localEdge[e]); got != want {
			t.Fatalf("edge %d: local id %d, sub-slab says %d", e, got, want)
		}
		if w := slot.sub.Weight(int(p.localEdge[e])); w != g.Weight(e) {
			t.Fatalf("edge %d: weight %v in sub-slab, %v in slab", e, w, g.Weight(e))
		}
	}
}

// TestPoolServesValidMatchingUnderChurn drives random batches and
// asserts validity plus the certified approximation bound at every
// audited step.
func TestPoolServesValidMatchingUnderChurn(t *testing.T) {
	g := testSlab(7, 14, 14, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 3, StartEmpty: true, AuditEvery: 4})
	defer p.Close()
	r := rng.New(21)
	audits := 0
	for step := 0; step < 60; step++ {
		rep := p.Apply(randomPoolBatch(r, g.M(), 5))
		m := checkPool(t, p, fmt.Sprintf("step %d", step))
		if rep.Audited {
			audits++
			if !rep.CertificateOK {
				t.Fatalf("step %d: audit did not end certified (report %+v)", step, rep)
			}
			assertRatio(t, p, m, fmt.Sprintf("step %d", step))
		}
		if rep.Degraded {
			t.Fatalf("step %d: degraded without any fault injected: %+v", step, rep)
		}
	}
	if audits == 0 {
		t.Fatal("no audit ran in 60 steps at cadence 4")
	}
	tot := p.Totals()
	if tot.Routed == 0 || tot.Crossing == 0 {
		t.Fatalf("routing exercised nothing: %+v", tot)
	}
}

// assertRatio checks the (1−1/K) bound of the composed matching against
// the exact maximum on the live subgraph.
func assertRatio(t *testing.T, p *Pool, m *graph.Matching, label string) {
	t.Helper()
	lg := liveSubgraph(p)
	opt := exactMaximum(lg)
	k := p.opts.K
	if float64(m.Size())*float64(k) < float64(opt)*float64(k-1) {
		t.Fatalf("%s: size %d < (1-1/%d) x %d", label, m.Size(), k, opt)
	}
}

// liveSubgraph materializes the pool's live subgraph on the same node
// ids (fresh builder; edge ids differ, only sizes are compared).
func liveSubgraph(p *Pool) *graph.Graph {
	b := graph.NewBuilder(p.g.N())
	for v := 0; v < p.g.N(); v++ {
		side := p.g.Side(v)
		if side < 0 {
			side = 0
		}
		b.SetSide(v, int8(side))
	}
	for e := 0; e < p.g.M(); e++ {
		if p.live[e] {
			u, v := p.g.Endpoints(e)
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// exactMaximum is a simple augmenting-path maximum matching (the slabs
// here are tiny).
func exactMaximum(g *graph.Graph) int {
	mate := make([]int, g.N())
	for v := range mate {
		mate[v] = -1
	}
	var seen []bool
	var try func(v int) bool
	try = func(v int) bool {
		for pp := 0; pp < g.Deg(v); pp++ {
			u := g.NbrAt(v, pp)
			if seen[u] {
				continue
			}
			seen[u] = true
			if mate[u] == -1 || try(mate[u]) {
				mate[u], mate[v] = v, u
				return true
			}
		}
		return false
	}
	size := 0
	for v := 0; v < g.N(); v++ {
		if g.Side(v) != 0 || mate[v] != -1 {
			continue
		}
		seen = make([]bool, g.N())
		if try(v) {
			size++
		}
	}
	return size
}

// TestPoolMatchesHistory replays one update history on the default and
// on a 4-worker pool: the composed matching and every report flag must
// be bit-identical step for step.
func TestPoolMatchesHistory(t *testing.T) {
	g := testSlab(11, 12, 12, 0.35)
	history := func(opts Options) []string {
		p := New(g, opts)
		defer p.Close()
		r := rng.New(5)
		var h []string
		for step := 0; step < 40; step++ {
			rep := p.Apply(randomPoolBatch(r, g.M(), 4))
			m := checkPool(t, p, fmt.Sprintf("step %d", step))
			h = append(h, fmt.Sprintf("step=%d size=%d audited=%v cert=%v cross=%d edges=%v",
				step, m.Size(), rep.Audited, rep.CertificateOK, rep.CrossingMatched, m.Edges(g)))
		}
		return h
	}
	base := Options{Shards: 4, K: 2, Seed: 9, StartEmpty: true, AuditEvery: 5}
	want := history(base)
	opts := base
	opts.Workers = 4
	got := history(opts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("opts %+v diverged at %d:\n  want %s\n  got  %s", opts, i, want[i], got[i])
		}
	}
}

// TestPoolStartFull pins the non-empty start: every edge live, shards
// recomputed, crossing resolved, first audit certifies.
func TestPoolStartFull(t *testing.T) {
	g := testSlab(17, 10, 10, 0.3)
	p := New(g, Options{Shards: 4, K: 2, Seed: 2})
	defer p.Close()
	m := checkPool(t, p, "start")
	if m.Size() == 0 {
		t.Fatal("full start served an empty matching")
	}
	rep := p.Audit()
	if !rep.Audited || !rep.CertificateOK {
		t.Fatalf("initial audit %+v", rep)
	}
	assertRatio(t, p, checkPool(t, p, "post-audit"), "post-audit")
}

// TestPoolWeightsRouted pins SetWeight/Insert-weight flow into both the
// resolver mirror and the owning sub-slab maintainer.
func TestPoolWeightsRouted(t *testing.T) {
	g := testSlab(5, 12, 12, 0.4)
	p := New(g, Options{Shards: 4, StartEmpty: true})
	defer p.Close()
	var internal int = -1
	for e := 0; e < g.M(); e++ {
		if p.EdgeShard(e) >= 0 {
			internal = e
			break
		}
	}
	if internal < 0 {
		t.Fatal("no internal edge")
	}
	p.Apply(dynamic.Batch{{Edge: internal, Op: dynamic.Insert, Weight: 2.5}})
	if w := p.resolver.EdgeWeight(internal); w != 2.5 {
		t.Fatalf("resolver weight %v, want 2.5", w)
	}
	slot := p.shards[p.EdgeShard(internal)]
	if w := slot.mt.Weight(int(p.localEdge[internal])); w != 2.5 {
		t.Fatalf("shard weight %v, want 2.5", w)
	}
	p.Apply(dynamic.Batch{{Edge: internal, Op: dynamic.SetWeight, Weight: 7}})
	if w := slot.mt.Weight(int(p.localEdge[internal])); w != 7 {
		t.Fatalf("shard weight %v after SetWeight, want 7", w)
	}
}

// TestPoolFullStartLargeChurn is the full-start regression at serving
// scale: a 512+512 slab started fully live (every shard Maintainer must
// begin with its sub-slab live, not just the pool mirror — the audit's
// push-back validates restrictions against shard-local liveness) and
// churned through repairs and adopts.
func TestPoolFullStartLargeChurn(t *testing.T) {
	g := testSlab(88, 512, 512, 4.0/512)
	p := New(g, Options{Shards: 4, K: 2, Seed: 6, AuditEvery: 16})
	defer p.Close()
	for s, slot := range p.shards {
		for le := range slot.edges {
			if !slot.mt.Live(le) {
				t.Fatalf("full start left shard %d local edge %d dead", s, le)
			}
		}
	}
	r := rng.New(44)
	audits := 0
	for step := 0; step < 120; step++ {
		b := make(dynamic.Batch, 0, 4)
		for j := 0; j < 4; j++ {
			e := r.Intn(g.M())
			op := dynamic.Insert
			if p.Live(e) {
				op = dynamic.Delete
			}
			b = append(b, dynamic.Update{Edge: e, Op: op})
		}
		rep := p.Apply(b)
		if rep.Degraded {
			t.Fatalf("step %d: degraded without faults", step)
		}
		if rep.Audited {
			audits++
			if !rep.CertificateOK {
				t.Fatalf("step %d: audit not certified", step)
			}
			checkPool(t, p, fmt.Sprintf("step %d", step))
		}
	}
	if audits == 0 {
		t.Fatal("no audits at cadence 16 over 120 steps")
	}
	checkPool(t, p, "final")
}
