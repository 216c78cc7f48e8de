package shard

import (
	"fmt"
	"reflect"
	"testing"

	"distmatch/internal/check"
	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
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

// checkPins asserts the pool's pin invariant: an up, non-Degraded shard
// pins exactly its nodes whose composed match is a crossing edge.
func checkPins(t *testing.T, p *Pool, label string) {
	t.Helper()
	m := p.Matching()
	for s, slot := range p.shards {
		if !slot.up || slot.health == dynamic.Degraded {
			continue
		}
		for lv, gv := range slot.nodes {
			me := m.MatchedEdge(int(gv))
			want := me >= 0 && p.EdgeShard(me) < 0
			if got := slot.mt.Pinned(lv); got != want {
				t.Fatalf("%s: shard %d node %d pinned=%v, composed match %d crossing=%v",
					label, s, gv, got, me, want)
			}
		}
	}
}

// TestPoolRepairHoldsInShards replays a churn-shaped stream — the
// 512+512 serving slab, 1–8 updates per batch of which 10% are weight
// changes — and asserts that a conflict repair pushed back into the
// shards stays put. Each shard pins its crossing-matched nodes, so the
// adopted restriction certifies inside the shard: no shard audit fails
// in the fault-free run, and shards almost never fall back to a full
// recompute. Without pins every post-adopt shard audit failed, its warm
// recompute rematched the crossing-matched nodes internally, and the
// next recompose dissolved the crossing matches the repair had made.
func TestPoolRepairHoldsInShards(t *testing.T) {
	g := testSlab(88, 512, 512, 1.0/128)
	p := New(g, Options{K: 2, Seed: 88, AuditEvery: 16})
	defer p.Close()
	checkPins(t, p, "start")
	recomputes0 := 0
	for _, slot := range p.shards {
		recomputes0 += slot.mt.Totals().Recomputes
	}
	live := make([]bool, g.M())
	for e := range live {
		live[e] = p.Live(e)
	}
	r := rng.New(41)
	const slots = 2048
	for step := 0; step < slots; step++ {
		b := make(dynamic.Batch, 1+r.Intn(8))
		for i := range b {
			e := r.Intn(g.M())
			switch {
			case r.Float64() < 0.1:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.SetWeight, Weight: 1 + r.Float64()}
			case live[e]:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.Delete}
				live[e] = false
			default:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.Insert}
				live[e] = true
			}
		}
		if rep := p.Apply(b); rep.Degraded {
			t.Fatalf("step %d: degraded without faults", step)
		}
		if step%64 == 0 {
			checkPool(t, p, fmt.Sprintf("step %d", step))
			checkPins(t, p, fmt.Sprintf("step %d", step))
		}
	}
	tot := p.Totals()
	if tot.Adopts == 0 {
		t.Fatalf("no conflict repair was pushed back in %d slots: %+v", slots, tot)
	}
	var audits, failures, recomputes int
	for _, slot := range p.shards {
		st := slot.mt.Totals()
		audits += st.Audits
		failures += st.AuditFailures
		recomputes += st.Recomputes
	}
	recomputes -= recomputes0
	t.Logf("%d slots: pool epochs %d, failures %d, adopts %d; shard audits %d, failures %d, recomputes %d",
		slots, tot.Audits-tot.AuditFailures, tot.AuditFailures, tot.Adopts, audits, failures, recomputes)
	if failures != 0 {
		t.Fatalf("%d shard audit failures in a fault-free run (pool adopts %d)", failures, tot.Adopts)
	}
	if recomputes > 8 {
		t.Fatalf("%d shard recomputes in %d slots, want at most 8", recomputes, slots)
	}
}

// TestPoolAuditRepairsWitnessRegion replays the churn-shaped stream of
// TestPoolRepairHoldsInShards and pins the pool audit epoch: every epoch
// certifies; an independent check — the distributed Berge probe on a
// separate Runner over the stream's own liveness — confirms each
// certificate; the witness-region repairs stay local (mean region ≤ 10%
// of n); and the warm full-repair fallback stays rare (≤ 5% of failed
// epochs). A Serial twin must report identically every slot, which pins
// the crossing bookkeeping after regional repairs against the serial
// full scan, and the repair counters must match the totals.
func TestPoolAuditRepairsWitnessRegion(t *testing.T) {
	g := testSlab(88, 512, 512, 1.0/128)
	const k = 2
	reg := telemetry.New(telemetry.Options{})
	p := New(g, Options{K: k, Seed: 88, AuditEvery: 16, Telemetry: reg})
	defer p.Close()
	serial := New(g, Options{K: k, Seed: 88, AuditEvery: 16, Serial: true})
	defer serial.Close()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = p.Live(e)
	}
	ref := dist.NewRunner(g, dist.Config{})
	defer ref.Close()
	matched := make([]int32, g.N())
	r := rng.New(41)
	const slots = 2048
	epochs := 0
	for step := 0; step < slots; step++ {
		b := make(dynamic.Batch, 1+r.Intn(8))
		for i := range b {
			e := r.Intn(g.M())
			switch {
			case r.Float64() < 0.1:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.SetWeight, Weight: 1 + r.Float64()}
			case live[e]:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.Delete}
				live[e] = false
			default:
				b[i] = dynamic.Update{Edge: e, Op: dynamic.Insert}
				live[e] = true
			}
		}
		rep := p.Apply(b)
		if srep := serial.Apply(b); !reflect.DeepEqual(rep, srep) {
			t.Fatalf("step %d: pipelined %+v, serial %+v", step, rep, srep)
		}
		if !rep.Audited {
			continue
		}
		epochs++
		if !rep.CertificateOK {
			t.Fatalf("step %d: audit epoch did not certify", step)
		}
		m := checkPool(t, p, fmt.Sprintf("step %d", step))
		for e := range live {
			ref.SetEdgeLive(e, live[e])
		}
		for v := range matched {
			matched[v] = int32(m.MatchedEdge(v))
		}
		if got, _ := check.MatchingOnRunner(ref, matched, 2*k-1, uint64(step)); !got.Valid || got.ShortestAug != -1 {
			t.Fatalf("step %d: certified matching fails the distributed probe: %+v", step, got)
		}
	}
	tot := p.Totals()
	t.Logf("%d slots: %d epochs, %d failed, %d full repairs, mean region %.1f of %d nodes",
		slots, epochs, tot.AuditFailures, tot.FullRepairs, float64(tot.RepairNodes)/float64(tot.Repairs), g.N())
	if tot.AuditFailures == 0 || tot.Repairs != tot.AuditFailures {
		t.Fatalf("want one witness repair per failed epoch and some failures: %+v", tot)
	}
	if epochs != tot.Audits-tot.AuditFailures-tot.FullRepairs {
		t.Fatalf("%d epochs, but Audits−AuditFailures−FullRepairs = %d", epochs, tot.Audits-tot.AuditFailures-tot.FullRepairs)
	}
	if mean := float64(tot.RepairNodes) / float64(tot.Repairs); mean > 0.1*float64(g.N()) {
		t.Fatalf("mean repair region %.1f nodes exceeds 10%% of n = %d", mean, g.N())
	}
	if reg.Counter("pool_repair_nodes_total", "").Value() != tot.RepairNodes ||
		reg.Counter("pool_full_repairs_total", "").Value() != int64(tot.FullRepairs) {
		t.Fatalf("repair counters diverge from totals %+v", tot)
	}
	if 20*tot.FullRepairs > tot.AuditFailures {
		t.Fatalf("%d full-repair fallbacks in %d failed epochs, want at most 5%%", tot.FullRepairs, tot.AuditFailures)
	}
}
