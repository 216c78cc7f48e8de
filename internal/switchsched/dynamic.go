package switchsched

// The dynamic scheduler: the ROADMAP follow-on the paper's introduction
// begs for. DistMCM rebuilds the demand graph and a fresh engine every
// time slot even though consecutive slots differ only by the VOQs that
// emptied or received their first packet. DynMCM instead keeps one
// incremental Maintainer (internal/dynamic) over the fixed crossbar slab
// K_{n,n}: each slot it diffs the VOQ occupancy against the live arc
// set, applies the delta as a batch, and reads the repaired matching —
// amortized per-slot cost proportional to the traffic delta, not the
// switch (experiment E14 quantifies it against full recompute).

import (
	"fmt"

	"distmatch/internal/dynamic"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// CrossbarSlab builds the complete bipartite demand slab of an n-port
// switch: inputs 0..n-1 on side X, outputs n..2n-1 on side Y, and the
// edge (i, n+j) has edge id i*n+j (the builder's sort order), so VOQ
// (i, j) maps to its slab edge arithmetically.
func CrossbarSlab(n int) *graph.Graph {
	b := graph.NewBuilder(2 * n)
	for v := 0; v < n; v++ {
		b.SetSide(v, 0)
		b.SetSide(n+v, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddEdge(i, n+j)
		}
	}
	return b.MustBuild()
}

// DynMCM schedules with the paper's (1−1/k)-MCM maintained incrementally
// across slots instead of recomputed: the maintainer's engine, slabs and
// matching persist, and each Schedule pays only for the VOQ delta.
type DynMCM struct {
	// K is the approximation parameter (default 2, like DistMCM).
	K int
	// AuditEvery is the certificate cadence in slots (0 = the
	// maintainer's default, negative = never).
	AuditEvery int
	// Recompute disables incremental repair (full recompute per slot
	// through the identical plumbing) — the E14 baseline.
	Recompute bool
	// Seed roots the maintainer's randomness; 0 draws one from the
	// scheduler RNG at first use.
	Seed uint64

	// LastReport is the maintainer's report for the most recent slot.
	LastReport dynamic.ApplyReport

	n     int
	mt    *dynamic.Maintainer
	batch dynamic.Batch
}

// Name implements Scheduler.
func (d *DynMCM) Name() string {
	if d.Recompute {
		return fmt.Sprintf("dyn-mcm-full(k=%d)", d.k())
	}
	return fmt.Sprintf("dyn-mcm(k=%d)", d.k())
}

func (d *DynMCM) k() int {
	if d.K < 1 {
		return 2
	}
	return d.K
}

// Maintainer exposes the underlying maintainer (nil before the first
// Schedule) for instrumentation — experiment E14 reads its Totals and
// audits its LiveGraph.
func (d *DynMCM) Maintainer() *dynamic.Maintainer { return d.mt }

// Close releases the maintainer's engine.
func (d *DynMCM) Close() {
	if d.mt != nil {
		d.mt.Close()
	}
}

// Schedule implements Scheduler: diff the VOQ occupancy against the live
// arc set, apply the delta, read the matching.
func (d *DynMCM) Schedule(q *Queues, r *rng.Rand) []int {
	n := q.N
	if d.mt == nil {
		seed := d.Seed
		if seed == 0 {
			seed = r.Uint64()
		}
		d.n = n
		d.mt = dynamic.New(CrossbarSlab(n), dynamic.Options{
			K: d.k(), Seed: seed, StartEmpty: true,
			AuditEvery: d.AuditEvery, AlwaysRecompute: d.Recompute,
		})
	} else if d.n != n {
		panic("switchsched: DynMCM reused across different port counts")
	}
	d.batch = d.batch[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			e := i*n + j
			if want := q.Len[i][j] > 0; want != d.mt.Live(e) {
				op := dynamic.Delete
				if want {
					op = dynamic.Insert
				}
				d.batch = append(d.batch, dynamic.Update{Edge: e, Op: op})
			}
		}
	}
	d.LastReport = d.mt.Apply(d.batch)
	return matchingToPorts(n, d.mt.Graph(), d.mt.Matching())
}
