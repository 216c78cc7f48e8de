package main

import (
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/graph"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// replayLayers replays the first spec.replayBatches batches of the
// workload's stream in process — the same seed gives the same batches
// the HTTP run sent first — through a shard.Pool configured like the
// server and through one standalone dynamic.Maintainer, and adds the
// layer metrics only an in-process caller can see. The pool replay runs
// twice, untraced and then traced, and the difference is the tracing
// overhead.
func replayLayers(res *result, sp servingSpec, g *graph.Graph, seed uint64, tr *tracer) {
	plain := replayPool(sp, g, seed, nil)
	traced := replayPool(sp, g, seed, tr)
	single := replayMaintainer(sp, g, seed, tr)
	n := len(plain.apply)
	poolMean := plain.apply.mean()
	res.add("shard.lock_wait_us", us(poolMean-plain.poolApplyNS), "us", n)
	res.add("shard.query_ns", plain.query.mean(), "ns", len(plain.query))
	res.add("shard.overhead_x", ratio(poolMean, single.mean()), "x", n)
	res.add("dynamic.single_slot_us", us(single.mean()), "us", len(single))
	res.add("trace.overhead_pct", 100*(ratio(traced.apply.mean(), poolMean)-1), "%", n)
}

type poolReplay struct {
	apply, query samples
	poolApplyNS  float64 // mean of the pool's own pool_apply_ns
}

func replayPool(sp servingSpec, g *graph.Graph, seed uint64, tr *tracer) poolReplay {
	reg := telemetry.New(telemetry.Options{})
	p := shard.New(g, shard.Options{Shards: 4, K: sp.k, Seed: slabSeed, AuditEvery: 16, Telemetry: reg})
	defer p.Close()
	s := newStream(seed, g.M(), sp.minOps, sp.maxOps, sp.setweightShare, true)
	var out poolReplay
	for i := 0; i < sp.replayBatches; i++ {
		b := s.next()
		t0 := time.Now()
		p.ApplySeq(clientID, uint64(i+1), b)
		t1 := time.Now()
		p.Query()
		t2 := time.Now()
		out.apply = append(out.apply, t1.Sub(t0).Nanoseconds())
		out.query = append(out.query, t2.Sub(t1).Nanoseconds())
		if tr != nil {
			id := tr.add("replay.slot", 0, int64(i), t0, t2)
			tr.add("shard.Pool.ApplySeq", id, int64(i), t0, t1)
			tr.add("shard.Pool.Query", id, int64(i), t1, t2)
		}
	}
	h := reg.Histogram("pool_apply_ns", "")
	out.poolApplyNS = ratio(float64(h.Sum()), float64(h.Count()))
	return out
}

// replayMaintainer applies the same stream to one unsharded Maintainer
// over the whole slab: the standalone slot the pool's overhead is
// measured against.
func replayMaintainer(sp servingSpec, g *graph.Graph, seed uint64, tr *tracer) samples {
	mt := dynamic.New(g, dynamic.Options{K: sp.k, Seed: slabSeed, AuditEvery: 16})
	defer mt.Close()
	mt.Recompute()
	s := newStream(seed, g.M(), sp.minOps, sp.maxOps, sp.setweightShare, true)
	var out samples
	for i := 0; i < sp.replayBatches; i++ {
		b := s.next()
		t0 := time.Now()
		mt.Apply(b)
		t1 := time.Now()
		out = append(out, t1.Sub(t0).Nanoseconds())
		tr.add("dynamic.Maintainer.Apply", 0, int64(i), t0, t1)
	}
	return out
}
