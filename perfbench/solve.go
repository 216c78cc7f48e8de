package main

import (
	"fmt"
	"os"
	"time"

	"distmatch"
	"distmatch/internal/dist"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// The solve workload: the paper's bipartite algorithm run in process on
// a fixed G(n,p) of average degree 4, n per side, with solve seeds drawn
// from the run's seed.
const (
	solveN      = 65536
	solveDegree = 4.0
	solveK      = 3
	solveSetups = 3 // graph builds and warm-up solves; setup_s is their median
)

// solveOnce is one timed solve and the certificate probe of its output.
type solveOnce struct {
	m            *graph.Matching
	st           *dist.Stats
	solve, probe time.Duration
	report       distmatch.VerifyReport
}

func solveAndProbe(g *graph.Graph, seed uint64, tr *tracer, req int64) solveOnce {
	t0 := time.Now()
	res := distmatch.MCMBipartite(g, solveK, seed)
	t1 := time.Now()
	rep, _ := distmatch.VerifyDistributed(g, res.Matching, 2*solveK-1, seed)
	t2 := time.Now()
	if tr != nil {
		id := tr.add("solve.run", 0, req, t0, t2)
		tr.add("core.MCMBipartite", id, req, t0, t1)
		tr.add("check.VerifyDistributed", id, req, t1, t2)
	}
	return solveOnce{m: res.Matching, st: res.Stats, solve: t1.Sub(t0), probe: t2.Sub(t1), report: rep}
}

func sameStats(a, b *dist.Stats) bool {
	return a.Rounds == b.Rounds && a.Messages == b.Messages &&
		a.OracleCalls == b.OracleCalls && a.NodeRounds == b.NodeRounds
}

func runSolve(cfg config) (*result, error) {
	reg := telemetry.New(telemetry.Options{})
	dist.SetTelemetry(reg)
	defer dist.SetTelemetry(nil)
	warmSeed := rng.ForkSeed(cfg.seed, 0)

	var g *graph.Graph
	var warm solveOnce
	var setupTimes []float64
	for i := 0; i < solveSetups; i++ {
		t0 := time.Now()
		g = gen.BipartiteGnp(rng.New(slabSeed), solveN, solveN, solveDegree/solveN)
		warm = solveAndProbe(g, warmSeed, nil, 0)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	aborted0 := reg.Counter("engine_runs_aborted_total", "").Value()

	// Timed solves: solve j uses seed j/2 of the run, so each seed is
	// solved twice and must repeat exactly; in traced runs the second of
	// each pair is traced, and the pair difference is the overhead.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var runs []solveOnce
	var solveNS, probeNS, plainNS, tracedNS samples
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		res.Correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
	// Solves the hypervisor starved are solved again, within 1.5 runs;
	// they still count for the checks.
	q := &quiet{budget: cfg.seconds * 3 / 2}
	ticks := readTicks()
	var measured time.Duration
	for j := 0; j < 4 || measured < cfg.seconds; j++ {
		seed := rng.ForkSeed(cfg.seed, uint64(j/2))
		var t *tracer
		if j%2 == 1 {
			t = tr
		}
		before := readTicks()
		o := solveAndProbe(g, seed, t, int64(j))
		res.Attempted += 2
		runs = append(runs, o)
		if j%2 == 1 {
			prev := runs[j-1]
			if !sameStats(prev.st, o.st) || prev.m.Size() != o.m.Size() {
				fail("seed %d solved twice with different results", seed)
			}
		}
		if j == 0 && (!sameStats(warm.st, o.st) || warm.m.Size() != o.m.Size()) {
			fail("timed solve differs from the warm-up solve on the same seed")
		}
		if !q.keep(stealShare(before, readTicks()), o.solve+o.probe) {
			continue
		}
		measured += o.solve + o.probe
		solveNS = append(solveNS, o.solve.Nanoseconds())
		probeNS = append(probeNS, o.probe.Nanoseconds())
		if j%2 == 1 {
			tracedNS = append(tracedNS, o.solve.Nanoseconds())
		} else {
			plainNS = append(plainNS, o.solve.Nanoseconds())
		}
	}
	steal := stealShare(ticks, readTicks())

	best := exact.HopcroftKarp(g).Size()
	var ratioSum float64
	var stats dist.Stats
	for _, o := range runs {
		if err := o.m.Verify(g); err != nil {
			fail("solve output is not a matching: %v", err)
		}
		share := float64(o.m.Size()) / float64(best)
		if share < 1-1.0/solveK {
			fail("solve matched %d of maximum %d, below 1-1/k", o.m.Size(), best)
		}
		if !o.report.Valid {
			fail("certificate probe rejects the solve output")
		}
		ratioSum += share
		stats.Rounds += o.st.Rounds
		stats.Messages += o.st.Messages
		stats.OracleCalls += o.st.OracleCalls
		stats.NodeRounds += o.st.NodeRounds
	}
	n := float64(len(runs))
	var solveTotal float64
	for _, v := range solveNS {
		solveTotal += float64(v)
	}
	if !cfg.trace {
		res.add("setup_s", median(setupTimes), "s", len(setupTimes))
		res.add("ops_per_s", float64(len(solveNS))/(solveTotal/1e9), "1/s", len(solveNS))
		res.latency("op", solveNS, false)
		res.latency("read", probeNS, false)
		res.add("matching_ratio", ratioSum/n, "1", len(runs))
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.add("peak_rss_mb", rss, "MiB", 1)
		return res, nil
	}

	for _, name := range servingLayerNames {
		res.add(name, 0, layerUnit(name), 0) // the solve workload runs no serving layer
	}
	res.add("dist.node_rounds_per_s", float64(stats.NodeRounds)/n/(solveTotal/1e9/float64(len(solveNS))), "1/s", len(solveNS))
	res.add("dist.rounds", float64(stats.Rounds)/n, "count", len(runs))
	res.add("dist.messages", float64(stats.Messages)/n, "count", len(runs))
	res.add("dist.oracle_calls", float64(stats.OracleCalls)/n, "count", len(runs))
	res.add("dist.node_rounds", float64(stats.NodeRounds)/n, "count", len(runs))
	res.add("dist.aborted_runs", float64(reg.Counter("engine_runs_aborted_total", "").Value()-aborted0), "count", 0)
	res.latency("op", solveNS, true)
	res.latency("read", probeNS, true)
	res.add("loadgen.steal_share", steal, "1", 0)
	res.add("loadgen.discarded_windows", float64(q.discarded), "count", 0)
	res.add("trace.overhead_pct", 100*(ratio(tracedNS.mean(), plainNS.mean())-1), "%", len(tracedNS))
	finishTrace(tr, cfg)
	return res, nil
}
