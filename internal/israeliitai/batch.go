package israeliitai

// Batch execution: many seeds of the protocol on one graph through a
// shared dist.Runner, amortizing engine setup (mailbox slabs, worker
// pool, dispatch goroutines) and machine allocation across runs. With
// the flat machine's per-round cost down to tens of nanoseconds, that
// setup dominates short runs — exactly the shape of the experiment
// seed sweeps (E13) and the per-slot switch schedules.

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// RunSeeds runs the protocol once per seed on g, reusing one engine and
// one per-node machine slab for the whole sweep. Each run is
// bit-identical to Run/RunWithConfig with the same cfg and seed
// (TestRunSeedsMatchesRun). cfg.Seed is ignored.
func RunSeeds(g *graph.Graph, cfg dist.Config, seeds []uint64, oracle bool) ([]*graph.Matching, []*dist.Stats) {
	iters := Budget(g.N())
	matchings := make([]*graph.Matching, len(seeds))
	stats := make([]*dist.Stats, len(seeds))
	matchedEdge := make([]int32, g.N())

	r := dist.NewRunner(g, cfg)
	defer r.Close()

	// One machine and one State per node, Reset between runs.
	machines := make([]machine, g.N())
	states := make([]*State, g.N())
	factory := func(nd *dist.Node) dist.RoundProgram {
		m := &machines[nd.ID()]
		m.matchedEdge = matchedEdge
		if states[nd.ID()] == nil {
			states[nd.ID()] = NewState(nd)
		} else {
			states[nd.ID()].Reset()
		}
		m.cm.Reset(states[nd.ID()], everyPort, iters, oracle)
		return m
	}
	for i, seed := range seeds {
		stats[i] = r.RunFlat(seed, factory)
		matchings[i] = graph.CollectMatching(g, matchedEdge)
	}
	return matchings, stats
}
