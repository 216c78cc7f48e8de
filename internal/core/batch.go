package core

// Batch execution: many seeds of the core algorithms on one graph through
// a shared dist.Runner, amortizing engine setup (mailbox slabs, worker
// pool, dispatch goroutines) across runs — the same shape as
// israeliitai.RunSeeds, extended to the Algorithm 3/4 pipelines so the
// experiment seed sweeps (E2/E4) and any other fixed-graph battery reuse
// one engine. BipartiteMCMSeeds also recycles the per-node machine slab
// (phasesMachine has a cheap reset); GeneralMCMSeeds reuses the engine but
// builds fresh machines per run — Algorithm 4's per-node buffers are
// allocated in Init either way.

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// BipartiteMCMSeeds runs BipartiteMCM(g, k, seed, oracle) once per seed
// on one shared engine. Each run is bit-identical to a fresh
// BipartiteMCMWithConfig with the same cfg and seed
// (TestBipartiteMCMSeedsMatchesFresh). cfg.Seed is ignored.
func BipartiteMCMSeeds(g *graph.Graph, k int, cfg dist.Config, seeds []uint64, oracle bool) ([]*graph.Matching, []*dist.Stats) {
	checkBipartiteMCM(g, k)
	matchings := make([]*graph.Matching, len(seeds))
	stats := make([]*dist.Stats, len(seeds))
	matchedEdge := make([]int32, g.N())

	r := dist.NewRunner(g, cfg)
	defer r.Close()

	// A full-graph solve from the empty matching is exactly a full-region
	// repair from scratch, so the BipartiteRepairer provides the recycled
	// per-node machine slab.
	br := NewBipartiteRepairer(r, matchedEdge, RepairOptions{K: k, Oracle: oracle})
	for i, seed := range seeds {
		for v := range matchedEdge {
			matchedEdge[v] = -1
		}
		stats[i] = br.Repair(seed, nil)
		matchings[i] = graph.CollectMatching(g, matchedEdge)
	}
	return matchings, stats
}

// GeneralMCMSeeds runs GeneralMCM(g, k, seed, opts) once per seed on one
// shared engine; bit-identical to fresh GeneralMCMWithConfig runs
// (TestGeneralMCMSeedsMatchesFresh). cfg.Seed is ignored. Strict CONGEST
// mode (opts.StrictCapacityBits > 0) runs through the shared engine too.
func GeneralMCMSeeds(g *graph.Graph, k int, cfg dist.Config, seeds []uint64, opts GeneralOptions) ([]*graph.Matching, []*dist.Stats) {
	iters := generalIters(k, opts)
	matchings := make([]*graph.Matching, len(seeds))
	stats := make([]*dist.Stats, len(seeds))
	matchedEdge := make([]int32, g.N())

	r := dist.NewRunner(g, cfg)
	defer r.Close()

	factory := func(nd *dist.Node) dist.RoundProgram {
		return &generalMachine{
			k: k, oracle: opts.Oracle, iters: iters, idleStop: opts.IdleStop,
			capacity:    opts.StrictCapacityBits,
			matchedEdge: matchedEdge,
		}
	}
	for i, seed := range seeds {
		stats[i] = r.RunFlat(seed, factory)
		matchings[i] = graph.CollectMatching(g, matchedEdge)
	}
	return matchings, stats
}
