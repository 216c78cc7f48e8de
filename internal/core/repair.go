package core

// Region-restricted repair: the §3.2 phase machinery re-run on the live
// subgraph of a shared dist.Runner, confined to a node region, with the
// rest of the matching frozen. This is the primitive behind
// internal/dynamic's incremental Maintainer: after a batch of edge
// mutations, only the ≤2k-hop neighborhood of the touched edges needs its
// short augmenting paths re-eliminated; everything outside keeps its
// matched edge untouched (and unseen — the activation mask plus the
// region mask make the frozen part of the graph invisible to the phases).

import (
	"fmt"

	"distmatch/internal/dist"
)

// RepairOptions tunes RepairBipartite.
type RepairOptions struct {
	// K is the approximation target: phases ℓ = 1, 3, …, 2K−1 run inside
	// the region, leaving no augmenting path of length ≤ 2K−1 that is
	// confined to it.
	K int
	// Oracle selects convergence detection over the paper's fixed w.h.p.
	// budgets, exactly as in BipartiteMCM.
	Oracle bool
}

// RepairBipartite runs the phase machinery of BipartiteMCM on r's graph,
// restricted to the live subgraph (r's edge activation mask) and to the
// nodes with inRegion[v] == true (nil means every node), starting from —
// and writing back to — the per-node assignment matchedEdge (edge id or
// -1, the CollectMatching form). Nodes outside the region neither send
// nor change state: their entries are frozen.
//
// Because frozen nodes are pure observers — no sends, no RNG draws,
// identity oracle submissions — the caller may additionally install the
// region as r's active set (Runner.SetActive, typically inRegion =
// r.ActiveMask()), and the engine then steps only region nodes: repair
// cost becomes ∝ region instead of ∝ n, with the matching, rounds,
// messages and per-round profile bit-identical to the full-sweep run
// (TestRepairActiveSetConformance). internal/dynamic's Maintainer drives
// repairs this way.
//
// Caller invariants (the dynamic Maintainer maintains them):
//   - r's graph is bipartite and matchedEdge is a consistent matching;
//   - every matched edge is live;
//   - the region is closed under matching edges (v in region ⇒ its mate
//     in region), so no frozen node can lose or change its edge.
//
// On return no augmenting path of length ≤ 2K−1 lies entirely inside the
// region's live subgraph (in oracle mode surely; in budget mode w.h.p.).
// Paths crossing the frozen boundary may remain — that is what the
// certificate audit (internal/check's Berge probe) watches for.
//
// RepairBipartite runs the flat phase machines; repairBipartiteCoroutine
// is the blocking reference it is pinned bit-identical to.
func RepairBipartite(r *dist.Runner, seed uint64, matchedEdge []int32, inRegion []bool, opts RepairOptions) *dist.Stats {
	in := checkRepair(r, matchedEdge, inRegion, opts)
	return r.RunFlat(seed, func(nd *dist.Node) dist.RoundProgram {
		v := nd.ID()
		env := &phaseEnv{
			st:          MatchState{MatchedPort: matchedPortOf(nd, matchedEdge[v])},
			side:        nd.Side(),
			participate: in(v),
		}
		env.active = func(p int) bool { return nd.EdgeLive(p) && in(nd.NbrID(p)) }
		m := &phasesMachine{}
		m.reset(env, opts.K, opts.Oracle)
		return dist.AsProgram(m, func(nd *dist.Node) {
			if env.participate {
				writeBack(nd, &env.st, matchedEdge)
			}
		})
	})
}

// repairBipartiteCoroutine is the blocking form of RepairBipartite: the
// readable reference TestRepairActiveSetConformance and
// TestRepairFullRegionMatchesMCM pin the flat repair against.
func repairBipartiteCoroutine(r *dist.Runner, seed uint64, matchedEdge []int32, inRegion []bool, opts RepairOptions) *dist.Stats {
	in := checkRepair(r, matchedEdge, inRegion, opts)
	return r.Run(seed, func(nd *dist.Node) {
		v := nd.ID()
		st := &MatchState{MatchedPort: matchedPortOf(nd, matchedEdge[v])}
		active := func(p int) bool { return nd.EdgeLive(p) && in(nd.NbrID(p)) }
		runPhases(nd, st, nd.Side(), in(v), active, opts.K, opts.Oracle)
		if in(v) {
			writeBack(nd, st, matchedEdge)
		}
	})
}

// checkRepair validates RepairBipartite's arguments and returns the
// region membership predicate.
func checkRepair(r *dist.Runner, matchedEdge []int32, inRegion []bool, opts RepairOptions) func(v int) bool {
	g := r.Graph()
	if opts.K < 1 {
		panic("core: RepairBipartite requires K >= 1")
	}
	if !g.IsBipartite() {
		panic("core: RepairBipartite requires a bipartite graph")
	}
	if len(matchedEdge) != g.N() {
		panic("core: RepairBipartite matchedEdge length mismatch")
	}
	if inRegion != nil && len(inRegion) != g.N() {
		panic("core: RepairBipartite inRegion length mismatch")
	}
	return func(v int) bool { return inRegion == nil || inRegion[v] }
}

// BipartiteRepairer is the batch form of RepairBipartite: it owns a
// per-node slab of phase machines, envs and program wrappers, allocated
// on the first Repair and reset in place on every later one, so a
// steady-state repair allocates nothing but what the phases themselves
// need. This is what internal/dynamic's Maintainer runs every Apply —
// the repair twin of the israeliitai batch machine recycling. Each
// Repair is bit-identical to a RepairBipartite call with the same
// arguments (TestRepairerMatchesRepairBipartite).
type BipartiteRepairer struct {
	r           *dist.Runner
	opts        RepairOptions
	matchedEdge []int32
	region      []bool // nil = whole graph; set per Repair

	envs     []phaseEnv
	machines []phasesMachine
	progs    []dist.RoundProgram
}

// NewBipartiteRepairer builds a repairer bound to r and to the caller's
// matchedEdge slab (read at the start and written back at the end of
// every Repair).
func NewBipartiteRepairer(r *dist.Runner, matchedEdge []int32, opts RepairOptions) *BipartiteRepairer {
	g := r.Graph()
	if opts.K < 1 {
		panic("core: BipartiteRepairer requires K >= 1")
	}
	if !g.IsBipartite() {
		panic("core: BipartiteRepairer requires a bipartite graph")
	}
	if len(matchedEdge) != g.N() {
		panic("core: BipartiteRepairer matchedEdge length mismatch")
	}
	return &BipartiteRepairer{
		r:           r,
		opts:        opts,
		matchedEdge: matchedEdge,
		envs:        make([]phaseEnv, g.N()),
		machines:    make([]phasesMachine, g.N()),
		progs:       make([]dist.RoundProgram, g.N()),
	}
}

// Repair runs the phase machinery over region (nil = full graph) under
// the given seed, with RepairBipartite's semantics and caller invariants.
func (br *BipartiteRepairer) Repair(seed uint64, inRegion []bool) *dist.Stats {
	if inRegion != nil && len(inRegion) != len(br.envs) {
		panic("core: Repair inRegion length mismatch")
	}
	br.region = inRegion
	return br.r.RunFlat(seed, br.factory)
}

func (br *BipartiteRepairer) factory(nd *dist.Node) dist.RoundProgram {
	v := nd.ID()
	env := &br.envs[v]
	if br.progs[v] == nil {
		// First run: wire the node's permanent closures. nd is stable for
		// the Runner's lifetime, br.region is re-read on every call.
		env.side = nd.Side()
		env.active = func(p int) bool {
			return nd.EdgeLive(p) && (br.region == nil || br.region[nd.NbrID(p)])
		}
		br.progs[v] = dist.AsProgram(&br.machines[v], func(nd *dist.Node) {
			if env.participate {
				writeBack(nd, &env.st, br.matchedEdge)
			}
		})
	}
	env.st = MatchState{MatchedPort: matchedPortOf(nd, br.matchedEdge[v])}
	env.participate = br.region == nil || br.region[v]
	br.machines[v].reset(env, br.opts.K, br.opts.Oracle)
	return br.progs[v]
}

// matchedPortOf translates a matched edge id into this node's port, -1
// for free.
func matchedPortOf(nd *dist.Node, e int32) int {
	if e < 0 {
		return -1
	}
	for p := 0; p < nd.Deg(); p++ {
		if int32(nd.EdgeID(p)) == e {
			return p
		}
	}
	panic(fmt.Sprintf("core: matched edge %d not incident to node %d", e, nd.ID()))
}

func writeBack(nd *dist.Node, st *MatchState, matchedEdge []int32) {
	matchedEdge[nd.ID()] = -1
	if st.MatchedPort >= 0 {
		matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
	}
}
