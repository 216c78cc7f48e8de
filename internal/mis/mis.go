// Package mis implements Luby's randomized distributed maximal independent
// set algorithm ([20] in the paper; the variant of Alon, Babai and Itai [1]
// behaves identically for our purposes). The paper's generic matching
// algorithm (its Algorithm 1, Step 5) runs an MIS computation on the
// conflict graph of augmenting paths; internal/core emulates that MIS over
// the physical network, while this package provides the algorithm in its
// plain form — both as a substrate demonstration and as the reference for
// the emulation's per-iteration structure.
//
// Each iteration costs three rounds: active nodes exchange random
// priorities; local maxima join the MIS and announce; their neighbors
// retire and announce that too. O(log n) iterations suffice w.h.p.
package mis

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

type priority struct {
	val float64
	id  int
}

func (priority) Bits() int { return 64 }

// beats reports whether p wins against q (ties broken by id; ids are
// distinct so the order is total).
func (p priority) beats(q priority) bool {
	if p.val != q.val {
		return p.val > q.val
	}
	return p.id > q.id
}

type joined struct{ dist.Signal }
type retired struct{ dist.Signal }

// Budget is the default fixed iteration budget (w.h.p. sufficient):
// dist.LogBudget(n, 8), the same 8·⌈log₂ n⌉ + 8 count Israeli–Itai uses.
func Budget(n int) int { return dist.LogBudget(n, 8) }

// Run computes a maximal independent set of g distributively and returns
// the membership vector. With oracle=true it terminates via the global-OR
// primitive with a guaranteed-maximal result; otherwise it runs the fixed
// Budget(n) iteration count (maximal w.h.p.).
func Run(g *graph.Graph, seed uint64, oracle bool) ([]bool, *dist.Stats) {
	return RunWithConfig(g, dist.Config{Seed: seed}, oracle)
}

// RunWithConfig is Run with full engine configuration. It executes the
// flat form (flat.go).
func RunWithConfig(g *graph.Graph, cfg dist.Config, oracle bool) ([]bool, *dist.Stats) {
	return runFlat(g, cfg, oracle)
}

// runCoroutine is the blocking form of RunWithConfig: the readable
// reference the flat machine is pinned bit-identical to
// (TestFlatMatchesCoroutine).
func runCoroutine(g *graph.Graph, cfg dist.Config, oracle bool) ([]bool, *dist.Stats) {
	inMIS := make([]bool, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		r := nd.Rand()
		active := true
		nbrActive := make([]bool, nd.Deg())
		for p := range nbrActive {
			nbrActive[p] = true
		}
		member := false

		for it := 0; oracle || it < Budget(nd.N()); it++ {
			// Round 1: exchange priorities among active nodes.
			mine := priority{val: r.Float64(), id: nd.ID()}
			if active {
				for p := 0; p < nd.Deg(); p++ {
					if nbrActive[p] {
						nd.Send(p, mine)
					}
				}
			}
			in := nd.Step()

			// Round 2: local maxima join and announce.
			if active {
				win := true
				for _, m := range in {
					if q, ok := m.Msg.(priority); ok && q.beats(mine) {
						win = false
						break
					}
				}
				if win {
					member = true
					active = false
					nd.SendAll(joined{})
				}
			}
			in = nd.Step()

			// Round 3: dominated neighbors retire and announce.
			wasActive := active
			for _, m := range in {
				if _, ok := m.Msg.(joined); ok {
					nbrActive[m.Port] = false
					active = false
				}
			}
			if wasActive && !active {
				nd.SendAll(retired{})
			}
			in = nd.Step()
			for _, m := range in {
				if _, ok := m.Msg.(retired); ok {
					nbrActive[m.Port] = false
				}
			}

			if oracle {
				if _, more := nd.StepOr(active); !more {
					break
				}
			}
		}
		inMIS[nd.ID()] = member
	})
	return inMIS, stats
}

// Verify checks that membership is an independent set of g and that it is
// maximal (every non-member has a member neighbor). Returns a counterexample
// description or "".
func Verify(g *graph.Graph, member []bool) string {
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if member[u] && member[v] {
			return "adjacent members"
		}
	}
	for v := 0; v < g.N(); v++ {
		if member[v] {
			continue
		}
		dominated := false
		for p := 0; p < g.Deg(v); p++ {
			if member[g.NbrAt(v, p)] {
				dominated = true
				break
			}
		}
		if !dominated {
			return "undominated non-member"
		}
	}
	return ""
}
