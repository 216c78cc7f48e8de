package core

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/lpr"
)

// This file implements the paper's §4, Algorithm 5: the (½−ε)-approximate
// maximum weight matching. Each of the ⌈(3/2δ)·ln(2/ε)⌉ iterations computes
// the derived weight function w_M (one round of exchanging matched-edge
// weights), runs a black-box δ-MWM on (V, E, w_M) — internal/lpr with
// δ = ¼ − 1/20 = 1/5, exactly the instantiation in the proof of Theorem
// 4.5 — and then augments M by the length-3 wraps centered at the edges of
// M′ (one release round, Lemma 4.1).

// Delta is the black-box approximation factor used by WeightedMWM, chosen
// as in the paper's proof of Theorem 4.5 (δ = 1/5 via the (¼−ε')-MWM with
// ε' = 1/20).
const Delta = 0.2

const blackBoxEps = 0.05 // ε' = 1/20: ¼ − ε' = δ = 1/5

// WeightedIters returns the paper's iteration count ⌈(3/2δ)·ln(2/ε)⌉
// (Algorithm 5, line 2).
func WeightedIters(eps float64) int {
	if eps <= 0 || eps >= 0.5 {
		panic("core: WeightedMWM requires 0 < eps < 1/2")
	}
	return int(math.Ceil(3 / (2 * Delta) * math.Log(2/eps)))
}

type mwMsg float64 // a node's current matched-edge weight

func (mwMsg) Bits() int { return 64 }

type releaseMsg struct{ dist.Signal }

// WeightedMWM computes a (½−ε)-approximate maximum weight matching of g
// distributively (Theorem 4.5): O(log(1/ε)·log n)-round shape with
// O(log n)-bit messages (the inner black box contributes an extra log
// factor; see DESIGN.md §3 substitution 1).
//
// If trace is non-nil it must have length WeightedIters(eps)+1; entry i
// receives a snapshot of the matching after i iterations (entry 0 is the
// empty matching), which experiment E6 compares against the Lemma 4.3
// bound w(M_i) ≥ ½(1−e^{−2δi/3})·w(M*).
func WeightedMWM(g *graph.Graph, eps float64, seed uint64, oracle bool, trace []*graph.Matching) (*graph.Matching, *dist.Stats) {
	return WeightedMWMWithConfig(g, dist.Config{Seed: seed}, eps, oracle, trace)
}

// WeightedMWMWithConfig is WeightedMWM with full engine configuration
// (profiling, limits). It executes the flat form (flat_weighted.go).
func WeightedMWMWithConfig(g *graph.Graph, cfg dist.Config, eps float64, oracle bool, trace []*graph.Matching) (*graph.Matching, *dist.Stats) {
	return weightedMWM(g, cfg, eps, oracle, trace, runFlatWeighted)
}

// weightedMWMCoroutine is the blocking form of WeightedMWMWithConfig: the
// readable reference the flat machines are pinned bit-identical to
// (TestFlatMatchesCoroutineWeighted).
func weightedMWMCoroutine(g *graph.Graph, cfg dist.Config, eps float64, oracle bool, trace []*graph.Matching) (*graph.Matching, *dist.Stats) {
	return weightedMWM(g, cfg, eps, oracle, trace, runCoroutineWeighted)
}

// weightedRecorder snapshots node st's matched edge after iteration it.
type weightedRecorder func(nd *dist.Node, st *MatchState, it int)

// weightedMWM sets up the per-iteration trace around one execution form
// of Algorithm 5.
func weightedMWM(g *graph.Graph, cfg dist.Config, eps float64, oracle bool, trace []*graph.Matching,
	run func(*graph.Graph, dist.Config, int, bool, weightedRecorder) ([]int32, *dist.Stats)) (*graph.Matching, *dist.Stats) {
	iters := WeightedIters(eps)
	if trace != nil && len(trace) != iters+1 {
		panic("core: trace must have WeightedIters(eps)+1 entries")
	}
	snap := make([][]int32, 0)
	if trace != nil {
		snap = make([][]int32, iters+1)
		for i := range snap {
			snap[i] = make([]int32, g.N())
		}
	}
	record := func(nd *dist.Node, st *MatchState, it int) {
		if trace == nil {
			return
		}
		e := int32(-1)
		if st.MatchedPort >= 0 {
			e = int32(nd.EdgeID(st.MatchedPort))
		}
		snap[it][nd.ID()] = e
	}

	matchedEdge, stats := run(g, cfg, iters, oracle, record)
	if trace != nil {
		for i := range snap {
			trace[i] = graph.CollectMatching(g, snap[i])
		}
	}
	return graph.CollectMatching(g, matchedEdge), stats
}

// runCoroutineWeighted is Algorithm 5's blocking node program.
func runCoroutineWeighted(g *graph.Graph, cfg dist.Config, iters int, oracle bool, record weightedRecorder) ([]int32, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		st := &MatchState{MatchedPort: -1}
		record(nd, st, 0)
		wm := make([]float64, nd.Deg())
		for it := 1; it <= iters; it++ {
			// Round 1: exchange matched-edge weights to evaluate w_M.
			my := 0.0
			if st.MatchedPort >= 0 {
				my = nd.EdgeWeight(st.MatchedPort)
			}
			nd.SendAll(mwMsg(my))
			theirs := make([]float64, nd.Deg())
			for _, m := range nd.Step() {
				theirs[m.Port] = float64(m.Msg.(mwMsg))
			}
			for p := 0; p < nd.Deg(); p++ {
				if p == st.MatchedPort {
					wm[p] = 0 // w_M vanishes on matching edges
					continue
				}
				// Canonical subtraction order (smaller endpoint first) so
				// both endpoints compute bit-identical w_M values.
				if nd.ID() < nd.NbrID(p) {
					wm[p] = nd.EdgeWeight(p) - my - theirs[p]
				} else {
					wm[p] = nd.EdgeWeight(p) - theirs[p] - my
				}
			}

			// Line 4: M′ ← δ-MWM(V, E, w_M) via the weight-class black box.
			mPrimePort := lpr.RunLocalWeights(nd, wm, blackBoxEps, oracle)

			// Line 5: M ← M ⊕ ⋃_{e∈M′} wrap(e). Nodes matched in M′
			// re-mate and release their old partners; wraps may overlap at
			// M-edges only (Lemma 4.1), which the release handles silently.
			if mPrimePort >= 0 {
				old := st.MatchedPort
				st.MatchedPort = mPrimePort
				if old >= 0 && old != mPrimePort {
					nd.Send(old, releaseMsg{})
				}
			}
			in := nd.Step()
			for _, m := range in {
				if _, ok := m.Msg.(releaseMsg); !ok {
					continue
				}
				if m.Port == st.MatchedPort {
					// Our partner left for an M′ edge; we become free.
					st.MatchedPort = -1
				}
				// Otherwise we re-mated ourselves this iteration; the
				// release of the old shared M-edge needs no action.
			}
			record(nd, st, it)
		}
		matchedEdge[nd.ID()] = -1
		if st.MatchedPort >= 0 {
			matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		}
	})
	return matchedEdge, stats
}
