// Package lpr provides the constant-factor distributed weighted-matching
// black box that the paper's Algorithm 5 plugs in (its Lemma 4.4 cites the
// (¼−ε)-MWM of Lotker, Patt-Shamir and Rosén, PODC 2007).
//
// The PODC'07 pseudocode is not part of the reproduced text, so this package
// implements a weight-class algorithm with the same guarantee (see DESIGN.md
// §3, substitution 1): edge weights are bucketed into geometric classes
// below the global maximum W; classes lighter than εW/(2n) are discarded
// (they total at most ε·w(M*)/4); the Israeli–Itai maximal-matching protocol
// runs on each class from heaviest to lightest over the still-free nodes.
// Every matched edge blocks at most two optimum edges of at most twice its
// weight, giving a (¼−ε)-approximation in O(log(n/ε)·log n) rounds.
//
// The package also contains LocalGreedy, the "locally heaviest edge"
// protocol (Preis/Hoepman style): a ½-approximation whose round count
// degenerates to Θ(n) on adversarially increasing weight chains — the
// pathology that motivates weight classes (benchmarked in E7).
package lpr

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
)

// Classes returns the number of weight classes used for a given ε and n.
func Classes(n int, eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("lpr: need 0 < eps < 1")
	}
	return int(math.Ceil(math.Log2(2*float64(n)/eps))) + 1
}

// Guarantee returns the approximation factor δ = ¼ − ε this configuration
// provides.
func Guarantee(eps float64) float64 { return 0.25 - eps }

// Run computes a (¼−ε)-approximate maximum-weight matching of g
// distributively. The global maximum weight W is obtained with one StepMax
// aggregation (counted in Stats.OracleCalls). With oracle=true each class
// runs to guaranteed maximality; otherwise each class runs the fixed
// Israeli–Itai budget.
func Run(g *graph.Graph, eps float64, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return RunWithConfig(g, dist.Config{Seed: seed}, eps, oracle)
}

// RunWithConfig is Run with full engine configuration. It executes the
// flat form (flat.go).
func RunWithConfig(g *graph.Graph, cfg dist.Config, eps float64, oracle bool) (*graph.Matching, *dist.Stats) {
	if eps <= 0 || eps >= 1 {
		panic("lpr: need 0 < eps < 1")
	}
	return runFlat(g, cfg, eps, oracle)
}

// runCoroutine is the blocking form of RunWithConfig: the readable
// reference the flat machine is pinned bit-identical to
// (TestFlatMatchesCoroutine).
func runCoroutine(g *graph.Graph, cfg dist.Config, eps float64, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		matchedEdge[nd.ID()] = int32(RunLocal(nd, eps, oracle))
	})
	return graph.CollectMatching(g, matchedEdge), stats
}

// RunLocal is the node program body: it can be embedded in a larger
// program (Algorithm 5 uses it on derived weights via RunLocalWeights).
// It returns the global edge id this node matched on, or -1.
func RunLocal(nd *dist.Node, eps float64, oracle bool) int {
	w := make([]float64, nd.Deg())
	for p := range w {
		w[p] = nd.EdgeWeight(p)
	}
	port := RunLocalWeights(nd, w, eps, oracle)
	if port < 0 {
		return -1
	}
	return nd.EdgeID(port)
}

// RunLocalWeights runs the weight-class protocol with explicit per-port
// weights (which may differ from the underlying graph's, as with the
// paper's derived function w_M). Ports with non-positive weight never
// match. It returns the matched port or -1. All nodes must call it in
// lockstep; it costs one StepMax plus Classes(n,eps) Israeli–Itai class
// runs.
func RunLocalWeights(nd *dist.Node, w []float64, eps float64, oracle bool) int {
	localMax := math.Inf(-1)
	for _, x := range w {
		if x > localMax {
			localMax = x
		}
	}
	_, W := nd.StepMax(localMax)
	if W <= 0 {
		// No positive edge anywhere; everyone must still agree to stop.
		return -1
	}

	nClasses := Classes(nd.N(), eps)
	class := make([]int, nd.Deg())
	for p := range class {
		class[p] = -1
		if w[p] > 0 {
			c := int(math.Floor(math.Log2(W / w[p])))
			if c < 0 {
				c = 0 // guard: w[p] == W exactly, or FP jitter
			}
			if c < nClasses {
				class[p] = c
			}
		}
	}

	st := israeliitai.NewState(nd)
	budget := israeliitai.Budget(nd.N())
	for c := 0; c < nClasses; c++ {
		c := c
		st.RunClass(nd, func(p int) bool { return class[p] == c }, budget, oracle)
	}
	return st.MatchedPort
}

// LocalGreedy runs the locally-heaviest-edge protocol: in each iteration a
// free node claims its heaviest live incident edge (ties by edge id) and an
// edge claimed from both sides becomes matched. Run to convergence it yields
// a maximal matching that ½-approximates the MWM, but the number of
// iterations is Θ(n) in the worst case (gen.AdversarialChain). maxIters
// bounds the iterations when oracle is false.
func LocalGreedy(g *graph.Graph, seed uint64, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	return LocalGreedyWithConfig(g, dist.Config{Seed: seed}, maxIters, oracle)
}

// LocalGreedyWithConfig is LocalGreedy with full engine configuration
// (profiling, limits). It executes the flat form (flat_greedy.go).
func LocalGreedyWithConfig(g *graph.Graph, cfg dist.Config, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	return runFlatGreedy(g, cfg, maxIters, oracle)
}

// localGreedyCoroutine is the blocking form of LocalGreedyWithConfig: the
// readable reference the flat machine is pinned bit-identical to
// (TestFlatGreedyMatchesCoroutine).
func localGreedyCoroutine(g *graph.Graph, cfg dist.Config, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		matchedEdge[nd.ID()] = -1
		free := true
		announcedSelf := false
		dead := make([]bool, nd.Deg())
		better := func(p, q int) bool { // is port p's edge heavier than q's?
			wp, wq := nd.EdgeWeight(p), nd.EdgeWeight(q)
			if wp != wq {
				return wp > wq
			}
			return nd.EdgeID(p) < nd.EdgeID(q)
		}
		for it := 0; oracle || it < maxIters; it++ {
			// Round 1: claim the heaviest live edge.
			claim := -1
			if free {
				for p := 0; p < nd.Deg(); p++ {
					if !dead[p] && nd.EdgeWeight(p) > 0 && (claim == -1 || better(p, claim)) {
						claim = p
					}
				}
				if claim != -1 {
					nd.Send(claim, dist.Signal{})
				}
			}
			in := nd.Step()
			// Round 2: mutually claimed edges match; new matches announce.
			if free && claim != -1 {
				for _, m := range in {
					if m.Port == claim {
						free = false
						matchedEdge[nd.ID()] = int32(nd.EdgeID(claim))
					}
				}
			}
			if !free && !announcedSelf {
				announcedSelf = true
				nd.SendAll(dist.Bit(true))
			}
			in = nd.Step()
			for _, m := range in {
				if _, ok := m.Msg.(dist.Bit); ok {
					dead[m.Port] = true
				}
			}
			if oracle {
				live := false
				if free {
					for p := 0; p < nd.Deg(); p++ {
						if !dead[p] && nd.EdgeWeight(p) > 0 {
							live = true
							break
						}
					}
				}
				if _, more := nd.StepOr(live); !more {
					break
				}
			}
		}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
