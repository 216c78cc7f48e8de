package core

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §3.3, Algorithm 4: the randomized
// reduction from general graphs to bipartite graphs. Each iteration colors
// every node red or blue by a fair coin, forms the bipartite subgraph
// Ĝ = (V̂, Ê) with V̂ = {free nodes} ∪ {bichromatically matched nodes} and
// Ê = the bichromatic edges inside V̂, and calls the §3.2 machinery for a
// maximal set of disjoint augmenting paths of length ≤ 2k−1 in Ĝ
// (Aug(Ĝ, M, 2k−1)). After 2^{2k+1}(k+1)·ln k iterations the matching is a
// (1−1/k)-MCM w.h.p. (Lemma 3.10, Theorem 3.11).

// GeneralOptions tunes GeneralMCM.
type GeneralOptions struct {
	// Iters overrides the paper's iteration bound 2^{2k+1}(k+1)·ln k.
	// Zero keeps the bound.
	Iters int
	// IdleStop, when positive, stops after this many consecutive
	// iterations without any augmentation anywhere (detected with one
	// StepOr per iteration). This is a practical convergence heuristic
	// measured against the paper bound in experiment E4; zero disables it.
	IdleStop int
	// Oracle enables convergence detection inside each bipartite phase.
	Oracle bool
	// StrictCapacityBits, when positive, runs the inner bipartite phases
	// in strict CONGEST mode: no message exceeds this many bits (the
	// Lemma 3.7 pipelining), realizing Theorem 3.11's O(log n)-bit claim
	// as an actual execution constraint.
	StrictCapacityBits int
}

// TheoryIters returns the paper's iteration count 2^{2k+1}(k+1)·ln k
// (Algorithm 4, line 2), rounded up.
func TheoryIters(k int) int {
	if k < 3 {
		k = 3 // the paper's analysis assumes k > 2
	}
	return int(math.Ceil(math.Pow(2, float64(2*k+1)) * float64(k+1) * math.Log(float64(k))))
}

type colorMsg struct{ red bool }

func (colorMsg) Bits() int { return 1 }

type memberMsg struct{ in bool }

func (memberMsg) Bits() int { return 1 }

// GeneralMCM computes a (1−1/k)-approximate maximum cardinality matching of
// an arbitrary graph g with high probability (Theorem 3.11), in
// O(2^{2k}k⁴ log k · log n) rounds with O(log n)-bit messages.
func GeneralMCM(g *graph.Graph, k int, seed uint64, opts GeneralOptions) (*graph.Matching, *dist.Stats) {
	return GeneralMCMWithConfig(g, k, dist.Config{Seed: seed}, opts)
}

// GeneralMCMWithConfig is GeneralMCM with full engine configuration
// (profiling, limits). It executes the flat form (flat_general.go);
// strict CONGEST mode (opts.StrictCapacityBits > 0) uses the flat chunk
// pipelining of flat_strict.go.
func GeneralMCMWithConfig(g *graph.Graph, k int, cfg dist.Config, opts GeneralOptions) (*graph.Matching, *dist.Stats) {
	return runFlatGeneral(g, k, cfg, opts, generalIters(k, opts))
}

// generalIters checks k and resolves the iteration count of opts.
func generalIters(k int, opts GeneralOptions) int {
	if k < 3 {
		panic("core: GeneralMCM requires k > 2 (Algorithm 4)")
	}
	if opts.Iters > 0 {
		return opts.Iters
	}
	return TheoryIters(k)
}

// generalMCMCoroutine is the blocking form of GeneralMCMWithConfig: the
// readable reference the flat machines are pinned bit-identical to
// (TestFlatMatchesCoroutineGeneral).
func generalMCMCoroutine(g *graph.Graph, k int, cfg dist.Config, opts GeneralOptions) (*graph.Matching, *dist.Stats) {
	iters := generalIters(k, opts)
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		generalProgram(nd, k, iters, opts, matchedEdge)
	})
	return graph.CollectMatching(g, matchedEdge), stats
}

// generalProgram is Algorithm 4's blocking node program.
func generalProgram(nd *dist.Node, k, iters int, opts GeneralOptions, matchedEdge []int32) {
	st := &MatchState{MatchedPort: -1}
	nbrRed := make([]bool, nd.Deg())
	nbrIn := make([]bool, nd.Deg())
	idle := 0
	for it := 0; it < iters; it++ {
		// Line 3: each node colors itself red or blue with equal
		// probability, and exchanges colors.
		red := nd.Rand().Bool()
		nd.SendAll(colorMsg{red})
		for _, m := range nd.Step() {
			nbrRed[m.Port] = m.Msg.(colorMsg).red
		}
		// Line 4: V̂ membership = free, or matched bichromatically.
		inVhat := st.MatchedPort == -1 || nbrRed[st.MatchedPort] != red
		nd.SendAll(memberMsg{inVhat})
		for _, m := range nd.Step() {
			nbrIn[m.Port] = m.Msg.(memberMsg).in
		}
		active := func(p int) bool { return inVhat && nbrIn[p] && nbrRed[p] != red }
		side := 0 // red nodes act as X
		if !red {
			side = 1
		}
		// Line 5-6: maximal augmentation of length ≤ 2k−1 inside Ĝ.
		var changed bool
		if opts.StrictCapacityBits > 0 {
			changed = runPhasesStrict(nd, st, side, inVhat, active, k, opts.Oracle, opts.StrictCapacityBits)
		} else {
			changed = runPhases(nd, st, side, inVhat, active, k, opts.Oracle)
		}

		if opts.IdleStop > 0 {
			_, any := nd.StepOr(changed)
			if any {
				idle = 0
			} else {
				idle++
				if idle >= opts.IdleStop {
					break
				}
			}
		}
	}
	matchedEdge[nd.ID()] = -1
	if st.MatchedPort >= 0 {
		matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
	}
}
