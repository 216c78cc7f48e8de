// Package israeliitai implements the randomized distributed maximal-matching
// algorithm of Israeli and Itai (Information Processing Letters 1986) — the
// classical ½-approximate maximum cardinality matching that the paper's
// introduction identifies as the baseline ("the basic result"), and the
// ancestor of the PIM and iSLIP switch schedulers.
//
// Each iteration costs three rounds: free nodes flip a coin; heads
// ("proposers") send a proposal over one random live edge; tails
// ("responders") accept one incoming proposal uniformly at random; newly
// matched nodes announce themselves so neighbors retire the dead edges.
// Every iteration removes a constant fraction of the live edges in
// expectation, so O(log n) iterations suffice with high probability.
//
// The protocol is exposed as a composable State so that other algorithms
// (the weight-class (¼−ε)-MWM in internal/lpr) can run it repeatedly on
// changing edge subsets inside a single node program.
package israeliitai

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// State is the per-node protocol state, persistent across repeated RunClass
// invocations within one node program.
type State struct {
	// Free reports whether this node is still unmatched.
	Free bool
	// MatchedPort is the port of the matched edge, or -1.
	MatchedPort int
	// NbrMatched marks ports whose far endpoint has announced it is matched.
	NbrMatched []bool

	announced bool // this node has already broadcast its own match
}

// NewState returns the initial state for nd.
func NewState(nd *dist.Node) *State {
	return &State{Free: true, MatchedPort: -1, NbrMatched: make([]bool, nd.Deg())}
}

// Reset rearms st for a fresh run on the same node — the allocation-free
// alternative to NewState for batch sweeps (see RunSeeds).
func (st *State) Reset() {
	st.Free, st.MatchedPort, st.announced = true, -1, false
	clear(st.NbrMatched)
}

// Budget returns the default fixed iteration budget giving maximality with
// high probability: dist.LogBudget(n, 8), i.e. 8·⌈log₂ n⌉ + 8.
func Budget(n int) int { return dist.LogBudget(n, 8) }

type proposal struct{ dist.Signal }
type accept struct{ dist.Signal }
type announce struct{ dist.Signal }

// RunClass executes the Israeli–Itai protocol restricted to ports where
// eligible(p) is true (and the far endpoint has not already announced being
// matched). All nodes of the network must call RunClass in lockstep. If
// oracle is true, iterations continue until a global OR reports no live
// edge remains (4 rounds per iteration, maximality guaranteed); otherwise
// exactly iters iterations run (3 rounds each, maximal w.h.p. for
// iters = Budget(n)).
func (st *State) RunClass(nd *dist.Node, eligible func(p int) bool, iters int, oracle bool) {
	r := nd.Rand()
	for it := 0; oracle || it < iters; it++ {
		live := st.livePorts(nd, eligible)
		if oracle {
			// Probe first: a class with no live edge anywhere costs one
			// round instead of a full proposal cycle.
			if _, more := nd.StepOr(len(live) > 0); !more {
				return
			}
		}

		// Round 1: proposers send over one random live edge.
		proposer := false
		proposedPort := -1
		if st.Free && len(live) > 0 {
			proposer = r.Bool()
			if proposer {
				proposedPort = live[r.Intn(len(live))]
				nd.Send(proposedPort, proposal{})
			}
		}
		in := nd.Step()

		// Round 2: responders accept one proposal uniformly at random.
		acceptedPort := -1
		if st.Free && !proposer {
			cnt := 0
			for _, m := range in {
				if _, ok := m.Msg.(proposal); !ok {
					continue
				}
				if st.NbrMatched[m.Port] || !eligible(m.Port) {
					continue
				}
				cnt++
				if r.Intn(cnt) == 0 { // reservoir-sample one proposer
					acceptedPort = m.Port
				}
			}
			if acceptedPort != -1 {
				nd.Send(acceptedPort, accept{})
				st.match(acceptedPort)
			}
		}
		in = nd.Step()

		// Round 3: proposers that were accepted match; new matches announce.
		if proposer && st.Free {
			for _, m := range in {
				if _, ok := m.Msg.(accept); ok && m.Port == proposedPort {
					st.match(m.Port)
				}
			}
		}
		justMatched := st.MatchedPort != -1 && !st.announced
		if justMatched {
			st.announced = true
			nd.SendAll(announce{})
		}
		in = nd.Step()
		for _, m := range in {
			if _, ok := m.Msg.(announce); ok {
				st.NbrMatched[m.Port] = true
			}
		}
	}
}

// livePorts lists the ports still usable for matching in this class.
func (st *State) livePorts(nd *dist.Node, eligible func(p int) bool) []int {
	if !st.Free {
		return nil
	}
	var live []int
	for p := 0; p < nd.Deg(); p++ {
		if eligible(p) && !st.NbrMatched[p] {
			live = append(live, p)
		}
	}
	return live
}

func (st *State) match(port int) {
	st.Free = false
	st.MatchedPort = port
}

// Run computes a maximal matching of g distributively. With oracle=true it
// runs to guaranteed maximality using the global-OR termination primitive;
// otherwise it uses the fixed Budget(n) iteration count (maximal w.h.p.).
func Run(g *graph.Graph, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return RunWithConfig(g, dist.Config{Seed: seed}, oracle)
}

// RunBudget runs exactly iters proposal iterations (three rounds each)
// with no termination oracle — the truncated variant behind the
// constant-expected-time tree result of Hoepman, Kutten and Lotker that
// the paper's introduction cites: on trees (and other sparse graphs) a
// constant budget already yields a (½−ε)-approximate MCM (experiment E12).
func RunBudget(g *graph.Graph, seed uint64, iters int) (*graph.Matching, *dist.Stats) {
	return runFlat(g, dist.Config{Seed: seed}, iters, false)
}

// RunWithConfig is Run with full engine configuration (profiling,
// limits). It executes the flat form (flat.go).
func RunWithConfig(g *graph.Graph, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	return runFlat(g, cfg, Budget(g.N()), oracle)
}

// runCoroutine is the blocking form of runFlat: the readable reference
// the flat machine is pinned bit-identical to (TestFlatMatchesCoroutine).
func runCoroutine(g *graph.Graph, cfg dist.Config, iters int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		st := NewState(nd)
		st.RunClass(nd, func(int) bool { return true }, iters, oracle)
		if st.MatchedPort >= 0 {
			matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		} else {
			matchedEdge[nd.ID()] = -1
		}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
