package lpr

// Flat (dist.Machine) form of the weight-class protocol — a
// segment-for-segment transliteration of RunLocal/RunLocalWeights: one
// StepMax-equivalent barrier for the global maximum weight, then one
// israeliitai.ClassMachine per weight class, heaviest to lightest, over a
// single shared israeliitai.State. Bit-identical to the coroutine form
// (TestFlatMatchesCoroutine); keep the two in lockstep when changing
// either.
//
// WeightsMachine is the composable unit: internal/core's Algorithm 5
// drives one per outer iteration on the derived weights w_M, exactly as
// its blocking form calls RunLocalWeights.

import (
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
)

// WeightsMachine executes one RunLocalWeights invocation as a composable
// dist.Machine: the flat analogue of calling RunLocalWeights(nd, w, eps,
// oracle) from a blocking program. Zero value is unusable; call Reset
// first. After the machine completes, Port holds the matched port (-1 if
// none).
type WeightsMachine struct {
	w      []float64
	eps    float64
	oracle bool

	// Class geometry, computed once the global max W is known.
	nClasses int
	class    []int
	c        int // current class, valid while inClass

	inClass bool // false ⇒ parked on the W aggregation round
	st      *israeliitai.State
	cm      israeliitai.ClassMachine

	// Port is the matched port after the machine completes, or -1.
	Port int
}

// Reset arms the machine for one run over the per-port weights w (which
// may differ from the underlying graph's, as with the paper's derived
// function w_M). w must stay valid until the machine completes.
func (m *WeightsMachine) Reset(w []float64, eps float64, oracle bool) {
	m.w, m.eps, m.oracle = w, eps, oracle
	m.inClass = false
	m.st = nil
	m.Port = -1
}

// Start submits this node's maximum weight to the global-max aggregation
// — everything RunLocalWeights does before its StepMax barrier.
func (m *WeightsMachine) Start(nd *dist.Node) (done bool) {
	localMax := math.Inf(-1)
	for _, x := range m.w {
		if x > localMax {
			localMax = x
		}
	}
	nd.SubmitMax(localMax)
	return false
}

// OnRound consumes one finished round, reporting completion like any
// dist.Machine.
func (m *WeightsMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	if !m.inClass {
		W := nd.GlobalMax()
		if W <= 0 {
			// No positive edge anywhere; everyone agrees to stop.
			m.Port = -1
			return true
		}
		m.nClasses = Classes(nd.N(), m.eps)
		if cap(m.class) < nd.Deg() {
			m.class = make([]int, nd.Deg())
		} else {
			m.class = m.class[:nd.Deg()]
		}
		for p := range m.class {
			m.class[p] = -1
			if w := m.w[p]; w > 0 {
				c := int(math.Floor(math.Log2(W / w)))
				if c < 0 {
					c = 0 // guard: w == W exactly, or FP jitter
				}
				if c < m.nClasses {
					m.class[p] = c
				}
			}
		}
		m.st = israeliitai.NewState(nd)
		m.inClass = true
		m.c = 0
		return m.startClasses(nd)
	}
	if m.cm.OnRound(nd, in) {
		m.c++
		return m.startClasses(nd)
	}
	return false
}

// startClasses arms and starts class machines from m.c onward until one
// reaches a barrier (they all do for positive budgets); when every class
// has run, the machine completes with Port set.
func (m *WeightsMachine) startClasses(nd *dist.Node) (done bool) {
	budget := israeliitai.Budget(nd.N())
	eligible := func(p int) bool { return m.class[p] == m.c }
	for m.c < m.nClasses {
		m.cm.Reset(m.st, eligible, budget, m.oracle)
		if !m.cm.Start(nd) {
			return false
		}
		m.c++
	}
	m.Port = m.st.MatchedPort
	return true
}

// runFlat is the flat implementation behind Run/RunWithConfig: a
// WeightsMachine over the graph's own edge weights, wrapped as the whole
// node program.
func runFlat(g *graph.Graph, cfg dist.Config, eps float64, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		w := make([]float64, nd.Deg())
		for p := range w {
			w[p] = nd.EdgeWeight(p)
		}
		wm := &WeightsMachine{}
		wm.Reset(w, eps, oracle)
		return dist.AsProgram(wm, func(nd *dist.Node) {
			matchedEdge[nd.ID()] = -1
			if wm.Port >= 0 {
				matchedEdge[nd.ID()] = int32(nd.EdgeID(wm.Port))
			}
		})
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
