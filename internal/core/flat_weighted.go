package core

// Flat execution of §4, Algorithm 5: the wrap-gain iteration as
// a RoundProgram that derives w_M (one exchange round), drives the
// lpr.WeightsMachine black box on it, and applies the length-3 wraps
// (one release round) — exactly the segments of WeightedMWM's blocking
// node program. Bit-identical for equal seeds, trace snapshots included
// (TestFlatMatchesCoroutineWeighted).

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/lpr"
)

// weightedMachine is one node's Algorithm 5 state machine.
type weightedMachine struct {
	oracle      bool
	iters       int
	matchedEdge []int32
	record      func(nd *dist.Node, st *MatchState, it int)

	st     MatchState
	my     float64 // this iteration's matched-edge weight, sent as mwMsg
	wm     []float64
	theirs []float64
	wmach  lpr.WeightsMachine

	it    int
	stage uint8
}

// The stage names the barrier the machine is parked on.
const (
	wsMW      uint8 = iota // the matched-weight exchange round
	wsBox                  // inside the weight-class black box
	wsRelease              // the wrap release round
)

func (m *weightedMachine) Init(nd *dist.Node) (again bool) {
	m.st = MatchState{MatchedPort: -1}
	m.record(nd, &m.st, 0)
	m.wm = make([]float64, nd.Deg())
	m.theirs = make([]float64, nd.Deg())
	m.it = 1 // WeightedIters >= 1 for every valid eps
	m.sendWeights(nd)
	m.stage = wsMW
	return true
}

// sendWeights opens an iteration: exchange matched-edge weights to
// evaluate w_M (round 1 of the blocking loop).
func (m *weightedMachine) sendWeights(nd *dist.Node) {
	m.my = 0
	if m.st.MatchedPort >= 0 {
		m.my = nd.EdgeWeight(m.st.MatchedPort)
	}
	nd.SendAll(mwMsg(m.my))
}

func (m *weightedMachine) OnRound(nd *dist.Node, in []dist.Incoming) (again bool) {
	switch m.stage {
	case wsMW:
		clear(m.theirs)
		for _, d := range in {
			m.theirs[d.Port] = float64(d.Msg.(mwMsg))
		}
		for p := 0; p < nd.Deg(); p++ {
			if p == m.st.MatchedPort {
				m.wm[p] = 0 // w_M vanishes on matching edges
				continue
			}
			// Canonical subtraction order (smaller endpoint first) so
			// both endpoints compute bit-identical w_M values.
			if nd.ID() < nd.NbrID(p) {
				m.wm[p] = nd.EdgeWeight(p) - m.my - m.theirs[p]
			} else {
				m.wm[p] = nd.EdgeWeight(p) - m.theirs[p] - m.my
			}
		}
		// Line 4: M′ ← δ-MWM(V, E, w_M) via the weight-class black box.
		m.wmach.Reset(m.wm, blackBoxEps, m.oracle)
		m.stage = wsBox
		if m.wmach.Start(nd) {
			return m.applyWraps(nd)
		}
		return true

	case wsBox:
		if m.wmach.OnRound(nd, in) {
			return m.applyWraps(nd)
		}
		return true

	case wsRelease:
		for _, d := range in {
			if _, ok := d.Msg.(releaseMsg); !ok {
				continue
			}
			if d.Port == m.st.MatchedPort {
				// Our partner left for an M′ edge; we become free.
				m.st.MatchedPort = -1
			}
			// Otherwise we re-mated ourselves this iteration; the
			// release of the old shared M-edge needs no action.
		}
		m.record(nd, &m.st, m.it)
		m.it++
		if m.it > m.iters {
			m.matchedEdge[nd.ID()] = -1
			if m.st.MatchedPort >= 0 {
				m.matchedEdge[nd.ID()] = int32(nd.EdgeID(m.st.MatchedPort))
			}
			return false
		}
		m.sendWeights(nd)
		m.stage = wsMW
		return true
	}
	panic("core: weightedMachine in invalid stage")
}

// applyWraps runs line 5 in the black box's final segment: nodes matched
// in M′ re-mate and release their old partners; wraps may overlap at
// M-edges only (Lemma 4.1), which the release round handles silently.
func (m *weightedMachine) applyWraps(nd *dist.Node) (again bool) {
	if port := m.wmach.Port; port >= 0 {
		old := m.st.MatchedPort
		m.st.MatchedPort = port
		if old >= 0 && old != port {
			nd.Send(old, releaseMsg{})
		}
	}
	m.stage = wsRelease
	return true
}

// runFlatWeighted is the flat implementation behind
// WeightedMWM/WeightedMWMWithConfig.
func runFlatWeighted(g *graph.Graph, cfg dist.Config, iters int, oracle bool, record weightedRecorder) ([]int32, *dist.Stats) {

	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &weightedMachine{
			oracle: oracle, iters: iters, matchedEdge: matchedEdge, record: record,
		}
	})
	return matchedEdge, stats
}
