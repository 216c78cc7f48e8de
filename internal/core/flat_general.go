package core

// Flat execution of §3.3, Algorithm 4: the red/blue sampling
// loop as a RoundProgram that re-aims the shared phaseEnv at each
// iteration's bipartite subgraph Ĝ and drives the §3.2 phasesMachine on
// it. Segment-for-segment transliteration of GeneralMCM's blocking node
// program; bit-identical for equal seeds (TestFlatMatchesCoroutineGeneral).

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// generalMachine is one node's Algorithm 4 state machine. A positive
// capacity runs the inner bipartite phases in strict CONGEST mode (the
// Lemma 3.7 chunk pipelining of flat_strict.go) instead of the plain
// phasesMachine.
type generalMachine struct {
	k           int
	oracle      bool
	iters       int
	idleStop    int
	capacity    int
	matchedEdge []int32

	env    phaseEnv
	nbrRed []bool
	nbrIn  []bool
	red    bool
	inVhat bool
	it     int
	idle   int

	stage uint8
	ph    phasesMachine
	phs   strictPhasesMachine
	probe dist.ProbeOr
}

// The stage names the barrier the machine is parked on.
const (
	gsColor  uint8 = iota // the color-exchange round
	gsMember              // the V̂-membership round
	gsPhases              // inside the §3.2 phase pipeline
	gsIdle                // the idle-stop StepOr round
)

func (m *generalMachine) Init(nd *dist.Node) (again bool) {
	m.env = phaseEnv{st: MatchState{MatchedPort: -1}}
	m.nbrRed = make([]bool, nd.Deg())
	m.nbrIn = make([]bool, nd.Deg())
	// Ê membership, re-read each phase round against the current
	// iteration's colors (line 4: bichromatic edges inside V̂).
	m.env.active = func(p int) bool { return m.inVhat && m.nbrIn[p] && m.nbrRed[p] != m.red }
	// iters >= 1 always: GeneralMCMWithConfig substitutes TheoryIters
	// for non-positive overrides.
	m.sendColors(nd)
	m.stage = gsColor
	return true
}

// sendColors opens an iteration: each node colors itself red or blue
// with equal probability and exchanges colors (line 3).
func (m *generalMachine) sendColors(nd *dist.Node) {
	m.red = nd.Rand().Bool()
	nd.SendAll(colorMsg{m.red})
}

func (m *generalMachine) OnRound(nd *dist.Node, in []dist.Incoming) (again bool) {
	switch m.stage {
	case gsColor:
		for _, d := range in {
			m.nbrRed[d.Port] = d.Msg.(colorMsg).red
		}
		// Line 4: V̂ membership = free, or matched bichromatically.
		st := &m.env.st
		m.inVhat = st.MatchedPort == -1 || m.nbrRed[st.MatchedPort] != m.red
		nd.SendAll(memberMsg{m.inVhat})
		m.stage = gsMember
		return true

	case gsMember:
		for _, d := range in {
			m.nbrIn[d.Port] = d.Msg.(memberMsg).in
		}
		m.env.side = 1 // red nodes act as X
		if m.red {
			m.env.side = 0
		}
		m.env.participate = m.inVhat
		// Line 5-6: maximal augmentation of length ≤ 2k−1 inside Ĝ.
		m.stage = gsPhases
		if m.phasesStart(nd) {
			return m.phasesDone(nd)
		}
		return true

	case gsPhases:
		if m.phasesRound(nd, in) {
			return m.phasesDone(nd)
		}
		return true

	case gsIdle:
		m.probe.OnRound(nd, in) // one-round machine: always completes
		if m.probe.Result {
			m.idle = 0
		} else {
			m.idle++
			if m.idle >= m.idleStop {
				m.finish(nd)
				return false
			}
		}
		return m.endIteration(nd)
	}
	panic("core: generalMachine in invalid stage")
}

// phasesStart arms the iteration's phase pipeline — strict when a
// capacity is set, plain otherwise — and starts it within this segment.
func (m *generalMachine) phasesStart(nd *dist.Node) (done bool) {
	if m.capacity > 0 {
		m.phs.reset(&m.env, m.k, m.oracle, m.capacity)
		return m.phs.Start(nd)
	}
	m.ph.reset(&m.env, m.k, m.oracle)
	return m.ph.Start(nd)
}

// phasesRound routes one finished round to the running phase pipeline.
func (m *generalMachine) phasesRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	if m.capacity > 0 {
		return m.phs.OnRound(nd, in)
	}
	return m.ph.OnRound(nd, in)
}

// phasesChanged reports whether the pipeline that just finished changed
// the local matching.
func (m *generalMachine) phasesChanged() bool {
	if m.capacity > 0 {
		return m.phs.changed
	}
	return m.ph.changed
}

// phasesDone runs the segment after the phase pipeline returns: the
// optional idle-stop convergence probe.
func (m *generalMachine) phasesDone(nd *dist.Node) (again bool) {
	if m.idleStop > 0 {
		m.probe.Reset(m.phasesChanged())
		m.probe.Start(nd)
		m.stage = gsIdle
		return true
	}
	return m.endIteration(nd)
}

// endIteration closes iteration it and opens the next, or finishes.
func (m *generalMachine) endIteration(nd *dist.Node) (again bool) {
	m.it++
	if m.it >= m.iters {
		m.finish(nd)
		return false
	}
	m.sendColors(nd)
	m.stage = gsColor
	return true
}

func (m *generalMachine) finish(nd *dist.Node) {
	m.matchedEdge[nd.ID()] = -1
	if p := m.env.st.MatchedPort; p >= 0 {
		m.matchedEdge[nd.ID()] = int32(nd.EdgeID(p))
	}
}

// runFlatGeneral is the flat implementation behind
// GeneralMCM/GeneralMCMWithConfig; opts.StrictCapacityBits > 0 selects
// strict CONGEST pipelining for the inner phases.
func runFlatGeneral(g *graph.Graph, k int, cfg dist.Config, opts GeneralOptions, iters int) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &generalMachine{
			k: k, oracle: opts.Oracle, iters: iters, idleStop: opts.IdleStop,
			capacity:    opts.StrictCapacityBits,
			matchedEdge: matchedEdge,
		}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
