package lpr

// Flat (dist.RoundProgram) form of LocalGreedy — the
// locally-heaviest-edge protocol whose Θ(n)-round pathology (E7's
// adversarial chain) is exactly where per-node-round cost dominates.
// Segment-for-segment transliteration of the blocking program in lpr.go;
// bit-identical for equal seeds (TestFlatGreedyMatchesCoroutine).

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// greedyMachine is one node's LocalGreedy state machine.
type greedyMachine struct {
	maxIters    int
	oracle      bool
	matchedEdge []int32

	free          bool
	announcedSelf bool
	dead          []bool
	claim         int
	it            int

	stage uint8
	probe dist.ProbeOr
}

// The stage names the barrier the machine is parked on.
const (
	lgClaim    uint8 = iota // the claim round
	lgAnnounce              // the match-announce round
	lgProbe                 // the oracle liveness round
)

// better reports whether port p's edge is heavier than port q's (ties by
// edge id) — the same total order as the blocking closure.
func (m *greedyMachine) better(nd *dist.Node, p, q int) bool {
	wp, wq := nd.EdgeWeight(p), nd.EdgeWeight(q)
	if wp != wq {
		return wp > wq
	}
	return nd.EdgeID(p) < nd.EdgeID(q)
}

// live reports whether this node still has a usable positive edge.
func (m *greedyMachine) live(nd *dist.Node) bool {
	if !m.free {
		return false
	}
	for p := 0; p < nd.Deg(); p++ {
		if !m.dead[p] && nd.EdgeWeight(p) > 0 {
			return true
		}
	}
	return false
}

// sendClaim opens an iteration: a free node claims its heaviest live
// incident edge.
func (m *greedyMachine) sendClaim(nd *dist.Node) {
	claim := -1
	if m.free {
		for p := 0; p < nd.Deg(); p++ {
			if !m.dead[p] && nd.EdgeWeight(p) > 0 && (claim == -1 || m.better(nd, p, claim)) {
				claim = p
			}
		}
		if claim != -1 {
			nd.Send(claim, dist.Signal{})
		}
	}
	m.claim = claim
}

func (m *greedyMachine) Init(nd *dist.Node) (again bool) {
	m.matchedEdge[nd.ID()] = -1
	m.free = true
	m.dead = make([]bool, nd.Deg())
	if !m.oracle && m.it >= m.maxIters {
		return false // zero-budget run: no rounds at all
	}
	m.sendClaim(nd)
	m.stage = lgClaim
	return true
}

func (m *greedyMachine) OnRound(nd *dist.Node, in []dist.Incoming) (again bool) {
	switch m.stage {
	case lgClaim:
		// An edge claimed from both sides becomes matched; new matches
		// announce themselves.
		if m.free && m.claim != -1 {
			for _, d := range in {
				if d.Port == m.claim {
					m.free = false
					m.matchedEdge[nd.ID()] = int32(nd.EdgeID(m.claim))
				}
			}
		}
		if !m.free && !m.announcedSelf {
			m.announcedSelf = true
			nd.SendAll(dist.Bit(true))
		}
		m.stage = lgAnnounce
		return true

	case lgAnnounce:
		for _, d := range in {
			if _, ok := d.Msg.(dist.Bit); ok {
				m.dead[d.Port] = true
			}
		}
		if m.oracle {
			m.probe.Reset(m.live(nd))
			m.probe.Start(nd)
			m.stage = lgProbe
			return true
		}
		return m.endIteration(nd)

	case lgProbe:
		m.probe.OnRound(nd, in) // one-round machine: always completes
		if !m.probe.Result {
			return false // no live edge anywhere: everyone stops
		}
		return m.endIteration(nd)
	}
	panic("lpr: greedyMachine in invalid stage")
}

// endIteration closes iteration it and opens the next, or finishes.
func (m *greedyMachine) endIteration(nd *dist.Node) (again bool) {
	m.it++
	if !m.oracle && m.it >= m.maxIters {
		return false
	}
	m.sendClaim(nd)
	m.stage = lgClaim
	return true
}

// runFlatGreedy is the flat implementation behind
// LocalGreedy/LocalGreedyWithConfig.
func runFlatGreedy(g *graph.Graph, cfg dist.Config, maxIters int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &greedyMachine{maxIters: maxIters, oracle: oracle, matchedEdge: matchedEdge}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
