package core

// Flat execution of §3.1, Algorithms 1-2: the LOCAL-model generic
// (1−ε)-MCM as a RoundProgram. Segment-for-segment transliteration of
// runGenericNode's blocking structure — the same floods with the same
// per-round map copies (so Bits accounting matches), the same DFS
// enumeration, the same RNG draw per led path in the same order — so a
// flat run is bit-identical to a coroutine run with the same seed
// (TestFlatMatchesCoroutineGeneric). Keep the two in lockstep.

import (
	"sort"

	"distmatch/internal/dist"
)

// genericMachine is one node's §3.1 state machine. Its stages name the
// barrier the machine is parked on: one of the three radius-round floods
// (topology, matching state, priorities) or the oracle probe between the
// enumeration and the value flood.
type genericMachine struct {
	k           int
	oracle      bool
	matchedEdge []int32

	self    int32
	radius  int
	portOf  map[int32]int
	adj     map[int32][]int32
	mates   map[int32]int32
	entries map[string]pathEntry
	led     [][]int32
	mate    int32
	ell     int
	it      int
	budget  int
	r       int // rounds completed in the current flood
	stage   uint8
}

const (
	gcView  uint8 = iota // inside the topology flood (Algorithm 2 gather)
	gcMate               // inside the matching-state flood
	gcProbe              // the termination StepOr round
	gcVal                // inside the priority flood
)

func (m *genericMachine) Init(nd *dist.Node) (again bool) {
	m.self = int32(nd.ID())
	m.radius = 2 * (2*m.k - 1) // flood radius 2ℓ for the largest phase
	m.portOf = map[int32]int{}
	for p := 0; p < nd.Deg(); p++ {
		m.portOf[int32(nd.NbrID(p))] = p
	}
	m.adj = map[int32][]int32{}
	own := make([]int32, 0, nd.Deg())
	for p := 0; p < nd.Deg(); p++ {
		own = append(own, int32(nd.NbrID(p)))
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	m.adj[m.self] = own
	m.mate = -1
	// ---- Algorithm 2: gather the topology ball (radius rounds). ----
	// radius >= 2 always (k >= 1), so the flood runs at least one round.
	nd.SendAll(viewMsg{adj: copyAdj(m.adj)})
	m.stage, m.r = gcView, 0
	return true
}

func (m *genericMachine) OnRound(nd *dist.Node, in []dist.Incoming) (again bool) {
	switch m.stage {
	case gcView:
		for _, d := range in {
			for id, nbrs := range d.Msg.(viewMsg).adj {
				if _, ok := m.adj[id]; !ok {
					m.adj[id] = nbrs
				}
			}
		}
		m.r++
		if m.r < m.radius {
			nd.SendAll(viewMsg{adj: copyAdj(m.adj)})
			return true
		}
		m.ell = 1
		m.it = 0
		m.budget = GenericBudget(nd.N(), m.ell)
		m.startMateFlood(nd)
		return true

	case gcMate:
		for _, d := range in {
			for id, mt := range d.Msg.(mateMsg).mate {
				m.mates[id] = mt
			}
		}
		m.r++
		if m.r < m.radius {
			nd.SendAll(mateMsg{mate: copyMates(m.mates)})
			return true
		}
		// ---- Enumerate the live paths this node leads; draw values. ----
		m.led = enumerateLedPaths(m.self, m.adj, m.mates, m.ell)
		m.entries = map[string]pathEntry{}
		for _, sig := range m.led {
			m.entries[sigKey(sig)] = pathEntry{sig: sig, val: nd.Rand().Float64()}
		}
		// ---- Termination / budget probe. ----
		if m.oracle {
			nd.SubmitOr(len(m.led) > 0)
			m.stage = gcProbe
			return true
		}
		if m.it >= m.budget {
			return m.endPhase(nd)
		}
		m.startValFlood(nd)
		return true

	case gcProbe:
		// The blocking StepOr discards this round's messages; so do we.
		if !nd.GlobalOr() {
			return m.endPhase(nd)
		}
		m.startValFlood(nd)
		return true

	case gcVal:
		for _, d := range in {
			for key, e := range d.Msg.(valMsg).entries {
				if _, ok := m.entries[key]; !ok {
					m.entries[key] = e
				}
			}
		}
		m.r++
		if m.r < m.radius {
			nd.SendAll(valMsg{entries: copyEntries(m.entries)})
			return true
		}
		// ---- Decide winners among paths through me; flip. ----
		var mine []pathEntry
		for _, e := range m.entries {
			for _, v := range e.sig {
				if v == m.self {
					mine = append(mine, e)
					break
				}
			}
		}
		for _, p := range mine {
			if !winsEverywhere(p, m.entries) {
				continue
			}
			// p is in the selected independent set: flip my local state.
			i := indexIn(p.sig, m.self)
			if i%2 == 0 {
				m.mate = p.sig[i+1]
			} else {
				m.mate = p.sig[i-1]
			}
			break // at most one winner can contain me
		}
		m.it++
		m.startMateFlood(nd)
		return true
	}
	panic("core: genericMachine in invalid stage")
}

// startMateFlood opens a Luby iteration: re-flood matching states.
func (m *genericMachine) startMateFlood(nd *dist.Node) {
	m.mates = map[int32]int32{m.self: m.mate}
	nd.SendAll(mateMsg{mate: copyMates(m.mates)})
	m.stage, m.r = gcMate, 0
}

// startValFlood floods the drawn priorities of the live led paths.
func (m *genericMachine) startValFlood(nd *dist.Node) {
	nd.SendAll(valMsg{entries: copyEntries(m.entries)})
	m.stage, m.r = gcVal, 0
}

// endPhase closes phase ℓ and opens the next, or finishes the program.
func (m *genericMachine) endPhase(nd *dist.Node) (again bool) {
	m.ell += 2
	if m.ell <= 2*m.k-1 {
		m.it = 0
		m.budget = GenericBudget(nd.N(), m.ell)
		m.startMateFlood(nd)
		return true
	}
	m.matchedEdge[nd.ID()] = -1
	if m.mate != -1 {
		m.matchedEdge[nd.ID()] = int32(nd.EdgeID(m.portOf[m.mate]))
	}
	return false
}
