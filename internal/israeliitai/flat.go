package israeliitai

// Flat (dist.RoundProgram) form of the protocol. ClassMachine is
// the state-machine transliteration of State.RunClass, segment for
// segment: the same RNG draws in the same order, the same sends, the same
// barrier structure, so a flat run is bit-identical — matching, Stats,
// per-round profile — to a coroutine run with the same seed
// (TestFlatMatchesCoroutine* prove it). Keep the two in lockstep when
// changing either.
//
// Like RunClass, ClassMachine is composable: internal/lpr drives one per
// weight class over a shared *State inside its own RoundProgram.

import (
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// classPhase names the barrier a ClassMachine is parked on.
type classPhase uint8

const (
	phProbe classPhase = iota // oracle live-edge probe round
	phR1                      // proposal round
	phR2                      // accept round
	phR3                      // announce round
	phDone                    // class complete
)

// ClassMachine executes one RunClass invocation as a per-round state
// machine. Zero value is unusable; call Reset first. The driving
// RoundProgram calls Start for the class's first segment and then routes
// every inbox to OnRound until one of them reports done — the
// dist.Machine contract, which dist.Seq and internal/core's phase
// pipeline generalize.
type ClassMachine struct {
	st       *State
	eligible func(p int) bool
	iters    int
	oracle   bool

	ph classPhase
	it int

	// Per-iteration carry between segments.
	proposer     bool
	proposedPort int
	live         []int // live-port buffer, reused across iterations
}

// Reset arms the machine for one class run over st — the flat analogue of
// calling st.RunClass(nd, eligible, iters, oracle).
func (m *ClassMachine) Reset(st *State, eligible func(p int) bool, iters int, oracle bool) {
	m.st, m.eligible, m.iters, m.oracle = st, eligible, iters, oracle
	m.it = 0
	m.ph = phDone
	m.live = m.live[:0]
}

// Start runs the class's first program segment (everything before its
// first barrier). It reports whether the class already completed without
// reaching a barrier (only possible with a non-positive budget); otherwise
// the caller must end its round and feed subsequent inboxes to OnRound.
func (m *ClassMachine) Start(nd *dist.Node) (done bool) {
	return m.iterationTop(nd)
}

// OnRound consumes one finished round. It reports whether the class run
// completed within this call (no further barrier of its own); the parent
// program may then chain another machine's Start in the same segment.
func (m *ClassMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	st, r := m.st, nd.Rand()
	switch m.ph {
	case phProbe:
		// The probe's global OR answered "any live edge left anywhere?".
		if !nd.GlobalOr() {
			m.ph = phDone
			return true
		}
		m.propose(nd)
		return false

	case phR1:
		// Round 2: responders accept one proposal uniformly at random.
		acceptedPort := -1
		if st.Free && !m.proposer {
			cnt := 0
			for _, d := range in {
				if _, ok := d.Msg.(proposal); !ok {
					continue
				}
				if st.NbrMatched[d.Port] || !m.eligible(d.Port) {
					continue
				}
				cnt++
				if r.Intn(cnt) == 0 { // reservoir-sample one proposer
					acceptedPort = d.Port
				}
			}
			if acceptedPort != -1 {
				nd.Send(acceptedPort, accept{})
				st.match(acceptedPort)
			}
		}
		m.ph = phR2
		return false

	case phR2:
		// Round 3: proposers that were accepted match; new matches announce.
		if m.proposer && st.Free {
			for _, d := range in {
				if _, ok := d.Msg.(accept); ok && d.Port == m.proposedPort {
					st.match(d.Port)
				}
			}
		}
		if st.MatchedPort != -1 && !st.announced {
			st.announced = true
			nd.SendAll(announce{})
		}
		m.ph = phR3
		return false

	case phR3:
		for _, d := range in {
			if _, ok := d.Msg.(announce); ok {
				st.NbrMatched[d.Port] = true
			}
		}
		m.it++
		return m.iterationTop(nd)
	}
	panic("israeliitai: OnRound on a completed ClassMachine")
}

// iterationTop runs the segment at the head of the iteration loop: refresh
// the live-port list, then either submit the oracle probe or (budget mode)
// go straight to proposing. Mirrors the top of RunClass's loop exactly.
func (m *ClassMachine) iterationTop(nd *dist.Node) (done bool) {
	if !m.oracle && m.it >= m.iters {
		m.ph = phDone
		return true
	}
	m.computeLive(nd)
	if m.oracle {
		// Probe first: a class with no live edge anywhere costs one
		// round instead of a full proposal cycle.
		nd.SubmitOr(len(m.live) > 0)
		m.ph = phProbe
		return false
	}
	m.propose(nd)
	return false
}

// propose runs the round-1 segment: proposers send over one random live
// edge. Same draws as RunClass: one Bool, then one Intn iff proposing.
func (m *ClassMachine) propose(nd *dist.Node) {
	st, r := m.st, nd.Rand()
	m.proposer, m.proposedPort = false, -1
	if st.Free && len(m.live) > 0 {
		m.proposer = r.Bool()
		if m.proposer {
			m.proposedPort = m.live[r.Intn(len(m.live))]
			nd.Send(m.proposedPort, proposal{})
		}
	}
	m.ph = phR1
}

// computeLive refreshes the live-port buffer; same contents and order as
// State.livePorts.
func (m *ClassMachine) computeLive(nd *dist.Node) {
	m.live = m.live[:0]
	if !m.st.Free {
		return
	}
	for p := 0; p < nd.Deg(); p++ {
		if m.eligible(p) && !m.st.NbrMatched[p] {
			m.live = append(m.live, p)
		}
	}
}

// ClassMachine is the pattern dist.Machine generalizes; assert the fit.
var _ dist.Machine = (*ClassMachine)(nil)

// everyPort is the whole-graph eligibility used by the plain protocol.
func everyPort(int) bool { return true }

// machine is the whole-protocol RoundProgram behind Run/RunBudget: one
// class over every port, then record the matched edge.
type machine struct {
	cm          ClassMachine
	matchedEdge []int32
}

func (m *machine) finish(nd *dist.Node) {
	m.matchedEdge[nd.ID()] = -1
	if p := m.cm.st.MatchedPort; p >= 0 {
		m.matchedEdge[nd.ID()] = int32(nd.EdgeID(p))
	}
}

func (m *machine) Init(nd *dist.Node) bool {
	if m.cm.Start(nd) {
		m.finish(nd)
		return false
	}
	return true
}

func (m *machine) OnRound(nd *dist.Node, in []dist.Incoming) bool {
	if m.cm.OnRound(nd, in) {
		m.finish(nd)
		return false
	}
	return true
}

// runFlat is the flat implementation of RunWithConfig/RunBudget.
func runFlat(g *graph.Graph, cfg dist.Config, iters int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		m := &machine{matchedEdge: matchedEdge}
		m.cm.Reset(NewState(nd), everyPort, iters, oracle)
		return m
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
