package core

// Flat (dist.RoundProgram) execution of the §3.2 machinery: the
// counting BFS, token-walk MIS emulation and commit phases of Algorithms
// 2-4 as dist.Machine fragments, composed with dist.Seq into the same
// per-(ℓ, iteration) pipeline that bipartite.go writes as nested blocking
// calls. Each machine is a segment-for-segment transliteration of its
// blocking original — the same sends, the same RNG draws in the same
// order, the same barrier structure, the same protocol-invariant panics —
// so a flat run is bit-identical (matching, Stats, per-round profile) to
// a coroutine run with the same seed; TestFlatMatchesCoroutine* prove it.
// Keep the two forms in lockstep when changing either.
//
// The composition mirrors the blocking call tree one-to-one:
//
//	runPhases          → phasesMachine  (Seq over ℓ = 1, 3, …, 2k−1)
//	augmentToLength    → augmentMachine (Seq loop: BFS → probe/budget → token → commit)
//	countingBFS        → bfsMachine     (ℓ rounds)
//	StepOr termination → dist.ProbeOr   (1 round)
//	tokenPhase         → tokenMachine   (ℓ rounds)
//	commitPhase        → commitMachine  (ℓ rounds)
//
// flat_general.go and flat_weighted.go drive the same fragments from the
// Algorithm 4 and Algorithm 5 outer loops.

import (
	"fmt"
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// phaseEnv is the per-node context shared by the §3.2 sub-machines: the
// persistent matching state plus the active-subgraph mask of the
// enclosing driver (Algorithm 4 re-aims side/participate/active at every
// sampled subgraph, Algorithm 3 fixes them once).
type phaseEnv struct {
	st          MatchState
	side        int
	participate bool
	active      func(p int) bool
}

func allPorts(int) bool { return true }

// bfsMachine is countingBFS in Machine form: Algorithm 3 for exactly ell
// rounds. Start is the round-0 flood of the free X nodes; each OnRound is
// one reception-and-forward layer. The result accumulates in res.
type bfsMachine struct {
	env  *phaseEnv
	ell  int
	r    int
	free bool
	res  bfsResult
}

func (m *bfsMachine) reset(env *phaseEnv, ell int) { m.env, m.ell = env, ell }

func (m *bfsMachine) Start(nd *dist.Node) (done bool) {
	counts := m.res.counts
	if cap(counts) < nd.Deg() {
		counts = make([]float64, nd.Deg())
	} else {
		counts = counts[:nd.Deg()]
		clear(counts)
	}
	m.res = bfsResult{dist: -1, counts: counts}
	env := m.env
	m.free = env.participate && env.st.MatchedPort == -1
	m.r = 1
	// Round 0: every free X node floods "1" (line 2-3 of Algorithm 3).
	if env.participate && env.side == 0 && m.free {
		m.res.visited = true
		m.res.dist = 0
		for p := 0; p < nd.Deg(); p++ {
			if env.active(p) {
				nd.Send(p, cnt(1))
			}
		}
	}
	return false // ell >= 1: always at least one reception round
}

func (m *bfsMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	env, res := m.env, &m.res
	r := m.r
	m.r++
	done = r >= m.ell
	if !env.participate || res.visited {
		return done // late messages are discarded (visited nodes ignore)
	}
	got := false
	for _, d := range in {
		c, ok := d.Msg.(cnt)
		if !ok || !env.active(d.Port) {
			continue
		}
		if env.side == 0 && d.Port != env.st.MatchedPort {
			// X nodes receive only from their mate; anything else is a
			// protocol invariant violation.
			panic(fmt.Sprintf("core: X node %d received count on non-mate port %d", nd.ID(), d.Port))
		}
		res.counts[d.Port] += float64(c)
		got = true
	}
	if !got {
		return done
	}
	res.visited = true
	res.dist = r
	for _, c := range res.counts {
		res.total += c
	}
	switch {
	case env.side == 1 && m.free:
		// Free Y endpoint: n_v augmenting paths of length r end here.
		res.leader = res.total > 0
	case env.side == 1: // matched Y: forward the sum to the mate (line 11-12)
		if r < m.ell {
			nd.Send(env.st.MatchedPort, cnt(res.total))
		}
	case env.side == 0: // matched X: forward over non-matching edges (line 8-9)
		if r < m.ell {
			for p := 0; p < nd.Deg(); p++ {
				if p != env.st.MatchedPort && env.active(p) {
					nd.Send(p, cnt(res.total))
				}
			}
		}
	}
	return done
}

// tokenMachine is tokenPhase in Machine form: one Luby iteration on the
// conflict graph (Lemma 3.7), exactly ell rounds. Start is the tr = 0
// launch check; each OnRound collects the layer-synchronous arrivals of
// one token round, forwards, and runs the next round's launch check. The
// winning token's route accumulates in rec.
type tokenMachine struct {
	env  *phaseEnv
	bfs  *bfsResult
	ell  int
	bits int
	tr   int
	free bool
	rec  tokenRecord
}

func (m *tokenMachine) reset(env *phaseEnv, bfs *bfsResult, ell int) {
	m.env, m.bfs, m.ell = env, bfs, ell
}

// sampleBack chooses an in-edge with probability c_v[i]/n_v — the same
// draw, FP guard included, as tokenPhase's closure.
func (m *tokenMachine) sampleBack(nd *dist.Node) int {
	x := nd.Rand().Float64() * m.bfs.total
	acc := 0.0
	last := -1
	for p, c := range m.bfs.counts {
		if c <= 0 {
			continue
		}
		last = p
		acc += c
		if x < acc {
			return p
		}
	}
	return last
}

// launch runs the top-of-loop leader check for token round tr: leaders
// fire when their token, walking one layer per round, will reach layer 0
// exactly at the last round.
func (m *tokenMachine) launch(nd *dist.Node, tr int) {
	if m.bfs.leader && tr == m.ell-m.bfs.dist {
		if m.rec.seen {
			panic("core: leader also received a token")
		}
		val := math.Pow(nd.Rand().Float64(), 1/m.bfs.total)
		m.rec.tok = token{val: val, leader: int32(nd.ID()), bits: m.bits}
		m.rec.seen = true
		m.rec.arrival = tr
		m.rec.outPort = m.sampleBack(nd)
		nd.Send(m.rec.outPort, m.rec.tok)
	}
}

func (m *tokenMachine) Start(nd *dist.Node) (done bool) {
	m.rec = tokenRecord{inPort: -1, outPort: -1, arrival: -1}
	m.bits = tokenBits(nd.N(), nd.MaxDegree(), m.ell)
	m.free = m.env.participate && m.env.st.MatchedPort == -1
	m.tr = 0
	m.launch(nd, 0)
	return false // ell >= 1
}

func (m *tokenMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	env := m.env
	tr := m.tr
	if env.participate {
		// Collect arrivals; the layer-synchronous schedule means all tokens
		// that will ever visit this node arrive in this same round.
		best := token{}
		bestPort := -1
		for _, d := range in {
			t, ok := d.Msg.(token)
			if !ok {
				continue
			}
			if bestPort == -1 || t.beats(best) {
				best, bestPort = t, d.Port
			}
		}
		if bestPort != -1 {
			if m.rec.seen {
				panic(fmt.Sprintf("core: token timing violation at node %d (tokens in two rounds)", nd.ID()))
			}
			m.rec.tok, m.rec.inPort, m.rec.seen, m.rec.arrival = best, bestPort, true, tr+1
			switch {
			case env.side == 0 && m.free:
				// Terminal free X: the token's path is complete. No forward.
			case env.side == 0:
				// Matched X: continue to the mate.
				if tr+1 < m.ell {
					m.rec.outPort = env.st.MatchedPort
					nd.Send(m.rec.outPort, m.rec.tok)
				}
			default:
				// Matched Y: continue along a c-weighted in-edge.
				if tr+1 < m.ell && m.bfs.total > 0 {
					m.rec.outPort = m.sampleBack(nd)
					nd.Send(m.rec.outPort, m.rec.tok)
				}
			}
		}
	}
	m.tr++
	if m.tr >= m.ell {
		return true
	}
	m.launch(nd, m.tr)
	return false
}

// commitMachine is commitPhase in Machine form: the trace-back of §3.2,
// exactly ell rounds. Start is the initiation wave at terminal free X
// nodes; each OnRound relays one hop. flipped reports whether this node's
// matching state changed.
type commitMachine struct {
	env     *phaseEnv
	rec     *tokenRecord
	ell     int
	cr      int
	flipped bool
}

func (m *commitMachine) reset(env *phaseEnv, rec *tokenRecord, ell int) {
	m.env, m.rec, m.ell = env, rec, ell
}

func (m *commitMachine) Start(nd *dist.Node) (done bool) {
	m.cr = 0
	m.flipped = false
	env, rec := m.env, m.rec
	free := env.participate && env.st.MatchedPort == -1
	// Initiation: a free X node that holds a surviving token starts the
	// commit wave (its token won every collision on its path).
	if env.side == 0 && free && rec.seen {
		env.st.MatchedPort = rec.inPort
		m.flipped = true
		nd.Send(rec.inPort, commit{leader: rec.tok.leader, nbits: dist.IDBits(nd.N())})
	}
	return false // ell >= 1
}

func (m *commitMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	env, rec := m.env, m.rec
	if env.participate {
		for _, d := range in {
			c, ok := d.Msg.(commit)
			if !ok {
				continue
			}
			if !rec.seen || d.Port != rec.outPort || c.leader != rec.tok.leader {
				panic(fmt.Sprintf("core: commit route violation at node %d", nd.ID()))
			}
			if env.side == 1 {
				env.st.MatchedPort = rec.outPort // Y matches the new (downhill) edge
			} else {
				env.st.MatchedPort = rec.inPort // X matches the token's in-edge
			}
			m.flipped = true
			if rec.inPort != -1 { // not the originating leader: keep tracing
				nd.Send(rec.inPort, c)
			}
		}
	}
	m.cr++
	return m.cr >= m.ell
}

// augmentMachine is augmentToLength in Machine form: a Seq-driven loop
// that counts, selects and applies disjoint augmenting paths of length
// ≤ ell until the oracle reports none remain or the fixed budget runs
// out. changed reports whether this node's matching changed.
type augmentMachine struct {
	dist.Seq
	env    *phaseEnv
	ell    int
	oracle bool
	budget int

	it      int
	stage   uint8
	changed bool

	bfs   bfsMachine
	probe dist.ProbeOr
	tok   tokenMachine
	com   commitMachine
}

// The stage names what the Seq policy runs next.
const (
	agBFS    uint8 = iota // the counting BFS
	agDecide              // oracle probe, or the budget check
	agBranch              // branch on the probe's answer
	agToken               // the token walk
	agCommit              // the commit wave
	agEnd                 // close the iteration and loop
)

func (m *augmentMachine) reset(env *phaseEnv, ell int, oracle bool, budget int) {
	m.env, m.ell, m.oracle, m.budget = env, ell, oracle, budget
	m.it, m.changed = 0, false
	m.stage = agBFS
	m.Seq.Reset(m.next)
}

func (m *augmentMachine) next(nd *dist.Node) dist.Machine {
	for {
		switch m.stage {
		case agBFS:
			m.bfs.reset(m.env, m.ell)
			m.stage = agDecide
			return &m.bfs
		case agDecide:
			if m.oracle {
				// Termination probe: "does any leader exist anywhere?"
				m.probe.Reset(m.bfs.res.leader)
				m.stage = agBranch
				return &m.probe
			}
			if m.it >= m.budget {
				return nil
			}
			m.stage = agToken
		case agBranch:
			if !m.probe.Result {
				return nil
			}
			m.stage = agToken
		case agToken:
			m.tok.reset(m.env, &m.bfs.res, m.ell)
			m.stage = agCommit
			return &m.tok
		case agCommit:
			m.com.reset(m.env, &m.tok.rec, m.ell)
			m.stage = agEnd
			return &m.com
		case agEnd:
			if m.com.flipped {
				m.changed = true
			}
			m.it++
			m.stage = agBFS
		}
	}
}

// phasesMachine is runPhases in Machine form: augmentMachine for
// ℓ = 1, 3, …, 2k−1, leaving no augmenting path of length ≤ 2k−1 in the
// active subgraph. changed reports whether the local matching changed.
type phasesMachine struct {
	dist.Seq
	env     *phaseEnv
	k       int
	oracle  bool
	ell     int
	changed bool
	aug     augmentMachine
}

func (m *phasesMachine) reset(env *phaseEnv, k int, oracle bool) {
	m.env, m.k, m.oracle = env, k, oracle
	m.ell = 1
	m.changed = false
	m.Seq.Reset(m.next)
}

func (m *phasesMachine) next(nd *dist.Node) dist.Machine {
	if m.ell > 1 && m.aug.changed { // fold the finished phase's outcome
		m.changed = true
	}
	if m.ell > 2*m.k-1 {
		return nil
	}
	budget := 0
	if !m.oracle {
		budget = PhaseBudget(nd.N(), nd.MaxDegree(), m.ell)
	}
	m.aug.reset(m.env, m.ell, m.oracle, budget)
	m.ell += 2
	return &m.aug
}

// CountLeadersMachine is CountLeaders in Machine form: the Algorithm 3
// counting BFS run for exactly ell rounds with every node participating
// and every port usable, reporting whether this node ended up a leader —
// a free Y node reached by the BFS, i.e. the endpoint of at least one
// augmenting path of length ≤ ell. Exposed for the flat form of
// internal/check's Berge probe; Reset re-arms it across ℓ values and
// runs, like every other machine here.
type CountLeadersMachine struct {
	env phaseEnv
	bfs bfsMachine
}

// Reset arms the machine for one BFS: matchedPort is this node's matched
// port (-1 free), side its bipartition side, ell the exact round count.
func (m *CountLeadersMachine) Reset(matchedPort, side, ell int) {
	m.env = phaseEnv{
		st:          MatchState{MatchedPort: matchedPort},
		side:        side,
		participate: true,
		active:      allPorts,
	}
	m.bfs.reset(&m.env, ell)
}

// Start implements dist.Machine (the round-0 flood of free X nodes).
func (m *CountLeadersMachine) Start(nd *dist.Node) bool { return m.bfs.Start(nd) }

// OnRound implements dist.Machine (one reception-and-forward layer).
func (m *CountLeadersMachine) OnRound(nd *dist.Node, in []dist.Incoming) bool {
	return m.bfs.OnRound(nd, in)
}

// Leader reports the BFS outcome at this node.
func (m *CountLeadersMachine) Leader() bool { return m.bfs.res.leader }

// runFlatBipartite is the flat implementation behind
// BipartiteMCM/BipartiteMCMWithConfig.
func runFlatBipartite(g *graph.Graph, k int, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		env := &phaseEnv{
			st:          MatchState{MatchedPort: -1},
			side:        nd.Side(),
			participate: true,
			active:      allPorts,
		}
		m := &phasesMachine{}
		m.reset(env, k, oracle)
		return dist.AsProgram(m, func(nd *dist.Node) {
			matchedEdge[nd.ID()] = -1
			if env.st.MatchedPort >= 0 {
				matchedEdge[nd.ID()] = int32(nd.EdgeID(env.st.MatchedPort))
			}
		})
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
