package core

// Flat (dist.RoundProgram) execution of strict CONGEST mode: the
// Lemma 3.7 chunk pipelining of bipartite_strict.go as dist.Machine
// fragments, composed with dist.Seq into the same per-(ℓ, iteration)
// pipeline. Each machine is a segment-for-segment transliteration of its
// blocking original — the same chunk schedule, the same RNG draws in the
// same order, the same window lengths, the same protocol-invariant
// panics — so a strict flat run is bit-identical (matching, Stats,
// per-round profile) to a strict coroutine run with the same seed;
// TestFlatMatchesCoroutineStrict proves it. Keep the two forms in
// lockstep when changing either.
//
// The composition mirrors the blocking call tree one-to-one:
//
//	runPhasesStrict    → strictPhasesMachine (Seq over ℓ = 1, 3, …, 2k−1)
//	(inner iteration)  → strictAugmentMachine (BFS → probe/budget → token → commit)
//	countingBFSStrict  → strictBFSMachine    (ℓ windows × jc sub-rounds)
//	tokenPhaseStrict   → strictTokenMachine  (ℓ windows × jt sub-rounds)
//	commitPhaseStrict  → strictCommitMachine (ℓ windows × jm sub-rounds)
//
// The blocking originals drive each window with a sendChunked closure
// emitting chunk s at sub-round s; strictEmitter is that closure's state
// made explicit, armed in the segment where the closure would be built
// and emitted at the top of every sub-round segment.

import (
	"fmt"
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// strictEmitter holds one armed chunked transmission: value is emitted
// lsb-first, capacity bits per sub-round, to every listed port — the
// machine form of sendChunked's closure.
type strictEmitter struct {
	value uint64
	bits  int
	kind  uint8
	ports []int
	on    bool
}

func (em *strictEmitter) arm(value uint64, bits int, kind uint8, ports []int) {
	em.value, em.bits, em.kind, em.ports, em.on = value, bits, kind, ports, true
}

// emit sends sub-round s's chunk (idle filler sub-rounds send nothing),
// exactly like the closure sendChunked returns.
func (em *strictEmitter) emit(nd *dist.Node, s, capacity int) {
	if !em.on {
		return
	}
	off := s * capacity
	if off >= em.bits {
		return // value shorter than the window: idle filler sub-rounds
	}
	take := capacity
	if off+take > em.bits {
		take = em.bits - off
	}
	c := chunk{payload: (em.value >> uint(off)) & (1<<uint(take) - 1), bits: take, kind: em.kind}
	for _, p := range em.ports {
		nd.Send(p, c)
	}
}

// strictBFSMachine is countingBFSStrict in Machine form: the Algorithm 3
// counting BFS with every hop chunked into jc sub-rounds, exactly
// ell*jc rounds. Start is window 1's first sub-round (the free X flood's
// chunk 0); each OnRound absorbs one sub-round and, at window
// boundaries, runs the reassembled-window logic.
type strictBFSMachine struct {
	env  *phaseEnv
	d    strictDims
	ell  int
	w, s int
	free bool
	em   strictEmitter
	col  *collector
	res  bfsResult
}

func (m *strictBFSMachine) reset(env *phaseEnv, ell int, d strictDims) {
	m.env, m.ell, m.d = env, ell, d
}

func (m *strictBFSMachine) Start(nd *dist.Node) (done bool) {
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
	m.em.on = false
	m.w, m.s = 1, 0
	m.col = newCollector(0, m.d.capacity)
	if env.participate && env.side == 0 && m.free {
		m.res.visited = true
		m.res.dist = 0
		var ports []int
		for p := 0; p < nd.Deg(); p++ {
			if env.active(p) {
				ports = append(ports, p)
			}
		}
		m.em.arm(1, m.d.countB, 0, ports)
	}
	m.em.emit(nd, 0, m.d.capacity)
	return false // ell >= 1 and jc >= 1: always at least one sub-round
}

func (m *strictBFSMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	if m.env.participate && !m.res.visited {
		m.col.absorb(in, m.s)
	}
	m.s++
	if m.s < m.d.jc {
		m.em.emit(nd, m.s, m.d.capacity)
		return false
	}
	m.em.on = false
	m.closeWindow(nd)
	m.w++
	if m.w > m.ell {
		return true
	}
	m.s = 0
	m.col = newCollector(0, m.d.capacity)
	m.em.emit(nd, 0, m.d.capacity)
	return false
}

// closeWindow is the blocking variant's post-sub-round-loop body for
// window m.w: first reception marks the node visited and forwards the
// count sum chunked into the next window.
func (m *strictBFSMachine) closeWindow(nd *dist.Node) {
	env, res, col := m.env, &m.res, m.col
	if !env.participate || res.visited || len(col.got) == 0 {
		return
	}
	res.visited = true
	res.dist = m.w
	for p := range col.got {
		if !env.active(p) {
			continue
		}
		if env.side == 0 && p != env.st.MatchedPort {
			panic(fmt.Sprintf("core: X node %d received count on non-mate port %d", nd.ID(), p))
		}
		res.counts[p] += float64(col.acc[p])
	}
	for _, c := range res.counts {
		res.total += c
	}
	switch {
	case env.side == 1 && m.free:
		res.leader = res.total > 0
	case env.side == 1:
		if m.w < m.ell {
			m.em.arm(saturate(res.total), m.d.countB, 0, []int{env.st.MatchedPort})
		}
	case env.side == 0:
		if m.w < m.ell {
			var ports []int
			for p := 0; p < nd.Deg(); p++ {
				if p != env.st.MatchedPort && env.active(p) {
					ports = append(ports, p)
				}
			}
			m.em.arm(saturate(res.total), m.d.countB, 0, ports)
		}
	}
}

// strictTokenMachine is tokenPhaseStrict in Machine form: the Luby token
// walk with chunked (priority, leader) words, exactly ell*jt rounds.
type strictTokenMachine struct {
	env    *phaseEnv
	bfs    *bfsResult
	d      strictDims
	ell    int
	w, s   int
	free   bool
	em     strictEmitter
	col    *collector
	packed uint64
	rec    tokenRecord
}

func (m *strictTokenMachine) reset(env *phaseEnv, bfs *bfsResult, ell int, d strictDims) {
	m.env, m.bfs, m.ell, m.d = env, bfs, ell, d
}

// sampleBack chooses an in-edge with probability c_v[i]/n_v — the same
// draw, FP guard included, as tokenPhaseStrict's closure.
func (m *strictTokenMachine) sampleBack(nd *dist.Node) int {
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

// launch runs the top-of-window leader check: a leader fires when its
// token, walking one window per layer, will reach layer 0 exactly at the
// last window.
func (m *strictTokenMachine) launch(nd *dist.Node, w int) {
	if m.bfs.leader && w == m.ell-m.bfs.dist {
		if m.rec.seen {
			panic("core: leader also received a token")
		}
		val := math.Pow(nd.Rand().Float64(), 1/m.bfs.total)
		m.packed = packPriority(val, nd.ID())
		m.rec.tok = token{val: val, leader: int32(nd.ID()), bits: m.d.tokenB}
		m.rec.seen = true
		m.rec.arrival = w
		m.rec.outPort = m.sampleBack(nd)
		m.em.arm(m.packed, m.d.tokenB, 1, []int{m.rec.outPort})
	}
}

func (m *strictTokenMachine) Start(nd *dist.Node) (done bool) {
	m.rec = tokenRecord{inPort: -1, outPort: -1, arrival: -1}
	m.free = m.env.participate && m.env.st.MatchedPort == -1
	m.em.on = false
	m.w, m.s = 0, 0
	m.launch(nd, 0)
	m.col = newCollector(1, m.d.capacity)
	m.em.emit(nd, 0, m.d.capacity)
	return false // ell >= 1 and jt >= 1
}

func (m *strictTokenMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	if m.env.participate {
		m.col.absorb(in, m.s)
	}
	m.s++
	if m.s < m.d.jt {
		m.em.emit(nd, m.s, m.d.capacity)
		return false
	}
	m.em.on = false
	m.closeWindow(nd)
	m.w++
	if m.w >= m.ell {
		return true
	}
	m.launch(nd, m.w)
	m.s = 0
	m.col = newCollector(1, m.d.capacity)
	m.em.emit(nd, 0, m.d.capacity)
	return false
}

// closeWindow collects window m.w's reassembled arrivals: the
// layer-synchronous schedule means all tokens that will ever visit this
// node arrive in this same window.
func (m *strictTokenMachine) closeWindow(nd *dist.Node) {
	env, col := m.env, m.col
	if !env.participate || len(col.got) == 0 {
		return
	}
	if m.rec.seen {
		panic(fmt.Sprintf("core: token timing violation at node %d (tokens in two windows)", nd.ID()))
	}
	best := uint64(0)
	bestPort := -1
	for p := range col.got {
		if bestPort == -1 || col.acc[p] > best {
			best, bestPort = col.acc[p], p
		}
	}
	m.packed = best
	m.rec.tok = token{val: float64(best>>24) / (1 << 40), leader: leaderOf(best), bits: m.d.tokenB}
	m.rec.inPort, m.rec.seen, m.rec.arrival = bestPort, true, m.w+1
	switch {
	case env.side == 0 && m.free:
		// Terminal free X: the token's path is complete. No forward.
	case env.side == 0:
		if m.w+1 < m.ell {
			m.rec.outPort = env.st.MatchedPort
			m.em.arm(m.packed, m.d.tokenB, 1, []int{m.rec.outPort})
		}
	default:
		if m.w+1 < m.ell && m.bfs.total > 0 {
			m.rec.outPort = m.sampleBack(nd)
			m.em.arm(m.packed, m.d.tokenB, 1, []int{m.rec.outPort})
		}
	}
}

// strictCommitMachine is commitPhaseStrict in Machine form: the §3.2
// trace-back with chunked leader ids, exactly ell*jm rounds. flipped
// reports whether this node's matching state changed.
type strictCommitMachine struct {
	env     *phaseEnv
	rec     *tokenRecord
	d       strictDims
	ell     int
	w, s    int
	em      strictEmitter
	col     *collector
	flipped bool
}

func (m *strictCommitMachine) reset(env *phaseEnv, rec *tokenRecord, ell int, d strictDims) {
	m.env, m.rec, m.ell, m.d = env, rec, ell, d
}

func (m *strictCommitMachine) Start(nd *dist.Node) (done bool) {
	m.flipped = false
	m.em.on = false
	m.w, m.s = 0, 0
	env, rec := m.env, m.rec
	free := env.participate && env.st.MatchedPort == -1
	if env.side == 0 && free && rec.seen {
		env.st.MatchedPort = rec.inPort
		m.flipped = true
		m.em.arm(uint64(rec.tok.leader), m.d.commitB, 2, []int{rec.inPort})
	}
	m.col = newCollector(2, m.d.capacity)
	m.em.emit(nd, 0, m.d.capacity)
	return false // ell >= 1 and jm >= 1
}

func (m *strictCommitMachine) OnRound(nd *dist.Node, in []dist.Incoming) (done bool) {
	if m.env.participate {
		m.col.absorb(in, m.s)
	}
	m.s++
	if m.s < m.d.jm {
		m.em.emit(nd, m.s, m.d.capacity)
		return false
	}
	m.em.on = false
	m.closeWindow(nd)
	m.w++
	if m.w >= m.ell {
		return true
	}
	m.s = 0
	m.col = newCollector(2, m.d.capacity)
	m.em.emit(nd, 0, m.d.capacity)
	return false
}

func (m *strictCommitMachine) closeWindow(nd *dist.Node) {
	env, rec, col := m.env, m.rec, m.col
	if !env.participate || len(col.got) == 0 {
		return
	}
	for p := range col.got {
		if !rec.seen || p != rec.outPort || int32(col.acc[p]) != rec.tok.leader {
			panic(fmt.Sprintf("core: commit route violation at node %d", nd.ID()))
		}
		if env.side == 1 {
			env.st.MatchedPort = rec.outPort
		} else {
			env.st.MatchedPort = rec.inPort
		}
		m.flipped = true
		if rec.inPort != -1 {
			m.em.arm(col.acc[p], m.d.commitB, 2, []int{rec.inPort})
		}
	}
}

// strictAugmentMachine is runPhasesStrict's inner iteration loop in
// Machine form — augmentMachine with every phase chunked to the strict
// dims. changed reports whether this node's matching changed.
type strictAugmentMachine struct {
	dist.Seq
	env    *phaseEnv
	ell    int
	d      strictDims
	oracle bool
	budget int

	it      int
	stage   uint8
	changed bool

	bfs   strictBFSMachine
	probe dist.ProbeOr
	tok   strictTokenMachine
	com   strictCommitMachine
}

func (m *strictAugmentMachine) reset(env *phaseEnv, ell int, d strictDims, oracle bool, budget int) {
	m.env, m.ell, m.d, m.oracle, m.budget = env, ell, d, oracle, budget
	m.it, m.changed = 0, false
	m.stage = agBFS
	m.Seq.Reset(m.next)
}

func (m *strictAugmentMachine) next(nd *dist.Node) dist.Machine {
	for {
		switch m.stage {
		case agBFS:
			m.bfs.reset(m.env, m.ell, m.d)
			m.stage = agDecide
			return &m.bfs
		case agDecide:
			if m.oracle {
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
			m.tok.reset(m.env, &m.bfs.res, m.ell, m.d)
			m.stage = agCommit
			return &m.tok
		case agCommit:
			m.com.reset(m.env, &m.tok.rec, m.ell, m.d)
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

// strictPhasesMachine is runPhasesStrict in Machine form: the strict
// augment loop for ℓ = 1, 3, …, 2k−1, dims recomputed per phase exactly
// like the blocking original. changed reports whether the local matching
// changed.
type strictPhasesMachine struct {
	dist.Seq
	env      *phaseEnv
	k        int
	oracle   bool
	capacity int
	ell      int
	changed  bool
	aug      strictAugmentMachine
}

func (m *strictPhasesMachine) reset(env *phaseEnv, k int, oracle bool, capacity int) {
	m.env, m.k, m.oracle, m.capacity = env, k, oracle, capacity
	m.ell = 1
	m.changed = false
	m.Seq.Reset(m.next)
}

func (m *strictPhasesMachine) next(nd *dist.Node) dist.Machine {
	if m.ell > 1 && m.aug.changed { // fold the finished phase's outcome
		m.changed = true
	}
	if m.ell > 2*m.k-1 {
		return nil
	}
	d := dims(nd.N(), nd.MaxDegree(), m.ell, m.capacity)
	budget := 0
	if !m.oracle {
		budget = PhaseBudget(nd.N(), nd.MaxDegree(), m.ell)
	}
	m.aug.reset(m.env, m.ell, d, m.oracle, budget)
	m.ell += 2
	return &m.aug
}

// runFlatBipartiteStrict is the flat implementation behind
// BipartiteMCMStrict/BipartiteMCMStrictWithConfig.
func runFlatBipartiteStrict(g *graph.Graph, k int, cfg dist.Config, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		env := &phaseEnv{
			st:          MatchState{MatchedPort: -1},
			side:        nd.Side(),
			participate: true,
			active:      allPorts,
		}
		m := &strictPhasesMachine{}
		m.reset(env, k, oracle, capacityBits)
		return dist.AsProgram(m, func(nd *dist.Node) {
			matchedEdge[nd.ID()] = -1
			if env.st.MatchedPort >= 0 {
				matchedEdge[nd.ID()] = int32(nd.EdgeID(env.st.MatchedPort))
			}
		})
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
