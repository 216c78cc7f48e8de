package core

import (
	"fmt"
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements strict CONGEST execution of the §3.2 machinery: the
// pipelining transformation from the proof of Lemma 3.7 applied to every
// message of the bipartite algorithm. Counters, token priorities and
// commits travel in chunks of at most `capacity` bits per round; a hop that
// carries a B-bit value costs ⌈B/c⌉ rounds. Because every hop of a phase
// uses the same window length, the layer-synchronous schedule (and with it
// the collision argument) is preserved verbatim — windows simply replace
// rounds.
//
// BipartiteMCMStrict is observably equivalent to BipartiteMCM up to round
// accounting: Stats.MaxMessageBits stays ≤ capacity and Stats.Rounds grows
// by the ⌈B/c⌉ factors that Stats.PipelinedRounds merely *estimates* for
// the plain variant. Experiment E2's "pipelined@logn" column can thus be
// checked against a real execution (ablation A5).

// chunk is a c-bit slice of a larger value, sent lsb-first within a window.
type chunk struct {
	payload uint64
	bits    int
	kind    uint8 // 0 = count, 1 = token, 2 = commit
}

func (c chunk) Bits() int { return c.bits }

// windows computes the per-hop window lengths for a phase.
type strictDims struct {
	capacity int
	jc       int // window length for counters
	jt       int // window length for token priorities
	jm       int // window length for commits
	countB   int
	tokenB   int
	commitB  int
}

func dims(n, maxDeg, ell, capacity int) strictDims {
	if capacity < 1 {
		panic("core: strict capacity must be >= 1 bit")
	}
	countB := int(math.Ceil(float64((ell+1)/2)*math.Log2(float64(maxDeg)+2))) + 1
	if countB > 63 {
		countB = 63 // counters saturate; they only weight the token sampling
	}
	tokenB := 64 // packed (priority, leader) word, see packPriority
	commitB := dist.IDBits(n)
	d := strictDims{
		capacity: capacity,
		countB:   countB,
		tokenB:   tokenB,
		commitB:  commitB,
	}
	d.jc = (countB + capacity - 1) / capacity
	d.jt = (tokenB + capacity - 1) / capacity
	d.jm = (commitB + capacity - 1) / capacity
	return d
}

// packPriority packs a [0,1) priority draw and a leader id into one 64-bit
// word ordered lexicographically: 40 priority bits then 24 id bits. The id
// makes the order total (n < 2^24).
func packPriority(val float64, leader int) uint64 {
	p := uint64(val * (1 << 40))
	if p >= 1<<40 {
		p = 1<<40 - 1
	}
	return p<<24 | uint64(leader)&(1<<24-1)
}

func leaderOf(packed uint64) int32 { return int32(packed & (1<<24 - 1)) }

// sendChunked transmits value on the given ports, one chunk per sub-round,
// interleaved with the caller's window loop: it returns a closure emitting
// sub-round s's sends.
func sendChunked(nd *dist.Node, value uint64, bits, capacity int, kind uint8, ports []int) func(s int) {
	return func(s int) {
		off := s * capacity
		if off >= bits {
			return // value shorter than the window: idle filler sub-rounds
		}
		take := capacity
		if off+take > bits {
			take = bits - off
		}
		c := chunk{payload: (value >> uint(off)) & (1<<uint(take) - 1), bits: take, kind: kind}
		for _, p := range ports {
			nd.Send(p, c)
		}
	}
}

// collector reassembles chunked values per port within one window.
type collector struct {
	acc  map[int]uint64
	got  map[int]bool
	kind uint8
	cap  int
}

func newCollector(kind uint8, capacity int) *collector {
	return &collector{acc: map[int]uint64{}, got: map[int]bool{}, kind: kind, cap: capacity}
}

func (c *collector) absorb(in []dist.Incoming, s int) {
	for _, m := range in {
		ch, ok := m.Msg.(chunk)
		if !ok {
			continue
		}
		if ch.kind != c.kind {
			panic(fmt.Sprintf("core: strict mode received kind %d during kind %d window", ch.kind, c.kind))
		}
		c.acc[m.Port] |= ch.payload << uint(s*c.cap)
		c.got[m.Port] = true
	}
}

// countingBFSStrict is countingBFS with every hop chunked into jc
// sub-rounds. Runs exactly ell*jc engine rounds.
func countingBFSStrict(nd *dist.Node, st *MatchState, side int, participate bool,
	active func(p int) bool, ell int, d strictDims) bfsResult {

	res := bfsResult{dist: -1, counts: make([]float64, nd.Deg())}
	free := participate && st.MatchedPort == -1

	var emit func(s int) // current window's sender, nil when idle
	if participate && side == 0 && free {
		res.visited = true
		res.dist = 0
		var ports []int
		for p := 0; p < nd.Deg(); p++ {
			if active(p) {
				ports = append(ports, p)
			}
		}
		emit = sendChunked(nd, 1, d.countB, d.capacity, 0, ports)
	}

	for w := 1; w <= ell; w++ {
		col := newCollector(0, d.capacity)
		for s := 0; s < d.jc; s++ {
			if emit != nil {
				emit(s)
			}
			in := nd.Step()
			if participate && !res.visited {
				col.absorb(in, s)
			}
		}
		emit = nil
		if !participate || res.visited || len(col.got) == 0 {
			continue
		}
		res.visited = true
		res.dist = w
		for p := range col.got {
			if !active(p) {
				continue
			}
			if side == 0 && p != st.MatchedPort {
				panic(fmt.Sprintf("core: X node %d received count on non-mate port %d", nd.ID(), p))
			}
			res.counts[p] += float64(col.acc[p])
		}
		for _, c := range res.counts {
			res.total += c
		}
		switch {
		case side == 1 && free:
			res.leader = res.total > 0
		case side == 1:
			if w < ell {
				emit = sendChunked(nd, saturate(res.total), d.countB, d.capacity, 0, []int{st.MatchedPort})
			}
		case side == 0:
			if w < ell {
				var ports []int
				for p := 0; p < nd.Deg(); p++ {
					if p != st.MatchedPort && active(p) {
						ports = append(ports, p)
					}
				}
				emit = sendChunked(nd, saturate(res.total), d.countB, d.capacity, 0, ports)
			}
		}
	}
	// Trailing window: a node visited at w = ell prepared no sends, but
	// every node has already executed exactly ell*jc rounds — done.
	return res
}

func saturate(v float64) uint64 {
	if v >= 1<<62 {
		return 1 << 62
	}
	return uint64(v)
}

// tokenPhaseStrict is tokenPhase with chunked priorities: each hop costs jt
// sub-rounds. Runs exactly ell*jt engine rounds.
func tokenPhaseStrict(nd *dist.Node, st *MatchState, side int, participate bool,
	bfs bfsResult, ell int, d strictDims) tokenRecord {

	rec := tokenRecord{inPort: -1, outPort: -1, arrival: -1}
	free := participate && st.MatchedPort == -1

	sampleBack := func() int {
		x := nd.Rand().Float64() * bfs.total
		acc := 0.0
		last := -1
		for p, c := range bfs.counts {
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

	var emit func(s int)
	var packed uint64
	for w := 0; w < ell; w++ {
		if bfs.leader && w == ell-bfs.dist {
			if rec.seen {
				panic("core: leader also received a token")
			}
			val := math.Pow(nd.Rand().Float64(), 1/bfs.total)
			packed = packPriority(val, nd.ID())
			rec.tok = token{val: val, leader: int32(nd.ID()), bits: d.tokenB}
			rec.seen = true
			rec.arrival = w
			rec.outPort = sampleBack()
			emit = sendChunked(nd, packed, d.tokenB, d.capacity, 1, []int{rec.outPort})
		}
		col := newCollector(1, d.capacity)
		for s := 0; s < d.jt; s++ {
			if emit != nil {
				emit(s)
			}
			in := nd.Step()
			if participate {
				col.absorb(in, s)
			}
		}
		emit = nil
		if !participate || len(col.got) == 0 {
			continue
		}
		if rec.seen {
			panic(fmt.Sprintf("core: token timing violation at node %d (tokens in two windows)", nd.ID()))
		}
		best := uint64(0)
		bestPort := -1
		for p := range col.got {
			if bestPort == -1 || col.acc[p] > best {
				best, bestPort = col.acc[p], p
			}
		}
		packed = best
		rec.tok = token{val: float64(best>>24) / (1 << 40), leader: leaderOf(best), bits: d.tokenB}
		rec.inPort, rec.seen, rec.arrival = bestPort, true, w+1
		switch {
		case side == 0 && free:
			// terminal
		case side == 0:
			if w+1 < ell {
				rec.outPort = st.MatchedPort
				emit = sendChunked(nd, packed, d.tokenB, d.capacity, 1, []int{rec.outPort})
			}
		default:
			if w+1 < ell && bfs.total > 0 {
				rec.outPort = sampleBack()
				emit = sendChunked(nd, packed, d.tokenB, d.capacity, 1, []int{rec.outPort})
			}
		}
	}
	return rec
}

// commitPhaseStrict is commitPhase with chunked leader ids: jm sub-rounds
// per hop, ell*jm engine rounds total.
func commitPhaseStrict(nd *dist.Node, st *MatchState, side int, participate bool,
	rec tokenRecord, ell int, d strictDims) bool {

	flipped := false
	free := participate && st.MatchedPort == -1

	var emit func(s int)
	if side == 0 && free && rec.seen {
		st.MatchedPort = rec.inPort
		flipped = true
		emit = sendChunked(nd, uint64(rec.tok.leader), d.commitB, d.capacity, 2, []int{rec.inPort})
	}
	for w := 0; w < ell; w++ {
		col := newCollector(2, d.capacity)
		for s := 0; s < d.jm; s++ {
			if emit != nil {
				emit(s)
			}
			in := nd.Step()
			if participate {
				col.absorb(in, s)
			}
		}
		emit = nil
		if !participate || len(col.got) == 0 {
			continue
		}
		for p := range col.got {
			if !rec.seen || p != rec.outPort || int32(col.acc[p]) != rec.tok.leader {
				panic(fmt.Sprintf("core: commit route violation at node %d", nd.ID()))
			}
			if side == 1 {
				st.MatchedPort = rec.outPort
			} else {
				st.MatchedPort = rec.inPort
			}
			flipped = true
			if rec.inPort != -1 {
				emit = sendChunked(nd, col.acc[p], d.commitB, d.capacity, 2, []int{rec.inPort})
			}
		}
	}
	return flipped
}

// runPhasesStrict is runPhases with every phase executed in strict CONGEST
// mode (all values chunked to ≤ capacity bits). It returns true if the
// local matching changed. All nodes must call it in lockstep.
func runPhasesStrict(nd *dist.Node, st *MatchState, side int, participate bool,
	active func(p int) bool, k int, oracle bool, capacity int) bool {

	changed := false
	for ell := 1; ell <= 2*k-1; ell += 2 {
		d := dims(nd.N(), nd.MaxDegree(), ell, capacity)
		budget := 0
		if !oracle {
			budget = PhaseBudget(nd.N(), nd.MaxDegree(), ell)
		}
		for it := 0; ; it++ {
			bfs := countingBFSStrict(nd, st, side, participate, active, ell, d)
			if oracle {
				if _, any := nd.StepOr(bfs.leader); !any {
					break
				}
			} else if it >= budget {
				break
			}
			rec := tokenPhaseStrict(nd, st, side, participate, bfs, ell, d)
			if commitPhaseStrict(nd, st, side, participate, rec, ell, d) {
				changed = true
			}
		}
	}
	return changed
}

// BipartiteMCMStrict is BipartiteMCM executed in strict CONGEST mode: no
// message ever exceeds capacityBits bits; every oversized value is
// pipelined chunk by chunk, exactly as the proof of Lemma 3.7 prescribes.
// Typical usage sets capacityBits = ⌈log₂ n⌉.
func BipartiteMCMStrict(g *graph.Graph, k int, seed uint64, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	return BipartiteMCMStrictWithConfig(g, k, dist.Config{Seed: seed}, capacityBits, oracle)
}

// BipartiteMCMStrictWithConfig is BipartiteMCMStrict with full engine
// configuration (profiling, limits). It executes the flat form, with the
// chunk pipelining of flat_strict.go.
func BipartiteMCMStrictWithConfig(g *graph.Graph, k int, cfg dist.Config, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	if k < 1 {
		panic("core: BipartiteMCMStrict requires k >= 1")
	}
	if !g.IsBipartite() {
		panic("core: BipartiteMCMStrict requires a bipartite graph")
	}
	if g.N() >= 1<<24 {
		panic("core: strict mode packs leader ids into 24 bits; n too large")
	}
	return runFlatBipartiteStrict(g, k, cfg, capacityBits, oracle)
}

// bipartiteMCMStrictCoroutine is the blocking form of
// BipartiteMCMStrictWithConfig: the readable reference the flat machines
// are pinned bit-identical to (TestFlatMatchesCoroutineStrict).
func bipartiteMCMStrictCoroutine(g *graph.Graph, k int, cfg dist.Config, capacityBits int, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		st := &MatchState{MatchedPort: -1}
		all := func(int) bool { return true }
		runPhasesStrict(nd, st, nd.Side(), true, all, k, oracle, capacityBits)
		matchedEdge[nd.ID()] = -1
		if st.MatchedPort >= 0 {
			matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
