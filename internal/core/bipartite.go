package core

import (
	"fmt"
	"math"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §3.2: Algorithm 3 (counting augmenting
// paths by BFS, Lemma 3.6), the token-walk emulation of Luby's MIS over the
// conflict graph (Lemma 3.7), and the augmentation along the winning
// tokens, assembled into phases ℓ = 1, 3, …, 2k−1 (Theorem 3.8).
//
// The machinery is written as an in-program protocol (all nodes call it in
// lockstep from a running node program) so that Algorithm 4 (general.go)
// can execute it on randomly sampled subgraphs: `participate` excludes
// nodes outside V̂ and `active` masks edges outside Ê.

// MatchState is the persistent per-node matching state threaded through the
// protocol phases: the local port of the matched edge, or -1 when free.
type MatchState struct {
	MatchedPort int
}

// cnt is the path-count message of Algorithm 3.
type cnt float64

// Bits charges the binary length of the counter, as Lemma 3.7 does.
func (c cnt) Bits() int { return dist.Count(c).Bits() }

// token carries a leader's priority draw along the BFS DAG. Its size is the
// paper's O(ℓ log Δ + log n): four "digits" of log N bits for the value
// drawn from [1, N⁴] plus a leader identifier.
type token struct {
	val    float64 // u^(1/n_y): one draw representing the max of n_y uniforms
	leader int32
	bits   int
}

func (t token) Bits() int { return t.bits }

// beats orders tokens by (value, leader id); leaders are distinct so the
// order is total.
func (t token) beats(o token) bool {
	if t.val != o.val {
		return t.val > o.val
	}
	return t.leader > o.leader
}

// commit retraces a winning token's path, flipping matched edges.
type commit struct {
	leader int32
	nbits  int
}

func (c commit) Bits() int { return c.nbits }

// tokenBits returns the message size charged for a token: 4·log₂N priority
// bits for N = n·(Δ+1)^{⌈(ℓ+1)/2⌉} conflict-graph nodes, plus a leader id.
func tokenBits(n, maxDeg, ell int) int {
	logN := math.Log2(float64(n)) + float64((ell+1)/2)*math.Log2(float64(maxDeg)+1)
	return int(math.Ceil(4*logN)) + dist.IDBits(n)
}

// PhaseBudget is the fixed per-phase iteration budget used when the
// convergence oracle is disabled: c·log₂N iterations for the conflict graph
// size N = n·Δ^{O(ℓ)} (Lemma 3.7's w.h.p. bound), derived from the shared
// dist.LogBudgetFrac helper (the extra +4 keeps the historical slack).
func PhaseBudget(n, maxDeg, ell int) int {
	logN := math.Log2(float64(n)+1) + float64(ell)*math.Log2(float64(maxDeg)+2)
	return dist.LogBudgetFrac(logN, 4) + 4
}

// bfsResult is the outcome of one counting BFS at one node.
type bfsResult struct {
	visited bool
	dist    int       // d(v): first-reception round
	counts  []float64 // per-port shortest half-augmenting path counts c_v[i]
	total   float64   // n_v = Σ c_v[i]
	leader  bool      // free Y node that recorded counts (endpoint of n_v paths)
}

// countingBFS runs Algorithm 3 for exactly ell engine rounds. side is this
// node's bipartition side (0 = X, 1 = Y), participate excludes nodes outside
// the active subgraph, active masks usable ports.
func countingBFS(nd *dist.Node, st *MatchState, side int, participate bool,
	active func(p int) bool, ell int) bfsResult {

	res := bfsResult{dist: -1, counts: make([]float64, nd.Deg())}
	free := participate && st.MatchedPort == -1

	// Round 0: every free X node floods "1" (line 2-3 of Algorithm 3).
	if participate && side == 0 && free {
		res.visited = true
		res.dist = 0
		for p := 0; p < nd.Deg(); p++ {
			if active(p) {
				nd.Send(p, cnt(1))
			}
		}
	}
	for r := 1; r <= ell; r++ {
		in := nd.Step()
		if !participate || res.visited {
			continue // late messages are discarded (visited nodes ignore)
		}
		got := false
		for _, m := range in {
			c, ok := m.Msg.(cnt)
			if !ok || !active(m.Port) {
				continue
			}
			if side == 0 && m.Port != st.MatchedPort {
				// X nodes receive only from their mate; anything else is a
				// protocol invariant violation.
				panic(fmt.Sprintf("core: X node %d received count on non-mate port %d", nd.ID(), m.Port))
			}
			res.counts[m.Port] += float64(c)
			got = true
		}
		if !got {
			continue
		}
		res.visited = true
		res.dist = r
		for _, c := range res.counts {
			res.total += c
		}
		switch {
		case side == 1 && free:
			// Free Y endpoint: n_v augmenting paths of length r end here.
			res.leader = res.total > 0
		case side == 1: // matched Y: forward the sum to the mate (line 11-12)
			if r < ell {
				nd.Send(st.MatchedPort, cnt(res.total))
			}
		case side == 0: // matched X: forward over non-matching edges (line 8-9)
			if r < ell {
				for p := 0; p < nd.Deg(); p++ {
					if p != st.MatchedPort && active(p) {
						nd.Send(p, cnt(res.total))
					}
				}
			}
		}
	}
	return res
}

// tokenRecord remembers the winning token's route through this node.
type tokenRecord struct {
	tok     token
	inPort  int // port the token arrived on (-1 at the originating leader)
	outPort int // port the token was forwarded on (-1 at the terminal free X)
	seen    bool
	arrival int // token round of arrival, for the timing invariant
}

// tokenPhase emulates one Luby iteration on the conflict graph (Lemma 3.7):
// each leader launches one token whose value represents the maximum of its
// n_y path priorities; tokens walk the BFS DAG backwards (c-weighted at Y
// nodes, the matching edge at X nodes); colliding tokens keep the maximum.
// Tokens are staggered so that a token sits at DAG layer j exactly at token
// round ell−j, which makes every collision simultaneous. Runs exactly ell
// engine rounds.
func tokenPhase(nd *dist.Node, st *MatchState, side int, participate bool,
	bfs bfsResult, ell int) tokenRecord {

	rec := tokenRecord{inPort: -1, outPort: -1, arrival: -1}
	bits := tokenBits(nd.N(), nd.MaxDegree(), ell)
	free := participate && st.MatchedPort == -1

	sampleBack := func() int {
		// Choose an in-edge with probability c_v[i]/n_v.
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
		return last // FP guard: fall back to the last positive-count port
	}

	for tr := 0; tr < ell; tr++ {
		// Leaders launch when their token, walking one layer per round,
		// will reach layer 0 exactly at the last round.
		if bfs.leader && tr == ell-bfs.dist {
			if rec.seen {
				panic("core: leader also received a token")
			}
			val := math.Pow(nd.Rand().Float64(), 1/bfs.total)
			rec.tok = token{val: val, leader: int32(nd.ID()), bits: bits}
			rec.seen = true
			rec.arrival = tr
			rec.outPort = sampleBack()
			nd.Send(rec.outPort, rec.tok)
		}
		in := nd.Step()
		if !participate {
			continue
		}
		// Collect arrivals; the layer-synchronous schedule means all tokens
		// that will ever visit this node arrive in this same round.
		best := token{}
		bestPort := -1
		for _, m := range in {
			t, ok := m.Msg.(token)
			if !ok {
				continue
			}
			if bestPort == -1 || t.beats(best) {
				best, bestPort = t, m.Port
			}
		}
		if bestPort == -1 {
			continue
		}
		if rec.seen {
			panic(fmt.Sprintf("core: token timing violation at node %d (tokens in two rounds)", nd.ID()))
		}
		rec.tok, rec.inPort, rec.seen, rec.arrival = best, bestPort, true, tr+1
		switch {
		case side == 0 && free:
			// Terminal free X: the token's path is complete. No forward.
		case side == 0:
			// Matched X: continue to the mate.
			if tr+1 < ell {
				rec.outPort = st.MatchedPort
				nd.Send(rec.outPort, rec.tok)
			}
		default:
			// Matched Y: continue along a c-weighted in-edge.
			if tr+1 < ell && bfs.total > 0 {
				rec.outPort = sampleBack()
				nd.Send(rec.outPort, rec.tok)
			}
		}
	}
	return rec
}

// commitPhase retraces winning tokens from their terminal free X node back
// to the leader, flipping the matching along the way (the trace-back of
// §3.2). Runs exactly ell engine rounds. Returns true if this node's
// matching state changed.
func commitPhase(nd *dist.Node, st *MatchState, side int, participate bool,
	rec tokenRecord, ell int) bool {

	flipped := false
	free := participate && st.MatchedPort == -1
	cb := dist.IDBits(nd.N())

	// Initiation: a free X node that holds a surviving token starts the
	// commit wave (its token won every collision on its path).
	if side == 0 && free && rec.seen {
		st.MatchedPort = rec.inPort
		flipped = true
		nd.Send(rec.inPort, commit{leader: rec.tok.leader, nbits: cb})
	}
	for cr := 0; cr < ell; cr++ {
		in := nd.Step()
		if !participate {
			continue
		}
		for _, m := range in {
			c, ok := m.Msg.(commit)
			if !ok {
				continue
			}
			if !rec.seen || m.Port != rec.outPort || c.leader != rec.tok.leader {
				panic(fmt.Sprintf("core: commit route violation at node %d", nd.ID()))
			}
			if side == 1 {
				st.MatchedPort = rec.outPort // Y matches the new (downhill) edge
			} else {
				st.MatchedPort = rec.inPort // X matches the token's in-edge
			}
			flipped = true
			if rec.inPort != -1 { // not the originating leader: keep tracing
				nd.Send(rec.inPort, c)
			}
		}
	}
	return flipped
}

// augmentToLength repeatedly counts, selects and applies disjoint
// augmenting paths of length at most ell within the active subgraph until
// none remain (oracle mode, one StepOr per iteration) or for a fixed budget
// of iterations (w.h.p. sufficient, Lemma 3.7). All nodes must call it in
// lockstep. It returns true if this node's matching changed.
func augmentToLength(nd *dist.Node, st *MatchState, side int, participate bool,
	active func(p int) bool, ell int, oracle bool, budget int) bool {

	changed := false
	for it := 0; ; it++ {
		bfs := countingBFS(nd, st, side, participate, active, ell)
		if oracle {
			if _, any := nd.StepOr(bfs.leader); !any {
				return changed
			}
		} else if it >= budget {
			return changed
		}
		rec := tokenPhase(nd, st, side, participate, bfs, ell)
		if commitPhase(nd, st, side, participate, rec, ell) {
			changed = true
		}
	}
}

// runPhases executes phases ℓ = 1, 3, …, 2k−1 (Algorithm 1's loop realized
// with the §3.2 machinery), leaving no augmenting path of length ≤ 2k−1 in
// the active subgraph. Returns true if the local matching changed.
func runPhases(nd *dist.Node, st *MatchState, side int, participate bool,
	active func(p int) bool, k int, oracle bool) bool {

	changed := false
	for ell := 1; ell <= 2*k-1; ell += 2 {
		budget := 0
		if !oracle {
			budget = PhaseBudget(nd.N(), nd.MaxDegree(), ell)
		}
		if augmentToLength(nd, st, side, participate, active, ell, oracle, budget) {
			changed = true
		}
	}
	return changed
}

// CountLeaders runs one counting BFS (exactly ell engine rounds) as part
// of an enclosing node program and reports whether this node ended up a
// leader — a free Y node reached by the BFS, i.e. the endpoint of at least
// one augmenting path of length ≤ ell. Exposed for the Berge probe in
// internal/check.
func CountLeaders(nd *dist.Node, st *MatchState, ell int) bool {
	res := countingBFS(nd, st, nd.Side(), true, func(int) bool { return true }, ell)
	return res.leader
}

// CountPaths runs only the counting BFS of Algorithm 3 on a fixed matching
// and returns n_v for every node (-1 if the BFS never reached it): the
// number of shortest half-augmenting paths from free X nodes ending at v
// (Lemma 3.6). Exposed for the Lemma 3.6 experiments and as a standalone
// distributed path-counting primitive.
func CountPaths(g *graph.Graph, m *graph.Matching, ell int) ([]float64, *dist.Stats) {
	if !g.IsBipartite() {
		panic("core: CountPaths requires a bipartite graph")
	}
	counts := make([]float64, g.N())
	stats := dist.Run(g, dist.Config{Seed: 1}, func(nd *dist.Node) {
		st := &MatchState{MatchedPort: -1}
		if e := m.MatchedEdge(nd.ID()); e >= 0 {
			for p := 0; p < nd.Deg(); p++ {
				if nd.EdgeID(p) == e {
					st.MatchedPort = p
					break
				}
			}
		}
		res := countingBFS(nd, st, nd.Side(), true, func(int) bool { return true }, ell)
		if res.visited {
			counts[nd.ID()] = res.total
		} else {
			counts[nd.ID()] = -1
		}
	})
	return counts, stats
}

// BipartiteMCM computes a (1−1/k)-approximate maximum cardinality matching
// of the bipartite graph g, distributively, per Theorem 3.8 of the paper:
// O(k³ log Δ + k² log n) rounds with O(ℓ log Δ + log n)-bit messages.
// oracle selects convergence detection (guaranteed approximation) versus
// the paper's fixed w.h.p. budgets.
func BipartiteMCM(g *graph.Graph, k int, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return BipartiteMCMWithConfig(g, k, dist.Config{Seed: seed}, oracle)
}

// BipartiteMCMWithConfig is BipartiteMCM with full engine configuration
// (per-round traffic profiling, round limits). It executes the flat form
// (flat.go).
func BipartiteMCMWithConfig(g *graph.Graph, k int, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	checkBipartiteMCM(g, k)
	return runFlatBipartite(g, k, cfg, oracle)
}

// checkBipartiteMCM rejects the inputs Algorithm 3 is not defined on.
func checkBipartiteMCM(g *graph.Graph, k int) {
	if k < 1 {
		panic("core: BipartiteMCM requires k >= 1")
	}
	if !g.IsBipartite() {
		panic("core: BipartiteMCM requires a bipartite graph")
	}
}

// bipartiteMCMCoroutine is the blocking form of BipartiteMCMWithConfig:
// the readable reference the flat machines are pinned bit-identical to
// (TestFlatMatchesCoroutineBipartite).
func bipartiteMCMCoroutine(g *graph.Graph, k int, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		st := &MatchState{MatchedPort: -1}
		all := func(int) bool { return true }
		runPhases(nd, st, nd.Side(), true, all, k, oracle)
		matchedEdge[nd.ID()] = -1
		if st.MatchedPort >= 0 {
			matchedEdge[nd.ID()] = int32(nd.EdgeID(st.MatchedPort))
		}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}
