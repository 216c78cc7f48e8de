package core

import (
	"fmt"
	"math"
	"sort"

	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// This file implements the paper's §3.1: the generic (1−ε)-MCM for general
// graphs (Algorithms 1 and 2, Theorem 3.1). It is a LOCAL-model algorithm:
// nodes gather their distance-2ℓ neighborhoods (Algorithm 2), enumerate the
// augmenting paths of length ≤ ℓ they belong to — the nodes of the conflict
// graph C_M(ℓ) — and emulate Luby's MIS on C_M(ℓ) by flooding per-path
// random priorities. Messages carry neighborhood descriptions and priority
// tables, so their size is Θ(|V|+|E|) in the worst case — exactly the cost
// the paper states and the reason §3.2/§3.3 exist. Experiment E10 measures
// this contrast.
//
// A path is led by its smaller-id endpoint (the deterministic rule of
// Algorithm 2, step 3). One Luby iteration floods the values of all led
// live paths to distance 2ℓ; every node then decides *locally and
// consistently* which paths through it beat all conflicting paths (any
// conflictor of a path through v lies entirely within v's 2ℓ-ball, so all
// members of a path reach the same verdict), and flips its matching state
// along winning paths.

// pathEntry is one conflict-graph node: an augmenting path (as the node-id
// sequence from its leader end) with its priority draw.
type pathEntry struct {
	sig []int32 // node sequence, sig[0] = leader = min(endpoints)
	val float64
}

func sigKey(sig []int32) string {
	b := make([]byte, 0, 4*len(sig))
	for _, v := range sig {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// beats orders entries by (val, sig) — a total order because signatures
// are distinct.
func (p pathEntry) beats(q pathEntry) bool {
	if p.val != q.val {
		return p.val > q.val
	}
	return sigKey(p.sig) > sigKey(q.sig)
}

// viewMsg floods topology: adjacency lists of known nodes.
type viewMsg struct {
	adj map[int32][]int32
}

func (m viewMsg) Bits() int {
	bits := 0
	for _, nbrs := range m.adj {
		bits += 32 * (1 + len(nbrs))
	}
	return bits
}

// mateMsg floods matching state: known node → mate (-1 free).
type mateMsg struct {
	mate map[int32]int32
}

func (m mateMsg) Bits() int { return 64 * len(m.mate) }

// valMsg floods conflict-graph priorities.
type valMsg struct {
	entries map[string]pathEntry
}

func (m valMsg) Bits() int {
	bits := 0
	for _, e := range m.entries {
		bits += 32*len(e.sig) + 64
	}
	return bits
}

// GenericBudget is the fixed per-phase Luby iteration budget for budget
// mode: O(log N) for the conflict graph size N = n^{O(ℓ)}, derived from the
// shared dist.LogBudgetFrac helper (the extra +8 keeps the historical
// slack).
func GenericBudget(n, ell int) int {
	return dist.LogBudgetFrac(float64(ell)*math.Log2(float64(n)+1), 4) + 8
}

// GenericMCM computes a (1−ε)-approximate maximum cardinality matching of
// an arbitrary graph (Theorem 3.1) in O(ε⁻³ log n) rounds using messages of
// up to O(|V|+|E|) bits. Nodes gather 2ℓ-neighborhoods, so memory and local
// computation grow exponentially with 1/ε on dense graphs — the paper calls
// this algorithm generic for a reason; use BipartiteMCM / GeneralMCM for
// anything large.
func GenericMCM(g *graph.Graph, eps float64, seed uint64, oracle bool) (*graph.Matching, *dist.Stats) {
	return GenericMCMWithConfig(g, eps, dist.Config{Seed: seed}, oracle)
}

// GenericMCMWithConfig is GenericMCM with full engine configuration
// (profiling, limits). It executes the flat form, the genericMachine of
// flat_generic.go.
func GenericMCMWithConfig(g *graph.Graph, eps float64, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	k := genericK(eps)
	matchedEdge := make([]int32, g.N())
	stats := dist.RunFlat(g, cfg, func(nd *dist.Node) dist.RoundProgram {
		return &genericMachine{k: k, oracle: oracle, matchedEdge: matchedEdge}
	})
	return graph.CollectMatching(g, matchedEdge), stats
}

// genericK checks eps and returns the phase count k = ⌈1/ε⌉.
func genericK(eps float64) int {
	if eps <= 0 || eps >= 1 {
		panic("core: GenericMCM requires 0 < eps < 1")
	}
	return int(math.Ceil(1 / eps))
}

// genericMCMCoroutine is the blocking form of GenericMCMWithConfig: the
// readable reference genericMachine is pinned bit-identical to
// (TestFlatMatchesCoroutineGeneric).
func genericMCMCoroutine(g *graph.Graph, eps float64, cfg dist.Config, oracle bool) (*graph.Matching, *dist.Stats) {
	k := genericK(eps)
	matchedEdge := make([]int32, g.N())
	stats := dist.Run(g, cfg, func(nd *dist.Node) {
		runGenericNode(nd, k, oracle, matchedEdge)
	})
	return graph.CollectMatching(g, matchedEdge), stats
}

func runGenericNode(nd *dist.Node, k int, oracle bool, matchedEdge []int32) {
	self := int32(nd.ID())
	radius := 2 * (2*k - 1) // flood radius 2ℓ for the largest phase

	portOf := map[int32]int{}
	for p := 0; p < nd.Deg(); p++ {
		portOf[int32(nd.NbrID(p))] = p
	}

	// ---- Algorithm 2: gather the topology ball (radius rounds). ----
	adj := map[int32][]int32{}
	own := make([]int32, 0, nd.Deg())
	for p := 0; p < nd.Deg(); p++ {
		own = append(own, int32(nd.NbrID(p)))
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	adj[self] = own
	for r := 0; r < radius; r++ {
		nd.SendAll(viewMsg{adj: copyAdj(adj)})
		for _, in := range nd.Step() {
			for id, nbrs := range in.Msg.(viewMsg).adj {
				if _, ok := adj[id]; !ok {
					adj[id] = nbrs
				}
			}
		}
	}

	mate := int32(-1) // my matching state; -1 free

	for ell := 1; ell <= 2*k-1; ell += 2 {
		budget := GenericBudget(nd.N(), ell)
		for it := 0; ; it++ {
			// ---- Flood matching states (radius rounds). ----
			mates := map[int32]int32{self: mate}
			for r := 0; r < radius; r++ {
				nd.SendAll(mateMsg{mate: copyMates(mates)})
				for _, in := range nd.Step() {
					for id, m := range in.Msg.(mateMsg).mate {
						mates[id] = m
					}
				}
			}

			// ---- Enumerate the live paths this node leads; draw values. ----
			led := enumerateLedPaths(self, adj, mates, ell)
			entries := map[string]pathEntry{}
			for _, sig := range led {
				entries[sigKey(sig)] = pathEntry{sig: sig, val: nd.Rand().Float64()}
			}

			// ---- Termination / budget probe. ----
			if oracle {
				if _, any := nd.StepOr(len(led) > 0); !any {
					break
				}
			} else if it >= budget {
				break
			}

			// ---- Flood values (radius rounds). ----
			for r := 0; r < radius; r++ {
				nd.SendAll(valMsg{entries: copyEntries(entries)})
				for _, in := range nd.Step() {
					for key, e := range in.Msg.(valMsg).entries {
						if _, ok := entries[key]; !ok {
							entries[key] = e
						}
					}
				}
			}

			// ---- Decide winners among paths through me; flip. ----
			var mine []pathEntry
			for _, e := range entries {
				for _, v := range e.sig {
					if v == self {
						mine = append(mine, e)
						break
					}
				}
			}
			for _, p := range mine {
				if !winsEverywhere(p, entries) {
					continue
				}
				// p is in the selected independent set: flip my local state.
				i := indexIn(p.sig, self)
				var newMate int32
				if i%2 == 0 {
					newMate = p.sig[i+1]
				} else {
					newMate = p.sig[i-1]
				}
				mate = newMate
				break // at most one winner can contain me
			}
		}
	}

	matchedEdge[nd.ID()] = -1
	if mate != -1 {
		matchedEdge[nd.ID()] = int32(nd.EdgeID(portOf[mate]))
	}
}

// winsEverywhere reports whether p beats every distinct conflicting entry.
func winsEverywhere(p pathEntry, entries map[string]pathEntry) bool {
	pk := sigKey(p.sig)
	onP := map[int32]bool{}
	for _, v := range p.sig {
		onP[v] = true
	}
	for key, q := range entries {
		if key == pk {
			continue
		}
		conflict := false
		for _, v := range q.sig {
			if onP[v] {
				conflict = true
				break
			}
		}
		if conflict && !p.beats(q) {
			return false
		}
	}
	return true
}

func indexIn(sig []int32, v int32) int {
	for i, x := range sig {
		if x == v {
			return i
		}
	}
	panic(fmt.Sprintf("core: node %d not on its own path", v))
}

// enumerateLedPaths lists augmenting paths of length ≤ ell that start at
// self, with self being the smaller endpoint (the leader rule), w.r.t. the
// flooded matching state. self must be free to lead anything.
func enumerateLedPaths(self int32, adj map[int32][]int32, mates map[int32]int32, ell int) [][]int32 {
	if m, ok := mates[self]; !ok || m != -1 {
		return nil
	}
	var out [][]int32
	path := []int32{self}
	onPath := map[int32]bool{self: true}
	var dfs func(v int32)
	dfs = func(v int32) {
		needMatched := len(path)%2 == 0 // edges used so far = len(path)-1
		if len(path)-1 >= ell {
			return
		}
		for _, u := range adj[v] {
			if onPath[u] {
				continue
			}
			um, known := mates[u]
			if !known {
				continue // outside the consistent ball; paths through it are not ours to lead
			}
			if needMatched {
				if mates[v] != u {
					continue // must traverse v's matched edge
				}
			} else if um == v {
				continue // matched edge where an unmatched one is required
			}
			path = append(path, u)
			if !needMatched && um == -1 {
				if self < u { // leader rule: smaller endpoint leads
					sig := make([]int32, len(path))
					copy(sig, path)
					out = append(out, sig)
				}
			} else if um != -1 {
				onPath[u] = true
				dfs(u)
				onPath[u] = false
			}
			path = path[:len(path)-1]
		}
	}
	dfs(self)
	return out
}

func copyAdj(adj map[int32][]int32) map[int32][]int32 {
	c := make(map[int32][]int32, len(adj))
	for k, v := range adj {
		c[k] = v // lists are immutable once created
	}
	return c
}

func copyMates(m map[int32]int32) map[int32]int32 {
	c := make(map[int32]int32, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func copyEntries(e map[string]pathEntry) map[string]pathEntry {
	c := make(map[string]pathEntry, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}
