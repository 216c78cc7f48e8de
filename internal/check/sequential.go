package check

// The sequential Berge probe: the verification protocol of check.go
// evaluated centrally by whoever already holds the whole liveness mask
// and assignment in memory — a shard pool's coordinator, say — instead
// of simulated round by round on the engine. It answers the same three
// questions with the same semantics, including on inconsistent
// assignments (TestSequentialProbeMatchesDistributed, FuzzSequentialProbe):
//
//   - Valid and Maximal are the handshake and free-flag probes, decided
//     in one pass over the claims and the free nodes' live ports;
//   - ShortestAug is the first leader round of the counting BFS, found
//     by one Hopcroft–Karp alternating BFS from the free X nodes to
//     depth probeLen — Algorithm 3's layering exactly, since the
//     distributed BFS for ℓ is the ℓ-round prefix of the one for
//     probeLen.
//
// On top of the verdict it returns the witness region: every node of
// the BFS DAG that leads back from a free Y node reached within probeLen
// layers. Every shortest augmenting path lies inside it, so a repair
// confined to the region (closed under mates) removes them all — the
// locally-bounded work of Even, Medina and Ron (arXiv:1407.7882).

import "distmatch/internal/graph"

// ProbeBuffers is SequentialProbe's caller-owned scratch. The zero value
// is ready to use: the buffers grow to the graph's size on the first
// probe and are reused afterwards, so a steady-state probe allocates
// nothing.
type ProbeBuffers struct {
	// Witness is the witness region of the last probe, in discovery
	// order (leaders first): empty when no augmenting path of length
	// ≤ probeLen exists or the Berge probe did not run. The slice is
	// overwritten by the next probe.
	Witness []int32

	layer   []int32 // BFS layer per node, -1 unreached; all -1 between probes
	queue   []int32 // reached nodes in BFS order
	witness []bool  // Witness membership; all false between probes
}

func (b *ProbeBuffers) grow(n int) {
	if len(b.layer) >= n {
		return
	}
	b.layer = make([]int32, n)
	for v := range b.layer {
		b.layer[v] = -1
	}
	b.witness = make([]bool, n)
	b.queue = make([]int32, 0, n)
	b.Witness = make([]int32, 0, n)
}

// SequentialProbe verifies the per-node assignment matchedEdge (edge id
// or -1, not assumed consistent) over the live subgraph of g — live[e]
// reports edge e's liveness, nil meaning every edge is live — and
// returns the Report MatchingOnRunner would return on a Runner with that
// edge mask. probeLen bounds the Berge probe as there (0 skips it; it is
// skipped on non-bipartite graphs too). The witness region of a found
// augmenting path is left in buf.Witness.
//
// Cost is O(n) for validity, O(free nodes' live degree) for maximality
// and O(volume reached within probeLen layers) for the Berge probe.
//
// One case differs by construction: a matched X node reached on a port
// other than its matched edge — only possible under an inconsistent
// assignment — makes the distributed counting BFS panic, while the
// sequential probe ignores that delivery. Valid is false either way.
func SequentialProbe(g *graph.Graph, live []bool, matchedEdge []int32, probeLen int, buf *ProbeBuffers) Report {
	n, m := g.N(), g.M()
	if len(matchedEdge) != n {
		panic("check: SequentialProbe matchedEdge length mismatch")
	}
	if live != nil && len(live) != m {
		panic("check: SequentialProbe live length mismatch")
	}
	isLive := func(e int32) bool { return live == nil || live[e] }
	// mate is the BFS's view of v's matched edge: the claim if it names
	// an edge incident to v (live or not), -1 otherwise.
	mate := func(v int32) int32 {
		e := matchedEdge[v]
		if e < 0 || int(e) >= m {
			return -1
		}
		if x, y := g.Endpoints(int(e)); x != int(v) && y != int(v) {
			return -1
		}
		return e
	}
	buf.grow(n)
	buf.Witness = buf.Witness[:0]
	rep := Report{Valid: true, Maximal: true, ShortestAug: -2}

	// Handshake: a claim must name a live incident edge whose other
	// endpoint claims it too. Checking every claim covers the converse
	// (a neighbor claiming our shared edge while we do not), so O(n).
	for v, e := range matchedEdge {
		if e == -1 {
			continue
		}
		if mate(int32(v)) != e || !isLive(e) || matchedEdge[g.Other(int(e), v)] != e {
			rep.Valid = false
			break
		}
	}
	// Free flags: no live edge may join two unclaimed endpoints.
	off, nbr, eid, _ := g.CSR()
free:
	for v, e := range matchedEdge {
		if e != -1 {
			continue
		}
		for a := off[v]; a < off[v+1]; a++ {
			if isLive(eid[a]) && matchedEdge[nbr[a]] == -1 {
				rep.Maximal = false
				break free
			}
		}
	}
	if probeLen <= 0 || !g.IsBipartite() {
		return rep
	}

	// Counting BFS layers: free X nodes at 0; a layer-L X node forwards
	// over its live non-matched edges, a matched layer-L Y node over its
	// live matched edge, and only while L < probeLen. A free Y node
	// reached at layer L is a leader: the endpoint of an augmenting path
	// of length L.
	layer, queue := buf.layer, buf.queue[:0]
	for v := 0; v < n; v++ {
		if g.Side(v) == 0 && mate(int32(v)) == -1 {
			layer[v] = 0
			queue = append(queue, int32(v))
		}
	}
	rep.ShortestAug = -1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		l := layer[v]
		if int(l) >= probeLen {
			break // BFS order: every later node sits at layer probeLen too
		}
		mv := mate(v)
		if g.Side(int(v)) == 0 {
			for a := off[v]; a < off[v+1]; a++ {
				if e := eid[a]; e == mv || !isLive(e) || layer[nbr[a]] >= 0 {
					continue
				}
				y := nbr[a]
				layer[y] = l + 1
				queue = append(queue, y)
				if mate(y) == -1 && rep.ShortestAug == -1 {
					rep.ShortestAug = int(l + 1)
				}
			}
			continue
		}
		if mv == -1 || !isLive(mv) {
			continue // a leader, or a send over a dead edge
		}
		if x := int32(g.Other(int(mv), int(v))); layer[x] < 0 && mate(x) == mv {
			layer[x] = l + 1
			queue = append(queue, x)
		}
	}

	// Witness region: walk the DAG back from every leader. A layer-L Y
	// node's parents are the layer-(L−1) X neighbors that forwarded over
	// the shared edge; a layer-L X node's parent is its mate.
	if rep.ShortestAug != -1 {
		wit, in := buf.Witness, buf.witness
		for _, v := range queue {
			if layer[v] > 0 && g.Side(int(v)) == 1 && mate(v) == -1 {
				in[v] = true
				wit = append(wit, v)
			}
		}
		for i := 0; i < len(wit); i++ {
			v := wit[i]
			l := layer[v]
			if l == 0 {
				continue
			}
			if g.Side(int(v)) == 0 {
				if u := int32(g.Other(int(mate(v)), int(v))); !in[u] {
					in[u] = true
					wit = append(wit, u)
				}
				continue
			}
			for a := off[v]; a < off[v+1]; a++ {
				u, e := nbr[a], eid[a]
				if layer[u] == l-1 && !in[u] && isLive(e) && e != mate(u) {
					in[u] = true
					wit = append(wit, u)
				}
			}
		}
		for _, v := range wit {
			in[v] = false
		}
		buf.Witness = wit
	}
	for _, v := range queue {
		layer[v] = -1
	}
	buf.queue = queue
	return rep
}
