package check

import (
	"fmt"
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// probeCase is one differential input: a slab, its live mask and a raw
// per-node assignment.
type probeCase struct {
	g       *graph.Graph
	live    []bool
	matched []int32
}

// randomProbeCase builds a random small slab from seed: n ≤ 16 nodes
// with random (interleaved) bipartition sides, or occasionally a
// general graph, and a random live mask. The assignment is a greedy
// matching of the live subgraph, maximal half the time (mode 0); that
// matching with a few claims scrambled (mode 1); arbitrary claims
// (mode 2); or a greedy matching that ignores liveness, so some
// consistent claims name dead edges (mode 3).
func randomProbeCase(seed uint64, mode int) probeCase {
	r := rng.New(seed)
	n := 1 + r.Intn(16)
	var g *graph.Graph
	if r.Intn(8) == 0 {
		g = gen.Gnp(r, n, 0.3)
	} else {
		b := graph.NewBuilder(n)
		sides := make([]int8, n)
		for v := range sides {
			sides[v] = int8(r.Intn(2))
			b.SetSide(v, sides[v])
		}
		p := 0.1 + 0.5*r.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if sides[u] != sides[v] && r.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		g = b.MustBuild()
	}
	c := probeCase{g: g, live: make([]bool, g.M()), matched: make([]int32, n)}
	for e := range c.live {
		c.live[e] = r.Intn(4) != 0
	}
	for v := range c.matched {
		c.matched[v] = -1
	}
	skip := r.Intn(2) // 0: a maximal greedy matching, no length-1 paths
	for _, e := range r.Perm(g.M()) {
		x, y := g.Endpoints(e)
		if (c.live[e] || mode%4 == 3) && c.matched[x] == -1 && c.matched[y] == -1 && r.Intn(3) >= skip {
			c.matched[x], c.matched[y] = int32(e), int32(e)
		}
	}
	switch mode % 4 {
	case 1:
		for i := 1 + r.Intn(3); i > 0; i-- {
			c.matched[r.Intn(n)] = randomClaim(r, g.M())
		}
	case 2:
		for v := range c.matched {
			c.matched[v] = randomClaim(r, g.M())
		}
	}
	return c
}

// randomClaim is an arbitrary claim: free, any edge id, or out of range.
func randomClaim(r *rng.Rand, m int) int32 {
	switch r.Intn(4) {
	case 0:
		return -1
	case 1:
		return int32(m + r.Intn(3))
	default:
		if m == 0 {
			return -1
		}
		return int32(r.Intn(m))
	}
}

// distributedProbe runs the distributed protocol on a Runner carrying
// c's live mask. panicked reports that the counting BFS panicked — a
// matched X node reached on a non-matched port, which only an
// inconsistent assignment can cause.
func distributedProbe(c probeCase, probeLen int) (rep Report, panicked bool) {
	r := dist.NewRunner(c.g, dist.Config{})
	defer r.Close()
	for e, l := range c.live {
		r.SetEdgeLive(e, l)
	}
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	rep, _ = MatchingOnRunner(r, c.matched, probeLen, 1)
	return rep, false
}

// shortestAugPaths enumerates every augmenting path of minimum length
// ≤ probeLen of the valid matching c.matched on c's live subgraph, by
// brute force over simple alternating paths from the free X nodes.
func shortestAugPaths(c probeCase, probeLen int) (length int, paths [][]int) {
	g := c.g
	length = -1
	on := make([]bool, g.N())
	var path []int
	var walk func(x int)
	walk = func(x int) { // x: an X node at the end of an even-length prefix
		if len(path) > probeLen {
			return
		}
		for p := 0; p < g.Deg(x); p++ {
			e, y := g.EdgeAt(x, p), g.NbrAt(x, p)
			if !c.live[e] || int32(e) == c.matched[x] || on[y] {
				continue
			}
			on[y] = true
			path = append(path, y)
			switch me := c.matched[y]; {
			case me == -1:
				l := len(path) - 1
				if length == -1 || l < length {
					length, paths = l, nil
				}
				if l == length {
					paths = append(paths, append([]int(nil), path...))
				}
			default:
				if x2 := g.Other(int(me), y); !on[x2] {
					on[x2] = true
					path = append(path, x2)
					walk(x2)
					path = path[:len(path)-1]
					on[x2] = false
				}
			}
			path = path[:len(path)-1]
			on[y] = false
		}
	}
	for x := 0; x < g.N(); x++ {
		if g.Side(x) == 0 && c.matched[x] == -1 {
			on[x] = true
			path = append(path[:0], x)
			walk(x)
			on[x] = false
		}
	}
	return length, paths
}

// diffProbe checks SequentialProbe against the distributed protocol on
// one case and, for valid assignments on bipartite slabs, the witness
// region against brute-force enumeration of the shortest augmenting
// paths. It reports whether the distributed BFS panicked, in which case
// only Valid could be compared.
func diffProbe(t *testing.T, c probeCase, probeLen int, buf *ProbeBuffers, label string) (panicked bool) {
	t.Helper()
	got := SequentialProbe(c.g, c.live, c.matched, probeLen, buf)
	want, panicked := distributedProbe(c, probeLen)
	if panicked {
		if got.Valid {
			t.Fatalf("%s: distributed BFS panicked on an assignment the sequential probe calls valid", label)
		}
		return true
	}
	if got != want {
		t.Fatalf("%s probe %d: sequential %+v, distributed %+v (matched %v)", label, probeLen, got, want, c.matched)
	}
	if got.ShortestAug < 0 && len(buf.Witness) != 0 {
		t.Fatalf("%s: witness region %v without an augmenting path", label, buf.Witness)
	}
	if !got.Valid || got.ShortestAug == -2 {
		return false
	}
	length, paths := shortestAugPaths(c, probeLen)
	if length != got.ShortestAug {
		t.Fatalf("%s probe %d: brute force finds shortest %d, probe %d", label, probeLen, length, got.ShortestAug)
	}
	in := make(map[int]bool, len(buf.Witness))
	for _, v := range buf.Witness {
		if in[int(v)] {
			t.Fatalf("%s: witness lists node %d twice", label, v)
		}
		in[int(v)] = true
	}
	for _, path := range paths {
		for _, v := range path {
			if !in[v] {
				t.Fatalf("%s probe %d: node %d of shortest augmenting path %v missing from witness %v",
					label, probeLen, v, path, buf.Witness)
			}
		}
	}
	return false
}

// TestSequentialProbeMatchesDistributed is the differential suite: on
// random small slabs with random liveness and valid, perturbed and
// arbitrary assignments, the sequential probe reports exactly what the
// distributed protocol does, and its witness region covers every
// shortest augmenting path.
func TestSequentialProbeMatchesDistributed(t *testing.T) {
	var buf ProbeBuffers // shared across graphs of different sizes on purpose
	panics := 0
	for seed := uint64(1); seed <= 2000; seed++ {
		c := randomProbeCase(seed, int(seed))
		for probeLen := 0; probeLen <= 6; probeLen++ {
			if diffProbe(t, c, probeLen, &buf, fmt.Sprintf("seed %d", seed)) {
				panics++
			}
		}
	}
	t.Logf("%d distributed BFS panics on inconsistent assignments (Valid compared only)", panics)
}

// TestSequentialProbeNoAllocs pins the caller-owned-buffer contract: a
// warm probe allocates nothing, witness region included.
func TestSequentialProbeNoAllocs(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(5), 64, 64, 0.06)
	live := make([]bool, g.M())
	matched := make([]int32, g.N())
	for v := range matched {
		matched[v] = -1
	}
	for e := range live {
		live[e] = true
		if x, y := g.Endpoints(e); matched[x] == -1 && matched[y] == -1 && e%3 != 0 {
			matched[x], matched[y] = int32(e), int32(e)
		}
	}
	var buf ProbeBuffers
	rep := SequentialProbe(g, live, matched, 5, &buf)
	if rep.ShortestAug <= 0 || len(buf.Witness) == 0 {
		t.Fatalf("want a failing probe with a witness region, got %+v, %d witness nodes", rep, len(buf.Witness))
	}
	if a := testing.AllocsPerRun(20, func() { SequentialProbe(g, live, matched, 5, &buf) }); a != 0 {
		t.Fatalf("warm SequentialProbe allocates %.1f times per call", a)
	}
}

// FuzzSequentialProbe drives the differential check from fuzzed seeds,
// assignment modes and probe lengths.
func FuzzSequentialProbe(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint8(2*seed+1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode, probe uint8) {
		var buf ProbeBuffers
		c := randomProbeCase(seed, int(mode))
		diffProbe(t, c, int(probe%7), &buf, fmt.Sprintf("seed %d mode %d", seed, mode))
	})
}
