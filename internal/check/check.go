// Package check provides distributed self-verification protocols for
// matchings: a deployment that just ran one of the matching algorithms can
// certify the result without collecting it centrally.
//
//   - a one-round handshake verifies the per-node matched-edge assignment
//     is a consistent matching (both endpoints agree, degree ≤ 1);
//   - a two-round probe detects non-maximality (an edge with both
//     endpoints free);
//   - for bipartite graphs, a Berge probe reuses the paper's Algorithm 3
//     counting BFS to find the shortest augmenting path up to a length
//     bound — certifying the (1−1/k) guarantee of Theorem 3.8 holds for
//     the *specific* output at hand (no augmenting path of length ≤ 2k−1
//     means |M| ≥ (1−1/k)|M*| by Lemma 3.5).
//
// Aggregation uses the engine's global-OR primitive (one oracle call per
// question; Θ(diameter) rounds in a real network).
package check

import (
	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/graph"
)

// Report is the outcome of distributed verification.
type Report struct {
	// Valid is true when the assignment is a consistent matching.
	Valid bool
	// Maximal is true when no edge has two free endpoints (only
	// meaningful when Valid).
	Maximal bool
	// ShortestAug is the length of the shortest augmenting path found by
	// the Berge probe, or -1 if none exists up to the probe bound. It is
	// -2 when the probe was not run (non-bipartite graph or bound 0).
	ShortestAug int
}

// ApproxCertificate converts a Berge-probe outcome into the Lemma 3.5
// guarantee: if no augmenting path of length ≤ 2k−1 exists, the matching is
// (1−1/k)-approximate. Returns the certified k (0 if none).
func (r Report) ApproxCertificate(probeLen int) int {
	if !r.Valid || r.ShortestAug != -1 {
		return 0
	}
	return (probeLen + 1) / 2
}

type edgeClaim struct {
	edge int32
}

func (edgeClaim) Bits() int { return 64 }

type freeFlag struct{ dist.Signal }

// Matching verifies m over g distributively. probeLen bounds the Berge
// probe (use 2k−1 to certify a (1−1/k) approximation); 0 skips it.
func Matching(g *graph.Graph, m *graph.Matching, probeLen int, seed uint64) (Report, *dist.Stats) {
	matchedEdge := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		matchedEdge[v] = int32(m.MatchedEdge(v))
	}
	return MatchingRaw(g, matchedEdge, probeLen, seed)
}

// MatchingRaw is Matching on a raw per-node assignment (matchedEdge[v] =
// edge id or -1), the form a distributed run leaves behind; it does not
// assume the assignment is consistent — that is what it checks.
func MatchingRaw(g *graph.Graph, matchedEdge []int32, probeLen int, seed uint64) (Report, *dist.Stats) {
	rep := Report{ShortestAug: -2}
	stats := dist.RunFlat(g, dist.Config{Seed: seed}, flatProgram(matchedEdge, probeLen, &rep))
	return rep, stats
}

// MatchingOnRunner runs the verification protocol through a shared
// dist.Runner, respecting its edge activation mask: dead edges carry no
// traffic, so validity, maximality and the Berge probe are all judged
// against the runner's live subgraph. This is the audit path of the
// dynamic Maintainer — a certificate check on the current topology
// without materializing it. A matched edge that is dead is reported as
// invalid (its handshake cannot complete).
func MatchingOnRunner(r *dist.Runner, matchedEdge []int32, probeLen int, seed uint64) (Report, *dist.Stats) {
	if r.LiveEdgeCount() == 0 {
		return emptySubgraphReport(r.Graph(), matchedEdge, probeLen), &dist.Stats{}
	}
	rep := Report{ShortestAug: -2}
	stats := r.RunFlat(seed, flatProgram(matchedEdge, probeLen, &rep))
	return rep, stats
}

// emptySubgraphReport is MatchingOnRunner's zero-live-edges short
// circuit: with every edge dead the protocol has no one to talk to —
// under an active set of live-edge endpoints there is not even a node to
// step, which used to leave a degenerate all-false report. The answer is
// fully determined without a run, and mirrors exactly what the protocol
// returns on a materialized edgeless subgraph (pinned by
// TestEmptyLiveSubgraph): only the empty assignment is a valid matching
// (any claim names a dead edge, whose handshake cannot complete), it is
// vacuously maximal, and the Berge probe finds no augmenting path.
func emptySubgraphReport(g *graph.Graph, matchedEdge []int32, probeLen int) Report {
	rep := Report{Valid: true, Maximal: true, ShortestAug: -2}
	for _, me := range matchedEdge {
		if me != -1 {
			rep.Valid = false
			break
		}
	}
	if probeLen > 0 && g.IsBipartite() {
		rep.ShortestAug = -1
	}
	return rep
}

// program is the blocking (coroutine) reference form of the
// protocol; every entry point runs its flat transliteration (flat.go),
// and TestFlatMatchesBlocking pins the two bit-equal. The engine's
// activation mask (if any) shapes what either form sees: a SendAll
// reaches only live neighbors, so every probe is relative to the live
// subgraph. The report is written by the run's Reporter node (the
// lowest stepped id) rather than node 0, so the protocol also works
// under active-set execution — the dynamic Maintainer restricts audits
// to the endpoints of live edges, a set no live edge can cross, which
// leaves messages, rounds and outcomes bit-identical to a full sweep.
func program(matchedEdge []int32, probeLen int, rep *Report) func(*dist.Node) {
	return func(nd *dist.Node) {
		me := matchedEdge[nd.ID()]

		// Round 1: handshake. Everyone tells every neighbor which edge
		// (if any) it believes it is matched on.
		nd.SendAll(edgeClaim{edge: me})
		bad := false
		if me != -1 {
			// My edge must be incident to me — and live: a dead matched
			// edge cannot be caught by the cross-check below, because no
			// message crosses it.
			found := false
			for p := 0; p < nd.Deg(); p++ {
				if int32(nd.EdgeID(p)) == me {
					found = nd.EdgeLive(p)
				}
			}
			if !found {
				bad = true
			}
		}
		for _, in := range nd.Step() {
			claim := in.Msg.(edgeClaim).edge
			myEdgeHere := int32(nd.EdgeID(in.Port))
			// If the neighbor claims the shared edge, I must claim it too,
			// and vice versa.
			if (claim == myEdgeHere) != (me == myEdgeHere) {
				bad = true
			}
		}
		_, anyBad := nd.StepOr(bad)
		if nd.Reporter() {
			rep.Valid = !anyBad
		}

		// Rounds 2-3: maximality probe. Free nodes raise a flag; a free
		// node seeing a free neighbor reports a violation.
		free := me == -1
		if free {
			nd.SendAll(freeFlag{})
		}
		violation := false
		for _, in := range nd.Step() {
			if _, ok := in.Msg.(freeFlag); ok && free {
				violation = true
			}
		}
		_, anyViolation := nd.StepOr(violation)
		if nd.Reporter() {
			rep.Maximal = !anyViolation
		}

		// Berge probe (bipartite only): run the counting BFS for
		// ℓ = 1, 3, …, probeLen; the first ℓ with a leader is the
		// shortest augmenting path length.
		if probeLen <= 0 || !nd.Bipartite() {
			return
		}
		st := &core.MatchState{MatchedPort: -1}
		if me != -1 {
			for p := 0; p < nd.Deg(); p++ {
				if int32(nd.EdgeID(p)) == me {
					st.MatchedPort = p
				}
			}
		}
		found := false
		for ell := 1; ell <= probeLen; ell += 2 {
			leader := core.CountLeaders(nd, st, ell)
			_, any := nd.StepOr(leader && !found)
			if any && !found {
				found = true
				if nd.Reporter() {
					rep.ShortestAug = ell
				}
			}
		}
		if nd.Reporter() && !found {
			rep.ShortestAug = -1
		}
	}
}
