package dynamic

// The randomized fuzz driver of PR 5: a seeded table of ≥200 random
// mutation schedules, each replayed through two Maintainers in lockstep —
// active-set execution on (the default) versus off (Options.FullSweep,
// the PR-4 engine schedule) — asserting identical matchings, identical
// engine cost (rounds, messages), identical audit outcomes and identical
// lifetime totals at every single step; audited steps are additionally
// checked against internal/exact, and the restricted audit is replayed
// through the independent fresh-graph verifier. CI runs this under
// -race. Only NodeRounds — the engine's real sweep work, the thing the
// feature exists to shrink — may (and must, in aggregate) differ.

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"distmatch/internal/check"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

const fuzzSchedules = 220

// fuzzSeeds returns the schedule seeds a fuzz test runs: 0..total-1, or
// just the one named by DISTMATCH_FUZZ_SEED — the replay handle every
// fuzz failure message prints. replay is true in the single-seed case,
// where whole-table aggregate assertions don't apply.
func fuzzSeeds(t *testing.T, total int) (seeds []uint64, replay bool) {
	t.Helper()
	if s := os.Getenv("DISTMATCH_FUZZ_SEED"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("DISTMATCH_FUZZ_SEED=%q: %v", s, err)
		}
		t.Logf("replaying single schedule seed %d", seed)
		return []uint64{seed}, true
	}
	seeds = make([]uint64, total)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	return seeds, false
}

// fuzzFail fails the test with the schedule's replay handle attached.
func fuzzFail(t *testing.T, seed uint64, format string, args ...any) {
	t.Helper()
	t.Fatalf("schedule seed %d (replay: DISTMATCH_FUZZ_SEED=%d go test ...): %s",
		seed, seed, fmt.Sprintf(format, args...))
}

// fuzzReportsEqual compares everything an Apply reports except the sweep
// work.
func fuzzReportsEqual(a, b ApplyReport) bool {
	a.NodeRounds, b.NodeRounds = 0, 0
	return a == b
}

func fuzzTotalsEqual(a, b Totals) bool {
	a.NodeRounds, b.NodeRounds = 0, 0
	return a == b
}

// TestFuzzDynamicActiveVsFullSweep is the schedule table. Every schedule
// draws its own slab, approximation target, audit cadence, region cap
// and batch stream from its seed, so the table covers regional repairs,
// full-graph fallbacks, failed audits and recomputes alike.
func TestFuzzDynamicActiveVsFullSweep(t *testing.T) {
	var regionalRepairs int
	var sweepSaved int64
	seeds, replay := fuzzSeeds(t, fuzzSchedules)
	for _, seed := range seeds {
		r := rng.New(rng.Mix(seed + 1))
		g := gen.BipartiteGnp(r.Fork(1), 5+r.Intn(8), 5+r.Intn(8), 0.15+0.3*r.Float64())
		if g.M() == 0 {
			continue
		}
		opts := Options{
			K:          2 + r.Intn(2),
			Seed:       seed + 7,
			StartEmpty: true,
			AuditEvery: []int{1, 3, 5}[r.Intn(3)],
		}
		if r.Intn(4) == 0 {
			opts.MaxRegionFrac = 0.2 // exercise the overflow→full path often
		}
		full := opts
		full.FullSweep = true
		act := New(g, opts)
		ref := New(g, full)

		steps := 6 + r.Intn(10)
		for step := 0; step < steps; step++ {
			b := randomBatch(r, act, 4)
			ra := act.Apply(b)
			rf := ref.Apply(b)
			if !fuzzReportsEqual(ra, rf) {
				fuzzFail(t, seed, "step %d: reports diverge\nactive %+v\nfull   %+v", step, ra, rf)
			}
			if ra.NodeRounds > rf.NodeRounds {
				fuzzFail(t, seed, "step %d: active swept more than full (%d > %d)",
					step, ra.NodeRounds, rf.NodeRounds)
			}
			if ka, kf := matchKey(g, act.Matching()), matchKey(g, ref.Matching()); ka != kf {
				fuzzFail(t, seed, "step %d: matchings diverge: %q vs %q", step, ka, kf)
			}
			if ra.Audited {
				if !ra.CertificateOK {
					fuzzFail(t, seed, "step %d: audit left an uncertified state: %+v", step, ra)
				}
				// Certified state against the centralized exact optimum.
				opt := exact.MaxCardinality(act.LiveGraph()).Size()
				if k := act.K(); act.Matching().Size()*k < (k-1)*opt {
					fuzzFail(t, seed, "step %d: size %d below (1-1/%d) of opt %d",
						step, act.Matching().Size(), k, opt)
				}
			}
		}
		ta, tf := act.Totals(), ref.Totals()
		if !fuzzTotalsEqual(ta, tf) {
			fuzzFail(t, seed, "totals diverge\nactive %+v\nfull   %+v", ta, tf)
		}
		regionalRepairs += ta.Repairs
		sweepSaved += tf.NodeRounds - ta.NodeRounds
		act.Close()
		ref.Close()
	}
	// The table must actually have exercised the feature: regional
	// repairs happened, and active-set execution swept strictly less.
	// (Not meaningful when replaying a single schedule.)
	if replay {
		return
	}
	if regionalRepairs == 0 {
		t.Fatal("fuzz table ran no regional repairs — schedules are miscalibrated")
	}
	if sweepSaved <= 0 {
		t.Fatalf("active-set execution saved no sweep work across the table (Δ=%d)", sweepSaved)
	}
}

// TestFuzzDynamicAuditEquivalence replays the Maintainer's restricted
// audit (active set = endpoints of engine-live edges) against the
// independent fresh-graph verifier on the materialized subgraph it
// certifies: validity, maximality and the shortest-augmenting-path
// certificate must agree at every audit point of a random schedule.
// Between batches the schedule pins and releases random unmatched nodes
// (Maintainer.SetPinned), so the certified subgraph is the live subgraph
// minus the pinned nodes; a FullSweep twin replays every step and must
// stay bit-identical, and every audited state is checked (1−1/k) against
// internal/exact on that subgraph.
func TestFuzzDynamicAuditEquivalence(t *testing.T) {
	seeds, _ := fuzzSeeds(t, 12)
	pinSteps := 0
	for _, seed := range seeds {
		// Each trial is self-contained in its seed (its own rng stream, not
		// a shared one), so a failure replays alone via DISTMATCH_FUZZ_SEED.
		r := rng.New(rng.Mix(seed + 424242))
		g := gen.BipartiteGnp(r.Fork(1), 9, 8, 0.3)
		if g.M() == 0 {
			continue
		}
		k := 2 + int(seed%2)
		opts := Options{K: k, Seed: seed + 3, StartEmpty: true, AuditEvery: -1}
		mt := New(g, opts)
		opts.FullSweep = true
		twin := New(g, opts)
		lockstep := func(step int, what string, ra, rf ApplyReport) {
			t.Helper()
			if !fuzzReportsEqual(ra, rf) {
				fuzzFail(t, seed, "step %d %s: reports diverge\nactive %+v\nfull   %+v", step, what, ra, rf)
			}
			if ka, kf := matchKey(g, mt.Matching()), matchKey(g, twin.Matching()); ka != kf {
				fuzzFail(t, seed, "step %d %s: matchings diverge: %q vs %q", step, what, ka, kf)
			}
		}
		for step := 0; step < 20; step++ {
			b := randomBatch(r, mt, 3)
			lockstep(step, "apply", mt.Apply(b), twin.Apply(b))
			if r.Intn(2) == 0 {
				pins := randomPins(r, mt)
				if err := mt.SetPinned(pins); err != nil {
					fuzzFail(t, seed, "step %d: %v", step, err)
				}
				if err := twin.SetPinned(pins); err != nil {
					fuzzFail(t, seed, "step %d: twin: %v", step, err)
				}
				pinSteps++
			}
			// Reference probe of the *pre-audit* state through independent
			// plumbing: a fresh graph, a fresh engine, no active set, no
			// shared slabs. The Berge probe's BFS is deterministic given
			// (graph, matching), so outcomes must coincide exactly.
			lg := unpinnedGraph(mt)
			me := make([]int32, lg.N())
			for v := range me {
				me[v] = -1
			}
			for _, e := range mt.Matching().Edges(g) {
				x, y := g.Endpoints(e)
				le := lg.EdgeBetween(x, y)
				me[x], me[y] = int32(le), int32(le)
			}
			ref, _ := check.MatchingRaw(lg, me, 2*k-1, uint64(step))
			if !ref.Valid {
				fuzzFail(t, seed, "step %d: reference verifier rejects the maintained matching", step)
			}
			preFailures := mt.Totals().AuditFailures
			rep := mt.Audit() // the restricted, engine-shared audit
			lockstep(step, "audit", rep, twin.Audit())
			failed := mt.Totals().AuditFailures > preFailures
			if refAug := ref.ShortestAug != -1; failed != refAug {
				fuzzFail(t, seed, "step %d: restricted audit failed=%v, reference found aug=%v (len %d)",
					step, failed, refAug, ref.ShortestAug)
			}
			if !rep.CertificateOK {
				fuzzFail(t, seed, "step %d: audit did not restore the certificate: %+v", step, rep)
			}
			m := mt.Matching()
			if opt := exact.MaxCardinality(lg).Size(); m.Size()*k < (k-1)*opt {
				fuzzFail(t, seed, "step %d: size %d below (1-1/%d) of opt %d on the unpinned live subgraph",
					step, m.Size(), k, opt)
			}
			for _, e := range m.Edges(g) {
				if x, y := g.Endpoints(e); mt.Pinned(x) || mt.Pinned(y) {
					fuzzFail(t, seed, "step %d: pinned node matched by edge %d", step, e)
				}
			}
		}
		if ta, tf := mt.Totals(), twin.Totals(); !fuzzTotalsEqual(ta, tf) {
			fuzzFail(t, seed, "totals diverge\nactive %+v\nfull   %+v", ta, tf)
		}
		mt.Close()
		twin.Close()
	}
	if pinSteps == 0 {
		t.Fatal("no schedule changed the pinned set")
	}
}
