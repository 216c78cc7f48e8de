package dynamic

// Recovery-ladder tests: fault injection armed through the Maintainer,
// the escalation ladder, degraded serving from the last good snapshot,
// adaptive audit cadence, and healing after the plan is cleared. The
// larger randomized sweep lives in internal/chaos; these pin the exact
// state machine on hand-built schedules.

import (
	"testing"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
)

// TestRecoveryLadderExhaustion drives a plan whose panic fires on every
// engine run that steps node 2, so every ladder level fails and the
// Maintainer degrades — then clears the plan and watches it heal.
func TestRecoveryLadderExhaustion(t *testing.T) {
	mt := New(slab44(), Options{K: 2, Seed: 7, StartEmpty: true})
	defer mt.Close()

	mt.Apply(Batch{{Edge: eid(0, 0), Op: Insert}, {Edge: eid(1, 1), Op: Insert}})
	if mt.Matching().Size() != 2 || mt.Health() != Healthy {
		t.Fatalf("warmup: size %d health %v", mt.Matching().Size(), mt.Health())
	}

	// Node 2 is in every region the next insert dirties, and in every
	// full pass: all three levels exhaust their retries.
	mt.InjectFaults(dist.NewFaultPlan([]dist.FaultEvent{
		{Round: 0, Kind: dist.FaultPanic, Node: 2},
	}))
	rep := mt.Apply(Batch{{Edge: eid(2, 2), Op: Insert}})
	if rep.Faults != 6 || rep.RecoveryLevel != 3 || rep.Health != Degraded {
		t.Fatalf("exhaustion report %+v", rep)
	}
	tot := mt.Totals()
	if tot.Faults != 6 || tot.Retries != 5 || tot.Escalations != 3 {
		t.Fatalf("exhaustion totals %+v", tot)
	}
	if rep.Audited {
		t.Fatal("audit ran while Degraded")
	}

	// Serving continuity: the pre-fault matching, not the (cold-cleared)
	// in-flight one.
	m := mt.Matching()
	if m.Size() != 2 || m.MatchedEdge(0) != eid(0, 0) || m.MatchedEdge(1) != eid(1, 1) {
		t.Fatalf("degraded serving lost the snapshot: %v", m)
	}
	checkState(t, mt, 0, 0)

	// Deleting a snapshot edge while still Degraded shrinks the served
	// matching immediately — it must never name a dead edge. The ladder's
	// regional attempt dodges node 2 and succeeds, so the step ends
	// Recovering: serving our own repaired matching again, uncertified
	// (the recovery step itself never audits — certification is the next
	// step's job).
	rep = mt.Apply(Batch{{Edge: eid(0, 0), Op: Delete}})
	if rep.Health != Recovering || rep.Faults != 0 || rep.RecoveryLevel != 1 {
		t.Fatalf("degraded delete report %+v", rep)
	}
	if rep.Audited {
		t.Fatal("the recovery step must not audit")
	}
	if m = mt.Matching(); m.MatchedEdge(0) == eid(0, 0) {
		t.Fatalf("served matching names the deleted edge: %v", m)
	}
	checkState(t, mt, 0, 1)

	// Clear the plan: the next (empty) Apply runs the forced audit, which
	// recomputes, certifies, and returns health to Healthy.
	mt.InjectFaults(nil)
	rep = mt.Apply(nil)
	if rep.Health != Healthy || !rep.Audited || !rep.CertificateOK {
		t.Fatalf("healing report %+v", rep)
	}
	if mt.Matching().Size() != 2 {
		t.Fatalf("healed size %d, want 2 (edges (1,1) and (2,2))", mt.Matching().Size())
	}
	checkState(t, mt, 0, 2)
	checkRatio(t, mt, 0, 2)

	// Cadence adapted on the way: the healing audit's failed certificate
	// halved 16 → 8; a clean audit relaxes it by one.
	if mt.curAudit != 8 {
		t.Fatalf("curAudit = %d after one tightening, want 8", mt.curAudit)
	}
	if a := mt.Audit(); !a.CertificateOK || mt.curAudit != 9 {
		t.Fatalf("clean audit did not relax cadence: %+v curAudit=%d", a, mt.curAudit)
	}
}

// TestRecoveryBenignPlanMatchesUnarmed pins that arming a plan whose
// events never fire changes nothing: every report and the lifetime
// totals stay identical to an unarmed twin — the fault guard is pure
// overhead, not a behavior change.
func TestRecoveryBenignPlanMatchesUnarmed(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(9), 10, 10, 0.3)
	if g.M() == 0 {
		t.Skip("degenerate graph")
	}
	opts := Options{K: 2, Seed: 3, StartEmpty: true, AuditEvery: 4}
	armed, plain := New(g, opts), New(g, opts)
	defer armed.Close()
	defer plain.Close()
	armed.InjectFaults(dist.NewFaultPlan([]dist.FaultEvent{
		{Round: 1 << 20, Kind: dist.FaultPanic, Node: 0},
	}))

	ra, rp := rng.New(41), rng.New(41)
	for step := 0; step < 25; step++ {
		repA := armed.Apply(randomBatch(ra, armed, 3))
		repP := plain.Apply(randomBatch(rp, plain, 3))
		if repA != repP {
			t.Fatalf("step %d: armed %+v vs unarmed %+v", step, repA, repP)
		}
		if repA.Faults != 0 || repA.Health != Healthy {
			t.Fatalf("step %d: benign plan faulted: %+v", step, repA)
		}
	}
	if armed.Totals() != plain.Totals() {
		t.Fatalf("totals diverge: %+v vs %+v", armed.Totals(), plain.Totals())
	}
}

// TestRecoveryRandomFaultsHeal is the targeted version of the chaos
// harness: random fault schedules against a live maintainer, validity
// of the served matching after every apply, and guaranteed healing (and
// restored approximation bound) once the plan is cleared.
func TestRecoveryRandomFaultsHeal(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(13), 8, 8, 0.35)
	if g.M() < 4 {
		t.Skip("degenerate graph")
	}
	mt := New(g, Options{K: 2, Seed: 11, StartEmpty: true, AuditEvery: 4})
	defer mt.Close()
	r := rng.New(77)
	for step := 0; step < 10; step++ {
		mt.Apply(randomBatch(r, mt, 3))
	}

	sawFault := false
	for trial := 0; trial < 5; trial++ {
		plan := dist.RandomFaultPlan(uint64(trial)+1, g.N(), g.M(), dist.FaultProfile{
			Rounds: 6, Crashes: 2, Drops: 3, Panics: 2,
		})
		mt.InjectFaults(plan)
		for step := 0; step < 6; step++ {
			rep := mt.Apply(randomBatch(r, mt, 3))
			sawFault = sawFault || rep.Faults > 0
			// The served matching is valid on the live subgraph no matter
			// what the schedule did this step.
			checkState(t, mt, trial, step)
		}
		mt.InjectFaults(nil)
		healed := false
		for i := 0; i < 8 && !healed; i++ {
			healed = mt.Apply(nil).Health == Healthy
		}
		if !healed {
			t.Fatalf("trial %d: not Healthy within 8 clean applies (health %v)", trial, mt.Health())
		}
		checkState(t, mt, trial, 99)
		checkRatio(t, mt, trial, 99)
	}
	if !sawFault {
		t.Fatal("no schedule produced a fault; the trials exercised nothing")
	}
	if mt.Totals().Faults == 0 {
		t.Fatalf("totals recorded no faults: %+v", mt.Totals())
	}
}

// TestRecoveryCrashNode pins the serving-layer crash entry point: every
// live incident edge leaves in one batch and the matching re-routes.
func TestRecoveryCrashNode(t *testing.T) {
	mt := New(slab44(), Options{K: 2, Seed: 2, StartEmpty: true})
	defer mt.Close()
	mt.Apply(Batch{
		{Edge: eid(0, 0), Op: Insert}, {Edge: eid(1, 1), Op: Insert},
		{Edge: eid(1, 0), Op: Insert},
	})
	if mt.Matching().Size() != 2 {
		t.Fatalf("warmup size %d", mt.Matching().Size())
	}
	rep := mt.CrashNode(4) // Y0: kills (0,0) and (1,0)
	if rep.Touched == 0 {
		t.Fatalf("crash touched nothing: %+v", rep)
	}
	if mt.Live(eid(0, 0)) || mt.Live(eid(1, 0)) || !mt.Live(eid(1, 1)) {
		t.Fatal("crash deleted the wrong edges")
	}
	m := mt.Matching()
	if m.Size() != 1 || m.MatchedEdge(4) != -1 {
		t.Fatalf("matching after crash: %v", m)
	}
	checkState(t, mt, 0, 0)
	if rep2 := mt.CrashNode(4); rep2.Touched != 0 {
		t.Fatalf("second crash of the same node touched %d", rep2.Touched)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CrashNode out of range must panic")
		}
	}()
	mt.CrashNode(8)
}
