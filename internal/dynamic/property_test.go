package dynamic

// The property suite of the satellite task: random insert/delete/weight
// sequences keep the Maintainer's output a valid matching (distinct
// endpoints, live edges only), and at every audited point the matching is
// within the (1−1/k) factor of the exact optimum on the live subgraph —
// the Lemma 3.5 certificate checked against internal/exact, not just the
// Berge probe. CI runs this package under -race.

import (
	"testing"

	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// checkState verifies the structural invariants after one apply.
func checkState(t *testing.T, mt *Maintainer, trial, step int) {
	t.Helper()
	g := mt.Graph()
	m := mt.Matching()
	if err := m.Verify(g); err != nil {
		t.Fatalf("trial %d step %d: %v", trial, step, err)
	}
	for _, e := range m.Edges(g) {
		if !mt.Live(e) {
			t.Fatalf("trial %d step %d: matched edge %d is dead", trial, step, e)
		}
	}
}

// checkRatio asserts the certified bound |M|·k ≥ (k−1)·opt on the live
// subgraph, via the exact centralized reference.
func checkRatio(t *testing.T, mt *Maintainer, trial, step int) {
	t.Helper()
	opt := exact.MaxCardinality(mt.LiveGraph()).Size()
	k := mt.K()
	if mt.Matching().Size()*k < (k-1)*opt {
		t.Fatalf("trial %d step %d: size %d below (1-1/%d) of opt %d",
			trial, step, mt.Matching().Size(), k, opt)
	}
}

func randomBatch(r *rng.Rand, mt *Maintainer, maxOps int) Batch {
	g := mt.Graph()
	b := make(Batch, 0, maxOps)
	for i := 0; i < 1+r.Intn(maxOps); i++ {
		e := r.Intn(g.M())
		switch {
		case r.Intn(5) == 0:
			b = append(b, Update{Edge: e, Op: SetWeight, Weight: 1 + r.Float64()*9})
		case mt.Live(e):
			b = append(b, Update{Edge: e, Op: Delete})
		default:
			b = append(b, Update{Edge: e, Op: Insert, Weight: 1 + r.Float64()*9})
		}
	}
	return b
}

// TestPropertyEveryApplyCertified: with AuditEvery = 1 every Apply ends
// in a certified state, so validity AND the (1−1/k) bound must hold after
// every single batch.
func TestPropertyEveryApplyCertified(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 6; trial++ {
		k := 2 + trial%2
		g := gen.BipartiteGnp(r.Fork(uint64(trial)), 8+trial, 9, 0.35)
		if g.M() == 0 {
			continue
		}
		mt := New(g, Options{K: k, Seed: uint64(trial + 1), StartEmpty: true, AuditEvery: 1})
		steps := 25
		for step := 0; step < steps; step++ {
			rep := mt.Apply(randomBatch(r, mt, 4))
			if !rep.Audited || !rep.CertificateOK {
				t.Fatalf("trial %d step %d: apply left an uncertified state: %+v", trial, step, rep)
			}
			checkState(t, mt, trial, step)
			checkRatio(t, mt, trial, step)
		}
		mt.Close()
	}
}

// TestPropertyAuditCadence: with a sparser audit cadence, validity must
// hold after every apply and the approximation bound at every audited
// apply; the interleaving applies are allowed to degrade.
func TestPropertyAuditCadence(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 4; trial++ {
		g := gen.BipartiteGnp(r.Fork(uint64(trial)), 12, 12, 0.3)
		if g.M() == 0 {
			continue
		}
		mt := New(g, Options{K: 3, Seed: uint64(trial + 9), StartEmpty: true, AuditEvery: 5})
		for step := 0; step < 40; step++ {
			rep := mt.Apply(randomBatch(r, mt, 3))
			checkState(t, mt, trial, step)
			if rep.Audited {
				if !rep.CertificateOK {
					t.Fatalf("trial %d step %d: audit did not restore the certificate: %+v",
						trial, step, rep)
				}
				checkRatio(t, mt, trial, step)
			}
		}
		tot := mt.Totals()
		if tot.Audits == 0 {
			t.Fatalf("trial %d: no audit ran in 40 applies at cadence 5", trial)
		}
		mt.Close()
	}
}

// TestPropertyBudgetedMode: the paper's fixed w.h.p. budgets instead of
// the oracle; structural validity is deterministic, the ratio w.h.p.
func TestPropertyBudgetedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("budgeted property sweep skipped in -short mode")
	}
	r := rng.New(31)
	g := gen.BipartiteGnp(r, 10, 10, 0.3)
	mt := New(g, Options{K: 2, Seed: 4, StartEmpty: true, AuditEvery: 4, Budgeted: true})
	defer mt.Close()
	for step := 0; step < 16; step++ {
		mt.Apply(randomBatch(r, mt, 3))
		checkState(t, mt, 0, step)
	}
}

func matchKey(g *graph.Graph, m *graph.Matching) string {
	key := ""
	for _, e := range m.Edges(g) {
		key += string(rune('a'+e%26)) + string(rune('0'+e/26))
	}
	return key
}
