package distmatch

import (
	"testing"
)

func TestFacadeBipartite(t *testing.T) {
	g := RandomBipartite(1, 40, 40, 0.1)
	res := MCMBipartite(g, 3, 1)
	if err := res.Matching.Verify(g); err != nil {
		t.Fatal(err)
	}
	opt := OptimalMCM(g).Size()
	if float64(res.Matching.Size()) < (2.0/3.0)*float64(opt) {
		t.Fatalf("facade bipartite below guarantee: %d of %d", res.Matching.Size(), opt)
	}
	if res.Stats.Rounds <= 0 {
		t.Fatal("no stats")
	}
}

func TestFacadeGeneral(t *testing.T) {
	g := RandomGraph(2, 30, 0.2)
	res := MCMGeneral(g, 3, 2)
	opt := OptimalMCM(g).Size()
	if float64(res.Matching.Size()) < (2.0/3.0)*float64(opt)-1e-9 {
		t.Fatalf("facade general below guarantee: %d of %d", res.Matching.Size(), opt)
	}
}

func TestFacadeGeneric(t *testing.T) {
	g := RandomGraph(3, 16, 0.25)
	res := MCMGeneric(g, 0.34, 3)
	opt := OptimalMCM(g).Size()
	if float64(res.Matching.Size()) < 0.66*float64(opt)-1e-9 {
		t.Fatalf("facade generic below guarantee")
	}
}

func TestFacadeWeighted(t *testing.T) {
	g := WithUniformWeights(5, RandomGraph(4, 24, 0.25), 1, 10)
	res := MWMHalf(g, 0.1, 4)
	opt := OptimalMWM(g).Weight(g)
	if res.Matching.Weight(g) < 0.4*opt-1e-9 {
		t.Fatalf("facade MWMHalf below guarantee: %.2f of %.2f", res.Matching.Weight(g), opt)
	}
	q := MWMQuarter(g, 0.05, 4)
	if q.Matching.Weight(g) < 0.2*opt-1e-9 {
		t.Fatalf("facade MWMQuarter below guarantee")
	}
	if GreedyMWM(g).Weight(g) < opt/2-1e-9 {
		t.Fatal("facade greedy below half")
	}
}

func TestFacadeMaximalAndMIS(t *testing.T) {
	g := RandomGraph(6, 50, 0.1)
	res := MaximalMatching(g, 6)
	if !res.Matching.IsMaximal(g) {
		t.Fatal("facade maximal matching not maximal")
	}
	member, st := MIS(g, 6)
	if st.Rounds <= 0 || len(member) != g.N() {
		t.Fatal("facade MIS malformed")
	}
}

func TestFacadeOptionsBudgeted(t *testing.T) {
	g := RandomBipartite(7, 20, 20, 0.15)
	res := MCMBipartite(g, 2, 7, Budgeted())
	if res.Stats.OracleCalls != 0 {
		t.Fatal("Budgeted() still used oracle")
	}
}

func TestFacadeTrace(t *testing.T) {
	g := WithExpWeights(8, RandomGraph(8, 16, 0.3), 5)
	// eps=0.25 → iters = ceil(7.5·ln 8) = 16.
	trace := make([]*Matching, 17)
	res := MWMHalf(g, 0.25, 8, Trace(trace))
	if trace[0].Size() != 0 {
		t.Fatal("trace[0] should be empty")
	}
	last := trace[len(trace)-1]
	if last.Weight(g) != res.Matching.Weight(g) {
		t.Fatal("trace end disagrees with result")
	}
}

func TestFacadeVerifyDistributed(t *testing.T) {
	g := RandomBipartite(9, 15, 15, 0.2)
	k := 2
	res := MCMBipartite(g, k, 9)
	rep, _ := VerifyDistributed(g, res.Matching, 2*k-1, 9)
	if !rep.Valid {
		t.Fatal("algorithm output failed distributed handshake")
	}
	if rep.ApproxCertificate(2*k-1) != k {
		t.Fatalf("certificate missing: %+v", rep)
	}
}

func TestFacadeIterationsOption(t *testing.T) {
	g := RandomGraph(10, 16, 0.3)
	res := MCMGeneral(g, 3, 10, Iterations(5), IdleStop(0))
	if err := res.Matching.Verify(g); err != nil {
		t.Fatal(err)
	}
	// 5 iterations must cost far fewer rounds than the theory bound.
	full := MCMGeneral(g, 3, 10, IdleStop(20))
	if res.Stats.Rounds >= full.Stats.Rounds {
		t.Fatalf("Iterations(5) rounds %d not below default %d", res.Stats.Rounds, full.Stats.Rounds)
	}
}

func TestFacadeStrictCongest(t *testing.T) {
	g := RandomBipartite(11, 20, 20, 0.15)
	res := MCMBipartite(g, 2, 11, StrictCongest(6))
	if res.Stats.MaxMessageBits > 6 {
		t.Fatalf("strict mode leaked a %d-bit message", res.Stats.MaxMessageBits)
	}
	if err := res.Matching.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLocalSearchAndConflictGraph(t *testing.T) {
	g := WithUniformWeights(12, RandomGraph(12, 12, 0.4), 1, 9)
	ls := LocalSearchMWM(g, 2)
	opt := OptimalMWM(g).Weight(g)
	if ls.Weight(g) < (2.0/3.0)*opt-1e-9 {
		t.Fatalf("local search below 2/3 bound")
	}
	m := GreedyMWM(g)
	cg, paths := ConflictGraph(g, m, 3)
	if cg.N() != len(paths) {
		t.Fatal("conflict graph size mismatch")
	}
}

func TestFacadeCountAugmentingPaths(t *testing.T) {
	g := RandomBipartite(13, 10, 10, 0.3)
	m := OptimalMCM(g)
	counts, st := CountAugmentingPaths(g, m, 5)
	if st.Rounds != 5 {
		t.Fatalf("counting should take exactly ell rounds, got %d", st.Rounds)
	}
	for v, c := range counts {
		if c > 0 && g.Side(v) == 1 && m.Free(v) {
			t.Fatal("optimal matching cannot have augmenting-path endpoints")
		}
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g := b.MustBuild()
	if OptimalMWM(g).Weight(g) != 3 {
		t.Fatal("builder path broken")
	}
}

// TestFacadeMaintainer drives the facade Maintainer through a recompute,
// a mass delete and an audit.
func TestFacadeMaintainer(t *testing.T) {
	g := RandomBipartite(3, 30, 30, 0.15)
	mt := NewMaintainer(g, MaintainerOptions{K: 3, Seed: 2})
	defer mt.Close()
	rep := mt.Recompute()
	if !rep.Recomputed || rep.Rounds == 0 {
		t.Fatalf("Recompute report %+v", rep)
	}
	before := mt.Matching().Size()
	if before == 0 {
		t.Fatal("empty matching on a 0.15-density slab")
	}
	opt := OptimalMCM(mt.LiveGraph()).Size()
	if mt.Matching().Size()*3 < 2*opt {
		t.Fatalf("maintained matching %d below 2/3 of %d", mt.Matching().Size(), opt)
	}
	// Delete every matched edge in one batch; the repair must rebuild a
	// valid matching over what is left.
	var b Batch
	for _, e := range mt.Matching().Edges(g) {
		b = append(b, Update{Edge: e, Op: EdgeDelete})
	}
	rep = mt.Apply(b)
	if rep.Touched == 0 {
		t.Fatalf("mass delete touched nothing: %+v", rep)
	}
	m := mt.Matching()
	if err := m.Verify(g); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Edges(g) {
		if !mt.Live(e) {
			t.Fatalf("matched edge %d is dead", e)
		}
	}
	a := mt.Audit()
	if !a.Audited || !a.CertificateOK {
		t.Fatalf("audit after mass delete: %+v", a)
	}
}

// TestFacadePool drives the sharded serving facade end to end: full
// start, churn, a kill-plan event mid-stream, flagged degraded serving,
// auto-restart and re-certification.
func TestFacadePool(t *testing.T) {
	g := RandomBipartite(19, 24, 24, 0.2)
	p := NewPool(g, PoolOptions{Shards: 4, K: 2, Seed: 19, AuditEvery: 4})
	defer p.Close()
	if p.Matching().Size() == 0 {
		t.Fatal("full start served nothing")
	}
	p.SetKillPlan(NewShardKillPlan([]ShardKillEvent{
		{Step: 2, Shard: 1, Kind: ShardKill},
		{Step: 5, Shard: 1, Kind: ShardRestart},
	}))
	sawDown := false
	for step := 0; step < 12; step++ {
		e := step % g.M()
		op := EdgeDelete
		if !p.Live(e) {
			op = EdgeInsert
		}
		rep := p.Apply(Batch{Update{Edge: e, Op: op}})
		q := p.Query()
		if err := q.Matching.Verify(g); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(q.Down) > 0 {
			sawDown = true
			if !q.Degraded || !rep.Degraded {
				t.Fatalf("step %d: down shard not flagged: %+v", step, q)
			}
		}
	}
	if !sawDown {
		t.Fatal("kill plan never took shard 1 down")
	}
	certified := false
	for i := 0; i < 10 && !certified; i++ {
		rep := p.Apply(nil)
		certified = rep.Audited && rep.CertificateOK
	}
	if !certified {
		t.Fatal("pool did not re-certify after the kill window")
	}
	if st := p.Status()[1]; st.Restarts == 0 {
		t.Fatalf("shard 1 never rebuilt: %+v", st)
	}
	if tot := p.Totals(); tot.Kills == 0 || tot.Restarts == 0 {
		t.Fatalf("totals missed the schedule: %+v", tot)
	}
}
