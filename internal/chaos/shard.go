package chaos

import (
	"fmt"

	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// ShardConfig parameterizes one shard-level chaos schedule: the pool
// analogue of Config. The zero value of every field gets a sensible
// default; Seed selects the schedule.
type ShardConfig struct {
	// Seed determines everything: the slab, the churn, the kill plan,
	// the per-shard fault plans. Same seed, same schedule, same result.
	Seed uint64
	// NX, NY and P shape the bipartite Gnp slab (defaults 14, 14, 0.3 —
	// big enough that every one of the default 4 shards owns real nodes
	// and internal edges).
	NX, NY int
	P      float64
	// K is the approximation target (default 2); Shards the pool width
	// (default 4).
	K, Shards int
	// Steps is the number of serving slots driven (default 30);
	// FaultSteps the prefix during which the kill plan fires and shard
	// fault plans may be armed (default 20).
	Steps, FaultSteps int
	// Kills is the number of scheduled kill-plan events (default 3).
	Kills int
	// MaxOps caps the churn batch per slot (default 4).
	MaxOps int
	// MaxCleanSlots bounds the quiet applies allowed for the pool to
	// return to every-shard-Healthy with a certified composed matching
	// after the schedule ends (default 40 — a late kill can owe a full
	// capped backoff before its rebuild even starts).
	MaxCleanSlots int
	// Workers configures every underlying engine.
	Workers int
	// Serial runs the pool's single-threaded write path (inline shard
	// commits, full recompose rescans) instead of the per-shard commit
	// pipelines. Schedules must replay bit-identically either way — the
	// pipeline determinism contract, pinned at chaos scale by
	// TestShardChaosSerialBitIdentical.
	Serial bool
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.NX == 0 {
		c.NX = 14
	}
	if c.NY == 0 {
		c.NY = 14
	}
	if c.P == 0 {
		c.P = 0.3
	}
	if c.K < 1 {
		c.K = 2
	}
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.Steps == 0 {
		c.Steps = 30
	}
	if c.FaultSteps == 0 {
		c.FaultSteps = 20
	}
	if c.Kills == 0 {
		c.Kills = 3
	}
	if c.MaxOps < 1 {
		c.MaxOps = 4
	}
	if c.MaxCleanSlots == 0 {
		c.MaxCleanSlots = 40
	}
	return c
}

// ShardResult is what one shard-level schedule did — comparable across
// replays, worker counts and Serial vs pipelined mode with
// reflect.DeepEqual.
type ShardResult struct {
	Steps         int // serving slots driven (excl. convergence slots)
	Armed         int // fault-plan arms delivered to up shards
	DegradedSlots int // slots whose report ended Degraded
	DownSlots     int // slot×shard pairs observed down
	StaleSlots    int // slot×shard pairs serving last-good snapshots
	CleanSlots    int // quiet applies needed to re-converge at the end
	FinalSize     int // composed matching size after convergence
	FinalOpt      int // exact optimum on the final live subgraph
	Converged     bool
	Totals        shard.Stats
	// History is one compact record per slot — flags, shard states and
	// the composed matching — the thing that must be bit-identical
	// across replays, worker counts and write-path modes.
	History []string
	// Events is the pool's structured telemetry trace (rendered records,
	// append order). The trace carries the Apply slot clock, never wall
	// time, so it is part of the DeepEqual-compared result: replays,
	// worker counts and write-path modes must produce it bit-identically
	// — the telemetry layer's own determinism contract, verified by the
	// same harness that verifies the matchings.
	Events []string
}

// RunShards drives one shard-level schedule and verifies it slot by
// slot: a seeded kill/restart plan and seeded per-shard fault plans
// against a pool under churn. The returned error describes the first
// violated invariant; nil means every slot served a valid composed
// matching on the live subgraph, degradation was flagged exactly when
// some shard was down or stale, surviving shards kept their matches in
// the answer, and after the faults cleared the pool re-converged to
// every-shard-Healthy with a certified (1−1/K) composed matching.
func RunShards(cfg ShardConfig) (*ShardResult, error) {
	cfg = cfg.withDefaults()
	r := rng.New(rng.Mix(cfg.Seed ^ 0x5a4d0))
	g := gen.BipartiteGnp(r.Fork(1), cfg.NX, cfg.NY, cfg.P)
	if g.M() == 0 {
		return nil, fmt.Errorf("chaos: seed %d produced an edgeless slab", cfg.Seed)
	}
	// The harness instruments every run with its own registry: the event
	// trace rides along in the result and is compared across replays.
	// dist.SetTelemetry is deliberately NOT installed — engine wall-clock
	// metrics are process-global, nondeterministic and not part of any
	// compared trace.
	reg := telemetry.New(telemetry.Options{EventCapacity: 1 << 14})
	p := shard.New(g, shard.Options{
		Shards: cfg.Shards, K: cfg.K, Seed: cfg.Seed + 1,
		StartEmpty: true, AuditEvery: 4,
		Workers: cfg.Workers, Serial: cfg.Serial,
		Telemetry: reg,
	})
	defer p.Close()

	// The deterministic kill/restart schedule, drawn once from the seed:
	// kills (and the occasional forced restart) spread over the fault
	// phase, any shard fair game.
	events := make([]shard.KillEvent, 0, cfg.Kills)
	for i := 0; i < cfg.Kills; i++ {
		kind := shard.Kill
		if r.Intn(4) == 0 {
			kind = shard.Restart
		}
		events = append(events, shard.KillEvent{
			Step:  r.Intn(cfg.FaultSteps),
			Shard: r.Intn(cfg.Shards),
			Kind:  kind,
		})
	}
	p.SetKillPlan(shard.NewKillPlan(events))

	res := &ShardResult{Steps: cfg.Steps}
	for step := 0; step < cfg.Steps; step++ {
		if action := r.Intn(6); step < cfg.FaultSteps && action == 0 {
			// Arm a fresh fault plan on one shard's Maintainer, addressed
			// in its local ids. A down shard rejects the arm — the plan is
			// consumed from the RNG either way, so the stream stays aligned.
			s := r.Intn(cfg.Shards)
			sub := p.SubGraph(s)
			plan := dist.RandomFaultPlan(r.Uint64(), sub.N(), sub.M(), dist.FaultProfile{
				Rounds:  4 + r.Intn(4),
				Crashes: r.Intn(2),
				Drops:   r.Intn(4),
				Panics:  r.Intn(2),
			})
			if p.InjectShardFaults(s, plan) == nil {
				res.Armed++
			}
		} else if step < cfg.FaultSteps && action == 1 {
			s := r.Intn(cfg.Shards)
			_ = p.InjectShardFaults(s, nil) // down shards come back unarmed anyway
		}
		rep := p.Apply(shardBatch(r, p, g, cfg.MaxOps))
		q := p.Query()
		if err := shardSlotInvariants(p, g, rep, q); err != nil {
			return res, fmt.Errorf("chaos: seed %d slot %d: %v", cfg.Seed, step, err)
		}
		if rep.Degraded {
			res.DegradedSlots++
		}
		res.DownSlots += len(q.Down)
		res.StaleSlots += len(q.Stale)
		res.History = append(res.History,
			fmt.Sprintf("deg%v down%v stale%v cert%v killed%v restarted%v crashed%v %s",
				rep.Degraded, q.Down, q.Stale, q.Certified,
				rep.Killed, rep.Restarted, rep.Crashed, matchKey(g, q.Matching)))
	}

	// Faults over: disarm every up shard and let the pool heal — pending
	// backoffs expire, rebuilds re-certify, the conflict audit passes —
	// within MaxCleanSlots quiet applies.
	for s := 0; s < cfg.Shards; s++ {
		_ = p.InjectShardFaults(s, nil)
	}
	for res.CleanSlots < cfg.MaxCleanSlots {
		res.CleanSlots++
		rep := p.Apply(nil)
		q := p.Query()
		if err := shardSlotInvariants(p, g, rep, q); err != nil {
			return res, fmt.Errorf("chaos: seed %d clean slot %d: %v", cfg.Seed, res.CleanSlots, err)
		}
		if rep.Degraded || !q.Certified {
			continue
		}
		healthy := true
		for s, h := range rep.Healths {
			if rep.Down[s] || h != dynamic.Healthy {
				healthy = false
			}
		}
		if healthy {
			res.Converged = true
			break
		}
	}
	res.Totals = p.Totals()
	res.Events = reg.Events().Strings()
	res.FinalSize = p.Matching().Size()
	res.FinalOpt = exact.MaxCardinality(poolLiveGraph(p, g)).Size()
	if !res.Converged {
		return res, fmt.Errorf("chaos: seed %d pool did not re-converge in %d clean slots",
			cfg.Seed, cfg.MaxCleanSlots)
	}
	if res.FinalSize*cfg.K < (cfg.K-1)*res.FinalOpt {
		return res, fmt.Errorf("chaos: seed %d converged below bound: size %d < (1-1/%d)·%d",
			cfg.Seed, res.FinalSize, cfg.K, res.FinalOpt)
	}
	return res, nil
}

// shardBatch draws one churn batch over the global slab: live edges
// leave, dead edges come back weighted, and the occasional reweight.
func shardBatch(r *rng.Rand, p *shard.Pool, g *graph.Graph, maxOps int) dynamic.Batch {
	b := make(dynamic.Batch, 0, maxOps)
	for i := 0; i < 1+r.Intn(maxOps); i++ {
		e := r.Intn(g.M())
		switch {
		case !p.Live(e):
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Insert, Weight: 1 + r.Float64()})
		case r.Intn(3) == 0:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.SetWeight, Weight: 1 + r.Float64()})
		default:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Delete})
		}
	}
	return b
}

// shardSlotInvariants checks one slot's serving contract from the
// outside: the composed matching is a valid matching using only live
// edges; the degraded flag is exactly "some shard down or stale"; and
// killing shards never empties the global answer while healthy shards
// hold live internal edges (each up shard's served matches are embedded
// verbatim in the composition, so a non-empty healthy shard forces a
// non-empty global answer).
func shardSlotInvariants(p *shard.Pool, g *graph.Graph, rep shard.Report, q shard.Response) error {
	if err := q.Matching.Verify(g); err != nil {
		return fmt.Errorf("composed matching inconsistent: %v", err)
	}
	for _, e := range q.Matching.Edges(g) {
		if !p.Live(e) {
			return fmt.Errorf("composed matching uses dead edge %d", e)
		}
	}
	wantDegraded := len(q.Down) > 0 || len(q.Stale) > 0
	if q.Degraded != wantDegraded {
		return fmt.Errorf("degraded flag %v but down=%v stale=%v", q.Degraded, q.Down, q.Stale)
	}
	if rep.Degraded != q.Degraded {
		return fmt.Errorf("report degraded %v but query degraded %v", rep.Degraded, q.Degraded)
	}
	healthyServes := 0
	for s, st := range p.Status() {
		if st.Up && st.Health == dynamic.Healthy {
			healthyServes += shardInternalMatches(p, g, q.Matching, s)
		}
	}
	if healthyServes > 0 && q.Matching.Size() == 0 {
		return fmt.Errorf("global answer empty while healthy shards hold %d matches", healthyServes)
	}
	return nil
}

// shardInternalMatches counts composed-matching edges internal to shard
// s — the part of the global answer that shard alone is responsible for.
func shardInternalMatches(p *shard.Pool, g *graph.Graph, m *graph.Matching, s int) int {
	n := 0
	for _, e := range m.Edges(g) {
		if p.EdgeShard(e) == s {
			n++
		}
	}
	return n
}

// poolLiveGraph materializes the pool's live subgraph for the exact
// optimum (fresh builder, same node ids; only sizes are compared).
func poolLiveGraph(p *shard.Pool, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		side := g.Side(v)
		if side < 0 {
			side = 0
		}
		b.SetSide(v, int8(side))
	}
	for e := 0; e < g.M(); e++ {
		if p.Live(e) {
			u, v := g.Endpoints(e)
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}
