// Package chaos is the randomized fault harness for the serving stack:
// seeded schedules that interleave topology churn, engine-level fault
// plans (dist.FaultPlan: crashes, message drops, injected panics) and
// serving-layer node crashes against a live dynamic.Maintainer, checking
// after every slot that the served matching is valid on the surviving
// live subgraph, and after the faults clear that the Maintainer heals —
// back to Healthy with a certified (1−1/K)-approximate matching against
// the centralized exact optimum — within a bounded number of clean
// slots. Schedules are pure functions of their seed, so a failure
// replays bit-identically, at any engine worker count.
package chaos

import (
	"fmt"

	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// Config parameterizes one chaos schedule. The zero value of every field
// gets a sensible default; Seed selects the schedule.
type Config struct {
	// Seed determines everything: the slab, the churn, the fault plans,
	// the crash victims. Same seed, same schedule, same Result.
	Seed uint64
	// NX, NY and P shape the bipartite Gnp slab (defaults 8, 8, 0.3).
	NX, NY int
	P      float64
	// K is the approximation target (default 2).
	K int
	// Steps is the number of serving slots driven (default 30);
	// FaultSteps is the prefix of them during which fault plans may be
	// armed and nodes crashed (default 20). The remainder runs clean
	// churn with faults disarmed.
	Steps, FaultSteps int
	// MaxOps caps the churn batch per slot (default 3).
	MaxOps int
	// MaxCleanSlots bounds the empty applies allowed for the Maintainer
	// to return to Healthy with a certified matching after the schedule
	// ends (default 25). Exceeding it fails the run.
	MaxCleanSlots int
	// Workers configures the engine.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.NX == 0 {
		c.NX = 8
	}
	if c.NY == 0 {
		c.NY = 8
	}
	if c.P == 0 {
		c.P = 0.3
	}
	if c.K < 1 {
		c.K = 2
	}
	if c.Steps == 0 {
		c.Steps = 30
	}
	if c.FaultSteps == 0 {
		c.FaultSteps = 20
	}
	if c.MaxOps < 1 {
		c.MaxOps = 3
	}
	if c.MaxCleanSlots == 0 {
		c.MaxCleanSlots = 25
	}
	return c
}

// Result is what one schedule did — comparable across replays and worker
// counts with reflect.DeepEqual, which is exactly how the determinism test uses it.
type Result struct {
	Steps      int // serving slots driven (excl. convergence slots)
	Faults     int // engine runs lost to injected faults
	Degraded   int // slots that ended Degraded
	Recovering int // slots that ended Recovering
	Crashed    int // nodes crashed at the serving layer
	CleanSlots int // empty applies needed to re-converge at the end
	FinalSize  int // matching size after convergence
	FinalOpt   int // exact optimum on the final live subgraph
	Converged  bool
	Totals     dynamic.Totals
	// History is one compact record per slot — health, faults so far and
	// the served matching — the thing that must be bit-identical across
	// replays and worker counts.
	History []string
}

// Run drives one schedule and verifies it slot by slot. The returned
// error describes the first violated invariant (an invalid served
// matching, or failure to re-converge); a nil error means every slot
// served a valid matching on the surviving live subgraph and the
// Maintainer healed to a certified approximation at the end.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := rng.New(rng.Mix(cfg.Seed ^ 0xc4a05))
	g := gen.BipartiteGnp(r.Fork(1), cfg.NX, cfg.NY, cfg.P)
	if g.M() == 0 {
		return nil, fmt.Errorf("chaos: seed %d produced an edgeless slab", cfg.Seed)
	}
	mt := dynamic.New(g, dynamic.Options{
		K: cfg.K, Seed: cfg.Seed + 1, StartEmpty: true, AuditEvery: 4,
		Workers: cfg.Workers,
	})
	defer mt.Close()

	res := &Result{Steps: cfg.Steps}
	alive := make([]bool, g.N())
	for v := range alive {
		alive[v] = true
	}
	for step := 0; step < cfg.Steps; step++ {
		var rep dynamic.ApplyReport
		if action := r.Intn(6); step < cfg.FaultSteps && action == 0 {
			// Re-arm a fresh fault plan; it stays installed (replaying on
			// every engine run) until replaced, disarmed or the fault
			// phase ends.
			mt.InjectFaults(dist.RandomFaultPlan(r.Uint64(), g.N(), g.M(), dist.FaultProfile{
				Rounds:  4 + r.Intn(4),
				Crashes: r.Intn(2),
				Drops:   r.Intn(4),
				Panics:  r.Intn(2),
			}))
			rep = mt.Apply(batch(r, mt, g, alive, cfg.MaxOps))
		} else if step < cfg.FaultSteps && action == 1 && res.Crashed*4 < g.N() {
			// A serving-layer crash: the node's surviving edges leave as
			// one implicit deletion batch.
			if v := pickAlive(r, alive); v >= 0 {
				alive[v] = false
				res.Crashed++
				rep = mt.CrashNode(v)
			}
		} else if step < cfg.FaultSteps && action == 2 {
			mt.InjectFaults(nil)
			rep = mt.Apply(batch(r, mt, g, alive, cfg.MaxOps))
		} else {
			rep = mt.Apply(batch(r, mt, g, alive, cfg.MaxOps))
		}
		switch rep.Health {
		case dynamic.Degraded:
			res.Degraded++
		case dynamic.Recovering:
			res.Recovering++
		}
		if err := validOnLive(mt, alive); err != nil {
			return res, fmt.Errorf("chaos: seed %d slot %d: %v", cfg.Seed, step, err)
		}
		res.History = append(res.History,
			fmt.Sprintf("%s f%d %s", rep.Health, mt.Totals().Faults, matchKey(g, mt.Matching())))
	}

	// Faults over: the Maintainer must heal within MaxCleanSlots empty
	// applies — Healthy, with a freshly certified matching.
	mt.InjectFaults(nil)
	for res.CleanSlots < cfg.MaxCleanSlots {
		res.CleanSlots++
		rep := mt.Apply(nil)
		if err := validOnLive(mt, alive); err != nil {
			return res, fmt.Errorf("chaos: seed %d clean slot %d: %v", cfg.Seed, res.CleanSlots, err)
		}
		if rep.Health == dynamic.Healthy && rep.Audited && rep.CertificateOK {
			res.Converged = true
			break
		}
	}
	res.Totals = mt.Totals()
	res.Faults = res.Totals.Faults
	res.FinalSize = mt.Matching().Size()
	res.FinalOpt = exact.MaxCardinality(mt.LiveGraph()).Size()
	if !res.Converged {
		return res, fmt.Errorf("chaos: seed %d did not re-converge in %d clean slots (health %v)",
			cfg.Seed, cfg.MaxCleanSlots, mt.Health())
	}
	if res.FinalSize*cfg.K < (cfg.K-1)*res.FinalOpt {
		return res, fmt.Errorf("chaos: seed %d converged below bound: size %d < (1-1/%d)·%d",
			cfg.Seed, res.FinalSize, cfg.K, res.FinalOpt)
	}
	return res, nil
}

// batch draws one churn batch honoring crashed nodes: edges incident to
// a crashed endpoint can only be deleted (they model traffic that will
// never come back), everything else churns freely.
func batch(r *rng.Rand, mt *dynamic.Maintainer, g *graph.Graph, alive []bool, maxOps int) dynamic.Batch {
	b := make(dynamic.Batch, 0, maxOps)
	for i := 0; i < 1+r.Intn(maxOps); i++ {
		e := r.Intn(g.M())
		x, y := g.Endpoints(e)
		switch {
		case mt.Live(e):
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Delete})
		case alive[x] && alive[y]:
			b = append(b, dynamic.Update{Edge: e, Op: dynamic.Insert, Weight: 1 + r.Float64()})
		}
	}
	return b
}

// pickAlive returns a uniformly random alive node, or -1 if none left.
func pickAlive(r *rng.Rand, alive []bool) int {
	var pool []int
	for v, ok := range alive {
		if ok {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		return -1
	}
	return pool[r.Intn(len(pool))]
}

// validOnLive checks the served matching against the surviving live
// subgraph: structurally consistent, every matched edge live, and no
// matched edge touching a crashed node (implied by liveness — a crash
// deletes its edges — but checked directly so a bookkeeping bug cannot
// hide behind that implication).
func validOnLive(mt *dynamic.Maintainer, alive []bool) error {
	g := mt.Graph()
	m := mt.Matching()
	if err := m.Verify(g); err != nil {
		return fmt.Errorf("served matching inconsistent: %v", err)
	}
	for _, e := range m.Edges(g) {
		if !mt.Live(e) {
			return fmt.Errorf("served matching uses dead edge %d", e)
		}
		x, y := g.Endpoints(e)
		if !alive[x] || !alive[y] {
			return fmt.Errorf("served matching uses edge %d of a crashed node", e)
		}
	}
	return nil
}

// matchKey is a canonical string form of a matching (sorted edge ids —
// Edges returns them in node order, which is canonical already).
func matchKey(g *graph.Graph, m *graph.Matching) string {
	return fmt.Sprint(m.Edges(g))
}
