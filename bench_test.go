package distmatch

// One benchmark per experiment in the paper-reproduction index (DESIGN.md
// §5, EXPERIMENTS.md). Each runs the corresponding experiment generator in
// Quick mode; `cmd/benchtables` regenerates the full tables. Additional
// micro-benchmarks cover the hot substrates (engine rounds, exact matchers)
// so performance regressions in the simulator itself are visible.

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/exact"
	"distmatch/internal/experiments"
	"distmatch/internal/gen"
	"distmatch/internal/israeliitai"
	"distmatch/internal/lpr"
	"distmatch/internal/mis"
	"distmatch/internal/rng"
	"distmatch/internal/stats"
	"distmatch/internal/switchsched"
)

func benchExperiment(b *testing.B, gen func(experiments.Config) *stats.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := gen(experiments.Config{Quick: true, Seed: uint64(i) + 1})
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkE1GenericMCM regenerates E1 (Theorem 3.1).
func BenchmarkE1GenericMCM(b *testing.B) { benchExperiment(b, experiments.E1Generic) }

// BenchmarkE2BipartiteMCM regenerates E2 (Theorem 3.8, Figure 1's machinery).
func BenchmarkE2BipartiteMCM(b *testing.B) { benchExperiment(b, experiments.E2Bipartite) }

// BenchmarkE3Counting regenerates E3 (Lemma 3.6 + Figure 1).
func BenchmarkE3Counting(b *testing.B) { benchExperiment(b, experiments.E3Counting) }

// BenchmarkE4GeneralMCM regenerates E4 (Theorem 3.11 / Lemma 3.10).
func BenchmarkE4GeneralMCM(b *testing.B) { benchExperiment(b, experiments.E4General) }

// BenchmarkE5SurvivalProb regenerates E5 (Observation 3.2).
func BenchmarkE5SurvivalProb(b *testing.B) { benchExperiment(b, experiments.E5Survival) }

// BenchmarkE6WeightedMWM regenerates E6 (Theorem 4.5, Lemma 4.3, Figure 2).
func BenchmarkE6WeightedMWM(b *testing.B) { benchExperiment(b, experiments.E6Weighted) }

// BenchmarkE7LPRQuarter regenerates E7 (Lemma 4.4 black box + ablation A4).
func BenchmarkE7LPRQuarter(b *testing.B) { benchExperiment(b, experiments.E7Quarter) }

// BenchmarkE8Baselines regenerates E8 (§1 comparison table).
func BenchmarkE8Baselines(b *testing.B) { benchExperiment(b, experiments.E8Baselines) }

// BenchmarkE9Switch regenerates E9 (§1 switch scheduling).
func BenchmarkE9Switch(b *testing.B) { benchExperiment(b, experiments.E9Switch) }

// BenchmarkE10MessageBits regenerates E10 (§2 LOCAL vs CONGEST sizes).
func BenchmarkE10MessageBits(b *testing.B) { benchExperiment(b, experiments.E10MessageBits) }

// BenchmarkE11LocalSearch regenerates E11 (§4 Remark, Lemma 4.2 bound).
func BenchmarkE11LocalSearch(b *testing.B) { benchExperiment(b, experiments.E11LocalSearch) }

// BenchmarkE12Trees regenerates E12 (§1 constant-time trees, [12]).
func BenchmarkE12Trees(b *testing.B) { benchExperiment(b, experiments.E12Trees) }

// BenchmarkE14Dynamic regenerates E14 (incremental maintainer vs
// per-slot recompute on the switch workload).
func BenchmarkE14Dynamic(b *testing.B) { benchExperiment(b, experiments.E14Dynamic) }

// BenchmarkE15Region regenerates E15 (active-set repair cost vs
// region-fraction sweep).
func BenchmarkE15Region(b *testing.B) { benchExperiment(b, experiments.E15Region) }

// ---- Dynamic maintainer: amortized per-slot wall cost ----
//
// The BENCH_pr4.json pair: one time slot of the 16-port switch under
// bursty traffic (the persistent-demand regime), scheduled either by the
// incremental Maintainer (diff + regional repair on one persistent
// engine) or by the status-quo DistMCM (fresh request graph + fresh
// engine + cold BipartiteMCM every slot). ns/op is ns per slot.

func benchSwitchSlots(b *testing.B, sched switchsched.Scheduler) {
	b.Helper()
	n := 16
	load := 0.95
	arr := &switchsched.Bursty{MeanBurst: 16}
	arrR := rng.New(1)
	loadR := rng.New(2)
	schedR := rng.New(3)
	q := &switchsched.Queues{N: n, Len: make([][]int, n)}
	for i := range q.Len {
		q.Len[i] = make([]int, n)
	}
	dest := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Gen(n, arrR, dest)
		for j := 0; j < n; j++ {
			if dest[j] >= 0 && loadR.Float64() < load {
				q.Len[j][dest[j]]++
			}
		}
		out := sched.Schedule(q, schedR)
		for j := 0; j < n; j++ {
			if d := out[j]; d >= 0 && q.Len[j][d] > 0 {
				q.Len[j][d]--
			}
		}
	}
}

// BenchmarkDynamicSwitchIncremental is one slot via the Maintainer.
func BenchmarkDynamicSwitchIncremental(b *testing.B) {
	d := &switchsched.DynMCM{K: 2, Seed: 11}
	defer d.Close()
	benchSwitchSlots(b, d)
}

// BenchmarkDynamicSwitchRecompute is one slot via per-slot BipartiteMCM.
func BenchmarkDynamicSwitchRecompute(b *testing.B) {
	benchSwitchSlots(b, &switchsched.DistMCM{K: 2})
}

// ---- Region repair: active-set execution vs the PR-4 full sweep ----
//
// The BENCH_pr5.json pair and the tentpole number of the active-set PR:
// one small-batch Apply on a 4096-node slab (2048+2048, 3-regular,
// fully live, steady-state toggles of 2 edges per slot). The maintainers
// are identical — same region policy, same repair machinery, bit-
// identical matchings (TestFuzzDynamicActiveVsFullSweep) — except for
// the engine schedule: FullSweep steps all 4096 nodes every round the
// way PR 4 did, active-set execution steps only the repair region, so
// ns/op (ns per slot) isolates exactly the sweep tax.

func benchRegionRepair(b *testing.B, fullSweep bool) {
	b.Helper()
	g := gen.BipartiteRegular(rng.New(77), 2048, 3) // n=4096, m=6144
	mt := NewMaintainer(g, MaintainerOptions{K: 2, Seed: 9, AuditEvery: 16, FullSweep: fullSweep})
	defer mt.Close()
	mt.Recompute()
	r := rng.New(123)
	toggle := func() Update {
		e := r.Intn(g.M())
		if mt.Live(e) {
			return Update{Edge: e, Op: EdgeDelete}
		}
		return Update{Edge: e, Op: EdgeInsert}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Apply(Batch{toggle(), toggle()})
	}
}

// BenchmarkDynamicRegionRepairActive is one small-batch repair slot with
// active-set execution (the default): cost ∝ region.
func BenchmarkDynamicRegionRepairActive(b *testing.B) { benchRegionRepair(b, false) }

// BenchmarkDynamicRegionRepairFullSweep is the identical slot stream on
// the PR-4 schedule (every node stepped every round): cost ∝ n.
func BenchmarkDynamicRegionRepairFullSweep(b *testing.B) { benchRegionRepair(b, true) }

// ---- Algorithm-level benchmarks at a fixed mid-size workload ----

func bipartiteWorkload(seed uint64, half int) *Graph {
	return gen.BipartiteGnp(rng.New(seed), half, half, math.Min(1, 4.0/float64(half)))
}

// BenchmarkAlgBipartiteK3 measures one full Theorem 3.8 run (n=1024).
func BenchmarkAlgBipartiteK3(b *testing.B) {
	g := bipartiteWorkload(1, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BipartiteMCM(g, 3, uint64(i), true)
	}
}

// BenchmarkAlgGeneralK3 measures one full Theorem 3.11 run (n=128).
func BenchmarkAlgGeneralK3(b *testing.B) {
	g := gen.Gnp(rng.New(2), 128, 3.0/128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GeneralMCM(g, 3, uint64(i), core.GeneralOptions{Oracle: true, IdleStop: 30})
	}
}

// BenchmarkAlgWeighted measures one full Theorem 4.5 run (n=128, ε=0.25).
func BenchmarkAlgWeighted(b *testing.B) {
	g := gen.UniformWeights(rng.New(3), gen.Gnm(rng.New(4), 128, 512), 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.WeightedMWM(g, 0.25, uint64(i), true, nil)
	}
}

// benchProtocol times one protocol and reports node-rounds/s
// (scripts/bench_compare.sh records them into a BENCH file).
func benchProtocol(b *testing.B, n int, run func(seed uint64) *dist.Stats) {
	b.Helper()
	b.ResetTimer()
	var rounds int64
	for i := 0; i < b.N; i++ {
		rounds += int64(run(uint64(i)).Rounds)
	}
	b.ReportMetric(float64(rounds)*float64(n)/b.Elapsed().Seconds(), "node-rounds/s")
}

func israeliItaiWorkload() *Graph { return gen.Gnm(rng.New(5), 4096, 16384) }

// BenchmarkAlgIsraeliItai measures the baseline maximal matching (n=4096).
func BenchmarkAlgIsraeliItai(b *testing.B) {
	g := israeliItaiWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := israeliitai.RunWithConfig(g, dist.Config{Seed: seed}, true)
		return st
	})
}

func misWorkload() *Graph { return gen.Gnm(rng.New(13), 4096, 16384) }

// BenchmarkAlgMIS measures Luby's MIS (n=4096).
func BenchmarkAlgMIS(b *testing.B) {
	g := misWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := mis.RunWithConfig(g, dist.Config{Seed: seed}, true)
		return st
	})
}

func lprWorkload() *Graph {
	return gen.UniformWeights(rng.New(6), gen.Gnm(rng.New(7), 1024, 4096), 1, 100)
}

// BenchmarkAlgLPRQuarter measures the weight-class black box (n=1024).
func BenchmarkAlgLPRQuarter(b *testing.B) {
	g := lprWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := lpr.RunWithConfig(g, dist.Config{Seed: seed}, 0.05, true)
		return st
	})
}

// ---- Core pipeline: the paper's headline algorithms, node-rounds/s ----

func bipartiteMCMWorkload() *Graph { return bipartiteWorkload(1, 512) }

// BenchmarkAlgBipartiteMCM measures Algorithm 3 (k=3, n=1024, oracle).
func BenchmarkAlgBipartiteMCM(b *testing.B) {
	g := bipartiteMCMWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := core.BipartiteMCMWithConfig(g, 3, dist.Config{Seed: seed}, true)
		return st
	})
}

func generalMCMWorkload() *Graph { return gen.Gnp(rng.New(2), 256, 3.0/256) }

var generalMCMOpts = core.GeneralOptions{Oracle: true, IdleStop: 30}

// BenchmarkAlgGeneralMCM measures Algorithm 4 (k=3, n=256).
func BenchmarkAlgGeneralMCM(b *testing.B) {
	g := generalMCMWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := core.GeneralMCMWithConfig(g, 3, dist.Config{Seed: seed}, generalMCMOpts)
		return st
	})
}

func weightedMWMWorkload() *Graph {
	return gen.UniformWeights(rng.New(3), gen.Gnm(rng.New(4), 256, 1024), 1, 100)
}

// BenchmarkAlgWeightedMWM measures Algorithm 5 (ε=0.25, n=256).
func BenchmarkAlgWeightedMWM(b *testing.B) {
	g := weightedMWMWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := core.WeightedMWMWithConfig(g, dist.Config{Seed: seed}, 0.25, true, nil)
		return st
	})
}

func greedyWorkload() *Graph { return gen.AdversarialChain(512) }

// BenchmarkAlgLocalGreedy measures the locally-heaviest-edge protocol on
// its Θ(n)-round pathology (the E7 chain, n=512) — the workload where
// node-rounds/s matters most.
func BenchmarkAlgLocalGreedy(b *testing.B) {
	g := greedyWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := lpr.LocalGreedyWithConfig(g, dist.Config{Seed: seed}, 0, true)
		return st
	})
}

// ---- The strict-CONGEST and LOCAL executions ----

func strictWorkload() *Graph { return bipartiteWorkload(7, 128) }

// BenchmarkAlgBipartiteStrict measures the Lemma 3.7 chunk-pipelined
// execution (k=2, B=8 bits, n=256, oracle). The workload is sub-round
// dense: every value crosses its hop in ⌈bits/B⌉ chunk rounds, so the
// engine's per-node-round overhead dominates even at modest n.
func BenchmarkAlgBipartiteStrict(b *testing.B) {
	g := strictWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := core.BipartiteMCMStrictWithConfig(g, 2, dist.Config{Seed: seed}, 8, true)
		return st
	})
}

func genericWorkload() *Graph { return gen.Gnp(rng.New(11), 192, 4.0/192) }

// BenchmarkAlgGenericMCM measures the LOCAL-model Algorithm 1 (ε=1/2,
// n=192, oracle): wide topology floods with unbounded messages, the
// opposite messaging regime from the strict workload.
func BenchmarkAlgGenericMCM(b *testing.B) {
	g := genericWorkload()
	benchProtocol(b, g.N(), func(seed uint64) *dist.Stats {
		_, st := core.GenericMCMWithConfig(g, 0.5, dist.Config{Seed: seed}, true)
		return st
	})
}

// ---- Batch-runner amortization: short runs where setup dominates ----

func shortRunWorkload() *Graph { return gen.Gnm(rng.New(21), 256, 1024) }

// BenchmarkRunnerFresh runs a short Israeli–Itai budget sweep with a
// fresh engine per seed — the per-run setup cost the batch runner
// removes.
func BenchmarkRunnerFresh(b *testing.B) {
	g := shortRunWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		israeliitai.RunWithConfig(g, dist.Config{Seed: uint64(i)}, false)
	}
}

// BenchmarkRunnerReuse is the same sweep through one dist.Runner
// (israeliitai.RunSeeds): engine slabs, dest tables and machines are
// reused across seeds.
func BenchmarkRunnerReuse(b *testing.B) {
	g := shortRunWorkload()
	const batch = 16
	seeds := make([]uint64, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := range seeds {
			seeds[j] = uint64(i + j)
		}
		israeliitai.RunSeeds(g, dist.Config{}, seeds, false)
	}
}

// BenchmarkRunnerShortFresh isolates the engine-setup share of a truly
// short run: an 8-round flat beacon on 256 nodes, fresh engine per run.
func BenchmarkRunnerShortFresh(b *testing.B) {
	g := gen.DRegular(rng.New(22), 256, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.RunFlat(g, dist.Config{Seed: uint64(i)}, func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: 8}
		})
	}
	b.ReportMetric(float64(8*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// BenchmarkRunnerShortReuse is the same short run through one
// dist.Runner: slabs, dest tables and the worker pool stay warm.
func BenchmarkRunnerShortReuse(b *testing.B) {
	g := gen.DRegular(rng.New(22), 256, 4)
	r := dist.NewRunner(g, dist.Config{})
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunFlat(uint64(i), func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: 8}
		})
	}
	b.ReportMetric(float64(8*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// ---- Substrate micro-benchmarks ----

// BenchmarkEngineRound measures raw simulator round throughput through
// dist.Run (blocking programs on coroutines): 4096 nodes exchanging one
// signal per edge per round on a 4-regular graph.
func BenchmarkEngineRound(b *testing.B) {
	g := gen.DRegular(rng.New(8), 4096, 4)
	rounds := 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Run(g, dist.Config{Seed: uint64(i)}, func(nd *dist.Node) {
			for r := 0; r < rounds; r++ {
				nd.SendAll(dist.Signal{})
				nd.Step()
			}
		})
	}
	b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// flatBeacon is BenchmarkEngineRoundFlat's RoundProgram: the same
// signal-per-edge-per-round traffic as BenchmarkEngineRound, minus the
// two coroutine switches per node-round.
type flatBeacon struct{ left int }

func (p *flatBeacon) Init(nd *dist.Node) bool {
	nd.SendAll(dist.Signal{})
	p.left--
	return true
}

func (p *flatBeacon) OnRound(nd *dist.Node, in []dist.Incoming) bool {
	if p.left == 0 {
		return false
	}
	nd.SendAll(dist.Signal{})
	p.left--
	return true
}

// BenchmarkEngineRoundFlat is BenchmarkEngineRound through dist.RunFlat:
// the gap between the two is the coroutine switch tax (see DESIGN.md §1).
func BenchmarkEngineRoundFlat(b *testing.B) {
	g := gen.DRegular(rng.New(8), 4096, 4)
	rounds := 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.RunFlat(g, dist.Config{Seed: uint64(i)}, func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: rounds}
		})
	}
	b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// BenchmarkEngineRoundFlatRunner is BenchmarkEngineRoundFlat through one
// warm dist.Runner: the same 64-round beacon with engine slabs, dest
// tables and the worker pool reused across iterations. The gap to
// BenchmarkEngineRoundFlat is the per-run setup + GC share of the fresh
// protocol.
func BenchmarkEngineRoundFlatRunner(b *testing.B) {
	g := gen.DRegular(rng.New(8), 4096, 4)
	rounds := 64
	r := dist.NewRunner(g, dist.Config{})
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunFlat(uint64(i), func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: rounds}
		})
	}
	b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// BenchmarkEngineRoundActive is the engine beacon restricted to a
// 64-node active set on the same 4096-node graph: the smoke check (CI's
// EngineRound pattern) that sub-round execution neither panics nor
// regresses. node-rounds/s counts active node-rounds only, so the rate
// should be in the same band as the full flat sweep — the win is that a
// round costs 1/64th of one.
func BenchmarkEngineRoundActive(b *testing.B) {
	g := gen.DRegular(rng.New(8), 4096, 4)
	rounds := 64
	active := make([]int32, 64)
	for i := range active {
		active[i] = int32(i * 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.RunFlat(g, dist.Config{Seed: uint64(i), ActiveSet: active}, func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: rounds}
		})
	}
	b.ReportMetric(float64(rounds*len(active))*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// engineRoundWorkload is the shared 4096-node 4-regular beacon the
// worker-scaling sweep reuses.
func engineRoundWorkload() *Graph { return gen.DRegular(rng.New(8), 4096, 4) }

// BenchmarkEngineRoundWorkers sweeps Config.Workers through dist.Run —
// the multi-core scaling study's denominator. On hardware with
// fewer cores than workers the extra workers measure pure
// barrier/dispatch overhead, which is exactly the knee being located
// (see DESIGN.md §1).
func BenchmarkEngineRoundWorkers(b *testing.B) {
	g := engineRoundWorkload()
	rounds := 64
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.Run(g, dist.Config{Seed: uint64(i), Workers: w}, func(nd *dist.Node) {
					for r := 0; r < rounds; r++ {
						nd.SendAll(dist.Signal{})
						nd.Step()
					}
				})
			}
			b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
		})
	}
}

// BenchmarkEngineRoundFlatWorkers is the same sweep through dist.RunFlat.
func BenchmarkEngineRoundFlatWorkers(b *testing.B) {
	g := engineRoundWorkload()
	rounds := 64
	for _, w := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist.RunFlat(g, dist.Config{Seed: uint64(i), Workers: w}, func(*dist.Node) dist.RoundProgram {
					return &flatBeacon{left: rounds}
				})
			}
			b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
		})
	}
}

// BenchmarkEngineRoundFlatTopo is the workers × topology scaling grid
// through dist.RunFlat: the 64-round beacon on message patterns that stress
// the mailbox modes differently — uniform short rows (4-regular), dense
// rows (G(n,m) at mean degree 16), irregular rows (G(n,p)), and the hub pathology
// (star: one node owns half of every round's traffic, the worst case for
// chunk balance since the hub's whole arc range belongs to one worker).
// Together with the Workers sweeps above it locates the contention knee
// recorded in BENCH_pr7.json and DESIGN.md §1.
func BenchmarkEngineRoundFlatTopo(b *testing.B) {
	tops := []struct {
		name string
		g    *Graph
	}{
		{"dreg4", gen.DRegular(rng.New(8), 4096, 4)},
		{"gnm16", gen.Gnm(rng.New(8), 4096, 32768)},
		{"gnp8", gen.Gnp(rng.New(9), 4096, 8.0/4096)},
		{"star", gen.Star(4096)},
	}
	rounds := 64
	for _, tc := range tops {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(b *testing.B) {
				g := tc.g
				for i := 0; i < b.N; i++ {
					dist.RunFlat(g, dist.Config{Seed: uint64(i), Workers: w}, func(*dist.Node) dist.RoundProgram {
						return &flatBeacon{left: rounds}
					})
				}
				b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
			})
		}
	}
}

// BenchmarkExactHopcroftKarp measures the bipartite reference (n=4096).
func BenchmarkExactHopcroftKarp(b *testing.B) {
	g := bipartiteWorkload(9, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.HopcroftKarp(g)
	}
}

// BenchmarkExactBlossom measures the general-cardinality reference (n=512).
func BenchmarkExactBlossom(b *testing.B) {
	g := gen.Gnm(rng.New(10), 512, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.BlossomMCM(g)
	}
}

// BenchmarkExactMWM measures Galil's O(n³) reference (n=256).
func BenchmarkExactMWM(b *testing.B) {
	g := gen.UniformWeights(rng.New(11), gen.Gnm(rng.New(12), 256, 1024), 1, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact.MWM(g, false)
	}
}

// BenchmarkSwitchSlotISLIP measures switch simulation speed (16 ports).
func BenchmarkSwitchSlotISLIP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		switchsched.Simulate(16, switchsched.Uniform{}, &switchsched.ISLIP{Iters: 1}, 0.9, 2000, uint64(i))
	}
}

// ---- Sharded serving: pool apply vs one flat Maintainer ----
//
// The BENCH_pr8.json group: one churn slot on a 512+512 bipartite slab
// (fully live start, 4 edge toggles per slot), served either by the
// 4-shard fault-tolerant Pool (routing + parallel shard applies +
// crossing resolution per slot) or by a single Maintainer over the same
// slab — the price of the failure domain boundary. The query benchmark
// prices the read path under the pool's snapshot cache.

func shardServingSlab() *Graph {
	return gen.BipartiteGnp(rng.New(88), 512, 512, math.Min(1, 4.0/512))
}

func benchShardToggles(m int) func(r *rng.Rand, live []bool) Batch {
	return func(r *rng.Rand, live []bool) Batch {
		b := make(Batch, 0, 4)
		for i := 0; i < 4; i++ {
			e := r.Intn(m)
			op := EdgeInsert
			if live[e] {
				op = EdgeDelete
			}
			live[e] = !live[e]
			b = append(b, Update{Edge: e, Op: op})
		}
		return b
	}
}

// BenchmarkShardServingPoolApply is one slot through the 4-shard Pool.
func BenchmarkShardServingPoolApply(b *testing.B) {
	g := shardServingSlab()
	p := NewPool(g, PoolOptions{Shards: 4, K: 2, Seed: 6, AuditEvery: 16})
	defer p.Close()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(toggles(r, live))
	}
}

// BenchmarkShardServingSingleApply is the identical slot stream through
// one unsharded Maintainer — the no-failure-domain baseline.
func BenchmarkShardServingSingleApply(b *testing.B) {
	g := shardServingSlab()
	mt := NewMaintainer(g, MaintainerOptions{K: 2, Seed: 6, AuditEvery: 16})
	defer mt.Close()
	mt.Recompute()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Apply(toggles(r, live))
	}
}

// BenchmarkShardServingPoolApplySerial is the identical slot stream with
// the pool's commit pipelines and incremental recompose disabled
// (Options.Serial) — the PR-8/9 write path, kept as the differential
// oracle; the gap to BenchmarkShardServingPoolApply prices the pipeline.
func BenchmarkShardServingPoolApplySerial(b *testing.B) {
	g := shardServingSlab()
	p := NewPool(g, PoolOptions{Shards: 4, K: 2, Seed: 6, AuditEvery: 16, Serial: true})
	defer p.Close()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(toggles(r, live))
	}
}

// BenchmarkShardServingPoolApplyConcurrent is the contended write path:
// parallel callers racing on the slot lock, each with its own toggle
// stream (per-caller liveness belief — collisions just make some toggles
// no-ops, which is what contending clients look like).
func BenchmarkShardServingPoolApplyConcurrent(b *testing.B) {
	g := shardServingSlab()
	p := NewPool(g, PoolOptions{Shards: 4, K: 2, Seed: 6, AuditEvery: 16})
	defer p.Close()
	var ctr atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(44 + ctr.Add(1))
		live := make([]bool, g.M())
		toggles := benchShardToggles(g.M())
		for pb.Next() {
			p.Apply(toggles(r, live))
		}
	})
}

// ---- Telemetry overhead: instrumented vs bare ----
//
// The BENCH_pr9.json telemetry_overhead group: each pair reruns an
// existing benchmark with a live telemetry registry installed, so
// overhead_x = instrumented/bare prices the instrumentation on that
// path. The engine pair bounds the per-sweep cost (one atomic-counter
// batch plus one histogram observation per run, fanned across 4096
// nodes × 64 rounds — the <2% acceptance bound); the pool pair prices
// the per-slot cost on the serving path, where the event ring and the
// per-shard gauge refresh join in.

// BenchmarkEngineRoundFlatTelemetry is BenchmarkEngineRoundFlat with
// engine telemetry enabled process-wide.
func BenchmarkEngineRoundFlatTelemetry(b *testing.B) {
	SetEngineTelemetry(NewTelemetry(TelemetryOptions{}))
	defer SetEngineTelemetry(nil)
	g := gen.DRegular(rng.New(8), 4096, 4)
	rounds := 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.RunFlat(g, dist.Config{Seed: uint64(i)}, func(*dist.Node) dist.RoundProgram {
			return &flatBeacon{left: rounds}
		})
	}
	b.ReportMetric(float64(rounds*g.N())*float64(b.N)/b.Elapsed().Seconds(), "node-rounds/s")
}

// BenchmarkShardServingSingleApplyTelemetry is
// BenchmarkShardServingSingleApply with a registry and event ring on
// the unsharded Maintainer — the Maintainer-slot overhead pair.
func BenchmarkShardServingSingleApplyTelemetry(b *testing.B) {
	g := shardServingSlab()
	reg := NewTelemetry(TelemetryOptions{EventCapacity: 4096})
	mt := NewMaintainer(g, MaintainerOptions{
		K: 2, Seed: 6, AuditEvery: 16,
		Telemetry: reg, Events: reg.Events(), TelemetryShard: -1,
	})
	defer mt.Close()
	mt.Recompute()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt.Apply(toggles(r, live))
	}
}

// BenchmarkShardServingPoolApplyTelemetry is
// BenchmarkShardServingPoolApply with a full registry on the pool:
// histograms, counters, per-shard gauges and the event ring all live.
func BenchmarkShardServingPoolApplyTelemetry(b *testing.B) {
	g := shardServingSlab()
	p := NewPool(g, PoolOptions{
		Shards: 4, K: 2, Seed: 6, AuditEvery: 16,
		Telemetry: NewTelemetry(TelemetryOptions{EventCapacity: 4096}),
	})
	defer p.Close()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(toggles(r, live))
	}
}

// BenchmarkShardServingQuery is one flagged read off the pool's
// snapshot cache after churn: a fixed warmup dirties and recomposes the
// pool, then the loop measures the pure read path. (Churn must not ride
// inside the loop, even untimed — the apply cost per 16 reads is ~500×
// the read itself, so StopTimer bookkeeping would dominate wall-clock
// as b.N ramps.)
func BenchmarkShardServingQuery(b *testing.B) {
	g := shardServingSlab()
	p := NewPool(g, PoolOptions{Shards: 4, K: 2, Seed: 6, AuditEvery: 16})
	defer p.Close()
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	toggles := benchShardToggles(g.M())
	r := rng.New(44)
	for i := 0; i < 32; i++ {
		p.Apply(toggles(r, live))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := p.Query(); q.Matching == nil {
			b.Fatal("nil matching")
		}
	}
}
