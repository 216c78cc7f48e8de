// Command distmatch runs any of the library's matching algorithms on a
// generated graph and prints the result with its distributed cost.
//
// Usage examples:
//
//	distmatch -algo bipartite -n 1024 -k 3
//	distmatch -algo weighted -n 256 -eps 0.1 -weights exp
//	distmatch -algo israeliitai -graph gnp -n 4096 -deg 8
//	distmatch -dynamic -n 256 -k 3 -slots 500 -churn 4
//	distmatch -chaos -n 16 -k 2 -schedules 100
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distmatch/internal/chaos"
	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
	"distmatch/internal/lpr"
	"distmatch/internal/rng"
)

func main() {
	algo := flag.String("algo", "bipartite", "bipartite | general | generic | weighted | quarter | israeliitai")
	gkind := flag.String("graph", "auto", "gnp | bipartite | regular | tree | chain | grid | hypercube | torus | planted | auto (by algo)")
	n := flag.Int("n", 512, "number of nodes (per side for bipartite)")
	deg := flag.Float64("deg", 4, "target average degree")
	k := flag.Int("k", 3, "approximation parameter k for (1-1/k)-MCM")
	eps := flag.Float64("eps", 0.1, "epsilon for (1-ε)/(1/2-ε) algorithms")
	weights := flag.String("weights", "uniform", "uniform | exp | unit")
	seed := flag.Uint64("seed", 1, "random seed (identical seeds replay runs)")
	budget := flag.Bool("budget", false, "use the paper's fixed w.h.p. budgets instead of the convergence oracle")
	showOpt := flag.Bool("opt", true, "also compute the exact optimum (centralized) for the ratio")
	profile := flag.Bool("profile", false, "print a per-round traffic profile")
	workers := flag.Int("workers", 0, "engine worker goroutines (0 = sized from the graph: one per 32768 nodes+arcs, at most one per core); >1 runs the staged multicore mailbox mode")
	repeat := flag.Int("repeat", 1, "run the algorithm this many times (amortizes startup when profiling)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof allocation profile to this file on exit")
	tracefile := flag.String("trace", "", "write a runtime execution trace of the run to this file")
	dyn := flag.Bool("dynamic", false, "serve a stream of edge updates with the incremental Maintainer (bipartite slab; -slots/-churn shape the stream) and compare against per-batch full recompute")
	slots := flag.Int("slots", 500, "dynamic mode: number of update batches")
	churn := flag.Int("churn", 4, "dynamic mode: edge insert/delete flips per batch")
	chaosMode := flag.Bool("chaos", false, "run seeded chaos schedules against the incremental Maintainer: random fault plans (crashes, drops, panics) and node crashes under churn, verifying every slot serves a valid matching and the Maintainer heals to a certified (1-1/k) matching; -schedules/-n/-k/-seed apply")
	schedules := flag.Int("schedules", 50, "chaos mode: number of seeded schedules")
	chaosShards := flag.Int("chaosshards", 0, "chaos mode: >0 runs shard-level schedules instead (kill plans and per-shard fault plans against a Pool of this many shards)")
	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile, *tracefile)

	if *chaosMode {
		nSet := false
		flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
		if !nSet {
			*n = 8 // chaos drives many schedules; default to a small slab
		}
		runChaos(*schedules, *n, *k, *chaosShards, *seed)
		stopProfiles()
		return
	}
	if *dyn {
		runDynamic(*n, *deg, *k, *seed, *slots, *churn)
		stopProfiles()
		return
	}

	g := buildGraph(*algo, *gkind, *n, *deg, *weights, *seed)
	fmt.Printf("graph: %v\n", g)

	oracle := !*budget
	cfg := dist.Config{Seed: *seed, Profile: *profile, Workers: *workers}
	var m *graph.Matching
	var stats *dist.Stats
	for i := 0; i < *repeat; i++ { // -repeat re-runs identically (profiling)
		switch *algo {
		case "bipartite":
			m, stats = core.BipartiteMCMWithConfig(g, *k, cfg, oracle)
		case "general":
			m, stats = core.GeneralMCMWithConfig(g, *k, cfg, core.GeneralOptions{Oracle: oracle, IdleStop: 40})
		case "generic":
			m, stats = core.GenericMCMWithConfig(g, *eps, cfg, oracle)
		case "weighted":
			m, stats = core.WeightedMWMWithConfig(g, cfg, *eps, oracle, nil)
		case "quarter":
			m, stats = lpr.RunWithConfig(g, cfg, *eps, oracle)
		case "israeliitai":
			m, stats = israeliitai.RunWithConfig(g, cfg, oracle)
		default:
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
			os.Exit(2)
		}
	}
	if err := m.Verify(g); err != nil {
		fmt.Fprintf(os.Stderr, "INVALID MATCHING: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("matching: size=%d weight=%.3f\n", m.Size(), m.Weight(g))
	fmt.Printf("cost:     %v\n", stats)
	if *profile && len(stats.Profile) > 0 {
		fmt.Println("per-round traffic (messages, '▪' ≈ scaled volume):")
		peak := int64(1)
		for _, p := range stats.Profile {
			if p.Messages > peak {
				peak = p.Messages
			}
		}
		for r, p := range stats.Profile {
			barLen := int(p.Messages * 40 / peak)
			fmt.Printf("  r%-4d %8d %s\n", r, p.Messages, strings.Repeat("▪", barLen))
		}
	}
	if *showOpt {
		switch *algo {
		case "weighted", "quarter":
			opt := exact.MWM(g, false).Weight(g)
			if opt > 0 {
				fmt.Printf("optimum:  weight=%.3f ratio=%.4f\n", opt, m.Weight(g)/opt)
			}
		default:
			opt := exact.MaxCardinality(g).Size()
			if opt > 0 {
				fmt.Printf("optimum:  size=%d ratio=%.4f\n", opt, float64(m.Size())/float64(opt))
			}
		}
	}
	stopProfiles()
}

// runChaos is the -chaos mode: a sweep of seeded fault schedules, each a
// pure function of its seed (rerun with the printed seed to replay a
// failure exactly). With -chaosshards the schedules are shard-level:
// seeded kill/restart plans and per-shard fault plans against a Pool.
// The exit code is trustworthy in scripts: any failed schedule — and
// any vacuous sweep that injected nothing — exits non-zero.
func runChaos(schedules, n, k, shards int, seed uint64) {
	if schedules < 1 {
		fmt.Fprintf(os.Stderr, "chaos: -schedules must be at least 1 (got %d)\n", schedules)
		os.Exit(2)
	}
	if shards > 0 {
		runShardChaos(schedules, n, k, shards, seed)
		return
	}
	fmt.Printf("chaos: %d schedules, %dx%d slab, k=%d, base seed %d\n", schedules, n, n, k, seed)
	var faults, degraded, recovering, crashed, cleanSlots int
	failed := 0
	for i := 0; i < schedules; i++ {
		s := seed + uint64(i)
		res, err := chaos.Run(chaos.Config{Seed: s, NX: n, NY: n, K: k})
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", s, err)
			continue
		}
		faults += res.Faults
		degraded += res.Degraded
		recovering += res.Recovering
		crashed += res.Crashed
		cleanSlots += res.CleanSlots
	}
	fmt.Printf("injected:  %d faults survived, %d crashes\n", faults, crashed)
	fmt.Printf("serving:   %d degraded slots (snapshot served), %d recovering slots\n", degraded, recovering)
	if ok := schedules - failed; ok > 0 {
		fmt.Printf("healing:   %.1f clean slots to re-certify on average\n",
			float64(cleanSlots)/float64(ok))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d schedules FAILED\n", failed, schedules)
		os.Exit(1)
	}
	if faults == 0 && crashed == 0 {
		fmt.Fprintf(os.Stderr, "chaos: sweep injected no faults and crashed no nodes — a vacuous pass; raise -schedules or -n\n")
		os.Exit(1)
	}
	fmt.Printf("all %d schedules served valid matchings and re-converged\n", schedules)
}

// runShardChaos sweeps shard-level schedules (chaos.RunShards) and
// applies the same no-vacuous-pass discipline.
func runShardChaos(schedules, n, k, shards int, seed uint64) {
	fmt.Printf("chaos: %d shard schedules, %dx%d slab, %d shards, k=%d, base seed %d\n",
		schedules, n, n, shards, k, seed)
	var kills, restarts, armed, degraded, down, cleanSlots int
	failed := 0
	for i := 0; i < schedules; i++ {
		s := seed + uint64(i)
		res, err := chaos.RunShards(chaos.ShardConfig{Seed: s, NX: n, NY: n, K: k, Shards: shards})
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "FAIL seed %d: %v\n", s, err)
			continue
		}
		kills += res.Totals.Kills
		restarts += res.Totals.Restarts
		armed += res.Armed
		degraded += res.DegradedSlots
		down += res.DownSlots
		cleanSlots += res.CleanSlots
	}
	fmt.Printf("injected:  %d shard kills, %d fault-plan arms\n", kills, armed)
	fmt.Printf("serving:   %d degraded slots, %d down shard-slots, %d rebuilds\n", degraded, down, restarts)
	if ok := schedules - failed; ok > 0 {
		fmt.Printf("healing:   %.1f clean slots to re-certify on average\n",
			float64(cleanSlots)/float64(ok))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d schedules FAILED\n", failed, schedules)
		os.Exit(1)
	}
	if kills == 0 && armed == 0 {
		fmt.Fprintf(os.Stderr, "chaos: sweep killed no shards and armed no faults — a vacuous pass; raise -schedules\n")
		os.Exit(1)
	}
	fmt.Printf("all %d schedules served valid composed matchings and re-converged\n", schedules)
}

// runDynamic is the -dynamic mode: one churn stream over a bipartite
// slab, served twice through identical plumbing — incrementally and with
// a cold full recompute per batch — then compared.
func runDynamic(n int, deg float64, k int, seed uint64, slots, churn int) {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	slab := gen.BipartiteGnp(r, n, n, minf(1, deg/float64(n)))
	fmt.Printf("slab: %v  (edges start dead; %d flips/batch, %d batches)\n", slab, churn, slots)

	serve := func(recompute bool) *dynamic.Maintainer {
		mt := dynamic.New(slab, dynamic.Options{
			K: k, Seed: seed, StartEmpty: true, AlwaysRecompute: recompute,
		})
		sr := rng.New(seed + 2)
		for s := 0; s < slots; s++ {
			b := make(dynamic.Batch, 0, churn)
			for i := 0; i < churn; i++ {
				e := sr.Intn(slab.M())
				op := dynamic.Insert
				if mt.Live(e) {
					op = dynamic.Delete
				}
				b = append(b, dynamic.Update{Edge: e, Op: op})
			}
			mt.Apply(b)
		}
		return mt
	}
	inc := serve(false)
	defer inc.Close()
	full := serve(true)
	defer full.Close()

	ti, tf := inc.Totals(), full.Totals()
	fmt.Printf("incremental: %.1f rounds, %.1f msgs per batch (%d regional repairs, %d full, %d audits, %d failed)\n",
		float64(ti.Rounds)/float64(slots), float64(ti.Messages)/float64(slots),
		ti.Repairs, ti.Recomputes, ti.Audits, ti.AuditFailures)
	fmt.Printf("recompute:   %.1f rounds, %.1f msgs per batch\n",
		float64(tf.Rounds)/float64(slots), float64(tf.Messages)/float64(slots))
	fmt.Printf("amortized speedup: %.2fx rounds, %.2fx messages\n",
		float64(tf.Rounds)/float64(ti.Rounds), float64(tf.Messages)/float64(ti.Messages))

	m := inc.Matching()
	if err := m.Verify(slab); err != nil {
		fmt.Fprintf(os.Stderr, "INVALID MATCHING: %v\n", err)
		os.Exit(1)
	}
	opt := exact.MaxCardinality(inc.LiveGraph()).Size()
	if opt > 0 {
		fmt.Printf("final live matching: size=%d optimum=%d ratio=%.4f (audited target >= %.4f)\n",
			m.Size(), opt, float64(m.Size())/float64(opt), 1-1/float64(k))
	}
}

func buildGraph(algo, kind string, n int, deg float64, weights string, seed uint64) *graph.Graph {
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	if kind == "auto" {
		if algo == "bipartite" {
			kind = "bipartite"
		} else {
			kind = "gnp"
		}
	}
	var g *graph.Graph
	switch kind {
	case "gnp":
		g = gen.Gnp(r, n, minf(1, deg/float64(n-1)))
	case "bipartite":
		g = gen.BipartiteGnp(r, n, n, minf(1, deg/float64(n)))
	case "regular":
		g = gen.DRegular(r, n, int(deg))
	case "tree":
		g = gen.RandomTree(r, n)
	case "chain":
		return gen.AdversarialChain(n) // already weighted
	case "grid":
		side := isqrt(n)
		g = gen.Grid(side, side)
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		g = gen.Hypercube(d)
	case "torus":
		side := isqrt(n)
		if side < 3 {
			side = 3
		}
		g = gen.Torus(side, side)
	case "planted":
		g, _ = gen.PlantedBipartite(r, n, deg-1)
	default:
		fmt.Fprintf(os.Stderr, "unknown graph kind %q\n", kind)
		os.Exit(2)
	}
	switch weights {
	case "uniform":
		g = gen.UniformWeights(r, g, 1, 100)
	case "exp":
		g = gen.ExpWeights(r, g, 10)
	case "unit":
	default:
		fmt.Fprintf(os.Stderr, "unknown weights %q\n", weights)
		os.Exit(2)
	}
	return g
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func isqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
