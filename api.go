// Package distmatch is a Go implementation of the distributed approximate
// matching algorithms of Lotker, Patt-Shamir and Pettie, "Improved
// Distributed Approximate Matching" (SPAA 2008), together with everything
// needed to run and evaluate them: a synchronous message-passing simulator
// (CONGEST/LOCAL models), the classical baselines (Israeli–Itai maximal
// matching, Luby MIS, a weight-class (¼−ε)-MWM black box), exact
// centralized references (Hopcroft–Karp, Edmonds blossom, Galil's O(n³)
// maximum weight matching), graph workload generators, an input-queued
// switch scheduling application, and an incremental Maintainer
// (NewMaintainer) that serves streams of edge updates over a mutable
// graph instead of recomputing per change.
//
// The package offers one entry point per algorithm:
//
//	g := distmatch.RandomBipartite(42, 512, 512, 0.01)
//	res := distmatch.MCMBipartite(g, 3, 42) // (1−1/3)-approximate MCM
//	fmt.Println(res.Matching.Size(), res.Stats.Rounds)
//
// All algorithms are randomized; identical seeds give bit-identical
// executions. By default algorithms run with a global-termination oracle
// (each use is one simulator round, counted in Stats.OracleCalls; see
// DESIGN.md §2); pass Budgeted() for the paper's fixed w.h.p. budgets.
//
// Every entry point executes its protocol as flat per-node state machines
// on the simulator (zero stack switches, 3-13x the node-rounds/s of
// blocking coroutine programs; see DESIGN.md §1). The blocking forms are
// kept unexported inside the algorithm packages as readable references,
// pinned bit-identical to the flat forms by their TestFlat* suites.
package distmatch

import (
	"distmatch/internal/check"
	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/israeliitai"
	"distmatch/internal/lpr"
	"distmatch/internal/mis"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

// Re-exported fundamental types.
type (
	// Graph is an immutable undirected (optionally weighted, optionally
	// bipartite) graph; build one with NewBuilder or the generators.
	Graph = graph.Graph
	// Builder accumulates edges for a Graph.
	Builder = graph.Builder
	// Matching is a set of pairwise non-adjacent edges.
	Matching = graph.Matching
	// Stats reports rounds, messages, bits and oracle use of a run.
	Stats = dist.Stats
)

// NewBuilder returns a graph builder on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Result bundles an algorithm's output matching with its execution cost.
type Result struct {
	Matching *Matching
	Stats    *Stats
}

// Option tweaks algorithm execution.
type Option func(*config)

type config struct {
	budgeted bool
	iters    int
	idleStop int
	trace    []*Matching
	strict   int
}

// Budgeted switches from oracle-based convergence detection to the paper's
// fixed with-high-probability iteration budgets.
func Budgeted() Option { return func(c *config) { c.budgeted = true } }

// Iterations overrides an algorithm's outer iteration count (Algorithms 4
// and 5).
func Iterations(n int) Option { return func(c *config) { c.iters = n } }

// IdleStop makes MCMGeneral stop after n consecutive iterations without an
// augmentation (the E4 convergence heuristic). Default 40.
func IdleStop(n int) Option { return func(c *config) { c.idleStop = n } }

// Trace captures per-iteration matchings from MWMHalf; the slice must have
// core.WeightedIters(eps)+1 entries.
func Trace(t []*Matching) Option { return func(c *config) { c.trace = t } }

// StrictCongest makes MCMBipartite run in strict CONGEST mode: no message
// exceeds capacityBits bits; larger values are pipelined chunk by chunk
// (the paper's Lemma 3.7 transformation), multiplying rounds by the
// corresponding ⌈B/c⌉ factors.
func StrictCongest(capacityBits int) Option {
	return func(c *config) { c.strict = capacityBits }
}

func buildConfig(opts []Option) config {
	c := config{idleStop: 40}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// MaximalMatching computes a maximal matching (a ½-approximate MCM) with
// the randomized Israeli–Itai algorithm in O(log n) rounds w.h.p.
func MaximalMatching(g *Graph, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	m, st := israeliitai.RunWithConfig(g, dist.Config{Seed: seed}, !c.budgeted)
	return Result{m, st}
}

// MCMGeneric computes a (1−ε)-approximate maximum cardinality matching on
// any graph with the paper's generic Algorithm 1/2 (Theorem 3.1). It uses
// LOCAL-model messages of up to O(|V|+|E|) bits and local computation
// exponential in 1/ε — use it on small or sparse instances only.
func MCMGeneric(g *Graph, eps float64, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	m, st := core.GenericMCMWithConfig(g, eps, dist.Config{Seed: seed}, !c.budgeted)
	return Result{m, st}
}

// MCMBipartite computes a (1−1/k)-approximate maximum cardinality matching
// of a bipartite graph (the paper's Algorithm 3, Theorem 3.8) in
// O(k³ log Δ + k² log n) rounds with O(log n)-bit messages.
func MCMBipartite(g *Graph, k int, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	if c.strict > 0 {
		m, st := core.BipartiteMCMStrictWithConfig(g, k, dist.Config{Seed: seed}, c.strict, !c.budgeted)
		return Result{m, st}
	}
	m, st := core.BipartiteMCMWithConfig(g, k, dist.Config{Seed: seed}, !c.budgeted)
	return Result{m, st}
}

// MCMGeneral computes a (1−1/k)-approximate maximum cardinality matching of
// an arbitrary graph w.h.p. (the paper's Algorithm 4, Theorem 3.11) by
// repeated random bipartite sampling. k must exceed 2.
func MCMGeneral(g *Graph, k int, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	m, st := core.GeneralMCMWithConfig(g, k, dist.Config{Seed: seed}, core.GeneralOptions{
		Iters:    c.iters,
		IdleStop: c.idleStop,
		Oracle:   !c.budgeted,
	})
	return Result{m, st}
}

// MWMHalf computes a (½−ε)-approximate maximum weight matching (the
// paper's Algorithm 5, Theorem 4.5) by iterating the (¼−ε′)-MWM black box
// on the wrap-gain weights w_M.
func MWMHalf(g *Graph, eps float64, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	m, st := core.WeightedMWMWithConfig(g, dist.Config{Seed: seed}, eps, !c.budgeted, c.trace)
	return Result{m, st}
}

// MWMQuarter computes a (¼−ε)-approximate maximum weight matching with the
// weight-class black box (the Lemma 4.4 substrate; see DESIGN.md §3).
func MWMQuarter(g *Graph, eps float64, seed uint64, opts ...Option) Result {
	c := buildConfig(opts)
	m, st := lpr.RunWithConfig(g, dist.Config{Seed: seed}, eps, !c.budgeted)
	return Result{m, st}
}

// MIS computes a maximal independent set with Luby's algorithm and returns
// the membership vector.
func MIS(g *Graph, seed uint64, opts ...Option) ([]bool, *Stats) {
	c := buildConfig(opts)
	return mis.RunWithConfig(g, dist.Config{Seed: seed}, !c.budgeted)
}

// ---- Dynamic maintenance (incremental matching over mutable graphs) ----

// Maintainer holds a (1−1/k)-approximate matching over the live subgraph
// of a fixed bipartite slab and repairs it incrementally under batched
// edge updates, instead of recomputing per change: apply a Batch, read
// Matching(). See NewMaintainer.
type Maintainer = dynamic.Maintainer

// Batch is an ordered list of edge updates applied atomically by
// Maintainer.Apply.
type Batch = dynamic.Batch

// Update is one edge mutation (by slab edge id).
type Update = dynamic.Update

// MaintainerOptions configures NewMaintainer.
type MaintainerOptions = dynamic.Options

// ApplyReport describes what one Maintainer.Apply did (region size,
// recompute/audit outcomes, engine cost).
type ApplyReport = dynamic.ApplyReport

// The update kinds of a Batch.
const (
	// EdgeInsert activates a slab edge (no-op if live).
	EdgeInsert = dynamic.Insert
	// EdgeDelete deactivates a slab edge (no-op if dead); deleting a
	// matched edge frees its endpoints for the repair to re-match.
	EdgeDelete = dynamic.Delete
	// EdgeSetWeight changes an edge weight without touching liveness.
	EdgeSetWeight = dynamic.SetWeight
)

// NewMaintainer builds an incremental matching maintainer over the
// bipartite slab g: the node set and the universe of candidate edges are
// fixed, which of them currently exist is mutable state. Each
// Apply(Batch) repairs only the ≤(2k−1)-hop region the batch could affect,
// re-running the paper's augmenting-path machinery there with the rest
// of the matching frozen, and a periodic certificate audit (the Berge
// probe of VerifyDistributed, run mask-aware on the same persistent
// engine) triggers a full recompute whenever short augmenting paths
// accumulate across region boundaries — so every audited state is
// (1−1/k)-approximate on the live subgraph. Close the Maintainer when
// done.
//
// The matching starts empty: grow the graph from StartEmpty with Insert
// batches, or call Recompute once to solve a prepopulated slab.
func NewMaintainer(g *Graph, opts MaintainerOptions) *Maintainer {
	return dynamic.New(g, opts)
}

// ---- Fault injection and self-healing (chaos hardening) ----

// Fault-injection types, re-exported from the engine: a FaultPlan is a
// seeded, replayable schedule of node crashes, per-arc message drops and
// injected panics, consulted at round boundaries of every run it is
// installed for. Identical plans on identical runs replay bit-identically
// at any worker count.
type (
	// FaultPlan is a deterministic fault schedule; build one with
	// NewFaultPlan or RandomFaultPlan and arm it with
	// Maintainer.InjectFaults.
	FaultPlan = dist.FaultPlan
	// FaultEvent is one scheduled fault (round, kind, target).
	FaultEvent = dist.FaultEvent
	// FaultKind distinguishes crashes, message drops and injected panics.
	FaultKind = dist.FaultKind
	// FaultProfile shapes RandomFaultPlan's draw.
	FaultProfile = dist.FaultProfile
	// InjectedPanic is the panic value a FaultPanic event aborts a run
	// with; recovered by the Maintainer's fault guard while a plan is
	// armed.
	InjectedPanic = dist.InjectedPanic
)

// The fault kinds of a FaultEvent.
const (
	// FaultCrash silences a node from one round boundary on.
	FaultCrash = dist.FaultCrash
	// FaultDrop discards the traffic of one edge for one round.
	FaultDrop = dist.FaultDrop
	// FaultPanic aborts the run with an InjectedPanic.
	FaultPanic = dist.FaultPanic
)

// NewFaultPlan builds a deterministic fault schedule from explicit events.
func NewFaultPlan(events []FaultEvent) *FaultPlan { return dist.NewFaultPlan(events) }

// RandomFaultPlan draws a seeded random fault schedule for an n-node,
// m-edge graph; identical seeds give identical plans.
func RandomFaultPlan(seed uint64, n, m int, profile FaultProfile) *FaultPlan {
	return dist.RandomFaultPlan(seed, n, m, profile)
}

// Health is the Maintainer's serving state: Healthy (certified, normal
// serving), Degraded (a fault survived every recovery level this step;
// Matching() serves the last good snapshot), Recovering (repaired after a
// fault, awaiting the certifying audit). See Maintainer.Health and
// ApplyReport.Health.
type Health = dynamic.Health

// The Maintainer health states.
const (
	Healthy    = dynamic.Healthy
	Degraded   = dynamic.Degraded
	Recovering = dynamic.Recovering
)

// VerifyReport is the outcome of distributed self-verification.
type VerifyReport = check.Report

// VerifyDistributed certifies a matching without central collection: a
// one-round handshake (consistency), a two-round maximality probe, and —
// for bipartite graphs with probeLen > 0 — a Berge probe for augmenting
// paths of length ≤ probeLen, which certifies a (1−1/k) approximation for
// probeLen = 2k−1 (see VerifyReport.ApproxCertificate).
func VerifyDistributed(g *Graph, m *Matching, probeLen int, seed uint64) (VerifyReport, *Stats) {
	return check.Matching(g, m, probeLen, seed)
}

// OptimalMCM returns an exact maximum cardinality matching (centralized:
// Hopcroft–Karp on bipartite graphs, Edmonds' blossom otherwise).
func OptimalMCM(g *Graph) *Matching { return exact.MaxCardinality(g) }

// OptimalMWM returns an exact maximum weight matching (centralized Galil
// O(n³) blossom algorithm).
func OptimalMWM(g *Graph) *Matching { return exact.MWM(g, false) }

// GreedyMWM returns the classical centralized greedy ½-approximation.
func GreedyMWM(g *Graph) *Matching { return exact.GreedyMWM(g) }

// LocalSearchMWM returns the (1−ε)-approximate maximum weight matching of
// the paper's §4 Remark: centralized local search over alternating
// paths/cycles with at most k unmatched edges; the local optimum is
// k/(k+1)-approximate (Lemma 4.2). Exponential in k — references only.
func LocalSearchMWM(g *Graph, k int) *Matching { return exact.LocalSearchMWM(g, k) }

// ConflictGraph materializes the paper's Definition 3.1: the graph whose
// vertices are the augmenting paths of length ≤ ell w.r.t. m and whose
// edges join intersecting paths. Returns the graph and the paths in vertex
// order.
func ConflictGraph(g *Graph, m *Matching, ell int) (*Graph, [][]int) {
	return core.ConflictGraph(g, m, ell)
}

// CountAugmentingPaths runs the paper's Algorithm 3 counting BFS (Lemma
// 3.6) distributively on a bipartite graph: counts[v] is the number of
// shortest half-augmenting paths from free X nodes ending at v, or -1
// where the BFS never arrived.
func CountAugmentingPaths(g *Graph, m *Matching, ell int) ([]float64, *Stats) {
	return core.CountPaths(g, m, ell)
}

// ---- Workload generators (seeded, deterministic) ----

// RandomGraph returns an Erdős–Rényi G(n, p) graph.
func RandomGraph(seed uint64, n int, p float64) *Graph { return gen.Gnp(rng.New(seed), n, p) }

// RandomBipartite returns a random bipartite graph with nx+ny nodes.
func RandomBipartite(seed uint64, nx, ny int, p float64) *Graph {
	return gen.BipartiteGnp(rng.New(seed), nx, ny, p)
}

// WithUniformWeights re-weights g with i.i.d. uniform weights on [lo, hi).
func WithUniformWeights(seed uint64, g *Graph, lo, hi float64) *Graph {
	return gen.UniformWeights(rng.New(seed), g, lo, hi)
}

// WithExpWeights re-weights g with i.i.d. exponential weights.
func WithExpWeights(seed uint64, g *Graph, mean float64) *Graph {
	return gen.ExpWeights(rng.New(seed), g, mean)
}

// ---- Fault-tolerant sharded serving (see DESIGN.md §8) ----

// Pool is the sharded serving layer: the slab partitioned across
// independent Maintainers (one per shard, its own engine), edge updates
// routed to their owning shards, crossing edges resolved by a bounded
// conflict-resolution pass, and a supervisor that fences Degraded shards
// behind last-good snapshots and cold-rebuilds crashed ones with capped
// exponential backoff. Queries are valid global matchings at every
// moment; partial or stale answers carry explicit flags. See NewPool.
type Pool = shard.Pool

// PoolOptions configures NewPool.
type PoolOptions = shard.Options

// PoolReport describes what one Pool.Apply did.
type PoolReport = shard.Report

// PoolResponse is one matching query against the pool, flags included.
type PoolResponse = shard.Response

// PoolStatus is one shard's supervisor view.
type PoolStatus = shard.ShardStatus

// PoolStats aggregates a Pool's lifetime costs.
type PoolStats = shard.Stats

// ShardKillPlan is a deterministic shard-kill/restart schedule — the
// shard-granular analogue of FaultPlan. See NewShardKillPlan.
type ShardKillPlan = shard.KillPlan

// ShardKillEvent schedules one supervisor action.
type ShardKillEvent = shard.KillEvent

// The ShardKillEvent kinds.
const (
	// ShardKill takes the shard down; it auto-restarts after its backoff.
	ShardKill = shard.Kill
	// ShardRestart forces an immediate cold rebuild.
	ShardRestart = shard.Restart
)

// NewPool builds a sharded serving pool over the bipartite slab g.
func NewPool(g *Graph, opts PoolOptions) *Pool { return shard.New(g, opts) }

// NewShardKillPlan validates and sorts a kill/restart schedule for
// Pool.SetKillPlan: same pool seed, same updates, same plan —
// bit-identical histories.
func NewShardKillPlan(events []ShardKillEvent) *ShardKillPlan {
	return shard.NewKillPlan(events)
}

// Telemetry is the stack's instrument namespace: atomic counters and
// gauges, log-bucketed latency histograms, and a fixed-capacity
// structured event ring. Pass one registry through MaintainerOptions /
// PoolOptions (field Telemetry) and to SetEngineTelemetry, then scrape
// it with WritePrometheus or read the event trace via Events(). A nil
// *Telemetry disables everything at near-zero cost. See DESIGN.md §9.
type Telemetry = telemetry.Registry

// TelemetryOptions configures NewTelemetry.
type TelemetryOptions = telemetry.Options

// TelemetryEvent is one structured trace record, stamped with the
// emitting layer's deterministic slot clock (never wall time): seeded
// schedules replay with bit-identical traces.
type TelemetryEvent = telemetry.Event

// NewTelemetry builds a telemetry registry.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// SetEngineTelemetry installs (or with nil removes) the process-wide
// registry the simulator engine records run/round/message totals and
// sweep latencies into. Engine metrics are process-global because
// engines are spawned far from where registries live; everything else
// (Maintainer, Pool) is instrumented per instance via its Options.
func SetEngineTelemetry(reg *Telemetry) { dist.SetTelemetry(reg) }
