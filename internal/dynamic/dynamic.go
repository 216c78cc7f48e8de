// Package dynamic maintains an approximate matching over a mutable graph
// incrementally: instead of recomputing from scratch after every change —
// the way the paper's motivating crossbar switch rebuilds its schedule
// each time slot even though the demand graph differs only by a handful
// of arrivals and departures — a Maintainer holds the matching, applies
// batched edge updates (insert, delete, weight change) to a fixed CSR
// slab through dist.Runner's mutable-topology overlay, and repairs only
// the region the batch could have affected.
//
// The repair policy follows the locality of the paper's machinery: an
// augmenting path of length ≤ 2k−1 that a batch creates must pass through
// an endpoint of a touched edge, so re-running the §3.2 phases
// (core.RepairBipartite) on the ≤(2k−1)-hop neighborhood of the touched
// endpoints — with the rest of the matching frozen — restores "no short
// augmenting path" within that region. What regional repair cannot see
// are augmenting paths that cross the frozen boundary; those can only
// accumulate slowly, and a periodic certificate audit (internal/check's
// Berge probe, run mask-aware through the same engine) catches them: if
// any augmenting path of length ≤ 2k−1 survives globally, the Maintainer
// recomputes in full, restoring the certified (1−1/k) factor (Lemma 3.5).
//
// This turns the paper's one-shot solver into a serving loop: the engine,
// its slabs and its worker pool persist across updates, and each batch
// pays for its locality, not for the graph.
package dynamic

import (
	"distmatch/internal/telemetry"
)

// Op is the kind of one edge update.
type Op uint8

const (
	// Insert activates an edge of the slab (a no-op if already live).
	// Update.Weight, when nonzero, also sets the edge weight.
	Insert Op = iota
	// Delete deactivates an edge (a no-op if already dead). Deleting a
	// matched edge unmatches its endpoints; the repair re-matches them
	// if the region allows.
	Delete
	// SetWeight changes an edge's weight without touching its liveness.
	// Cardinality maintenance ignores weights; read them back through
	// Maintainer.Weight (by slab edge id) or LiveGraph (which carries
	// the overlay weights, on re-numbered live edges). The slab Graph
	// itself is immutable, so Matching().Weight against it reports the
	// original construction weights.
	SetWeight
)

func (o Op) String() string {
	switch o {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case SetWeight:
		return "setweight"
	}
	return "op?"
}

// Health is the Maintainer's serving state. Fault-free maintainers are
// permanently Healthy; the other states exist for fault injection
// (InjectFaults) and the recovery ladder.
type Health uint8

const (
	// Healthy: the matching is maintained normally and, at audited
	// points, certified (1−1/K)-approximate on the live subgraph minus
	// the pinned nodes.
	Healthy Health = iota
	// Degraded: the last maintenance attempt was lost to a fault and the
	// recovery ladder has not yet succeeded. Matching() keeps serving the
	// last good matching (always valid on the surviving live subgraph,
	// possibly stale); every subsequent Apply re-enters the ladder.
	Degraded
	// Recovering: a ladder repair succeeded and the Maintainer serves its
	// own matching again, but no audit has certified it yet. Audits run
	// on every Apply in this state; the first clean one restores Healthy.
	Recovering
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	}
	return "health?"
}

// ValidTransition reports whether a Maintainer observed in state from
// after one Apply may report state to after the next. The transitions
// are judged at Apply granularity — the only observation points the API
// offers — so composite internal moves are legal: a fault inside an
// otherwise Healthy Apply whose ladder repair succeeds surfaces as
// Healthy→Recovering, and a fault whose ladder fails as Healthy→Degraded.
// The single illegal observation is Degraded→Healthy: a ladder success
// must pass through Recovering, because the repairing Apply suppresses
// its own audit (the state is served immediately but uncertified), and
// only a clean audit on a later Apply — forced, since audits run on
// every Apply while Recovering — restores Healthy. A supervisor that
// sees Degraded→Healthy is watching a Maintainer that skipped
// certification, and must treat it as corrupt.
func ValidTransition(from, to Health) bool {
	return !(from == Degraded && to == Healthy)
}

// Update is one edge mutation, addressed by the edge's id in the slab
// graph the Maintainer was built over.
type Update struct {
	Edge   int
	Op     Op
	Weight float64 // Insert (nonzero ⇒ set) and SetWeight
}

// Batch is an ordered list of updates applied atomically by Apply: the
// repair runs once, over the union of the batch's touched regions.
type Batch []Update

// Options configures a Maintainer.
type Options struct {
	// K is the approximation target: audited matchings are (1−1/K)-
	// approximate on the live subgraph minus the pinned nodes
	// (Maintainer.SetPinned). Default 3.
	K int
	// Seed roots all randomness; identical seeds and update sequences
	// replay bit-identically. Default 1.
	Seed uint64
	// AuditEvery runs the certificate audit every that many Apply calls
	// (an audit also runs on demand via Audit). 0 means the default 16;
	// negative disables periodic audits.
	AuditEvery int
	// MaxRegionFrac falls back to a full-graph repair when the dirty
	// region exceeds this fraction of the nodes — beyond it the locality
	// win is gone and one pass is cheaper than bookkeeping. 0 means the
	// default 0.5.
	MaxRegionFrac float64
	// StartEmpty begins with every edge of the slab dead, the natural
	// state for demand-driven topologies (switch VOQs start empty).
	StartEmpty bool
	// AlwaysRecompute disables incremental repair: every Apply — empty
	// deltas included — discards the matching and solves the live
	// subgraph cold. This is the per-batch-recompute baseline the
	// incremental policy is measured against (experiment E14); it is
	// exposed so the comparison runs through identical plumbing.
	AlwaysRecompute bool
	// Budgeted switches the repair phases from the convergence oracle to
	// the paper's fixed w.h.p. budgets.
	Budgeted bool
	// FullSweep disables active-set execution: every repair and audit
	// steps all n nodes each round (the PR-4 engine schedule) even when
	// the region is a handful of nodes. Matchings, rounds and messages
	// are bit-identical either way — only NodeRounds (the engine's real
	// sweep work) differs — which is exactly what the differential fuzz
	// suite replays and what the region-cost benchmarks compare.
	FullSweep bool
	// MaxRetries bounds how many attempts each recovery-ladder level
	// (regional repair, warm full repair, cold recompute) gets before
	// escalating to the next. Only consulted after a fault. 0 means the
	// default 2.
	MaxRetries int
	// MaxRounds aborts any single engine run after that many rounds. 0
	// leaves runs unbounded until a fault plan is armed (InjectFaults),
	// which installs a safety bound of 4096: injected message loss can
	// starve a convergence oracle, and a hung repair must surface as a
	// recoverable fault, not a livelock. Negative keeps runs unbounded
	// even under faults.
	MaxRounds int
	// Workers overrides the engine's worker count (dist.Config.Workers);
	// 0 sizes it from the slab. Results do not depend on it; the
	// worker-independence tests set it to force multi-worker engines.
	Workers int
	// Telemetry, when set, registers the maintainer_* latency histograms
	// (Apply, repair, certificate-probe wall time) on the given registry.
	// Handles are atomics, so maintainers running in parallel — a shard
	// pool's workers — may share one registry. Nil disables at the cost of
	// one branch per site.
	Telemetry *telemetry.Registry
	// Events, when set, receives the Maintainer's structured trace
	// records: health transitions (at Apply granularity), audit verdicts
	// with their deterministic engine cost, full-graph repairs,
	// escalations, fault-plan arming. Emission happens under the write
	// lock, so trace order is deterministic. A shard pool keeps this nil
	// on its members — parallel shard applies would interleave
	// nondeterministically — and derives shard events itself in its
	// serialized phases; set it on standalone maintainers only.
	Events *telemetry.Events
	// TelemetryShard is the Shard id stamped on emitted events. Only
	// consulted when Events is set; use −1 for an unsharded maintainer.
	TelemetryShard int32
}

func (o Options) withDefaults() Options {
	if o.K < 1 {
		o.K = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AuditEvery == 0 {
		o.AuditEvery = 16
	}
	if o.MaxRegionFrac <= 0 {
		o.MaxRegionFrac = 0.5
	}
	if o.MaxRetries < 1 {
		o.MaxRetries = 2
	}
	return o
}

// ApplyReport describes what one Apply did.
type ApplyReport struct {
	// Touched is the number of dirty nodes the batch produced (endpoints
	// of edges whose liveness changed, except edges at pinned nodes, plus
	// nodes released from the pinned set since the last Apply). Zero
	// means the batch needed no repair.
	Touched int
	// RegionNodes is the size of the repaired region (the whole graph
	// when Recomputed).
	RegionNodes int
	// Recomputed reports that the repair ran over the full graph — the
	// region overflowed MaxRegionFrac, AlwaysRecompute is set, or a
	// failed audit forced it.
	Recomputed bool
	// Audited and CertificateOK report the periodic certificate audit:
	// whether one ran, and whether it found no augmenting path of length
	// ≤ 2K−1 (after a failed audit the Maintainer recomputes and
	// CertificateOK reports the post-recompute re-audit).
	Audited       bool
	CertificateOK bool
	// Rounds and Messages aggregate the engine cost of everything this
	// Apply ran (repairs, audits, recomputes). NodeRounds is the engine's
	// real sweep work (nodes actually stepped, summed over rounds): under
	// active-set execution it scales with the region, under
	// Options.FullSweep with the slab.
	Rounds     int64
	Messages   int64
	NodeRounds int64
	// AuditRounds and AuditMessages are the certificate probes' share of
	// Rounds/Messages — the price of certification, separated out so the
	// always-on-audit overhead is observable per slot. Engine costs are
	// deterministic, so audit events carry these and replay bit-identically.
	AuditRounds   int64
	AuditMessages int64
	// Faults counts engine runs this Apply lost to injected faults —
	// aborted by a panic or rejected by the post-run consistency check.
	// Always 0 without fault injection.
	Faults int
	// RecoveryLevel is the deepest recovery-ladder level this Apply
	// reached: 0 no recovery needed, 1 regional repair retry, 2 warm full
	// repair, 3 cold recompute.
	RecoveryLevel int
	// Health is the Maintainer's serving state after this Apply.
	Health Health
	// Changed reports that the matching this Maintainer serves may differ
	// from what it served before the Apply: a repair or recompute ran, a
	// matched edge was deleted, a fault was scrubbed, or the serving
	// source flipped between the maintained matching and the last-good
	// snapshot. False is a guarantee — Matching() returns a snapshot
	// equal to the pre-Apply one — which is what lets the sharded pool
	// skip recomposing clean shards. Deterministic: replays identically.
	Changed bool
}

// Totals aggregates a Maintainer's lifetime costs, the numbers experiment
// E14 amortizes.
type Totals struct {
	Applies       int   // Apply calls
	Touched       int64 // summed ApplyReport.Touched (≈ 2 × liveness-changed edges)
	Repairs       int   // regional repairs run
	Recomputes    int   // full-graph repairs run (fallback, forced, audit)
	Audits        int   // certificate audits run
	AuditFailures int   // audits that found a short augmenting path
	RegionNodes   int64 // summed region sizes over all repairs
	Rounds        int64 // engine rounds over all runs
	Messages      int64 // engine messages over all runs
	AuditRounds   int64 // certificate probes' share of Rounds
	AuditMessages int64 // certificate probes' share of Messages
	NodeRounds    int64 // nodes actually stepped, summed over all rounds
	Faults        int   // engine runs lost to injected faults
	Retries       int   // recovery attempts beyond the first of a maintenance step
	Escalations   int   // recovery-ladder levels exhausted (incl. total exhaustion)
}
