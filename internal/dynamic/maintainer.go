package dynamic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distmatch/internal/check"
	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// maintTel is the Maintainer's latency-histogram handle set, resolved
// once in New. All handles are nil when Options.Telemetry is unset, and
// every site guards on the handle — disabled telemetry costs one branch,
// no time.Now().
type maintTel struct {
	applyNS  *telemetry.Histogram
	repairNS *telemetry.Histogram
	auditNS  *telemetry.Histogram
}

// Maintainer holds a (1−1/K)-approximate matching over the live subgraph
// of a fixed bipartite slab and repairs it incrementally under batched
// edge updates. It owns a dist.Runner whose engine, mailbox slabs and
// worker pool persist across every repair, audit and recompute.
//
// New leaves the matching empty: either start from an empty arc set
// (Options.StartEmpty) and grow it with Insert batches, or call
// Recompute once to match a prepopulated slab. Close releases the engine
// when done.
//
// An outside owner can take nodes out of the Maintainer's hands with
// SetPinned: the shard pool pins every node it has matched across the
// shard boundary. A pinned node is never matched here, and repairs and
// audits treat it as taken — its live edges are masked out of the engine
// — so a Healthy Maintainer certifies (1−1/K) on the live subgraph minus
// its pinned nodes. Liveness itself (Live, LiveGraph) ignores pins.
//
// Concurrency: mutators (Apply, Recompute, Audit, CrashNode, Restore,
// Adopt, SetPinned, InjectFaults, Close) serialize on an internal write
// lock, and the read surface (Matching, Health, Totals, Live, Pinned,
// Weight, LiveGraph) takes the corresponding read lock, so any number of
// serving goroutines may query while another applies updates — the
// property the sharded serving layer leans on. Matching results are immutable snapshots:
// once returned, a *graph.Matching is never mutated.
type Maintainer struct {
	g    *graph.Graph
	r    *dist.Runner
	opts Options

	// mu serializes mutators against each other and against readers.
	// Mutators hold the write lock for their whole run; readers hold the
	// read lock while materializing (or fetching) a snapshot.
	mu sync.RWMutex

	live        []bool  // liveness mirror, indexed by edge id
	liveDeg     []int32 // per-node degree under the engine mask (live edges off pinned nodes)
	matchedEdge []int32 // per-node matched edge id, -1 free
	repairer    *core.BipartiteRepairer
	cached      atomic.Pointer[graph.Matching]

	// The audit restriction, maintained incrementally on liveDeg 0↔1
	// transitions so audits never scan the slab: liveList holds every
	// node with an engine-live incident edge (unordered, swap-remove),
	// livePos its position (-1 absent).
	liveList []int32
	livePos  []int32

	// The pinned node set (SetPinned). The engine mask holds exactly the
	// live edges with no pinned endpoint. unpinned collects the nodes
	// released since the last Apply: they seed its repair region.
	pinned   []bool
	unpinned []int32

	// Scratch, reused across applies: the batch's dirty endpoints, the
	// mate-closure member snapshot, and — in FullSweep mode only — a
	// region-mask snapshot (mask + members, cleared in O(region)).
	dirty      []int32
	scratch    []int32
	region     []bool
	regionList []int32

	// Recovery state. armed is true while a fault plan is installed
	// (InjectFaults): only then are engine panics treated as injected and
	// recovered — unarmed, a panic is a real bug and propagates. lastGood
	// is the last consistent matching (allocated on first arming, scrubbed
	// on Delete, refreshed after every non-Degraded Apply); Matching()
	// serves it while Degraded. auditIn counts applies down to the next
	// periodic audit at the current adaptive cadence curAudit, which
	// tightens (halves) after a failure and relaxes (+1, up to
	// Options.AuditEvery) after each clean audit.
	armed         bool
	health        Health
	justRecovered bool
	lastGood      []int32
	cachedGood    atomic.Pointer[graph.Matching]
	auditIn       int
	curAudit      int

	// gen counts served-matching generations: every mutation that can
	// change what Matching() returns — a repair or recompute, a matched-
	// edge delete scrub, a fault scrub, an adoption, or a health flip
	// that switches the serving source — bumps it. Apply/Audit diff it
	// across the call to derive ApplyReport.Changed.
	gen uint64

	runCtr uint64
	totals Totals

	// Telemetry (see Options.Telemetry/Events). Events are emitted only
	// under the write lock; the event Slot is totals.Applies, the
	// Maintainer's deterministic step clock.
	tel      maintTel
	events   *telemetry.Events
	telShard int32
}

// New builds a Maintainer over the bipartite slab g. The slab fixes the
// node set and the universe of possible edges; which of them exist at any
// moment is the Maintainer's activation state.
func New(g *graph.Graph, opts Options) *Maintainer {
	if !g.IsBipartite() {
		panic("dynamic: Maintainer requires a bipartite slab")
	}
	opts = opts.withDefaults()
	mt := &Maintainer{
		g:           g,
		r:           dist.NewRunner(g, dist.Config{Workers: opts.Workers}),
		opts:        opts,
		live:        make([]bool, g.M()),
		liveDeg:     make([]int32, g.N()),
		livePos:     make([]int32, g.N()),
		matchedEdge: make([]int32, g.N()),
		pinned:      make([]bool, g.N()),
	}
	for v := range mt.matchedEdge {
		mt.matchedEdge[v] = -1
		mt.livePos[v] = -1
	}
	if opts.AuditEvery > 0 {
		mt.curAudit, mt.auditIn = opts.AuditEvery, opts.AuditEvery
	}
	mt.events, mt.telShard = opts.Events, opts.TelemetryShard
	if reg := opts.Telemetry; reg != nil {
		mt.tel = maintTel{
			applyNS:  reg.Histogram("maintainer_apply_ns", "wall-clock duration of one Maintainer.Apply"),
			repairNS: reg.Histogram("maintainer_repair_ns", "wall-clock duration of one repair engine run"),
			auditNS:  reg.Histogram("maintainer_audit_ns", "wall-clock duration of one certificate probe"),
		}
	}
	if opts.MaxRounds > 0 {
		mt.r.SetMaxRounds(opts.MaxRounds)
	}
	mt.repairer = core.NewBipartiteRepairer(mt.r, mt.matchedEdge, core.RepairOptions{
		K:      opts.K,
		Oracle: !opts.Budgeted,
	})
	if opts.StartEmpty {
		mt.r.SetAllEdgesLive(false)
	} else {
		for e := range mt.live {
			mt.live[e] = true
		}
		for v := range mt.liveDeg {
			if d := g.Deg(v); d > 0 {
				mt.liveDeg[v] = int32(d)
				mt.livePos[v] = int32(len(mt.liveList))
				mt.liveList = append(mt.liveList, int32(v))
			}
		}
	}
	return mt
}

// Graph returns the slab.
func (mt *Maintainer) Graph() *graph.Graph { return mt.g }

// K returns the approximation parameter.
func (mt *Maintainer) K() int { return mt.opts.K }

// Live reports whether slab edge e is currently active.
func (mt *Maintainer) Live(e int) bool {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.live[e]
}

// Pinned reports whether node v is in the pinned set (SetPinned).
func (mt *Maintainer) Pinned(v int) bool {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.pinned[v]
}

// Weight returns the current weight of slab edge e.
func (mt *Maintainer) Weight(e int) float64 {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.r.EdgeWeight(e)
}

// Totals returns the lifetime cost aggregates.
func (mt *Maintainer) Totals() Totals {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.totals
}

// Close releases the underlying engine. Further use panics.
func (mt *Maintainer) Close() {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.r.Close()
}

// Matching returns the maintained matching (over the slab's node ids;
// every matched edge is live). While Degraded it serves the last good
// matching instead — valid on the surviving live subgraph (deletes
// scrub it), possibly stale — so serving never stops during recovery.
// The returned snapshot is immutable and cached until the next mutation;
// Matching is safe to call from any number of goroutines concurrently
// with Apply.
func (mt *Maintainer) Matching() *graph.Matching {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	// The cache pointers are atomic so concurrent readers may populate
	// them under the shared read lock; matchedEdge/lastGood themselves
	// are stable here (mutators hold the write lock). Two readers racing
	// on a cold cache both collect — the snapshots are equal, and either
	// store wins harmlessly.
	if mt.health == Degraded {
		if m := mt.cachedGood.Load(); m != nil {
			return m
		}
		m := graph.CollectMatching(mt.g, mt.lastGood)
		mt.cachedGood.Store(m)
		return m
	}
	if m := mt.cached.Load(); m != nil {
		return m
	}
	m := graph.CollectMatching(mt.g, mt.matchedEdge)
	mt.cached.Store(m)
	return m
}

// LiveGraph materializes the current live subgraph (with current
// weights) as a fresh immutable Graph on the slab's node ids — the form
// the centralized exact references take for spot audits. Pins do not
// hide edges here: it is the true live subgraph, built from the liveness
// mirror rather than the engine mask.
func (mt *Maintainer) LiveGraph() *graph.Graph {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	b := graph.NewBuilder(mt.g.N())
	for v := 0; v < mt.g.N(); v++ {
		b.SetSide(v, int8(mt.g.Side(v)))
	}
	for e, ok := range mt.live {
		if ok {
			x, y := mt.g.Endpoints(e)
			b.AddWeightedEdge(x, y, mt.r.EdgeWeight(e))
		}
	}
	return b.MustBuild()
}

// Apply applies one batch of updates and repairs the matching. The
// touched region — endpoints of edges whose liveness changed, grown
// 2K−1 hops over live edges and closed under matching edges — is re-run
// through the paper's phase machinery with the rest frozen; the repair
// escalates to a full pass when the region stops being local
// (MaxRegionFrac) and a periodic certificate audit (every AuditEvery
// applies) recomputes whenever a short augmenting path survived
// globally, keeping audited states (1−1/K)-approximate.
func (mt *Maintainer) Apply(b Batch) ApplyReport {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var t0 time.Time
	if mt.tel.applyNS != nil {
		t0 = time.Now()
	}
	pre := mt.health
	preGen := mt.gen
	mt.totals.Applies++
	var rep ApplyReport

	// Validate the whole batch before mutating anything: Apply is
	// atomic, so a bad update must not leave a half-applied topology.
	for _, u := range b {
		if u.Edge < 0 || u.Edge >= mt.g.M() {
			panic(fmt.Sprintf("dynamic: update on edge %d outside slab [0,%d)", u.Edge, mt.g.M()))
		}
		if u.Op > SetWeight {
			panic(fmt.Sprintf("dynamic: unknown op %d", u.Op))
		}
	}
	// Nodes released from the pinned set since the last Apply seed the
	// region: their edges rejoined the engine, so a new short augmenting
	// path must run through one of them.
	mt.dirty = mt.dirty[:0]
	for _, v := range mt.unpinned {
		if !mt.pinned[v] {
			mt.dirty = append(mt.dirty, v)
		}
	}
	mt.unpinned = mt.unpinned[:0]
	for _, u := range b {
		switch u.Op {
		case Insert:
			if u.Weight != 0 {
				mt.r.SetEdgeWeight(u.Edge, u.Weight)
			}
			if !mt.live[u.Edge] {
				mt.live[u.Edge] = true
				// An edge at a pinned node stays out of the engine until
				// the pin is released.
				if !mt.pinnedEdge(u.Edge) {
					mt.r.SetEdgeLive(u.Edge, true)
					mt.markDirty(u.Edge, +1)
				}
			}
		case Delete:
			if mt.live[u.Edge] {
				mt.live[u.Edge] = false
				x, y := mt.g.Endpoints(u.Edge)
				if mt.matchedEdge[x] == int32(u.Edge) {
					mt.matchedEdge[x], mt.matchedEdge[y] = -1, -1
					mt.gen++
				}
				if mt.lastGood != nil && mt.lastGood[x] == int32(u.Edge) {
					// The served snapshot must stay valid on the surviving
					// live subgraph even while Degraded: a deleted edge
					// leaves it immediately (the matching shrinks; it never
					// lies).
					mt.lastGood[x], mt.lastGood[y] = -1, -1
					mt.cachedGood.Store(nil)
					mt.gen++
				}
				if !mt.pinnedEdge(u.Edge) {
					mt.r.SetEdgeLive(u.Edge, false)
					mt.markDirty(u.Edge, -1)
				}
			}
		case SetWeight:
			mt.r.SetEdgeWeight(u.Edge, u.Weight)
		}
	}
	rep.Touched = len(mt.dirty)
	mt.totals.Touched += int64(rep.Touched)

	mt.maintain(&rep)
	mt.maybeAudit(&rep)

	if mt.lastGood != nil && mt.health != Degraded {
		// The matching is consistent here (the fault guard checked), so it
		// becomes the snapshot served if the next attempt is lost.
		copy(mt.lastGood, mt.matchedEdge)
		mt.cachedGood.Store(nil)
	}
	rep.Health = mt.health
	if mt.health != pre {
		// A health flip can switch the serving source (own matching vs
		// last-good snapshot): count it as a served-matching change.
		mt.gen++
		mt.emit(telemetry.EventHealth, int64(pre), int64(mt.health))
	}
	rep.Changed = mt.gen != preGen
	if mt.tel.applyNS != nil {
		mt.tel.applyNS.ObserveSince(t0)
	}
	return rep
}

// emit appends one trace record stamped with the Maintainer's step clock
// (totals.Applies — deterministic, never wall time). Callers hold the
// write lock; no-op when Options.Events is unset.
func (mt *Maintainer) emit(kind telemetry.EventKind, a, b int64) {
	if mt.events == nil {
		return
	}
	mt.events.Append(telemetry.Event{
		Slot:  int64(mt.totals.Applies),
		Kind:  kind,
		Shard: mt.telShard,
		A:     a,
		B:     b,
	})
}

// maintain runs the batch's maintenance step. The fault-free, Healthy
// path is exactly maintainOnce; with a fault plan armed — or while still
// recovering from one — every step instead runs under the recovery
// ladder's attempt/escalate loop.
func (mt *Maintainer) maintain(rep *ApplyReport) {
	if !mt.armed && mt.health == Healthy {
		mt.maintainOnce(rep)
		return
	}
	mt.ladder(rep)
}

// maintainOnce is one maintenance step under the normal policy.
func (mt *Maintainer) maintainOnce(rep *ApplyReport) {
	switch {
	case mt.opts.AlwaysRecompute:
		// The measurement baseline: a cold solve on every Apply — empty
		// deltas included — exactly what a per-slot BipartiteMCM pays
		// (minus engine setup, which the shared Runner amortizes for
		// both policies).
		mt.repairFull(true, rep)
	case len(mt.dirty) == 0:
		// Nothing structural changed: the matching stands as is.
	default:
		mt.repairDirtyRegion(rep)
	}
}

// repairDirtyRegion repairs the region grown from the current dirty
// seeds, falling back to a warm full pass on overflow.
func (mt *Maintainer) repairDirtyRegion(rep *ApplyReport) {
	mt.cached.Store(nil)
	if count := mt.growRegion(); float64(count) > mt.opts.MaxRegionFrac*float64(mt.g.N()) {
		// Region overflow: one warm full-graph pass beats regional
		// bookkeeping, and the current matching stays as the seed.
		mt.repairFull(false, rep)
	} else {
		// The engine's active mask is both the repair's region mask
		// and its execution schedule: only region nodes are stepped
		// (FullSweep instead snapshots the mask and steps everyone —
		// the PR-4 baseline the fuzz suite replays against).
		region := mt.r.ActiveMask()
		if mt.opts.FullSweep {
			region = mt.snapshotRegion()
		}
		mt.repair(region, count, rep)
	}
}

// Recompute discards the matching and solves the live subgraph from
// scratch — the certified reset the audit path falls back to.
func (mt *Maintainer) Recompute() ApplyReport {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var rep ApplyReport
	mt.repairFull(true, &rep)
	rep.Changed = true
	return rep
}

// Audit runs the certificate audit now (regardless of cadence),
// recomputing if it fails, and reports what happened. Like the periodic
// audits, it runs under the fault guard while a plan is armed, adapts
// the cadence, and promotes Recovering to Healthy on a clean pass.
func (mt *Maintainer) Audit() ApplyReport {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	var rep ApplyReport
	pre := mt.health
	preGen := mt.gen
	mt.runAudit(&rep)
	rep.Health = mt.health
	if mt.health != pre {
		mt.gen++
		mt.emit(telemetry.EventHealth, int64(pre), int64(mt.health))
	}
	rep.Changed = mt.gen != preGen
	return rep
}

// Health returns the Maintainer's serving state. Fault-free maintainers
// are always Healthy.
func (mt *Maintainer) Health() Health {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.health
}

// faultMaxRounds is the engine-run safety bound installed while a fault
// plan is armed and Options.MaxRounds is 0: injected message loss can
// starve a convergence oracle forever, and a hung repair must surface as
// a recoverable fault (the MaxRounds abort panic), not a livelock. Far
// above any honest run on the sizes the chaos harness drives.
const faultMaxRounds = 4096

// InjectFaults installs plan on the underlying engine (nil uninstalls)
// and arms the recovery machinery: while armed, engine runs may abort
// mid-flight or complete with a half-written matching, and the
// Maintainer absorbs both — attempts are checked for consistency,
// failures enter the escalation ladder (regional repair → warm full
// repair → cold recompute, Options.MaxRetries attempts each), and
// Matching() keeps serving the last good matching while Degraded. The
// plan replays from its first event on every engine run while installed.
func (mt *Maintainer) InjectFaults(plan *dist.FaultPlan) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	mt.r.SetFaultPlan(plan)
	if plan == nil {
		mt.armed = false
		if mt.opts.MaxRounds == 0 {
			mt.r.SetMaxRounds(0)
		}
		mt.emit(telemetry.EventFaultInject, 0, 0)
		return
	}
	mt.armed = true
	mt.emit(telemetry.EventFaultInject, 1, 0)
	if mt.opts.MaxRounds == 0 {
		mt.r.SetMaxRounds(faultMaxRounds)
	}
	if mt.lastGood == nil {
		mt.lastGood = make([]int32, mt.g.N())
		for v := range mt.lastGood {
			mt.lastGood[v] = -1
		}
	}
	if mt.health == Healthy {
		copy(mt.lastGood, mt.matchedEdge)
		mt.cachedGood.Store(nil)
	}
}

// CrashNode treats node v as failed at the serving layer: every live
// incident edge is deleted in one implicit batch — the observed fault
// expressed as the deletion batch it is — routed through Apply so the
// usual regional repair, audit cadence and recovery machinery handle it.
func (mt *Maintainer) CrashNode(v int) ApplyReport {
	if v < 0 || v >= mt.g.N() {
		panic(fmt.Sprintf("dynamic: CrashNode(%d) outside slab [0,%d)", v, mt.g.N()))
	}
	// Collect the implicit batch under the read lock, then route it
	// through Apply (which takes the write lock itself). A concurrent
	// Apply slipping between the two is benign: deletes of already-dead
	// edges are no-ops.
	mt.mu.RLock()
	var b Batch
	for p := 0; p < mt.g.Deg(v); p++ {
		if e := mt.g.EdgeAt(v, p); mt.live[e] {
			b = append(b, Update{Edge: e, Op: Delete})
		}
	}
	mt.mu.RUnlock()
	return mt.Apply(b)
}

// Restore loads a complete serving state — edge liveness, optional
// weights, and a matching over the live edges — replacing whatever the
// Maintainer held. It is the cold-rebuild hook of the sharded serving
// layer (internal/shard): a supervisor rebuilding a crashed shard
// replays the pool's authoritative liveness mirror and adopts the last
// snapshot in O(slab), with no engine runs. live must have one entry per
// slab edge and matched one per node; weights may be nil (keep current).
// The Maintainer comes back Recovering with no pinned nodes: it serves
// the restored matching immediately, but the state is uncertified until
// the next audit passes (forced on the next Apply).
func (mt *Maintainer) Restore(live []bool, weights []float64, matched []int32) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if len(live) != mt.g.M() {
		return fmt.Errorf("dynamic: Restore live length %d != %d edges", len(live), mt.g.M())
	}
	if weights != nil && len(weights) != mt.g.M() {
		return fmt.Errorf("dynamic: Restore weights length %d != %d edges", len(weights), mt.g.M())
	}
	if err := validateMatched(mt.g, matched, live); err != nil {
		return fmt.Errorf("dynamic: Restore: %v", err)
	}
	copy(mt.live, live)
	for v := range mt.pinned {
		mt.pinned[v] = false
	}
	mt.unpinned = mt.unpinned[:0]
	for e := range live {
		mt.r.SetEdgeLive(e, live[e])
		if weights != nil {
			mt.r.SetEdgeWeight(e, weights[e])
		}
	}
	// Rebuild the audit restriction from scratch — O(slab), which a cold
	// rebuild already is.
	mt.liveList = mt.liveList[:0]
	for v := range mt.liveDeg {
		mt.liveDeg[v], mt.livePos[v] = 0, -1
	}
	for e, ok := range live {
		if ok {
			x, y := mt.g.Endpoints(e)
			mt.bumpLiveDeg(x, 1)
			mt.bumpLiveDeg(y, 1)
		}
	}
	mt.adoptLocked(matched)
	return nil
}

// Adopt replaces the maintained matching with matched (a per-node edge
// assignment over the current live subgraph) without running any engine
// repair — the push-back hook of the sharded layer's global
// conflict-resolution pass: after the pool repairs the composed matching
// across shard boundaries, each shard adopts its restriction and
// continues incrementally from it. matched must leave every pinned node
// free. The Maintainer ends Recovering: the adopted matching is served at
// once but stays uncertified until its next audit passes (forced on the
// next Apply).
func (mt *Maintainer) Adopt(matched []int32) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if err := validateMatched(mt.g, matched, mt.live); err != nil {
		return fmt.Errorf("dynamic: Adopt: %v", err)
	}
	for v, e := range matched {
		if e >= 0 && mt.pinned[v] {
			return fmt.Errorf("dynamic: Adopt: node %d is pinned", v)
		}
	}
	mt.adoptLocked(matched)
	return nil
}

// SetPinned replaces the pinned node set with the nodes marked in pinned
// (one entry per slab node). A pinned node is taken by an outside owner —
// the shard pool pins the nodes it matched across the shard boundary —
// so repairs never match it and audits do not count augmenting paths
// through it: its live edges leave the engine mask, while Live and
// LiveGraph still report them. Only an unmatched node can be pinned;
// SetPinned fails, changing nothing, if pinned marks a matched node. A
// released node seeds the next Apply's repair region, which rematches it
// if it can. Pinning needs no repair: removing unmatched edges creates no
// augmenting path.
func (mt *Maintainer) SetPinned(pinned []bool) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if len(pinned) != mt.g.N() {
		return fmt.Errorf("dynamic: SetPinned length %d != %d nodes", len(pinned), mt.g.N())
	}
	for v, on := range pinned {
		if on && !mt.pinned[v] && mt.matchedEdge[v] >= 0 {
			return fmt.Errorf("dynamic: SetPinned: node %d is matched", v)
		}
	}
	for v, on := range pinned {
		if on != mt.pinned[v] {
			mt.setPin(v, on)
		}
	}
	return nil
}

// setPin pins or releases one node, moving its live edges to unpinned
// neighbors out of, or back into, the engine mask.
func (mt *Maintainer) setPin(v int, on bool) {
	delta := int32(1)
	if on {
		delta = -1
	} else {
		mt.unpinned = append(mt.unpinned, int32(v))
	}
	for p := 0; p < mt.g.Deg(v); p++ {
		e := mt.g.EdgeAt(v, p)
		w := mt.g.Other(e, v)
		if !mt.live[e] || mt.pinned[w] {
			continue
		}
		mt.r.SetEdgeLive(e, !on)
		mt.bumpLiveDeg(v, delta)
		mt.bumpLiveDeg(w, delta)
	}
	mt.pinned[v] = on
}

// pinnedEdge reports whether edge e has a pinned endpoint, which keeps
// it out of the engine mask whatever its liveness.
func (mt *Maintainer) pinnedEdge(e int) bool {
	x, y := mt.g.Endpoints(e)
	return mt.pinned[x] || mt.pinned[y]
}

// adoptLocked installs a validated matching and resets the recovery
// state to Recovering-until-audited. Callers hold mt.mu.
func (mt *Maintainer) adoptLocked(matched []int32) {
	pre := mt.health
	copy(mt.matchedEdge, matched)
	mt.cached.Store(nil)
	mt.gen++
	if mt.lastGood == nil {
		mt.lastGood = make([]int32, mt.g.N())
	}
	copy(mt.lastGood, mt.matchedEdge)
	mt.cachedGood.Store(nil)
	mt.dirty = mt.dirty[:0]
	mt.justRecovered = false
	if mt.g.N() > 0 {
		mt.health = Recovering
	}
	if mt.health != pre {
		mt.emit(telemetry.EventHealth, int64(pre), int64(mt.health))
	}
}

// validateMatched checks that matched is a consistent matching over the
// given liveness: every entry in range, live, incident to its node and
// claimed by both endpoints.
func validateMatched(g *graph.Graph, matched []int32, live []bool) error {
	if len(matched) != g.N() {
		return fmt.Errorf("matched length %d != %d nodes", len(matched), g.N())
	}
	for v, e := range matched {
		if e < 0 {
			continue
		}
		if int(e) >= g.M() {
			return fmt.Errorf("node %d claims edge %d outside slab [0,%d)", v, e, g.M())
		}
		if !live[e] {
			return fmt.Errorf("node %d claims dead edge %d", v, e)
		}
		x, y := g.Endpoints(int(e))
		if x != v && y != v {
			return fmt.Errorf("node %d claims non-incident edge %d", v, e)
		}
		if matched[x] != e || matched[y] != e {
			return fmt.Errorf("edge %d not claimed by both endpoints %d,%d", e, x, y)
		}
	}
	return nil
}

// markDirty records both endpoints of an edge entering or leaving the
// engine mask and keeps the per-node degrees — and the liveList
// membership the audits restrict to — current (delta is +1 insert, −1
// delete).
func (mt *Maintainer) markDirty(e, delta int) {
	x, y := mt.g.Endpoints(e)
	mt.dirty = append(mt.dirty, int32(x), int32(y))
	mt.bumpLiveDeg(x, int32(delta))
	mt.bumpLiveDeg(y, int32(delta))
}

// bumpLiveDeg adjusts one node's live degree, tracking 0↔1 transitions
// in liveList by swap-remove so audit-set construction is O(1) per
// update instead of a per-audit slab scan.
func (mt *Maintainer) bumpLiveDeg(v int, delta int32) {
	mt.liveDeg[v] += delta
	switch {
	case mt.liveDeg[v] == delta && delta > 0: // 0 → 1: join
		mt.livePos[v] = int32(len(mt.liveList))
		mt.liveList = append(mt.liveList, int32(v))
	case mt.liveDeg[v] == 0 && delta < 0: // 1 → 0: leave
		last := len(mt.liveList) - 1
		p := mt.livePos[v]
		moved := mt.liveList[last]
		mt.liveList[p] = moved
		mt.livePos[moved] = p
		mt.liveList = mt.liveList[:last]
		mt.livePos[v] = -1
	}
}

// growRegion installs the repair region as the Runner's active set: the
// ≤(2K−1)-hop ball around the dirty nodes over live edges, closed under
// matching edges so no frozen node can be separated from its mate.
// Returns the region size. Cost is O(region volume) — the engine grows
// the ball from its CSR tables, and the mate closure walks only the
// region members.
func (mt *Maintainer) growRegion() int {
	r := mt.r
	r.SetActive(mt.dirty)
	// A new augmenting path of length ≤ 2K−1 must pass through a touched
	// node, so every node of it lies within 2K−1 hops of one.
	r.ExpandByHops(2*mt.opts.K - 1)
	// Mate closure: a region node matched across the boundary pulls its
	// mate in (one pass over the pre-closure members suffices — a mate's
	// mate is the node itself). Snapshot the members first: ActivateNode
	// mutates the set, which invalidates the ActiveNodes view.
	mt.scratch = append(mt.scratch[:0], r.ActiveNodes()...)
	for _, v := range mt.scratch {
		if me := mt.matchedEdge[v]; me >= 0 {
			r.ActivateNode(mt.g.Other(int(me), int(v)))
		}
	}
	return r.ActiveCount()
}

// snapshotRegion copies the Runner's active set into the Maintainer's own
// region mask and clears it, so a FullSweep repair sees the identical
// region while the engine still steps every node — the differential
// baseline for the active-set fuzz suite.
func (mt *Maintainer) snapshotRegion() []bool {
	if mt.region == nil {
		mt.region = make([]bool, mt.g.N())
	}
	for _, v := range mt.regionList {
		mt.region[v] = false
	}
	mt.regionList = append(mt.regionList[:0], mt.r.ActiveNodes()...)
	for _, v := range mt.regionList {
		mt.region[v] = true
	}
	mt.r.ClearActive()
	return mt.region
}

// repair runs the phase machinery over region (nil = full graph, with
// regionNodes its precomputed size from growRegion) and folds the cost
// into rep and the totals. A nil region clears the active set: a full
// pass steps everyone.
func (mt *Maintainer) repair(region []bool, regionNodes int, rep *ApplyReport) {
	if region == nil {
		mt.r.ClearActive()
	}
	var t0 time.Time
	if mt.tel.repairNS != nil {
		t0 = time.Now()
	}
	st := mt.repairer.Repair(mt.nextSeed(), region)
	if mt.tel.repairNS != nil {
		mt.tel.repairNS.ObserveSince(t0)
	}
	mt.cached.Store(nil)
	mt.gen++
	nodes := mt.g.N()
	if region != nil {
		nodes = regionNodes
		mt.totals.Repairs++
	} else {
		mt.totals.Recomputes++
		rep.Recomputed = true
	}
	rep.RegionNodes = nodes
	mt.totals.RegionNodes += int64(nodes)
	mt.addCost(rep, st)
}

// repairFull is one full-graph pass, warm (seeded by the current
// matching) or cold (matching discarded first), with the corresponding
// trace record. Every full-repair call site routes through here so the
// warm/cold split is observable in the event stream.
func (mt *Maintainer) repairFull(cold bool, rep *ApplyReport) {
	if cold {
		for v := range mt.matchedEdge {
			mt.matchedEdge[v] = -1
		}
		mt.cached.Store(nil)
	}
	mt.repair(nil, 0, rep)
	kind := telemetry.EventRepairWarm
	if cold {
		kind = telemetry.EventRepairCold
	}
	mt.emit(kind, int64(mt.g.N()), 0)
}

// attempt runs one maintenance or audit step under the fault guard. A
// panic is recovered only while a plan is armed (unarmed it is a real
// bug and propagates); after a non-panicking step the matching is
// re-checked for consistency, because a crash fault can complete a run
// with the per-node write-back half done. On failure the matching is
// scrubbed back to a consistent (smaller) one, the freed nodes rejoin
// the dirty seeds, and the Maintainer is Degraded.
func (mt *Maintainer) attempt(rep *ApplyReport, step func()) bool {
	panicked := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if !mt.armed {
					panic(r)
				}
				panicked = true
			}
		}()
		step()
	}()
	if !panicked && mt.consistent() {
		return true
	}
	rep.Faults++
	mt.totals.Faults++
	mt.health = Degraded
	mt.cached.Store(nil)
	mt.gen++
	mt.scrub()
	return false
}

// consistent is the O(n) invariant check the fault guard relies on:
// every matched edge is in range, live, off the pinned nodes, incident to
// its node, and claimed by both endpoints.
func (mt *Maintainer) consistent() bool {
	for v, e := range mt.matchedEdge {
		if e < 0 {
			continue
		}
		if int(e) >= len(mt.live) || !mt.live[e] || mt.pinnedEdge(int(e)) {
			return false
		}
		x, y := mt.g.Endpoints(int(e))
		if (x != v && y != v) || mt.matchedEdge[x] != e || mt.matchedEdge[y] != e {
			return false
		}
	}
	return true
}

// scrub restores matchedEdge to a consistent matching after a lost
// attempt — an aborted run can leave the write-back half done — by
// freeing every node whose claim fails the invariant. Freed nodes join
// the dirty seeds so the next regional attempt re-covers them; damage
// that outlives the Apply (dirty resets per batch) is bounded by the
// forced audit that certifies any recovery.
func (mt *Maintainer) scrub() {
	for v, e := range mt.matchedEdge {
		if e < 0 {
			continue
		}
		ok := int(e) < len(mt.live) && mt.live[e] && !mt.pinnedEdge(int(e))
		if ok {
			x, y := mt.g.Endpoints(int(e))
			ok = (x == v || y == v) && mt.matchedEdge[x] == e && mt.matchedEdge[y] == e
		}
		if !ok {
			mt.matchedEdge[v] = -1
			mt.dirty = append(mt.dirty, int32(v))
		}
	}
}

// ladder is the self-healing escalation loop: the normal maintenance
// step, then a warm full repair, then a cold recompute, each attempted
// up to MaxRetries times under the fault guard. A success after any
// fault leaves the Maintainer Recovering — serving its own matching
// again, promoted to Healthy by the next clean audit (forced on the next
// maybeAudit). Exhausting every level leaves it Degraded: Matching()
// keeps serving the last good snapshot and the next Apply lands back
// here.
func (mt *Maintainer) ladder(rep *ApplyReport) {
	levels := []func(){
		func() { mt.maintainOnce(rep) },
		func() { mt.repairFull(false, rep) },
		func() { mt.repairFull(true, rep) },
	}
	first := true
	for lvl, step := range levels {
		for try := 0; try < mt.opts.MaxRetries; try++ {
			if recovery := mt.health != Healthy || lvl > 0 || try > 0; recovery && rep.RecoveryLevel <= lvl {
				rep.RecoveryLevel = lvl + 1
			}
			if !first {
				mt.totals.Retries++
			}
			first = false
			if mt.attempt(rep, step) {
				if mt.health == Degraded {
					// The step that repairs ends Recovering; certification
					// is the next step's job (justRecovered suppresses this
					// step's audit), so the state is observable for at least
					// one full Apply.
					mt.health = Recovering
					mt.justRecovered = true
				}
				return
			}
		}
		mt.totals.Escalations++
		mt.emit(telemetry.EventEscalation, int64(lvl), int64(rep.Faults))
	}
	// Every level exhausted: stay Degraded, serve the snapshot, try again
	// on the next Apply.
}

// maybeAudit runs the periodic audit when the adaptive countdown
// expires, and unconditionally while Recovering — a recovered matching
// stays uncertified until an audit passes. Two health states override
// the cadence: the Apply that just repaired skips its audit entirely
// (the repair already burned engine rounds, and ending the step
// Recovering keeps the state observable), and Degraded skips audits
// because there is no matching of our own to certify.
func (mt *Maintainer) maybeAudit(rep *ApplyReport) {
	due := false
	if mt.curAudit > 0 {
		mt.auditIn--
		if mt.auditIn <= 0 {
			due = true
			mt.auditIn = mt.curAudit
		}
	}
	if mt.justRecovered || mt.health == Degraded {
		due = false
	} else if mt.health == Recovering {
		due = true
	}
	mt.justRecovered = false
	if due {
		mt.runAudit(rep)
	}
}

// runAudit is one guarded audit: under the fault guard whenever a plan
// is armed or recovery is in flight, with the adaptive cadence tightened
// on any failure (certificate or fault) and relaxed on a clean pass, and
// Recovering promoted to Healthy by a clean certified pass.
func (mt *Maintainer) runAudit(rep *ApplyReport) {
	pre := mt.totals.AuditFailures
	preRounds, preMsgs := rep.AuditRounds, rep.AuditMessages
	if mt.armed || mt.health != Healthy {
		if !mt.attempt(rep, func() { mt.auditOnce(rep) }) {
			mt.tightenCadence()
			return
		}
	} else {
		mt.auditOnce(rep)
	}
	// The verdict event carries the audit's deterministic engine cost
	// (probe rounds and messages this audit spent), so replayed traces
	// expose the price of certification slot by slot.
	kind := telemetry.EventAuditPass
	if mt.totals.AuditFailures > pre {
		kind = telemetry.EventAuditFail
	}
	mt.emit(kind, rep.AuditRounds-preRounds, rep.AuditMessages-preMsgs)
	if mt.totals.AuditFailures > pre {
		mt.tightenCadence()
	} else {
		mt.relaxCadence()
	}
	if rep.CertificateOK && mt.health == Recovering {
		mt.health = Healthy
	}
}

// tightenCadence halves the audit interval after a failure (floor 1);
// relaxCadence eases it back by one per clean audit, up to the
// configured AuditEvery. No-ops when periodic audits are disabled.
func (mt *Maintainer) tightenCadence() {
	if mt.curAudit > 0 {
		mt.curAudit = max(1, mt.curAudit/2)
		if mt.auditIn > mt.curAudit {
			mt.auditIn = mt.curAudit
		}
	}
}

func (mt *Maintainer) relaxCadence() {
	if mt.curAudit > 0 && mt.curAudit < mt.opts.AuditEvery {
		mt.curAudit++
	}
}

// auditOnce runs the mask-aware Berge probe; on a failed certificate it
// recomputes from the current matching and re-audits.
func (mt *Maintainer) auditOnce(rep *ApplyReport) {
	rep.Audited = true
	probe := 2*mt.opts.K - 1
	r, st := mt.probeCertificate(probe)
	mt.totals.Audits++
	mt.addAuditCost(rep, st)
	if !r.Valid {
		panic("dynamic: audit found an inconsistent matching (maintainer invariant broken)")
	}
	rep.CertificateOK = r.ShortestAug == -1
	if rep.CertificateOK {
		return
	}
	// Certificate degraded: boundary-crossing augmenting paths
	// accumulated past the target. Repair globally (warm start from the
	// current matching) and re-certify.
	mt.totals.AuditFailures++
	mt.repairFull(false, rep)
	r, st = mt.probeCertificate(probe)
	mt.totals.Audits++
	mt.addAuditCost(rep, st)
	if !r.Valid {
		panic("dynamic: post-recompute audit found an inconsistent matching")
	}
	rep.CertificateOK = r.ShortestAug == -1
}

// probeCertificate runs the Berge probe through the shared Runner. Under
// active-set execution the probe steps only the endpoints of engine-live
// edges — a set that contains every matched node, excludes the pinned
// ones, and that no engine-live edge (hence no probe message) can cross —
// so audit rounds cost O(live subgraph), not O(slab). With no
// engine-live edge at all the set is empty and
// check.MatchingOnRunner short-circuits without a run (identically for
// the full-sweep form, keyed on the runner's live-edge count), so
// messages, rounds and outcomes stay bit-identical to a full-sweep audit
// (TestFuzzDynamicAuditEquivalence).
func (mt *Maintainer) probeCertificate(probe int) (check.Report, *dist.Stats) {
	if mt.opts.FullSweep {
		mt.r.ClearActive()
	} else {
		mt.r.SetActive(mt.liveList)
	}
	var t0 time.Time
	if mt.tel.auditNS != nil {
		t0 = time.Now()
	}
	r, st := check.MatchingOnRunner(mt.r, mt.matchedEdge, probe, mt.nextSeed())
	if mt.tel.auditNS != nil {
		mt.tel.auditNS.ObserveSince(t0)
	}
	return r, st
}

// addAuditCost folds one certificate probe's engine cost into the audit
// share as well as the general aggregates.
func (mt *Maintainer) addAuditCost(rep *ApplyReport, st *dist.Stats) {
	rep.AuditRounds += int64(st.Rounds)
	rep.AuditMessages += st.Messages
	mt.totals.AuditRounds += int64(st.Rounds)
	mt.totals.AuditMessages += st.Messages
	mt.addCost(rep, st)
}

func (mt *Maintainer) addCost(rep *ApplyReport, st *dist.Stats) {
	rep.Rounds += int64(st.Rounds)
	rep.Messages += st.Messages
	rep.NodeRounds += st.NodeRounds
	mt.totals.Rounds += int64(st.Rounds)
	mt.totals.Messages += st.Messages
	mt.totals.NodeRounds += st.NodeRounds
}

func (mt *Maintainer) nextSeed() uint64 {
	mt.runCtr++
	return rng.ForkSeed(mt.opts.Seed, mt.runCtr)
}
