package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distmatch/internal/core"
	"distmatch/internal/dist"
	"distmatch/internal/dynamic"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

// ErrClosed is the unified closed-pool failure: mutators and queries
// that cannot run on a closed Pool panic with it (Apply, ApplySeq,
// Audit, Matching, Query) or return it (KillShard, RestartShard,
// InjectShardFaults). Close itself is idempotent.
var ErrClosed = errors.New("shard: pool closed")

// Options configures a Pool.
type Options struct {
	// Shards is the number of partitions S. Default 4.
	Shards int
	// K is the approximation target: certified composed matchings are
	// (1−1/K)-approximate on the live subgraph. Default 3.
	K int
	// Seed roots all randomness — shard maintainer seeds (re-forked per
	// restart), resolver runs, audits. Identical seeds, update sequences
	// and kill schedules replay bit-identically. Default 1.
	Seed uint64
	// AuditEvery runs the pool's conflict audit (Berge probe over the
	// composed matching) every that many Applies while every shard is
	// Healthy; an audit is also forced on the Apply where the pool
	// returns to all-Healthy uncertified after a disruption, and on
	// demand via Audit. 0 means the default 8; negative disables
	// periodic audits.
	AuditEvery int
	// ShardAuditEvery is passed to each Maintainer as its own audit
	// cadence (0 = the dynamic default).
	ShardAuditEvery int
	// RestartBackoff is the base auto-restart delay of a killed or
	// crashed shard, counted in Apply slots; consecutive kills before
	// the shard re-certifies double it up to MaxBackoff. Defaults 1
	// and 8.
	RestartBackoff int
	MaxBackoff     int
	// MaxRetries bounds each shard Maintainer's recovery-ladder level
	// retries (0 = the dynamic default).
	MaxRetries int
	// StartEmpty begins with every edge of the slab dead.
	StartEmpty bool
	// Serial disables the per-shard commit pipelines and the dirty-set
	// bookkeeping: shard applies run inline in ascending shard order and
	// every recompose rescans every up shard and every crossing edge —
	// the PR-8/9 write path. Reports, matchings and traces are pinned
	// bit-identical to the pipelined mode (TestPoolSerialPipelined-
	// Equivalent); Serial exists as that differential oracle and as the
	// single-threaded baseline the serving benchmarks compare against.
	Serial bool
	// Workers configures every underlying engine.
	Workers int
	// Telemetry, when set, registers the pool's metric handles — per-shard
	// up/health/backoff/restart gauges, routing and resolver counters, the
	// pool_apply_ns and per-phase histograms — and makes the registry's
	// event ring the pool's structured trace. Shard Maintainers share the
	// registry's latency histograms (atomic, order-independent) but never
	// its ring: the pool derives every shard event itself in its
	// serialized barrier phase, in shard order, from the captured
	// per-shard ApplyReports — parallel shard applies would otherwise
	// interleave the trace nondeterministically. Events carry the Apply
	// slot, never wall time, so seeded chaos schedules replay with
	// bit-identical traces.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = 4
	}
	if o.K < 1 {
		o.K = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.AuditEvery == 0 {
		o.AuditEvery = 8
	}
	if o.RestartBackoff < 1 {
		o.RestartBackoff = 1
	}
	if o.MaxBackoff < o.RestartBackoff {
		o.MaxBackoff = 8
	}
	return o
}

// Report describes what one Pool.Apply did.
type Report struct {
	// Step is this Apply's slot (0-based).
	Step int
	// Seq echoes the client batch sequence number of an ApplySeq call
	// (0 for plain Apply); Duplicate reports that the sequence was
	// already committed and this Report is the cached original — the
	// batch was NOT applied again.
	Seq       uint64
	Duplicate bool
	// Routed, Crossing and Deferred count the batch's updates by fate:
	// routed to an up shard's local batch, touching a pool-owned
	// crossing edge, or owned by a down shard (mirror-only until its
	// rebuild replays them).
	Routed, Crossing, Deferred int
	// Killed, Restarted and Crashed list the shards the supervisor acted
	// on this slot: scheduled kills, completed rebuilds, and shards lost
	// to a panic or an illegal health transition during this Apply.
	Killed, Restarted, Crashed []int
	// Healths and Down are the per-shard post-Apply states; a down
	// shard's health is its last observed value.
	Healths []dynamic.Health
	Down    []bool
	// Audited and CertificateOK report the pool conflict audit, and
	// CrossingMatched the crossing edges in the composed matching after
	// resolution.
	Audited         bool
	CertificateOK   bool
	CrossingMatched int
	// Degraded means responses may be partial or stale: some shard is
	// down (its nodes frozen) or Degraded (serving its last-good
	// snapshot). Recovering shards serve current answers and do not
	// degrade the pool.
	Degraded bool
}

// Response is one matching query against the pool.
type Response struct {
	// Matching is the composed global matching — always a valid matching
	// on the live subgraph, whatever the shards are going through.
	Matching *graph.Matching
	// Degraded means the answer may be partial or stale: some shard is
	// down (its nodes' matches are frozen) or Degraded. Down lists the
	// down shards, Stale the shards serving last-good snapshots.
	Degraded bool
	Down     []int
	Stale    []int
	// Certified reports that the composed matching passed the pool's
	// conflict audit after its last structural change — the certified
	// (1−1/K) state chaos schedules must re-converge to.
	Certified bool
	// Step is the number of Applies the response reflects.
	Step int
}

// ShardStatus is one shard's supervisor view.
type ShardStatus struct {
	Health        dynamic.Health
	Up            bool
	Restarts      int // completed rebuilds
	Backoff       int // next kill's restart delay, in Apply slots
	WakeAt        int // slot of the pending auto-restart (down shards)
	Nodes         int // owned nodes
	InternalEdges int // owned (internal) slab edges
}

// Stats aggregates a Pool's lifetime costs.
type Stats struct {
	Applies         int
	Routed          int64 // updates routed to shard batches
	Crossing        int64 // updates touching crossing edges
	Deferred        int64 // updates for down shards (mirror-only)
	Kills           int   // scheduled kills (KillPlan or KillShard)
	Crashes         int   // shards lost to panics or illegal transitions
	Restarts        int   // completed rebuilds
	Audits          int   // pool conflict audits
	AuditFailures   int   // audits that found a short augmenting path
	Repairs         int   // conflict-resolution repairs
	Adopts          int   // shard push-backs after a repair
	CrossingMatched int64 // crossing matches added by greedy resolution
	Rounds          int64 // resolver engine rounds
	Messages        int64
	NodeRounds      int64
}

// shardSlot is one shard's supervisor state. All fields are guarded by
// the Pool's mirror lock p.mu (and only ever mutated under applyMu).
type shardSlot struct {
	id    int
	nodes []int32 // owned nodes, ascending global id; local id = index
	edges []int32 // internal edges, ascending global id; local id = index
	sub   *graph.Graph

	mt     *dynamic.Maintainer // nil while down
	up     bool
	health dynamic.Health // last observed (frozen while down)

	restarts  int
	backoff   int // next restart delay; doubles per kill, resets on a full Healthy slot
	wakeAt    int // auto-restart slot while down
	rebuiltAt int // step of the last rebuild (-1 = never)

	dirty bool          // served matching may have changed: recompose must rescan
	batch dynamic.Batch // per-Apply routing buffer, reused
	work  chan shardJob // commit pipeline feed (nil in Serial mode)
}

// shardJob is one shard's share of an Apply slot, dispatched to its
// commit pipeline. Results land in caller-owned slots (rep, crashed) and
// completion signals through wg — the channel send is the happens-before
// edge for the batch, the wg.Wait the one for the results.
type shardJob struct {
	mt      *dynamic.Maintainer
	batch   dynamic.Batch
	rep     *dynamic.ApplyReport
	crashed *bool
	wg      *sync.WaitGroup
}

// clientRec is the idempotency record of one ApplySeq client: the last
// committed sequence number and its Report, served back on retries.
type clientRec struct {
	seq uint64
	rep Report
}

// poolSnap is the atomically-published read snapshot: the last composed
// matching plus the serving flags it was composed under. Readers load it
// with no locks and never wait on an in-flight slot or audit; every
// field is immutable once published.
type poolSnap struct {
	matching  *graph.Matching
	step      int
	certified bool
	degraded  bool
	healths   []dynamic.Health
	downMask  []bool
	down      []int
	stale     []int
}

// Pool is the sharded serving layer: S independent Maintainers behind
// one Apply/Query surface, supervised for failover.
//
// Concurrency model (DESIGN.md §8): mutators (Apply, ApplySeq, Audit,
// KillShard, RestartShard, InjectShardFaults, SetKillPlan, Close)
// serialize on the slot lock applyMu — slot numbering, supervisor
// actions and the event trace stay strictly ordered. Within a slot,
// Apply holds the mirror lock p.mu only for its two short serialized
// phases (route, and the recompose/audit barrier); the commit phase in
// between runs every shard's local apply concurrently on per-shard
// pipeline goroutines with no pool-wide lock held. Matching and Query
// read an atomic snapshot published at the end of each barrier and
// never block; Status, Totals, Healths and Live read the mirror under
// p.mu's read lock. Lock order is applyMu → p.mu.
type Pool struct {
	g    *graph.Graph
	opts Options

	owner     []int32 // owning shard per node
	localNode []int32 // local id within the owning shard
	edgeShard []int32 // owning shard per edge; -1 = crossing
	localEdge []int32 // local edge id (internal edges; -1 for crossing)
	crossing  []int32 // crossing edge ids, ascending

	// Dirty-crossing bookkeeping (pipelined mode): nodeCross lists each
	// node's incident crossing edges (ascending); crossMark/crossDirty
	// are the pending dirty set the next resolution pass consumes;
	// crossHeap is its scratch min-heap; crossMatched counts the
	// crossing edges currently in the composed matching.
	nodeCross    [][]int32
	crossMark    []bool
	crossDirty   []int32
	crossHeap    []int32
	crossMatched int

	shards []*shardSlot

	// The pool's authoritative mirror: global liveness, weights (held by
	// the resolver runner, which also runs audits and the conflict
	// repair) and the composed matching.
	live     []bool
	resolver *dist.Runner
	repairer *core.BipartiteRepairer
	gmatch   []int32

	step        int
	auditIn     int
	certified   bool
	wasDegraded bool // a prior slot was degraded: force re-certification once serving resumes

	killPlan *KillPlan
	killIdx  int
	killBase int // step at which the plan was installed

	seedBase uint64
	runCtr   uint64
	totals   Stats
	tel      *poolTel // nil when Options.Telemetry is unset

	// applyMu is the slot lock (see the type comment); mu guards the
	// mirror and supervisor state; snap is the lock-free read surface.
	applyMu sync.Mutex
	mu      sync.RWMutex
	snap    atomic.Pointer[poolSnap]
	closed  atomic.Bool

	clients map[string]*clientRec // ApplySeq idempotency records, guarded by applyMu

	// testHookCommit, when set (tests only), runs between the routing
	// phase and the commit barrier — with no pool lock held — so tests
	// can hold a slot mid-flight and probe the read surface.
	testHookCommit func()
}

// SetCommitTestHook installs f (nil to remove) to run between an Apply's
// routing phase and its commit barrier, with no pool-wide lock held: the
// seam tests use to park a slot mid-flight — probing the lock-free read
// surface, or forcing an HTTP timeout to fire while the commit is still
// running. Testing only; install and remove it with no applies in flight.
func (p *Pool) SetCommitTestHook(f func()) { p.testHookCommit = f }

// New builds a Pool over the bipartite slab g. Like the Maintainer, the
// slab fixes the node set and the universe of possible edges; liveness
// is the serving state. The partition, the sub-slabs and every local id
// mapping are fixed for the Pool's lifetime — only Maintainers die and
// get rebuilt.
func New(g *graph.Graph, opts Options) *Pool {
	if !g.IsBipartite() {
		panic("shard: Pool requires a bipartite slab")
	}
	opts = opts.withDefaults()
	p := &Pool{
		g:         g,
		opts:      opts,
		owner:     make([]int32, g.N()),
		localNode: make([]int32, g.N()),
		edgeShard: make([]int32, g.M()),
		localEdge: make([]int32, g.M()),
		live:      make([]bool, g.M()),
		gmatch:    make([]int32, g.N()),
		resolver:  dist.NewRunner(g, dist.Config{Workers: opts.Workers}),
		seedBase:  rng.ForkSeed(opts.Seed, 0x9e3779b97f4a7c15),
		clients:   make(map[string]*clientRec),
	}
	for v := range p.gmatch {
		p.gmatch[v] = -1
	}
	p.tel = newPoolTel(opts.Telemetry, opts.Shards)
	p.partition()
	p.repairer = core.NewBipartiteRepairer(p.resolver, p.gmatch, core.RepairOptions{
		K:      opts.K,
		Oracle: true,
	})
	if opts.AuditEvery > 0 {
		p.auditIn = opts.AuditEvery
	}
	if opts.StartEmpty {
		p.resolver.SetAllEdgesLive(false)
	} else {
		for e := range p.live {
			p.live[e] = true
		}
	}
	for _, slot := range p.shards {
		p.spawn(slot, opts.StartEmpty)
		if !opts.StartEmpty && slot.sub.M() > 0 {
			slot.mt.Recompute()
			slot.health = slot.mt.Health()
		}
	}
	if !opts.StartEmpty {
		p.recompose(nil)
	}
	p.publishLocked()
	p.updateGauges()
	return p
}

// partition splits each bipartition side into Shards contiguous blocks
// of nearly equal size and materializes the per-shard sub-slabs. Local
// node ids preserve ascending global order, so (Builder normalization
// being monotone) a shard's internal edges keep their relative global
// edge order as local edge ids — pinned by TestPoolLocalEdgeMapping.
func (p *Pool) partition() {
	S := p.opts.Shards
	var sides [2][]int32
	for v := 0; v < p.g.N(); v++ {
		s := p.g.Side(v)
		if s < 0 {
			s = 0 // isolated node in an unsided slab: treat as X
		}
		sides[s] = append(sides[s], int32(v))
	}
	for v := range p.owner {
		p.owner[v] = -1
	}
	for _, side := range sides {
		for i, v := range side {
			p.owner[v] = int32(i * S / len(side))
		}
	}
	p.shards = make([]*shardSlot, S)
	for s := 0; s < S; s++ {
		p.shards[s] = &shardSlot{id: s, backoff: p.opts.RestartBackoff, rebuiltAt: -1}
	}
	for v := 0; v < p.g.N(); v++ {
		slot := p.shards[p.owner[v]]
		p.localNode[v] = int32(len(slot.nodes))
		slot.nodes = append(slot.nodes, int32(v))
	}
	for e := 0; e < p.g.M(); e++ {
		u, v := p.g.Endpoints(e)
		if p.owner[u] != p.owner[v] {
			p.edgeShard[e], p.localEdge[e] = -1, -1
			p.crossing = append(p.crossing, int32(e))
			continue
		}
		slot := p.shards[p.owner[u]]
		p.edgeShard[e] = int32(slot.id)
		p.localEdge[e] = int32(len(slot.edges))
		slot.edges = append(slot.edges, int32(e))
	}
	for _, slot := range p.shards {
		b := graph.NewBuilder(len(slot.nodes))
		for lv, gv := range slot.nodes {
			side := p.g.Side(int(gv))
			if side < 0 {
				side = 0
			}
			b.SetSide(lv, int8(side))
		}
		for _, ge := range slot.edges {
			u, v := p.g.Endpoints(int(ge))
			b.AddWeightedEdge(int(p.localNode[u]), int(p.localNode[v]), p.g.Weight(int(ge)))
		}
		slot.sub = b.MustBuild()
	}
	if !p.opts.Serial {
		p.nodeCross = make([][]int32, p.g.N())
		p.crossMark = make([]bool, p.g.M())
		for _, ce := range p.crossing {
			x, y := p.g.Endpoints(int(ce))
			p.nodeCross[x] = append(p.nodeCross[x], ce)
			p.nodeCross[y] = append(p.nodeCross[y], ce)
		}
		for _, slot := range p.shards {
			slot.work = make(chan shardJob)
			go commitLoop(slot.work)
		}
	}
}

// commitLoop is one shard's commit pipeline: it applies the shard's
// share of each slot off the pool's hot path and survives shard crashes
// (the recover marks the slot lost; the supervisor rebuilds the
// Maintainer, the goroutine and its queue persist for the next one).
func commitLoop(work <-chan shardJob) {
	for job := range work {
		runJob(job)
	}
}

func runJob(job shardJob) {
	defer job.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			*job.crashed = true
		}
	}()
	*job.rep = job.mt.Apply(job.batch)
}

// spawn builds a fresh Maintainer for the slot with a seed forked from
// the pool seed, the shard id and the rebuild count, so restarts are
// deterministic yet never replay the dead incarnation's streams.
// Rebuilds always start empty (the caller replays the mirror through
// Restore); only the initial full start begins with the sub-slab live.
func (p *Pool) spawn(slot *shardSlot, startEmpty bool) {
	seed := rng.ForkSeed(rng.ForkSeed(p.opts.Seed, uint64(slot.id)+1), uint64(slot.restarts))
	slot.mt = dynamic.New(slot.sub, dynamic.Options{
		K:          p.opts.K,
		Seed:       seed,
		AuditEvery: p.opts.ShardAuditEvery,
		MaxRetries: p.opts.MaxRetries,
		StartEmpty: startEmpty,
		Workers:    p.opts.Workers,
		// Histograms only — no event ring: shard applies run in parallel,
		// so the pool derives shard events itself in its serialized
		// phases (see Options.Telemetry).
		Telemetry: p.opts.Telemetry,
	})
	slot.up = true
	slot.health = slot.mt.Health()
}

// Apply routes one batch of global-slab edge updates through the pool:
// supervisor events (scheduled kills, due restarts) and routing under
// the mirror lock, concurrent per-shard commits with no pool-wide lock,
// then the serialized barrier — health supervision, recomposition and,
// when due, the conflict audit — which publishes the read snapshot.
// Apply is atomic per shard: each shard sees its restriction of the
// batch, in batch order, as one local Apply. Panics ErrClosed on a
// closed pool.
func (p *Pool) Apply(b dynamic.Batch) Report {
	return p.apply("", 0, b)
}

// ApplySeq is Apply with exactly-once semantics per client: seq is the
// client's batch sequence number, echoed in Report.Seq. A sequence at or
// below the client's last committed one is NOT re-applied — the cached
// Report of the last commit returns with Duplicate set — so a client
// that times out mid-request can retry the same (client, seq) without
// double-applying. Each client may have at most one batch outstanding:
// retries must reuse the sequence number of the unacknowledged batch.
func (p *Pool) ApplySeq(client string, seq uint64, b dynamic.Batch) Report {
	return p.apply(client, seq, b)
}

func (p *Pool) apply(client string, seq uint64, b dynamic.Batch) Report {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if p.closed.Load() {
		panic(ErrClosed)
	}
	if client != "" {
		if rec, ok := p.clients[client]; ok && seq <= rec.seq {
			rep := rec.rep
			rep.Duplicate = true
			return rep
		}
	}
	var t0, t1 time.Time
	if p.tel != nil {
		t0 = time.Now()
	}

	// Phase 1 — routing critical section: slot bookkeeping, supervisor
	// events, mirror update and the batch split, under the mirror lock.
	p.mu.Lock()
	step := p.step
	p.step++
	p.totals.Applies++
	rep := Report{Step: step, Seq: seq}
	p.supervise(step, &rep)
	p.route(b, &rep)
	jobs := 0
	for _, slot := range p.shards {
		if slot.up {
			jobs++
		}
	}
	p.mu.Unlock()
	if p.tel != nil {
		t1 = time.Now()
		p.tel.routeNS.Observe(t1.Sub(t0).Nanoseconds())
	}
	if p.testHookCommit != nil {
		p.testHookCommit()
	}

	// Phase 2 — concurrent commits: every up shard applies its local
	// batch with no pool-wide lock held. applyMu keeps the slots (and
	// every other mutator) out; readers see the previous snapshot.
	crashed, reps := p.commitShards(jobs)
	if p.tel != nil {
		t2 := time.Now()
		p.tel.commitNS.Observe(t2.Sub(t1).Nanoseconds())
		t1 = t2
	}

	// Phase 3 — the barrier: serialized observation in shard order
	// (events replay deterministically), incremental recompose, the
	// conflict audit when due, and the snapshot publish.
	p.mu.Lock()
	p.observeHealth(crashed, reps, step, &rep)
	p.recompose(&rep)
	p.maybeAudit(&rep)
	rep.Healths, rep.Down = p.healthsLocked()
	rep.Degraded = p.degradedLocked()
	p.publishLocked()
	if p.tel != nil {
		p.tel.routed.Add(int64(rep.Routed))
		p.tel.crossing.Add(int64(rep.Crossing))
		p.tel.deferred.Add(int64(rep.Deferred))
		p.updateGauges()
		p.tel.barrierNS.ObserveSince(t1)
		p.tel.applyNS.ObserveSince(t0)
	}
	p.mu.Unlock()

	if client != "" {
		p.clients[client] = &clientRec{seq: seq, rep: rep}
	}
	return rep
}

// route validates the batch, applies every update to the pool's
// authoritative mirror (liveness, resolver weights, composed-matching
// scrub on deletes) and appends the shard-owned updates to their up
// shard's local batch, in order. Liveness changes and freed endpoints
// mark the affected crossing edges dirty for this slot's resolution
// pass.
func (p *Pool) route(b dynamic.Batch, rep *Report) {
	for _, u := range b {
		if u.Edge < 0 || u.Edge >= p.g.M() {
			panic(fmt.Sprintf("shard: update on edge %d outside slab [0,%d)", u.Edge, p.g.M()))
		}
		if u.Op > dynamic.SetWeight {
			panic(fmt.Sprintf("shard: unknown op %d", u.Op))
		}
	}
	for _, slot := range p.shards {
		slot.batch = slot.batch[:0]
	}
	for _, u := range b {
		e := u.Edge
		switch u.Op {
		case dynamic.Insert:
			if u.Weight != 0 {
				p.resolver.SetEdgeWeight(e, u.Weight)
			}
			if !p.live[e] {
				p.live[e] = true
				p.resolver.SetEdgeLive(e, true)
				p.certified = false
				if p.edgeShard[e] < 0 {
					p.markCross(int32(e))
				}
			}
		case dynamic.Delete:
			if p.live[e] {
				p.live[e] = false
				p.resolver.SetEdgeLive(e, false)
				p.certified = false
				if p.edgeShard[e] < 0 {
					p.markCross(int32(e))
				}
				x, y := p.g.Endpoints(e)
				if p.gmatch[x] == int32(e) {
					// The composed matching must stay valid on the
					// surviving live subgraph even when the owner is down:
					// a deleted edge leaves it immediately. The endpoints
					// it frees may unlock crossing matches.
					if p.edgeShard[e] < 0 {
						p.crossMatched--
					}
					p.gmatch[x], p.gmatch[y] = -1, -1
					p.markNodeCross(x)
					p.markNodeCross(y)
				}
			}
		case dynamic.SetWeight:
			p.resolver.SetEdgeWeight(e, u.Weight)
		}
		s := p.edgeShard[e]
		switch {
		case s < 0:
			rep.Crossing++
			p.totals.Crossing++
		case p.shards[s].up:
			p.shards[s].batch = append(p.shards[s].batch,
				dynamic.Update{Edge: int(p.localEdge[e]), Op: u.Op, Weight: u.Weight})
			rep.Routed++
			p.totals.Routed++
		default:
			// Owner is down: the mirror above is the only record; the
			// rebuild replays it through Restore.
			rep.Deferred++
			p.totals.Deferred++
		}
	}
}

// commitShards runs every up shard's local batch — through the per-shard
// pipelines (concurrently, no pool lock) or inline in ascending shard
// order under Options.Serial — and reports which shards were lost to a
// panic, plus each survivor's ApplyReport (the raw material the barrier
// replays into shard events, in shard order). Every up shard applies
// even an empty batch: that is what advances its audit cadence and its
// recovery ladder. The maintainers share no state, so the concurrent
// phase is deterministic; slot.mt and slot.batch are stable here because
// applyMu excludes every other mutator.
func (p *Pool) commitShards(jobs int) ([]bool, []dynamic.ApplyReport) {
	crashed := make([]bool, len(p.shards))
	reps := make([]dynamic.ApplyReport, len(p.shards))
	if p.opts.Serial {
		for _, slot := range p.shards {
			if !slot.up {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						crashed[slot.id] = true
					}
				}()
				reps[slot.id] = slot.mt.Apply(slot.batch)
			}()
		}
		return crashed, reps
	}
	if p.tel != nil {
		p.tel.queueDepth.Set(int64(jobs))
	}
	var wg sync.WaitGroup
	for _, slot := range p.shards {
		if !slot.up {
			continue
		}
		wg.Add(1)
		slot.work <- shardJob{
			mt:      slot.mt,
			batch:   slot.batch,
			rep:     &reps[slot.id],
			crashed: &crashed[slot.id],
			wg:      &wg,
		}
	}
	wg.Wait()
	if p.tel != nil {
		p.tel.queueDepth.Set(0)
	}
	return crashed, reps
}

// observeHealth is the supervisor's consumption of each surviving
// shard's Health: an illegal observable transition (Degraded→Healthy —
// a shard that skipped certification) marks the shard corrupt, and both
// corrupt and panicked shards are killed for rebuild. Shards whose
// served matching may have changed (ApplyReport.Changed) are marked for
// the incremental recompose.
func (p *Pool) observeHealth(crashed []bool, reps []dynamic.ApplyReport, step int, rep *Report) {
	for s, slot := range p.shards {
		if !slot.up {
			continue
		}
		lost := crashed[s]
		if !lost {
			p.emitShardReport(step, int32(s), reps[s])
			if reps[s].Changed {
				slot.dirty = true
			}
			h := slot.mt.Health()
			if !dynamic.ValidTransition(slot.health, h) {
				lost = true
			} else {
				if h != slot.health {
					p.emit(step, telemetry.EventHealth, int32(s), int64(slot.health), int64(h))
				}
				slot.health = h
				// The backoff resets only after the shard completes a full
				// Apply slot Healthy — the restart slot itself does not
				// count, so a shard that keeps dying right after its
				// rebuild still walks the capped exponential schedule.
				if h == dynamic.Healthy && slot.rebuiltAt != step {
					slot.backoff = p.opts.RestartBackoff
				}
			}
		}
		if lost {
			p.totals.Crashes++
			rep.Crashed = append(rep.Crashed, s)
			p.emit(step, telemetry.EventShardCrash, int32(s), 0, 0)
			p.downLocked(slot, step)
		}
	}
}

// publishLocked composes the read snapshot from the mirror and stores it
// atomically — the only hand-off between the write path and the
// lock-free readers. Callers hold p.mu.
func (p *Pool) publishLocked() {
	s := &poolSnap{
		matching:  graph.CollectMatching(p.g, p.gmatch),
		step:      p.step,
		certified: p.certified,
		healths:   make([]dynamic.Health, len(p.shards)),
		downMask:  make([]bool, len(p.shards)),
	}
	for i, slot := range p.shards {
		s.healths[i], s.downMask[i] = slot.health, !slot.up
		if !slot.up {
			s.down = append(s.down, i)
		} else if slot.health == dynamic.Degraded {
			s.stale = append(s.stale, i)
		}
	}
	s.degraded = len(s.down) > 0 || len(s.stale) > 0
	p.snap.Store(s)
}

// Matching returns the composed global matching — always valid on the
// live subgraph. It reads the atomically-published snapshot: never
// blocked by an in-flight Apply or audit, never torn. Panics ErrClosed
// on a closed pool.
func (p *Pool) Matching() *graph.Matching {
	if p.closed.Load() {
		panic(ErrClosed)
	}
	return p.snap.Load().matching
}

// Query answers one serving request: the composed matching plus the
// explicit partiality/staleness flags — the pool degrades, it does not
// fail. Like Matching it serves the last published snapshot with no
// locks; all fields are consistent with each other (one barrier's view).
// Panics ErrClosed on a closed pool.
func (p *Pool) Query() Response {
	if p.closed.Load() {
		panic(ErrClosed)
	}
	s := p.snap.Load()
	return Response{
		Matching:  s.matching,
		Certified: s.certified,
		Step:      s.step,
		Degraded:  s.degraded,
		Down:      s.down,
		Stale:     s.stale,
	}
}

// Status reports every shard's supervisor state.
func (p *Pool) Status() []ShardStatus {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]ShardStatus, len(p.shards))
	for s, slot := range p.shards {
		out[s] = ShardStatus{
			Health:        slot.health,
			Up:            slot.up,
			Restarts:      slot.restarts,
			Backoff:       slot.backoff,
			WakeAt:        slot.wakeAt,
			Nodes:         len(slot.nodes),
			InternalEdges: len(slot.edges),
		}
	}
	return out
}

// Totals returns the pool's lifetime cost counters.
func (p *Pool) Totals() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.totals
}

// Shards returns the shard count S.
func (p *Pool) Shards() int { return len(p.shards) }

// Owner returns the shard owning node v.
func (p *Pool) Owner(v int) int { return int(p.owner[v]) }

// EdgeShard returns the shard owning edge e, or -1 for a crossing edge.
func (p *Pool) EdgeShard(e int) int { return int(p.edgeShard[e]) }

// Live reports edge e's liveness in the pool's authoritative mirror.
func (p *Pool) Live(e int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.live[e]
}

// InjectShardFaults arms (or, with nil, disarms) a fault plan on shard
// s's Maintainer. The plan addresses the shard's local node and edge
// ids (the sub-slab returned by SubGraph). Errors if the shard is down
// or the pool closed; a rebuilt shard comes back unarmed.
func (p *Pool) InjectShardFaults(s int, plan *dist.FaultPlan) error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if p.closed.Load() {
		return ErrClosed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s < 0 || s >= len(p.shards) {
		return fmt.Errorf("shard: no shard %d", s)
	}
	if !p.shards[s].up {
		return fmt.Errorf("shard: shard %d is down", s)
	}
	p.shards[s].mt.InjectFaults(plan)
	armed := int64(0)
	if plan != nil {
		armed = 1
	}
	p.emit(p.step, telemetry.EventFaultInject, int32(s), armed, 0)
	return nil
}

// SubGraph returns shard s's immutable sub-slab (for building local
// fault plans and inspecting the partition).
func (p *Pool) SubGraph(s int) *graph.Graph { return p.shards[s].sub }

// Graph returns the pool's global slab.
func (p *Pool) Graph() *graph.Graph { return p.g }

// healthsLocked snapshots per-shard health and down flags.
func (p *Pool) healthsLocked() ([]dynamic.Health, []bool) {
	hs := make([]dynamic.Health, len(p.shards))
	down := make([]bool, len(p.shards))
	for s, slot := range p.shards {
		hs[s], down[s] = slot.health, !slot.up
	}
	return hs, down
}

// degradedLocked reports whether responses may be partial or stale: a
// down shard freezes its nodes, a Degraded-health shard serves its
// last-good snapshot. Recovering does not degrade the pool — a
// Recovering shard serves its own current matching (after an adopt
// push-back, one the pool's own certificate just covered); it is merely
// uncertified at shard level until its next audit.
func (p *Pool) degradedLocked() bool {
	for _, slot := range p.shards {
		if !slot.up || slot.health == dynamic.Degraded {
			return true
		}
	}
	return false
}

func (p *Pool) nextSeed() uint64 {
	p.runCtr++
	return rng.ForkSeed(p.seedBase, p.runCtr)
}

// Close shuts down every shard Maintainer, the resolver and the commit
// pipelines. Idempotent; every later mutator or query fails ErrClosed.
func (p *Pool) Close() {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, slot := range p.shards {
		if slot.up {
			slot.mt.Close()
			slot.mt = nil
			slot.up = false
		}
		if slot.work != nil {
			close(slot.work)
			slot.work = nil
		}
	}
	p.resolver.Close()
}
