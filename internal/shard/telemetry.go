package shard

import (
	"fmt"

	"distmatch/internal/dynamic"
	"distmatch/internal/telemetry"
)

// poolTel is the Pool's metric handle set, resolved once in New from
// Options.Telemetry. nil when telemetry is disabled — every site guards
// on it, so the disabled cost is one branch per phase.
//
// Determinism contract: the pool is the only writer of shard-scoped
// trace events. Shard Maintainers run their applies in parallel
// goroutines, so they get the registry's histograms (atomics — order
// never observable) but a nil event ring; the pool replays what happened
// from the captured ApplyReports and observed health in its serialized
// phases, in shard order. Every event is stamped with the Apply slot —
// the pool's deterministic step clock — never wall time.
type poolTel struct {
	events *telemetry.Events

	applyNS   *telemetry.Histogram
	routeNS   *telemetry.Histogram // phase 1: the routing critical section
	commitNS  *telemetry.Histogram // phase 2: the concurrent per-shard commits
	barrierNS *telemetry.Histogram // phase 3: observe + recompose + audit + publish

	routed          *telemetry.Counter
	crossing        *telemetry.Counter
	deferred        *telemetry.Counter
	crossingMatched *telemetry.Counter
	crossingScanned *telemetry.Counter // dirty crossing edges examined by resolution passes
	crossingCarried *telemetry.Counter // dirty crossing edges deferred to the next slot
	resolverRounds  *telemetry.Counter
	resolverMsgs    *telemetry.Counter
	repairNodes     *telemetry.Counter // witness-region nodes of conflict repairs
	fullRepairs     *telemetry.Counter // warm full repairs after a failed re-probe
	epochs          *telemetry.Counter // stop-the-world audit epochs executed

	step       *telemetry.Gauge
	degraded   *telemetry.Gauge
	certified  *telemetry.Gauge
	queueDepth *telemetry.Gauge // shard commits in flight on the pipelines

	// Per-shard gauges, indexed by shard id (labels-in-name series).
	up       []*telemetry.Gauge
	health   []*telemetry.Gauge
	backoff  []*telemetry.Gauge
	restarts []*telemetry.Gauge
}

func newPoolTel(reg *telemetry.Registry, shards int) *poolTel {
	if reg == nil {
		return nil
	}
	t := &poolTel{
		events:          reg.Events(),
		applyNS:         reg.Histogram("pool_apply_ns", "wall-clock duration of one Pool.Apply"),
		routeNS:         reg.Histogram("pool_route_ns", "wall-clock duration of the routing critical section"),
		commitNS:        reg.Histogram("pool_commit_ns", "wall-clock duration of the concurrent shard-commit phase"),
		barrierNS:       reg.Histogram("pool_barrier_ns", "wall-clock duration of the recompose/audit barrier"),
		routed:          reg.Counter("pool_updates_routed_total", "updates routed to up shards"),
		crossing:        reg.Counter("pool_updates_crossing_total", "updates touching pool-owned crossing edges"),
		deferred:        reg.Counter("pool_updates_deferred_total", "updates deferred to the mirror (owner down)"),
		crossingMatched: reg.Counter("pool_crossing_matched_total", "crossing matches added by greedy resolution"),
		crossingScanned: reg.Counter("pool_crossing_scanned_total", "dirty crossing edges examined by resolution passes"),
		crossingCarried: reg.Counter("pool_crossing_carried_total", "dirty crossing edges deferred to the next slot"),
		resolverRounds:  reg.Counter("pool_resolver_rounds_total", "resolver engine rounds (conflict repairs)"),
		resolverMsgs:    reg.Counter("pool_resolver_messages_total", "resolver engine messages (conflict repairs)"),
		repairNodes:     reg.Counter("pool_repair_nodes_total", "nodes in witness-region conflict repairs"),
		fullRepairs:     reg.Counter("pool_full_repairs_total", "warm full conflict repairs after a failed re-probe"),
		epochs:          reg.Counter("pool_epochs_total", "stop-the-world audit epochs executed"),
		step:            reg.Gauge("pool_step", "Apply slots executed"),
		degraded:        reg.Gauge("pool_degraded", "1 while responses may be partial or stale"),
		certified:       reg.Gauge("pool_certified", "1 while the composed matching is conflict-audited"),
		queueDepth:      reg.Gauge("pool_apply_queue_depth", "shard commits in flight on the per-shard pipelines"),
	}
	for s := 0; s < shards; s++ {
		t.up = append(t.up, reg.Gauge(fmt.Sprintf(`shard_up{shard="%d"}`, s), "1 while the shard serves"))
		t.health = append(t.health, reg.Gauge(fmt.Sprintf(`shard_health{shard="%d"}`, s), "last observed health (0 healthy, 1 degraded, 2 recovering)"))
		t.backoff = append(t.backoff, reg.Gauge(fmt.Sprintf(`shard_backoff_slots{shard="%d"}`, s), "next restart delay in Apply slots"))
		t.restarts = append(t.restarts, reg.Gauge(fmt.Sprintf(`shard_restarts{shard="%d"}`, s), "completed rebuilds"))
	}
	return t
}

// emit appends one trace record stamped with the given Apply slot.
// Callers hold the pool's write lock; no-op when telemetry is disabled.
func (p *Pool) emit(step int, kind telemetry.EventKind, shard int32, a, b int64) {
	if p.tel == nil {
		return
	}
	p.tel.events.Append(telemetry.Event{
		Slot:  int64(step),
		Kind:  kind,
		Shard: shard,
		A:     a,
		B:     b,
	})
}

// emitShardReport derives shard-scoped trace records from one captured
// ApplyReport — the serialized replay of what the parallel apply did.
func (p *Pool) emitShardReport(step int, s int32, r dynamic.ApplyReport) {
	if p.tel == nil {
		return
	}
	if r.RecoveryLevel > 0 || r.Faults > 0 {
		p.emit(step, telemetry.EventEscalation, s, int64(r.RecoveryLevel), int64(r.Faults))
	}
	if r.Audited {
		kind := telemetry.EventAuditFail
		if r.CertificateOK {
			kind = telemetry.EventAuditPass
		}
		p.emit(step, kind, s, r.AuditRounds, r.AuditMessages)
	}
}

// updateGauges refreshes the pool- and shard-level gauges from the
// supervisor state. Callers hold the write lock.
func (p *Pool) updateGauges() {
	if p.tel == nil {
		return
	}
	p.tel.step.Set(int64(p.step))
	p.tel.degraded.Set(b2i(p.degradedLocked()))
	p.tel.certified.Set(b2i(p.certified))
	for s, slot := range p.shards {
		p.tel.up[s].Set(b2i(slot.up))
		p.tel.health[s].Set(int64(slot.health))
		p.tel.backoff[s].Set(int64(slot.backoff))
		p.tel.restarts[s].Set(int64(slot.restarts))
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
