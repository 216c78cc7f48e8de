package shard

import (
	"fmt"
	"sort"

	"distmatch/internal/dynamic"
	"distmatch/internal/telemetry"
)

// KillKind is the kind of one scheduled supervisor event.
type KillKind uint8

const (
	// Kill takes the shard down at its step: the Maintainer is closed
	// (its Runner's slabs recycle through the process-wide pool) and an
	// auto-restart is scheduled after the shard's current backoff.
	Kill KillKind = iota
	// Restart forces an immediate cold rebuild at its step — of a down
	// shard (overriding the pending backoff) or of an up one (a rolling
	// restart).
	Restart
)

func (k KillKind) String() string {
	if k == Kill {
		return "kill"
	}
	return "restart"
}

// KillEvent schedules one supervisor action: at the Step-th Apply after
// the plan's installation (0-based), act on Shard.
type KillEvent struct {
	Step  int
	Shard int
	Kind  KillKind
}

// KillPlan is a deterministic shard-kill/restart schedule, the shard-
// granular analogue of dist.FaultPlan: same pool seed, same updates,
// same plan — bit-identical history. Events fire at the start of their
// Apply slot, before routing, so a kill at step t means the step-t batch
// already finds the shard down ("mid-batch" from the caller's view).
type KillPlan struct {
	events []KillEvent
}

// NewKillPlan validates and sorts the events (stably, by step).
func NewKillPlan(events []KillEvent) *KillPlan {
	for _, ev := range events {
		if ev.Step < 0 {
			panic(fmt.Sprintf("shard: KillEvent at negative step %d", ev.Step))
		}
		if ev.Kind > Restart {
			panic(fmt.Sprintf("shard: unknown KillKind %d", ev.Kind))
		}
	}
	sorted := append([]KillEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Step < sorted[j].Step })
	return &KillPlan{events: sorted}
}

// SetKillPlan installs (or, with nil, removes) a kill schedule. Event
// steps count Applies from the installation point.
func (p *Pool) SetKillPlan(plan *KillPlan) {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan != nil {
		for _, ev := range plan.events {
			if ev.Shard < 0 || ev.Shard >= len(p.shards) {
				panic(fmt.Sprintf("shard: KillEvent on shard %d of %d", ev.Shard, len(p.shards)))
			}
		}
	}
	p.killPlan = plan
	p.killIdx = 0
	p.killBase = p.step
}

// supervise runs the slot's scheduled events and due auto-restarts. It
// fires at the top of Apply: kills land before routing (the current
// batch sees the shard down and is deferred to the mirror), restarts
// rebuild before routing (the current batch reaches the fresh shard).
func (p *Pool) supervise(step int, rep *Report) {
	if p.killPlan != nil {
		rel := step - p.killBase
		for p.killIdx < len(p.killPlan.events) && p.killPlan.events[p.killIdx].Step <= rel {
			ev := p.killPlan.events[p.killIdx]
			p.killIdx++
			if ev.Step < rel {
				continue // installed past it; never fire late
			}
			slot := p.shards[ev.Shard]
			switch ev.Kind {
			case Kill:
				if slot.up {
					p.totals.Kills++
					rep.Killed = append(rep.Killed, ev.Shard)
					p.downLocked(slot, step)
				}
			case Restart:
				if slot.up {
					p.closeSlot(slot)
				}
				p.rebuildLocked(slot, step)
				rep.Restarted = append(rep.Restarted, ev.Shard)
			}
		}
	}
	for s, slot := range p.shards {
		if !slot.up && slot.wakeAt <= step {
			p.rebuildLocked(slot, step)
			rep.Restarted = append(rep.Restarted, s)
		}
	}
}

// downLocked takes a shard out of service: the Maintainer is closed
// (recycling its engine slabs) and an auto-restart is scheduled after
// the shard's current backoff, which then doubles up to the cap —
// capped exponential backoff counted in Apply slots, so a shard that
// keeps dying backs off deterministically. The backoff resets to its
// base the next time the shard is observed Healthy. The shard's nodes
// keep their entries in the composed matching, frozen (and scrubbed on
// delete) until the rebuild.
func (p *Pool) downLocked(slot *shardSlot, step int) {
	if !slot.up {
		return
	}
	p.closeSlot(slot)
	slot.wakeAt = step + slot.backoff
	p.emit(step, telemetry.EventShardKill, int32(slot.id), int64(slot.backoff), 0)
	old := slot.backoff
	slot.backoff = min(2*slot.backoff, p.opts.MaxBackoff)
	if slot.backoff != old {
		p.emit(step, telemetry.EventShardBackoff, int32(slot.id), int64(slot.backoff), 0)
	}
}

func (p *Pool) closeSlot(slot *shardSlot) {
	slot.mt.Close()
	slot.mt = nil
	slot.up = false
}

// rebuildLocked cold-rebuilds a shard from the pool's authoritative
// mirror: a fresh Maintainer (fresh seed fork, empty slab) restored with
// the shard's restriction of global liveness, weights and the composed
// matching, with its crossing-matched nodes pinned. The shard comes back
// Recovering — serving immediately, certified only by its own next audit.
func (p *Pool) rebuildLocked(slot *shardSlot, step int) {
	slot.restarts++
	slot.rebuiltAt = step
	p.totals.Restarts++
	p.spawn(slot, true)
	live := make([]bool, slot.sub.M())
	weights := make([]float64, slot.sub.M())
	for le, ge := range slot.edges {
		live[le] = p.live[ge]
		weights[le] = p.resolver.EdgeWeight(int(ge))
	}
	matched := make([]int32, slot.sub.N())
	for lv := range matched {
		matched[lv] = -1
	}
	for lv, gv := range slot.nodes {
		if ge := p.gmatch[gv]; ge >= 0 && p.edgeShard[ge] == int32(slot.id) {
			matched[lv] = p.localEdge[ge]
		}
	}
	if err := slot.mt.Restore(live, weights, matched); err != nil {
		// The mirror is the pool's own invariant; failing to restore from
		// it is a bug, not a runtime condition.
		panic(fmt.Sprintf("shard: rebuild of shard %d from the pool mirror failed: %v", slot.id, err))
	}
	p.syncPins(slot, nil)
	slot.dirty = true
	pre := slot.health
	slot.health = slot.mt.Health()
	p.emit(step, telemetry.EventShardRestart, int32(slot.id), int64(slot.restarts), 0)
	if slot.health != pre {
		p.emit(step, telemetry.EventHealth, int32(slot.id), int64(pre), int64(slot.health))
	}
}

// KillShard takes shard s down now (the distmatchd kill endpoint and the
// chaos harness's manual lever). The shard auto-restarts after its
// backoff, counted in Apply slots.
func (p *Pool) KillShard(s int) error {
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
	slot := p.shards[s]
	if !slot.up {
		return fmt.Errorf("shard: shard %d already down", s)
	}
	p.totals.Kills++
	p.downLocked(slot, p.step)
	p.publishLocked()
	p.updateGauges()
	return nil
}

// RestartShard force-rebuilds shard s now: a down shard skips the rest
// of its backoff, an up shard goes through a rolling cold rebuild.
func (p *Pool) RestartShard(s int) error {
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
	slot := p.shards[s]
	if slot.up {
		p.closeSlot(slot)
	}
	p.rebuildLocked(slot, p.step)
	p.publishLocked()
	p.updateGauges()
	return nil
}

// Healths returns every shard's last observed health (frozen for down
// shards; see Status for the up/down split).
func (p *Pool) Healths() []dynamic.Health {
	p.mu.RLock()
	defer p.mu.RUnlock()
	hs, _ := p.healthsLocked()
	return hs
}
