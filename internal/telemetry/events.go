package telemetry

import (
	"fmt"
	"sync"
)

// EventKind is the type of one structured trace record.
type EventKind uint8

const (
	// EventHealth is a maintainer health transition: A = from, B = to
	// (the dynamic.Health values).
	EventHealth EventKind = iota
	// EventAuditPass / EventAuditFail are certificate-audit verdicts:
	// A = engine rounds the audit cost, B = engine messages — both
	// deterministic, so the per-slot audit cost is part of the replayable
	// trace (the always-on-certification work item reads it from here).
	// A Maintainer's audit pays for its distributed probe; a pool epoch
	// probes sequentially, so its cost is the conflict repair alone.
	EventAuditPass
	EventAuditFail
	// EventRepairWarm is a full-graph repair warm-started from the current
	// matching; EventRepairCold discarded the matching first. A = nodes
	// the repair swept.
	EventRepairWarm
	EventRepairCold
	// EventEscalation is one recovery-ladder escalation: A = the ladder
	// level that was exhausted (0 regional, 1 warm full, 2 cold), B = the
	// faults absorbed this step so far.
	EventEscalation
	// EventShardKill: shard taken down. A = the restart backoff charged,
	// in Apply slots.
	EventShardKill
	// EventShardRestart: shard rebuilt. A = the shard's completed rebuild
	// count.
	EventShardRestart
	// EventShardBackoff: a killed shard's next-restart backoff doubled.
	// A = the new backoff, in Apply slots.
	EventShardBackoff
	// EventShardCrash: shard lost to a panic or an illegal health
	// transition during an Apply.
	EventShardCrash
	// EventFaultInject: a fault plan armed (A=1) or disarmed (A=0) on the
	// scoped maintainer.
	EventFaultInject
	// EventCrossing: the pool's greedy pass matched A new crossing edges
	// this slot.
	EventCrossing
	// EventAdopt: the pool pushed a repaired restriction back into the
	// scoped shard.
	EventAdopt
)

func (k EventKind) String() string {
	switch k {
	case EventHealth:
		return "health"
	case EventAuditPass:
		return "audit_pass"
	case EventAuditFail:
		return "audit_fail"
	case EventRepairWarm:
		return "repair_warm"
	case EventRepairCold:
		return "repair_cold"
	case EventEscalation:
		return "escalation"
	case EventShardKill:
		return "shard_kill"
	case EventShardRestart:
		return "shard_restart"
	case EventShardBackoff:
		return "shard_backoff"
	case EventShardCrash:
		return "shard_crash"
	case EventFaultInject:
		return "fault_inject"
	case EventCrossing:
		return "crossing"
	case EventAdopt:
		return "adopt"
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Event is one structured trace record. Slot is the emitting layer's
// deterministic step clock (a Pool's Apply slot, a standalone
// Maintainer's Apply count) — never wall time — so seeded schedules
// replay with bit-identical traces across worker counts.
// Shard scopes the event (-1 = pool/global). A and B are kind-specific
// payloads; see the EventKind constants.
type Event struct {
	Seq   uint64    `json:"seq"`
	Slot  int64     `json:"slot"`
	Kind  EventKind `json:"-"`
	Shard int32     `json:"shard"`
	A     int64     `json:"a"`
	B     int64     `json:"b"`
}

// String renders the record deterministically — the form the chaos
// harness compares across replays and worker counts.
func (e Event) String() string {
	return fmt.Sprintf("slot=%d shard=%d %s a=%d b=%d", e.Slot, e.Shard, e.Kind, e.A, e.B)
}

// Events is a fixed-capacity ring of trace records. Appends assign
// sequence numbers in arrival order and overwrite the oldest record once
// full. Appends are expected from serialized emission points (a Pool's
// or Maintainer's write-locked phases) so trace order is deterministic;
// the ring itself is nevertheless mutex-guarded, so stray concurrent
// appends are safe, merely unordered. A nil *Events no-ops everywhere.
type Events struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total appends; buf[(next-1) % cap] is the newest
}

func newEvents(capacity int) *Events {
	return &Events{buf: make([]Event, 0, capacity)}
}

// Append records one event, stamping its sequence number (no-op on nil).
func (ev *Events) Append(e Event) {
	if ev == nil {
		return
	}
	ev.mu.Lock()
	e.Seq = ev.next
	if len(ev.buf) < cap(ev.buf) {
		ev.buf = append(ev.buf, e)
	} else {
		ev.buf[int(ev.next)%cap(ev.buf)] = e
	}
	ev.next++
	ev.mu.Unlock()
}

// Len returns the number of records currently held (≤ capacity).
func (ev *Events) Len() int {
	if ev == nil {
		return 0
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return len(ev.buf)
}

// Total returns the number of records ever appended (Seq of the next
// append).
func (ev *Events) Total() uint64 {
	if ev == nil {
		return 0
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.next
}

// Tail returns the newest n records in append order (all of them when
// n <= 0 or n exceeds the ring). The result is a copy.
func (ev *Events) Tail(n int) []Event {
	if ev == nil {
		return nil
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	held := len(ev.buf)
	if n <= 0 || n > held {
		n = held
	}
	out := make([]Event, 0, n)
	for i := held - n; i < held; i++ {
		out = append(out, ev.buf[(int(ev.next)+i-held+cap(ev.buf))%cap(ev.buf)])
	}
	return out
}

// Strings renders every held record in append order — the deterministic
// trace form chaos results carry.
func (ev *Events) Strings() []string {
	records := ev.Tail(0)
	out := make([]string, len(records))
	for i, e := range records {
		out[i] = e.String()
	}
	return out
}
