// Package telemetry is the zero-dependency instrumentation layer of the
// serving stack: atomic counters and gauges, log-bucketed latency
// histograms with percentile extraction, and a fixed-capacity structured
// event ring, exposed together through a Prometheus text exposition
// (WritePrometheus) and a JSON event tail (Events.Tail).
//
// The design is split along the two jobs observability has here:
//
//   - Metrics (Counter, Gauge, Histogram) measure the nondeterministic
//     physical world — wall-clock latencies, request rates, process-wide
//     engine throughput. They are lock-free on the hot path (one atomic
//     add per update) and safe for any number of concurrent writers and
//     readers.
//
//   - Events record the deterministic logical world — health transitions,
//     audit verdicts, warm/cold repairs, shard kills and restarts, fault
//     injections, crossing-edge resolutions — stamped with the emitting
//     layer's slot/step clock, never wall time. A seeded chaos schedule
//     therefore replays with a bit-identical event stream across engine
//     worker counts (chaos.RunShards asserts exactly this),
//     which makes the trace itself a correctness artifact, not just a
//     debugging aid.
//
// Every handle type is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram or *Events are no-ops, and a nil *Registry hands out nil
// handles. A component therefore resolves its handles once at
// construction and instruments unconditionally; with telemetry disabled
// the instrumentation compiles down to a nil check per site, which is
// what keeps it off the engine's hot path (the telemetry_overhead bench
// group pins the enabled cost under 2% on the flat-engine sweep).
package telemetry

import (
	"sort"
	"strings"
	"sync"
)

// Options configures a Registry.
type Options struct {
	// EventCapacity is the event ring's fixed capacity; once full, new
	// events overwrite the oldest. 0 means the default 1024; negative
	// disables the ring (Events() returns nil, appends are no-ops).
	EventCapacity int
}

// Registry is one process's (or one test's) instrument namespace: a set
// of named metric families plus an event ring. All methods are safe for
// concurrent use; metric constructors are idempotent, so every component
// asking for the same name shares one handle.
//
// Metric names follow the Prometheus data model, optionally carrying a
// fixed label set inline: `distmatch_http_requests_total{route="/v1/apply",code="200"}`
// is one series of the `distmatch_http_requests_total` family. The part
// before the first '{' groups series into families for the # HELP/# TYPE
// exposition header; the help string of the first registration wins.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families []string          // family order = first-registration order
	byFamily map[string][]name // series per family, insertion order
	help     map[string]string
	kind     map[string]byte // 'c', 'g', 'h'
	events   *Events
}

type name struct{ full string }

// New builds a Registry.
func New(o Options) *Registry {
	cap := o.EventCapacity
	if cap == 0 {
		cap = 1024
	}
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		byFamily: make(map[string][]name),
		help:     make(map[string]string),
		kind:     make(map[string]byte),
	}
	if cap > 0 {
		r.events = newEvents(cap)
	}
	return r
}

// familyOf returns the family name: everything before the first '{'.
func familyOf(full string) string {
	if i := strings.IndexByte(full, '{'); i >= 0 {
		return full[:i]
	}
	return full
}

// register records a series under its family the first time it appears.
// Callers hold r.mu.
func (r *Registry) register(full, help string, kind byte) {
	fam := familyOf(full)
	if _, ok := r.kind[fam]; !ok {
		r.kind[fam] = kind
		r.help[fam] = help
		r.families = append(r.families, fam)
	} else if r.kind[fam] != kind {
		panic("telemetry: family " + fam + " registered with two metric kinds")
	}
	r.byFamily[fam] = append(r.byFamily[fam], name{full})
}

// Counter returns the counter registered under full (creating it on
// first use). Nil registries return a nil handle, whose methods no-op.
func (r *Registry) Counter(full, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[full]; ok {
		return c
	}
	c := &Counter{}
	r.counters[full] = c
	r.register(full, help, 'c')
	return c
}

// Gauge returns the gauge registered under full (creating it on first
// use). Nil registries return a nil handle.
func (r *Registry) Gauge(full, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[full]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[full] = g
	r.register(full, help, 'g')
	return g
}

// Histogram returns the histogram registered under full (creating it on
// first use). Nil registries return a nil handle.
func (r *Registry) Histogram(full, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[full]; ok {
		return h
	}
	h := newHistogram()
	r.hists[full] = h
	r.register(full, help, 'h')
	return h
}

// Events returns the registry's event ring (nil when the registry is nil
// or the ring is disabled). The ring's methods are nil-safe too, so
// callers may hold and use the result unconditionally.
func (r *Registry) Events() *Events {
	if r == nil {
		return nil
	}
	return r.events
}

// snapshot returns the families in registration order with their series
// sorted lexicographically within each family (labels vary, the reader
// wants a stable listing).
func (r *Registry) snapshot() []familySnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familySnap, 0, len(r.families))
	for _, fam := range r.families {
		fs := familySnap{name: fam, help: r.help[fam], kind: r.kind[fam]}
		series := append([]name(nil), r.byFamily[fam]...)
		sort.Slice(series, func(i, j int) bool { return series[i].full < series[j].full })
		for _, s := range series {
			switch fs.kind {
			case 'c':
				fs.series = append(fs.series, seriesSnap{full: s.full, counter: r.counters[s.full]})
			case 'g':
				fs.series = append(fs.series, seriesSnap{full: s.full, gauge: r.gauges[s.full]})
			case 'h':
				fs.series = append(fs.series, seriesSnap{full: s.full, hist: r.hists[s.full]})
			}
		}
		out = append(out, fs)
	}
	return out
}

type familySnap struct {
	name, help string
	kind       byte
	series     []seriesSnap
}

type seriesSnap struct {
	full    string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}
