package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
	"distmatch/internal/telemetry"
)

func TestQuantileNearestRank(t *testing.T) {
	var d samples
	for v := int64(100); v >= 1; v-- {
		d = append(d, v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := d.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

func TestTailSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true},
		{99, 0.9, false}, {20, 0.5, true}, {6, 0.99, false},
	} {
		if got := tailTrusted(c.n, c.q); got != c.want {
			t.Errorf("tailTrusted(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// A stalled server must show in the latency of the requests due while
// it stalled, not only in the one it stalled on: the open loop times
// from the due time.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := conn()
	ops, abandoned := openLoop(100, 800*time.Millisecond, time.Second, func(o *op) {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			o.err = err
			return
		}
		resp.Body.Close()
	})
	if abandoned != 0 || len(ops) != 80 {
		t.Fatalf("issued %d calls, abandoned %d; want 80 and 0", len(ops), abandoned)
	}
	for _, o := range ops[:4] {
		if o.latency() != o.done.Sub(o.sent) {
			t.Errorf("call before the stall charged the generator's own slop: latency %v, wire %v", o.latency(), o.done.Sub(o.sent))
		}
	}
	stalled := ops[4]
	late := 0
	for _, o := range ops[5:] {
		if o.due.Before(stalled.done) {
			late++
			if o.latency() < stalled.done.Sub(o.due) {
				t.Errorf("call due %v before the stall ended reports %v", stalled.done.Sub(o.due), o.latency())
			}
			if o.done.Sub(o.sent) > stall/2 {
				t.Errorf("call queued behind the stall shows it in its wire time %v", o.done.Sub(o.sent))
			}
		}
	}
	if late < 20 {
		t.Fatalf("only %d calls were due during a %v stall at 100/s", late, stall)
	}
	st := loopSummary(ops, 100)
	if st.backlogMax < 20 {
		t.Errorf("backlogMax = %d, want the ~30 calls queued behind the stall", st.backlogMax)
	}
	if st.lat.quantile(0.99) < int64(stall*9/10) {
		t.Errorf("p99 %v hides the stall", time.Duration(st.lat.quantile(0.99)))
	}
}

func TestExpositionDelta(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	c := reg.Counter("pool_epochs_total", "epochs")
	h := reg.Histogram(`http_request_ns{route="/v1/apply"}`, "latency")
	c.Add(3)
	h.Observe(100)
	before := scrapeRegistry(t, reg)
	c.Add(4)
	h.Observe(1000)
	h.Observe(3000)
	after := scrapeRegistry(t, reg)
	d := delta(before, after)
	if got := d["pool_epochs_total"]; got != 4 {
		t.Errorf("counter delta = %v, want 4", got)
	}
	if got := d.countOf("http_request_ns", `route="/v1/apply"`); got != 2 {
		t.Errorf("histogram count delta = %v, want 2", got)
	}
	if got := d.meanOf("http_request_ns", `route="/v1/apply"`); got != 2000 {
		t.Errorf("histogram mean over the delta = %v, want 2000", got)
	}
	if got := d.meanOf("pool_apply_ns", ""); got != 0 {
		t.Errorf("mean of an absent family = %v, want 0", got)
	}
	if _, err := parseExposition(strings.NewReader("broken_line\n")); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func scrapeRegistry(t *testing.T, reg *telemetry.Registry) exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	e, err := parseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The harness's liveness mirror must agree with a Maintainer fed the
// same stream, and the reply check must accept the Maintainer's own
// matchings at every step while rejecting one that keeps a deleted edge.
func TestMirrorAgreesWithMaintainerReplay(t *testing.T) {
	const seed = 7
	g := gen.BipartiteGnp(rng.New(seed), 48, 48, 0.08)
	mt := dynamic.New(g, dynamic.Options{K: 2, Seed: seed})
	defer mt.Close()
	mt.Recompute()
	s := newStream(seed, g.M(), 1, 8, 0.1, true)
	r := &servingRun{spec: servingSpec{k: 2}, g: g, batches: map[int]dynamic.Batch{}}
	for step := 0; step < 200; step++ {
		b := s.next()
		mt.Apply(b)
		r.batches[step] = b
		for e := 0; e < g.M(); e++ {
			if s.live[e] != mt.Live(e) {
				t.Fatalf("step %d: mirror says edge %d live=%v, Maintainer %v", step, e, s.live[e], mt.Live(e))
			}
		}
		m := mt.Matching()
		rep := reply{step: step + 1, certified: false, size: m.Size()}
		for _, e := range m.Edges(g) {
			rep.edges = append(rep.edges, int32(e))
		}
		r.replies = append(r.replies, rep)
	}
	q, err := r.check(0, 200)
	if err != nil {
		t.Fatalf("check rejects the Maintainer's matchings: %v", err)
	}
	if q < 0.5 || q > 1 {
		t.Errorf("matching ratio %v outside [1-1/k, 1]", q)
	}

	// A reply that keeps an edge the stream just deleted must fail.
	for step := 0; step < 200; step++ {
		for _, u := range r.batches[step] {
			if u.Op != dynamic.Delete || edgeLiveAt(r, u.Edge, step+1) {
				continue
			}
			bad := &servingRun{spec: r.spec, g: g, batches: r.batches,
				replies: []reply{{step: step + 1, size: 1, edges: []int32{int32(u.Edge)}}}}
			if _, err := bad.check(0, 200); err == nil {
				t.Fatalf("check accepted deleted edge %d at step %d", u.Edge, step+1)
			}
			return
		}
	}
	t.Fatal("stream deleted no edge")
}

// edgeLiveAt replays r's batches up to step and reports edge e's state.
func edgeLiveAt(r *servingRun, e, step int) bool {
	live := true
	for s := 0; s < step; s++ {
		for _, u := range r.batches[s] {
			if u.Edge == e && u.Op != dynamic.SetWeight {
				live = u.Op == dynamic.Insert
			}
		}
	}
	return live
}

// The acknowledged applies must equal the pool's step delta.
func TestCheckRejectsLostApply(t *testing.T) {
	g := gen.BipartiteGnp(rng.New(1), 8, 8, 0.5)
	r := &servingRun{spec: servingSpec{k: 2}, g: g, batches: map[int]dynamic.Batch{0: nil, 1: nil},
		replies: []reply{{step: 0}}}
	if _, err := r.check(0, 3); err == nil {
		t.Error("check accepted 2 acknowledged applies against a 3-step advance")
	}
	if _, err := r.check(0, 2); err != nil {
		t.Errorf("check rejects a consistent run: %v", err)
	}
}

// selfTime returns the mean self time in µs of the spans named name.
func selfTime(lts []layerTime, name string) float64 {
	for _, lt := range lts {
		if lt.Name == name {
			return lt.SelfUS
		}
	}
	return 0
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	origin := time.Now()
	at := func(us int) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	tr := &tracer{origin: origin}
	for req := int64(0); req < 2; req++ {
		id := tr.add("slot", 0, req, at(0), at(100))
		tr.add("apply", id, req, at(10), at(40))
		tr.add("query", id, req, at(50), at(70))
	}
	lts := selfTimes(tr.spans)
	if got := selfTime(lts, "slot"); got != 50 {
		t.Errorf("slot self time = %vus, want 50", got)
	}
	if got := selfTime(lts, "apply"); got != 30 {
		t.Errorf("leaf self time = %vus, want its duration 30", got)
	}
	for _, lt := range lts {
		if lt.Count != 2 {
			t.Errorf("%s counted %d spans, want 2", lt.Name, lt.Count)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.add("x", 0, 0, at(0), at(1)); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

// The metric sets the harness emits must be the ones BENCHMARK.json
// declares, in the declared units.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		if got := layerUnit(m.Name); got != m.Unit {
			t.Errorf("%s: harness unit %q, BENCHMARK.json %q", m.Name, got, m.Unit)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layers}} {
		got, want := slices.Sorted(slices.Values(c.got)), slices.Sorted(slices.Values(c.want))
		if !slices.Equal(got, want) {
			t.Errorf("%s: harness reports %v, BENCHMARK.json declares %v", c.name, got, want)
		}
	}
}
