package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentHandles(t *testing.T) {
	r := New(Options{})
	c1 := r.Counter("foo_total", "help one")
	c2 := r.Counter("foo_total", "help two")
	if c1 != c2 {
		t.Fatal("same name must return the same counter handle")
	}
	c1.Add(2)
	c2.Inc()
	if c1.Value() != 3 {
		t.Fatalf("shared counter reads %d, want 3", c1.Value())
	}
	if r.Histogram("lat_ns", "") != r.Histogram("lat_ns", "") {
		t.Fatal("same name must return the same histogram handle")
	}
	if r.Gauge("g", "") != r.Gauge("g", "") {
		t.Fatal("same name must return the same gauge handle")
	}
}

func TestRegistryLabeledSeriesShareAFamily(t *testing.T) {
	r := New(Options{})
	r.Counter(`req_total{route="/b",code="200"}`, "requests").Add(4)
	r.Counter(`req_total{route="/a",code="200"}`, "requests").Add(7)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE req_total counter"); n != 1 {
		t.Fatalf("want exactly one TYPE line for the family, got %d in:\n%s", n, out)
	}
	// Series sort lexicographically within the family.
	ia := strings.Index(out, `req_total{route="/a"`)
	ib := strings.Index(out, `req_total{route="/b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("labeled series missing or unsorted:\n%s", out)
	}
	if _, err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out)
	}
}

// TestExpositionFormat pins the exact wire form of each metric kind.
func TestExpositionFormat(t *testing.T) {
	r := New(Options{})
	r.Counter("c_total", "a counter").Add(5)
	r.Gauge("g_now", "a gauge").Set(-2)
	h := r.Histogram("lat_ns", "a latency")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP c_total a counter",
		"# TYPE c_total counter",
		"c_total 5",
		"# HELP g_now a gauge",
		"# TYPE g_now gauge",
		"g_now -2",
		"# HELP lat_ns a latency",
		"# TYPE lat_ns summary",
		`lat_ns{quantile="0.5"} 51`,
		`lat_ns{quantile="0.9"} 95`,
		`lat_ns{quantile="0.99"} 103`,
		"lat_ns_sum 5050",
		"lat_ns_count 100",
		"",
	}, "\n")
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
	if n, err := ValidateExposition(strings.NewReader(sb.String())); err != nil || n != 7 {
		t.Fatalf("ValidateExposition = (%d, %v), want (7, nil)", n, err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"9metric 1",                             // name starting with a digit
		"ok_metric",                             // no value
		"ok_metric notanumber",                  // bad value
		`m{a="x" 1`,                             // unterminated labels
		`m{a=x} 1`,                              // unquoted label value
		"# TYPE m counter\n# TYPE m gauge\nm 1", // duplicate TYPE
		"# TYPE m flavor\nm 1",                  // unknown type
	}
	for _, in := range bad {
		if _, err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ValidateExposition accepted %q", in)
		}
	}
	// Braces inside quoted label values are legal (route templates).
	good := `m{route="/v1/shards/{id}/kill",code="200"} 1`
	if n, err := ValidateExposition(strings.NewReader(good)); err != nil || n != 1 {
		t.Errorf("ValidateExposition(%q) = (%d, %v), want (1, nil)", good, n, err)
	}
}

func TestEventRing(t *testing.T) {
	r := New(Options{EventCapacity: 4})
	ev := r.Events()
	for i := 0; i < 6; i++ {
		ev.Append(Event{Slot: int64(i), Kind: EventShardKill, Shard: int32(i % 2), A: int64(10 + i)})
	}
	if ev.Len() != 4 {
		t.Fatalf("ring holds %d, want capacity 4", ev.Len())
	}
	if ev.Total() != 6 {
		t.Fatalf("total %d, want 6", ev.Total())
	}
	tail := ev.Tail(2)
	if len(tail) != 2 || tail[0].Slot != 4 || tail[1].Slot != 5 {
		t.Fatalf("Tail(2) = %v, want slots 4,5", tail)
	}
	if tail[1].Seq != 5 {
		t.Fatalf("newest Seq = %d, want 5", tail[1].Seq)
	}
	all := ev.Strings()
	if len(all) != 4 || all[0] != "slot=2 shard=0 shard_kill a=12 b=0" {
		t.Fatalf("Strings() = %v", all)
	}
	// Disabled ring: negative capacity.
	if New(Options{EventCapacity: -1}).Events() != nil {
		t.Fatal("negative EventCapacity must disable the ring")
	}
}

// TestConcurrentMetricUpdates hammers one registry from many goroutines
// under -race: counters, gauges, histogram observes, quantile reads and
// full expositions all at once.
func TestConcurrentMetricUpdates(t *testing.T) {
	r := New(Options{})
	c := r.Counter("hits_total", "")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat_ns", "")
	ev := r.Events()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(w*1000 + i))
				if i%64 == 0 {
					ev.Append(Event{Slot: int64(i), Kind: EventHealth})
					_ = h.Quantile(0.99)
					_ = r.WritePrometheus(&strings.Builder{})
					// Concurrent registration of the same and new names.
					r.Counter("hits_total", "").Add(0)
					r.Counter("other_total", "")
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8*2000 {
		t.Fatalf("counter %d, want %d", c.Value(), 8*2000)
	}
	if h.Count() != 8*2000 {
		t.Fatalf("histogram count %d, want %d", h.Count(), 8*2000)
	}
}
