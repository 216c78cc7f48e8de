package telemetry

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramBucketBoundsExact pins the bucketing scheme: unit buckets
// below 8, then 8 sub-buckets per octave. Any change to the boundaries
// silently re-shapes every recorded latency distribution, so they are
// asserted value by value.
func TestHistogramBucketBoundsExact(t *testing.T) {
	// Hand-pinned (value, bucket) pairs across the regimes.
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 1}, {7, 7},
		{8, 8}, {9, 9}, {15, 15},
		{16, 16}, {17, 16}, {18, 17}, {31, 23},
		{32, 24}, {35, 24}, {36, 25},
		{1 << 20, 8 + (20-3)*8},           // power of two: first sub-bucket of its octave
		{(1 << 20) - 1, 8 + (19-3)*8 + 7}, // just below: last sub-bucket of the octave under
		{-5, 0},                           // negatives clamp to 0
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's bounds round-trip: lo maps into the bucket, hi-1 maps
	// into the bucket, hi maps past it, and buckets tile without gaps.
	prevHi := int64(0)
	for i := 0; i < numBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)", i, lo, prevHi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
		if hi < lo { // int64 overflow guard at the top octave
			break
		}
	}
}

// TestHistogramQuantileExact pins percentile extraction on a known
// distribution: quantiles return the inclusive upper edge of the bucket
// holding the ⌈q·count⌉-th observation, exactly.
func TestHistogramQuantileExact(t *testing.T) {
	h := newHistogram()
	// 100 observations of value 1, 2, ..., 100 (one each).
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum %d, want 5050", h.Sum())
	}
	cases := []struct {
		q    float64
		want int64
	}{
		// rank 50 → value 50 → bucket [48,52) → upper edge 51.
		{0.5, 51},
		// rank 90 → value 90 → bucket [88,96) → 95.
		{0.9, 95},
		// rank 99 → value 99 → bucket [96,104) → 103.
		{0.99, 103},
		// rank 1 → value 1 → exact unit bucket → 1.
		{0.0, 1},
		{0.01, 1},
		// rank 100 → value 100 → bucket [96,104) → 103.
		{1.0, 103},
		// rank ⌈0.0625·100⌉=7 → value 7 → exact unit bucket → 7
		// (0.0625 is exactly representable; q like 0.07 would round up).
		{0.0625, 7},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestHistogramQuantileBound property-checks the accuracy contract on
// random data: the reported quantile is an upper bound on the true one
// and within 12.5% relative error (exact below 8).
func TestHistogramQuantileBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	h := newHistogram()
	var vals []int64
	for i := 0; i < 5000; i++ {
		v := int64(r.ExpFloat64() * 50000)
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		rank := int(q * float64(len(vals)))
		if float64(rank) < q*float64(len(vals)) {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		truth := vals[rank-1]
		got := h.Quantile(q)
		if got < truth {
			t.Errorf("Quantile(%g) = %d below the true quantile %d", q, got, truth)
		}
		if truth >= 8 && float64(got) > float64(truth)*1.125+1 {
			t.Errorf("Quantile(%g) = %d, more than 12.5%% above the true quantile %d", q, got, truth)
		}
	}
}

// TestNilHandles: every handle method must be a no-op on nil — the
// disabled-telemetry contract the instrumented hot paths rely on.
func TestNilHandles(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var ev *Events
	var reg *Registry
	c.Add(3)
	c.Inc()
	g.Set(5)
	g.Add(-1)
	h.Observe(9)
	ev.Append(Event{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || ev.Len() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if reg.Counter("x", "") != nil || reg.Gauge("x", "") != nil || reg.Histogram("x", "") != nil || reg.Events() != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if err := reg.WritePrometheus(nil); err != nil {
		t.Fatalf("nil registry WritePrometheus: %v", err)
	}
}
