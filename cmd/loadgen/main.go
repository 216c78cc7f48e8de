// Command loadgen drives a running distmatchd with concurrent appliers
// and matching readers, then judges the tail off the server's own
// /metrics: the p99 of http_request_ns{route="/v1/apply"} and
// {route="/v1/matching"} must stay under the given bounds. It is the
// load-test harness scripts/loadtest.sh (and the CI loadtest job) runs
// in smoke mode — small, but end to end: real HTTP, real pool, real
// exposition.
//
// Each applier is one exactly-once client: it stamps every batch with
// its client id and a sequence number, and on a timeout (503) or a
// transport error it retries the SAME sequence until the server
// acknowledges — exercising the idempotent apply path under fire; the
// summary counts how many retries were absorbed as duplicates. Readers
// hammer /v1/matching, which the pool serves from its lock-free
// snapshot: their p99 must not stretch with apply load.
//
// The batch sizes the appliers send are synthesized from /v1/stats (the
// slab dimensions ride on it), so loadgen needs no knowledge of the
// graph. Output is one JSON summary on stdout:
//
//	{"applies":..,"duplicates":..,"updates":..,"queries":..,
//	 "updates_per_sec":..,"applies_per_sec":..,"queries_per_sec":..,
//	 "apply_p99_ns":..,"query_p99_ns":..}
//
// applies counts acknowledged apply requests (one per sequence number,
// duplicates included) and updates the edge updates those requests
// carried; queries counts successful /v1/matching reads. Each rate is its
// count over the load duration, so update throughput and request
// throughput are reported apart.
//
// Exit status 1 if either p99 bound is exceeded, a request never
// succeeded, or the metrics scrape is missing the expected series.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distmatch/internal/rng"
)

type summary struct {
	Applies       int64   `json:"applies"`
	Duplicates    int64   `json:"duplicates"`
	Updates       int64   `json:"updates"`
	Queries       int64   `json:"queries"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	AppliesPerSec float64 `json:"applies_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	ApplyP99NS    int64   `json:"apply_p99_ns"`
	QueryP99NS    int64   `json:"query_p99_ns"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "distmatchd base URL")
	clients := flag.Int("clients", 4, "concurrent exactly-once apply clients")
	readers := flag.Int("readers", 4, "concurrent /v1/matching readers")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	maxOps := flag.Int("maxops", 8, "max updates per apply batch")
	seed := flag.Uint64("seed", 1, "batch synthesis seed")
	maxP99Apply := flag.Duration("maxp99apply", 0, "fail if the apply p99 exceeds this (0 = report only)")
	maxP99Query := flag.Duration("maxp99query", 0, "fail if the matching p99 exceeds this (0 = report only)")
	flag.Parse()

	hc := &http.Client{Timeout: 30 * time.Second}
	edges, err := slabEdges(hc, *addr)
	if err != nil {
		fatalf("stats: %v", err)
	}
	if edges == 0 {
		fatalf("server slab has no edges; nothing to load")
	}

	var s summary
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			applier(hc, *addr, fmt.Sprintf("loadgen-%d", c),
				rng.New(rng.Mix(*seed+uint64(c))), edges, *maxOps, stop, &s, &failed)
		}(c)
	}
	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader(hc, *addr, stop, &s, &failed)
		}()
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()

	if failed.Load() > 0 {
		fatalf("%d requests never succeeded", failed.Load())
	}
	applies := atomic.LoadInt64(&s.Applies)
	queries := atomic.LoadInt64(&s.Queries)
	if applies == 0 || queries == 0 {
		fatalf("no load delivered: applies=%d queries=%d", applies, queries)
	}
	secs := duration.Seconds()
	s.UpdatesPerSec = float64(atomic.LoadInt64(&s.Updates)) / secs
	s.AppliesPerSec = float64(applies) / secs
	s.QueriesPerSec = float64(queries) / secs

	metrics, err := scrape(hc, *addr+"/metrics")
	if err != nil {
		fatalf("metrics: %v", err)
	}
	s.ApplyP99NS, err = p99(metrics, "/v1/apply")
	if err != nil {
		fatalf("metrics: %v", err)
	}
	s.QueryP99NS, err = p99(metrics, "/v1/matching")
	if err != nil {
		fatalf("metrics: %v", err)
	}

	out, _ := json.Marshal(&s)
	fmt.Println(string(out))
	if *maxP99Apply > 0 && s.ApplyP99NS > maxP99Apply.Nanoseconds() {
		fatalf("apply p99 %v exceeds bound %v", time.Duration(s.ApplyP99NS), *maxP99Apply)
	}
	if *maxP99Query > 0 && s.QueryP99NS > maxP99Query.Nanoseconds() {
		fatalf("matching p99 %v exceeds bound %v", time.Duration(s.QueryP99NS), *maxP99Query)
	}
}

// applier runs one exactly-once client loop: synthesize a batch, send it
// as (client, seq), and never advance seq past an unacknowledged batch —
// a 503 (the server's TimeoutHandler) or a transport error retries the
// same sequence after a short backoff, counting responses the server
// absorbed as duplicates.
func applier(hc *http.Client, addr, client string, r *rng.Rand,
	edges, maxOps int, stop <-chan struct{}, s *summary, failed *atomic.Int64) {
	seq := uint64(0)
	for {
		select {
		case <-stop:
			return
		default:
		}
		seq++
		body, updates := synthBatch(r, client, seq, edges, maxOps)
		acked := false
		for try := 0; !acked; try++ {
			resp, err := hc.Post(addr+"/v1/apply", "application/json", bytes.NewReader(body))
			var rep struct {
				Duplicate bool `json:"duplicate"`
			}
			switch {
			case err == nil && resp.StatusCode == http.StatusOK:
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err == nil {
					acked = true
					atomic.AddInt64(&s.Applies, 1)
					atomic.AddInt64(&s.Updates, int64(updates))
					if rep.Duplicate {
						atomic.AddInt64(&s.Duplicates, 1)
					}
					continue
				}
			case err == nil:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			select {
			case <-stop:
				// Shutting down with this sequence unacknowledged: it may or
				// may not have committed — exactly the case the seq protocol
				// exists for — but it is not a delivered apply, so it does
				// not count. Report a hard failure only if nothing ever got
				// through (try counts are per sequence, so a dead server
				// shows up as failed sequence 1).
				if try >= 3 && atomic.LoadInt64(&s.Applies) == 0 {
					failed.Add(1)
				}
				return
			case <-time.After(time.Duration(10+try*20) * time.Millisecond):
			}
		}
	}
}

// reader hammers the snapshot read path.
func reader(hc *http.Client, addr string, stop <-chan struct{}, s *summary, failed *atomic.Int64) {
	misses := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		resp, err := hc.Get(addr + "/v1/matching")
		if err != nil {
			if misses++; misses > 50 {
				failed.Add(1)
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			atomic.AddInt64(&s.Queries, 1)
		}
	}
}

// synthBatch builds one apply body: random inserts, deletes and weight
// changes across the slab's edge universe, stamped with the client's
// idempotency coordinates. It also returns the body's update count.
func synthBatch(r *rng.Rand, client string, seq uint64, edges, maxOps int) ([]byte, int) {
	type updateJSON struct {
		Edge   int     `json:"edge"`
		Op     string  `json:"op"`
		Weight float64 `json:"weight,omitempty"`
	}
	n := 1 + r.Intn(maxOps)
	ups := make([]updateJSON, 0, n)
	for i := 0; i < n; i++ {
		e := r.Intn(edges)
		switch r.Intn(3) {
		case 0:
			ups = append(ups, updateJSON{Edge: e, Op: "insert", Weight: 1 + r.Float64()})
		case 1:
			ups = append(ups, updateJSON{Edge: e, Op: "delete"})
		default:
			ups = append(ups, updateJSON{Edge: e, Op: "setweight", Weight: 1 + r.Float64()})
		}
	}
	body, _ := json.Marshal(map[string]any{"client": client, "seq": seq, "updates": ups})
	return body, n
}

// slabEdges reads the slab's edge count off /v1/stats.
func slabEdges(hc *http.Client, addr string) (int, error) {
	resp, err := hc.Get(addr + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var st struct {
		Edges int `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Edges, nil
}

func scrape(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// p99 extracts the 0.99-quantile sample of http_request_ns for one route
// from a Prometheus exposition.
func p99(metrics, route string) (int64, error) {
	prefix := fmt.Sprintf(`http_request_ns{route=%q,quantile="0.99"} `, route)
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s series in the exposition", prefix)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
