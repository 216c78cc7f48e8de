package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// stream generates the update batches of a serving workload from the
// seed: liveness toggles uniform over slab edges plus a share of
// setweight updates. It mirrors the liveness its batches produce, so the
// n-th batch is a pure function of the seed and n.
type stream struct {
	r              *rng.Rand
	live           []bool
	minOps, maxOps int
	setweightShare float64
}

func newStream(seed uint64, m, minOps, maxOps int, setweightShare float64, allLive bool) *stream {
	live := make([]bool, m)
	for e := range live {
		live[e] = allLive
	}
	return &stream{r: rng.New(rng.Mix(seed)), live: live, minOps: minOps, maxOps: maxOps, setweightShare: setweightShare}
}

func (s *stream) next() dynamic.Batch {
	n := s.minOps + s.r.Intn(s.maxOps-s.minOps+1)
	b := make(dynamic.Batch, n)
	for i := range b {
		e := s.r.Intn(len(s.live))
		switch {
		case s.r.Float64() < s.setweightShare:
			b[i] = dynamic.Update{Edge: e, Op: dynamic.SetWeight, Weight: 1 + s.r.Float64()}
		case s.live[e]:
			b[i] = dynamic.Update{Edge: e, Op: dynamic.Delete}
			s.live[e] = false
		default:
			b[i] = dynamic.Update{Edge: e, Op: dynamic.Insert}
			s.live[e] = true
		}
	}
	return b
}

// applyBody renders a batch as a POST /v1/apply body.
func applyBody(client string, seq uint64, b dynamic.Batch) []byte {
	type upd struct {
		Edge   int     `json:"edge"`
		Op     string  `json:"op"`
		Weight float64 `json:"weight,omitempty"`
	}
	req := struct {
		Updates []upd  `json:"updates"`
		Client  string `json:"client"`
		Seq     uint64 `json:"seq"`
	}{Client: client, Seq: seq, Updates: make([]upd, len(b))}
	for i, u := range b {
		req.Updates[i] = upd{Edge: u.Edge, Op: u.Op.String(), Weight: u.Weight}
	}
	out, _ := json.Marshal(req)
	return out
}

// conn is one HTTP connection's client: the load comes from at most two
// of them, one for applies and one for reads.
func conn() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// applyReply is the part of the POST /v1/apply report the harness reads.
type applyReply struct {
	Step int    `json:"step"`
	Seq  uint64 `json:"seq"`
}

// matchingReply is the part of GET /v1/matching the checks read.
type matchingReply struct {
	Size      int      `json:"size"`
	Edges     [][3]int `json:"edges"`
	Certified bool     `json:"certified"`
	Step      int      `json:"step"`
}

// postApply sends one exactly-once batch and decodes the report.
func postApply(hc *http.Client, base string, body []byte) (applyReply, error) {
	var rep applyReply
	resp, err := hc.Post(base+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("apply: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return rep, json.Unmarshal(raw, &rep)
}

// getMatching reads the served matching and returns it with the size of
// the response body.
func getMatching(hc *http.Client, base string) (matchingReply, int, error) {
	var rep matchingReply
	resp, err := hc.Get(base + "/v1/matching")
	if err != nil {
		return rep, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, len(raw), fmt.Errorf("matching: %s", resp.Status)
	}
	return rep, len(raw), json.Unmarshal(raw, &rep)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func scrape(hc *http.Client, base string) (exposition, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseExposition(resp.Body)
}

// poolStats is the part of GET /v1/stats the harness reads: the pool's
// lifetime shard.Stats and the slot clock.
type poolStats struct {
	Totals struct {
		Applies       int
		Routed        int64
		Crossing      int64
		Deferred      int64
		Audits        int
		AuditFailures int
		Repairs       int
		Adopts        int
		Messages      int64
		NodeRounds    int64
	} `json:"totals"`
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	Step  int `json:"step"`
}

// op is one timed request of a load loop.
type op struct {
	due, sent, done time.Time
	// slop is the generator's own lateness: how long after the call
	// could go out (its due time, or the previous call's completion if
	// that came later) it actually went out. Timer wake-ups overshoot by
	// about half a millisecond on a loaded VM; that is not the server's.
	slop time.Duration
	err  error
}

// latency is the op's time from when it was due, less the generator's
// own slop: the open-loop rule, which charges a stall to every request
// queued behind it.
func (o op) latency() time.Duration { return o.done.Sub(o.due) - o.slop }

// openLoop issues calls on a fixed schedule of rate per second for d,
// one at a time on its caller's connection: call i is due at
// start + i/rate and is sent at its due time or, if the previous call
// is still running, as soon as it completes. A call still unsent grace
// after the window's end is abandoned; openLoop returns the issued ops
// and the number abandoned.
func openLoop(rate float64, d, grace time.Duration, call func(o *op)) ([]op, int) {
	start := time.Now()
	n := int(rate * d.Seconds())
	cutoff := start.Add(d + grace)
	ops := make([]op, 0, n)
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		o := op{due: due, sent: time.Now()}
		if o.sent.After(cutoff) {
			return ops, n - i
		}
		o.slop = o.sent.Sub(due)
		if prevDone.After(due) {
			o.slop = o.sent.Sub(prevDone)
		}
		call(&o)
		o.done = time.Now()
		prevDone = o.done
		ops = append(ops, o)
	}
	return ops, 0
}

// closedLoop issues calls back to back for d: each is due when sent.
func closedLoop(d time.Duration, call func(o *op)) []op {
	end := time.Now().Add(d)
	var ops []op
	for time.Now().Before(end) {
		now := time.Now()
		o := op{due: now, sent: now}
		call(&o)
		o.done = time.Now()
		ops = append(ops, o)
	}
	return ops
}

// loopStats summarises an open- or closed-loop run.
type loopStats struct {
	lat        samples       // latency from due (open loop) or sent (closed loop)
	wire       samples       // sent to done
	lagP99     time.Duration // p99 of the generator's own slop
	backlogMax int
	failed     int
}

func loopSummary(ops []op, rate float64) loopStats {
	var st loopStats
	var slop samples
	for i, o := range ops {
		if o.err != nil {
			st.failed++
			continue
		}
		st.lat = append(st.lat, int64(o.latency()))
		st.wire = append(st.wire, int64(o.done.Sub(o.sent)))
		slop = append(slop, int64(o.slop))
		if rate > 0 {
			// Calls due by the time call i went out, minus those already sent.
			dueBy := int(o.sent.Sub(ops[0].due).Seconds()*rate) + 1
			st.backlogMax = max(st.backlogMax, dueBy-i-1)
		}
	}
	st.lagP99 = time.Duration(slop.quantile(0.99))
	return st
}

// liveGraph builds the subgraph of g's live edges (sides kept), for the
// exact maximum-matching reference.
func liveGraph(g *graph.Graph, live []bool) *graph.Graph {
	b := graph.NewBuilder(g.N())
	for v := 0; v < g.N(); v++ {
		b.SetSide(v, int8(g.Side(v)))
	}
	for e, ok := range live {
		if ok {
			u, v := g.Endpoints(e)
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}
