package main

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distmatch/internal/dynamic"
	"distmatch/internal/exact"
	"distmatch/internal/gen"
	"distmatch/internal/graph"
	"distmatch/internal/rng"
)

// servingSpec is one HTTP serving workload against distmatchd.
type servingSpec struct {
	nx, ny         int
	p              float64
	k              int
	minOps, maxOps int     // updates per apply batch, uniform
	setweightShare float64 // share of updates that are setweight
	applyRate      float64 // applies/s in an open loop; 0 runs a closed loop
	readRate       float64 // GET /v1/matching per second, open loop
	capacity       bool    // measure closed-loop capacity after the open-loop windows
	replayBatches  int     // batches the traced in-process replay applies
}

var (
	churn = servingSpec{
		nx: 512, ny: 512, p: 0.0078125, k: 2,
		minOps: 1, maxOps: 8, setweightShare: 0.1,
		applyRate: 200, readRate: 200, capacity: true, replayBatches: 2000,
	}
	bulk = servingSpec{
		nx: 2048, ny: 2048, p: 0.001953125, k: 2,
		minOps: 512, maxOps: 512, setweightShare: 0.1,
		readRate: 100, replayBatches: 48,
	}
)

func (sp servingSpec) args() []string {
	return []string{
		"-nx", strconv.Itoa(sp.nx), "-ny", strconv.Itoa(sp.ny),
		"-p", strconv.FormatFloat(sp.p, 'g', -1, 64),
		"-shards", "4", "-k", strconv.Itoa(sp.k), "-audit", "16", "-full",
		"-seed", strconv.FormatUint(slabSeed, 10),
	}
}

const (
	// slabSeed fixes the graphs (and distmatchd's own seed) across runs,
	// so that runs differ only in the update stream or solve seeds the
	// -seed flag drives. With it the churn slab is the one the
	// BenchmarkShardServing* benchmarks use.
	slabSeed   = 88
	applyLimit = 50 * time.Millisecond // p99 limit a sustainable rate must meet
	clientID   = "perfbench"
	setups     = 5 // server set-ups per run; setup_s is their median
	windows    = 3 // nominal load windows
	capWindows = 5 // closed-loop capacity windows; ops_per_s is their median
)

// reply is one GET /v1/matching answer, kept for the post-run check.
// Its edges' endpoints were checked against the slab on receipt.
type reply struct {
	step      int
	certified bool
	size      int
	edges     []int32
}

// servingRun is one serving workload run: the server, its two
// connections, the generated stream and everything the checks replay.
type servingRun struct {
	spec        servingSpec
	g           *graph.Graph
	srv         *server
	apply, read *http.Client
	gen         *stream

	// Apply connection state (one goroutine).
	seq        uint64
	batches    map[int]dynamic.Batch // acknowledged batches by pool step
	updates    int64                 // acknowledged updates
	applyBytes int64
	applyErr   error

	mu         sync.Mutex // guards replies, replyErr and matchBytes
	replies    []reply
	replyErr   error
	matchBytes int64

	attempted, failed atomic.Int64
}

func runServing(sp servingSpec, cfg config) (*result, error) {
	g := gen.BipartiteGnp(rng.New(slabSeed), sp.nx, sp.ny, sp.p)
	var setupTimes []float64
	var srv *server
	for i := 0; i < setups; i++ {
		s, d, err := startServer(cfg.bin, sp.args())
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	r := &servingRun{
		spec: sp, g: g, srv: srv, apply: conn(), read: conn(),
		gen:     newStream(cfg.seed, g.M(), sp.minOps, sp.maxOps, sp.setweightShare, true),
		batches: map[int]dynamic.Batch{},
	}
	var st0 poolStats
	if err := getJSON(r.read, srv.base+"/v1/stats", &st0); err != nil {
		return nil, err
	}
	if st0.Nodes != g.N() || st0.Edges != g.M() {
		return nil, fmt.Errorf("server slab %d nodes/%d edges, harness built %d/%d", st0.Nodes, st0.Edges, g.N(), g.M())
	}
	m0, err := scrape(r.read, srv.base)
	if err != nil {
		return nil, err
	}

	// The nominal load runs in windows; churn then measures the write
	// path's closed-loop capacity, without readers, in the last 5/8 of
	// the run. Windows the hypervisor starved are measured again, within
	// 1.5 runs.
	q := &quiet{budget: cfg.seconds * 3 / 2}
	ticks := readTicks()
	nominal := cfg.seconds
	if sp.capacity {
		nominal = cfg.seconds * 3 / 8
	}
	wins := q.windows(windows, func() window {
		w := r.load(sp.applyRate, sp.readRate, nominal/windows, time.Second)
		r.attempted.Add(int64(w.abandoned))
		r.failed.Add(int64(w.abandoned))
		return w
	})
	if r.applyErr != nil {
		return nil, r.applyErr
	}
	var st1 poolStats
	if err := getJSON(r.read, srv.base+"/v1/stats", &st1); err != nil {
		return nil, err
	}
	m1, err := scrape(r.read, srv.base)
	if err != nil {
		return nil, err
	}
	var applyOps, readOps samples
	var allApply []op
	for _, w := range wins {
		applyOps = append(applyOps, loopSummary(w.applyOps, 0).lat...)
		readOps = append(readOps, loopSummary(w.readOps, 0).lat...)
		allApply = append(allApply, w.applyOps...)
	}
	rateWins := wins
	if sp.capacity {
		rateWins = q.windows(capWindows, func() window {
			return r.load(0, 0, (cfg.seconds-nominal)/capWindows, 0)
		})
	}
	var rates, capacity []float64
	for _, w := range rateWins {
		rates = append(rates, w.updatesPerS())
		capacity = append(capacity, float64(len(w.applyOps))/w.wall.Seconds())
	}
	var sustainable float64
	if sp.capacity && cfg.trace {
		sustainable = r.sustainableRate(median(capacity))
	}
	if r.applyErr != nil {
		return nil, r.applyErr
	}
	steal := stealShare(ticks, readTicks())
	rss, err := peakRSSMiB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var st2 poolStats
	if err := getJSON(r.read, srv.base+"/v1/stats", &st2); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	mratio, checkErr := r.check(st0.Step, st2.Step)
	if checkErr != nil {
		res.Correct = false
		fmt.Printf("CHECK FAILED: %v\n", checkErr)
	}
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	if !cfg.trace {
		res.add("setup_s", median(setupTimes), "s", len(setupTimes))
		res.add("ops_per_s", median(rates), "1/s", len(rates))
		res.latency("op", applyOps, false)
		res.latency("read", readOps, false)
		res.add("matching_ratio", mratio, "1", len(r.replies))
		res.add("peak_rss_mb", rss, "MiB", 1)
		return res, nil
	}

	res.latency("op", applyOps, true)
	res.latency("read", readOps, true)
	applied := loopSummary(allApply, sp.applyRate)
	d := delta(m0, m1)
	tot0, tot1 := st0.Totals, st1.Totals
	slots := float64(tot1.Applies - tot0.Applies)
	shardApplies := d.countOf("maintainer_apply_ns", "")
	applyServer := d.meanOf("http_request_ns", `route="/v1/apply"`)
	poolApply := d.meanOf("pool_apply_ns", "")
	res.add("http.apply_server_us", us(applyServer), "us", int(d.countOf("http_request_ns", `route="/v1/apply"`)))
	res.add("http.apply_self_us", us(applyServer-poolApply), "us", 0)
	res.add("http.wire_us", us(applied.wire.mean()-applyServer), "us", len(applied.wire))
	res.add("http.matching_us", us(d.meanOf("http_request_ns", `route="/v1/matching"`)), "us", int(d.countOf("http_request_ns", `route="/v1/matching"`)))
	res.add("http.apply_bytes", ratio(float64(r.applyBytes), float64(len(r.batches))), "B", len(r.batches))
	res.add("http.matching_bytes", ratio(float64(r.matchBytes), float64(len(r.replies))), "B", len(r.replies))

	res.add("shard.apply_us", us(poolApply), "us", int(slots))
	res.add("shard.apply_p99_us", m1[`pool_apply_ns{quantile="0.99"}`]/1e3, "us", int(slots))
	res.add("shard.route_us", us(d.meanOf("pool_route_ns", "")), "us", int(slots))
	res.add("shard.commit_us", us(d.meanOf("pool_commit_ns", "")), "us", int(slots))
	res.add("shard.barrier_us", us(d.meanOf("pool_barrier_ns", "")), "us", int(slots))
	res.add("shard.barrier_p99_us", m1[`pool_barrier_ns{quantile="0.99"}`]/1e3, "us", int(slots))
	res.add("shard.audits_per_slot", ratio(float64(tot1.Audits-tot0.Audits), slots), "1", int(slots))
	audits := float64(tot1.Audits - tot0.Audits)
	res.add("shard.audit_pass_ratio", ratio(audits-float64(tot1.AuditFailures-tot0.AuditFailures), audits), "1", int(audits))
	res.add("shard.audits", audits, "count", 0)
	res.add("shard.audit_failures", float64(tot1.AuditFailures-tot0.AuditFailures), "count", 0)
	res.add("shard.repairs_per_slot", ratio(float64(tot1.Repairs-tot0.Repairs), slots), "1", int(slots))
	res.add("shard.adopts_per_slot", ratio(float64(tot1.Adopts-tot0.Adopts), slots), "1", int(slots))
	routed := float64((tot1.Routed - tot0.Routed) + (tot1.Crossing - tot0.Crossing) + (tot1.Deferred - tot0.Deferred))
	res.add("shard.crossing_share", ratio(float64(tot1.Crossing-tot0.Crossing), routed), "1", int(routed))
	res.add("shard.crossing_scanned_per_matched", ratio(d["pool_crossing_scanned_total"], d["pool_crossing_matched_total"]), "1", 0)
	res.add("shard.resolver_node_rounds_per_slot", ratio(float64(tot1.NodeRounds-tot0.NodeRounds), slots), "1", int(slots))
	res.add("shard.resolver_messages_per_slot", ratio(float64(tot1.Messages-tot0.Messages), slots), "1", int(slots))

	res.add("dynamic.audit_us_per_slot", us(ratio(d["maintainer_audit_ns_sum"], slots)), "us", int(slots))
	res.add("dynamic.audits_per_shard_apply", ratio(d.countOf("maintainer_audit_ns", ""), shardApplies), "1", int(shardApplies))
	res.add("dynamic.audits", d.countOf("maintainer_audit_ns", ""), "count", 0)
	res.add("dynamic.repair_us_per_slot", us(ratio(d["maintainer_repair_ns_sum"], slots)), "us", int(slots))
	res.add("dynamic.repairs_per_shard_apply", ratio(d.countOf("maintainer_repair_ns", ""), shardApplies), "1", int(shardApplies))
	res.add("dynamic.apply_us_per_slot", us(ratio(d["maintainer_apply_ns_sum"], slots)), "us", int(slots))

	res.add("dist.runs_per_slot", ratio(d["engine_runs_total"], slots), "1", int(slots))
	res.add("dist.sweep_us_per_slot", us(ratio(d["engine_sweep_ns_sum"], slots)), "us", int(slots))
	res.add("dist.node_rounds_per_slot", ratio(d["engine_node_rounds_total"], slots), "1", int(slots))
	res.add("dist.messages_per_slot", ratio(d["engine_messages_total"], slots), "1", int(slots))
	res.add("dist.node_rounds_per_s", ratio(d["engine_node_rounds_total"], d["engine_sweep_ns_sum"]/1e9), "1/s", 0)
	res.add("dist.aborted_runs", d["engine_runs_aborted_total"], "count", 0)
	for _, name := range []string{"dist.rounds", "dist.messages", "dist.oracle_calls", "dist.node_rounds"} {
		res.add(name, 0, "count", 0) // per solve: the serving workloads run no whole-graph solve
	}

	res.add("loadgen.lag_p99_ms", applied.lagP99.Seconds()*1e3, "ms", len(allApply))
	res.add("loadgen.backlog_max", float64(applied.backlogMax), "count", len(allApply))
	res.add("loadgen.failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "1", int(res.Attempted))
	res.add("loadgen.sustainable_updates_per_s", sustainable, "1/s", 0)
	res.add("loadgen.steal_share", steal, "1", 0)
	res.add("loadgen.discarded_windows", float64(q.discarded), "count", 0)

	tr := newTracer()
	for _, w := range wins {
		addLoopSpans(tr, "apply", w.applyOps)
		addLoopSpans(tr, "matching", w.readOps)
	}
	replayLayers(res, sp, g, cfg.seed, tr)
	finishTrace(tr, cfg)
	return res, nil
}

// window is one stretch of load: the apply and read ops it issued.
type window struct {
	applyOps, readOps []op
	updates           int64 // acknowledged updates
	wall              time.Duration
	abandoned         int     // apply calls not issued within the window's grace
	steal             float64 // share of the host's CPU time the hypervisor took
}

func (w window) updatesPerS() float64 { return float64(w.updates) / w.wall.Seconds() }

// load runs the apply loop (open at rate, or closed when rate is 0) and
// the read loop at readRate side by side for d, one connection each.
// Apply calls unsent grace after the window are abandoned.
func (r *servingRun) load(rate, readRate float64, d, grace time.Duration) window {
	var w window
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.readOps, _ = openLoop(readRate, d, time.Second, r.readOne)
	}()
	before, t0, ticks := r.updates, time.Now(), readTicks()
	if rate > 0 {
		w.applyOps, w.abandoned = openLoop(rate, d, grace, r.applyOne)
	} else {
		w.applyOps = closedLoop(d, r.applyOne)
	}
	w.updates, w.wall = r.updates-before, time.Since(t0)
	wg.Wait()
	w.steal = stealShare(ticks, readTicks())
	return w
}

// applyOne sends the stream's next batch as the next exactly-once
// sequence number, retrying the same (client, seq) until the server
// acknowledges it; every failed attempt counts as a failed operation.
func (r *servingRun) applyOne(o *op) {
	if r.applyErr != nil {
		o.err = r.applyErr
		return
	}
	b := r.gen.next()
	r.seq++
	body := applyBody(clientID, r.seq, b)
	for attempt := 0; ; attempt++ {
		r.attempted.Add(1)
		rep, err := postApply(r.apply, r.srv.base, body)
		if err == nil {
			if rep.Seq != r.seq {
				err = fmt.Errorf("apply seq %d acknowledged as %d", r.seq, rep.Seq)
			} else if _, dup := r.batches[rep.Step]; dup {
				err = fmt.Errorf("apply seq %d acknowledged at step %d twice", r.seq, rep.Step)
			}
			if err != nil {
				r.failed.Add(1)
				r.applyErr, o.err = err, err
				return
			}
			r.batches[rep.Step] = b
			r.updates += int64(len(b))
			r.applyBytes += int64(len(body))
			return
		}
		r.failed.Add(1)
		if attempt == 20 {
			r.applyErr = fmt.Errorf("apply seq %d never acknowledged: %v", r.seq, err)
			o.err = r.applyErr
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (r *servingRun) readOne(o *op) {
	r.attempted.Add(1)
	m, n, err := getMatching(r.read, r.srv.base)
	if err != nil {
		r.failed.Add(1)
		o.err = err
		return
	}
	rep := reply{step: m.Step, certified: m.Certified, size: m.Size, edges: make([]int32, len(m.Edges))}
	var bad error
	for i, t := range m.Edges {
		e, u, v := t[0], t[1], t[2]
		if e < 0 || e >= r.g.M() {
			bad = fmt.Errorf("step %d: edge %d outside slab", m.Step, e)
			break
		}
		if x, y := r.g.Endpoints(e); x != u || y != v {
			bad = fmt.Errorf("step %d: edge %d served as (%d,%d), slab has (%d,%d)", m.Step, e, u, v, x, y)
			break
		}
		rep.edges[i] = int32(e)
	}
	r.mu.Lock()
	r.replies = append(r.replies, rep)
	r.matchBytes += int64(n)
	if bad != nil && r.replyErr == nil {
		r.replyErr = bad
	}
	r.mu.Unlock()
}

// sustainableRate finds the highest offered apply rate whose p99
// latency from due time stays within applyLimit with no call abandoned:
// open-loop probes of 2.5 s on a ladder of 90%, 85%, 80% of capacity
// (closed-loop applies/s), down to the nominal rate. It returns the
// acknowledged updates/s of the passing probe, or 0 when none passes.
// Whether a rung passes turns on bursts of failed audits and on host
// noise, so the result is a per-layer reading, not a gated metric.
func (r *servingRun) sustainableRate(capacity float64) float64 {
	const probe = 2500 * time.Millisecond
	for f := 0.90; f >= 0.80 && f*capacity >= r.spec.applyRate && r.applyErr == nil; f -= 0.05 {
		w := r.load(f*capacity, r.spec.readRate, probe, applyLimit)
		st := loopSummary(w.applyOps, f*capacity)
		p99 := time.Duration(st.lat.quantile(0.99))
		pass := w.abandoned == 0 && st.failed == 0 && len(st.lat) > 0 && p99 <= applyLimit
		fmt.Printf("probe: %.0f applies/s (%.0f%% of capacity %.0f): p99 %v, abandoned %d, pass %v\n",
			f*capacity, 100*f, capacity, p99.Round(time.Microsecond), w.abandoned, pass)
		if pass {
			return w.updatesPerS()
		}
	}
	return 0
}

// check replays the acknowledged batches in step order against every
// served matching: each must be a matching of edges live at its step,
// and at checkpoints its size is compared with the exact maximum on the
// live subgraph — at least 1−1/k of it when the reply is certified. It
// also requires the pool's step to have advanced by exactly the number
// of acknowledged applies. It returns the mean ratio over checkpoints.
func (r *servingRun) check(step0, step1 int) (float64, error) {
	if n := len(r.batches); step1-step0 != n {
		return 0, fmt.Errorf("%d applies acknowledged but the pool advanced %d steps", n, step1-step0)
	}
	for s := step0; s < step1; s++ {
		if _, ok := r.batches[s]; !ok {
			return 0, fmt.Errorf("no acknowledged batch for step %d", s)
		}
	}
	r.mu.Lock()
	replies, replyErr := slices.Clone(r.replies), r.replyErr
	r.mu.Unlock()
	if replyErr != nil {
		return 0, replyErr
	}
	if len(replies) == 0 {
		return 0, fmt.Errorf("no matching replies to check")
	}
	slices.SortStableFunc(replies, func(a, b reply) int { return a.step - b.step })
	g := r.g
	live := make([]bool, g.M())
	for e := range live {
		live[e] = true
	}
	stride := max(1, len(replies)/64)
	bound := 1 - 1/float64(r.spec.k)
	used := make([]int, g.N())
	at, sum, checkpoints := step0, 0.0, 0
	for i, rep := range replies {
		if rep.step < step0 || rep.step > step1 {
			return 0, fmt.Errorf("reply at step %d outside [%d,%d]", rep.step, step0, step1)
		}
		for ; at < rep.step; at++ {
			for _, u := range r.batches[at] {
				switch u.Op {
				case dynamic.Insert:
					live[u.Edge] = true
				case dynamic.Delete:
					live[u.Edge] = false
				}
			}
		}
		if rep.size != len(rep.edges) {
			return 0, fmt.Errorf("step %d: size %d but %d edges", rep.step, rep.size, len(rep.edges))
		}
		for _, e := range rep.edges {
			u, v := g.Endpoints(int(e))
			if !live[e] {
				return 0, fmt.Errorf("step %d: matched edge %d is not live", rep.step, e)
			}
			if used[u] == i+1 || used[v] == i+1 {
				return 0, fmt.Errorf("step %d: edge %d shares an endpoint with another matched edge", rep.step, e)
			}
			used[u], used[v] = i+1, i+1
		}
		if i%stride != 0 {
			continue
		}
		best := exact.HopcroftKarp(liveGraph(g, live)).Size()
		q := 1.0
		if best > 0 {
			q = float64(rep.size) / float64(best)
		}
		if rep.certified && q < bound {
			return 0, fmt.Errorf("step %d: certified matching of %d is %.3f of the maximum %d, below 1-1/k", rep.step, rep.size, q, best)
		}
		sum += q
		checkpoints++
	}
	return sum / float64(checkpoints), nil
}

// addLoopSpans records a load loop's ops as spans: the operation from
// due to done, with the HTTP call from sent to done as its child, so the
// parent's self time is the wait in the generator.
func addLoopSpans(tr *tracer, name string, ops []op) {
	for i, o := range ops {
		if o.err != nil {
			continue
		}
		id := tr.add("loadgen."+name, 0, int64(i), o.due, o.done)
		tr.add("http."+name, id, int64(i), o.sent, o.done)
	}
}
