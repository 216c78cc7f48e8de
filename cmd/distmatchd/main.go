// Command distmatchd serves a fault-tolerant sharded matching pool over
// HTTP: the slab is partitioned across independent incremental
// Maintainers (one per shard), edge updates route to their owning
// shards, and a supervisor fences degraded shards behind last-good
// snapshots and cold-rebuilds crashed ones with capped exponential
// backoff — so the composed matching stays valid and explicitly flagged
// through any single shard's failure.
//
//	distmatchd -addr :8080 -nx 64 -ny 64 -p 0.1 -shards 4 -k 3
//
// The JSON API (all bodies application/json):
//
//	POST /v1/apply               {"updates":[{"edge":7,"op":"insert","weight":1.5}]}
//	                             optional "client"/"seq" make the apply
//	                             exactly-once: retrying the same (client, seq)
//	                             after a 503 timeout returns the cached report
//	                             with "duplicate":true instead of re-applying;
//	                             a body over 4 MiB or a batch over 65536
//	                             updates is refused with 413
//	GET  /v1/matching            composed matching + degraded/stale/certified flags
//	GET  /v1/health              200 fresh / 503 degraded, per-shard detail
//	GET  /v1/stats               lifetime pool counters
//	POST /v1/shards/{id}/kill    take a shard down (auto-restarts after backoff)
//	POST /v1/shards/{id}/restart force a cold rebuild now
//	GET  /v1/events              newest structured trace records (?n=, default 64)
//	GET  /metrics                Prometheus text exposition
//
// -debugaddr serves net/http/pprof and a second /metrics on a separate
// listener; -accesslog=false silences the per-request stderr log.
//
// Metric reference (full details and event schema in DESIGN.md §9; all
// latency histograms are nanoseconds, exposed as summaries with
// p50/p90/p99, _sum and _count):
//
//	engine_runs_total, engine_runs_aborted_total      completed / aborted engine runs
//	engine_rounds_total, engine_messages_total,
//	engine_bits_total, engine_node_rounds_total,
//	engine_oracle_calls_total                         summed run Stats
//	engine_suppressed_messages_total,
//	engine_crashed_nodes_total                        fault-injection effects
//	engine_sweep_ns                                   one engine run, wall time
//	maintainer_apply_ns, maintainer_repair_ns,
//	maintainer_audit_ns                               per-shard Maintainer latencies (shared series)
//	pool_apply_ns                                     one pool Apply slot end to end
//	pool_route_ns, pool_commit_ns, pool_barrier_ns    the slot's three phases: routing critical
//	                                                  section, concurrent shard commits,
//	                                                  recompose/audit barrier
//	pool_apply_queue_depth                            shard commits in flight on the pipelines
//	pool_epochs_total                                 stop-the-world audit epochs executed
//	pool_updates_routed_total, pool_updates_crossing_total,
//	pool_updates_deferred_total                       routing split of incoming updates
//	pool_crossing_matched_total                       greedy crossing matches made
//	pool_crossing_scanned_total,
//	pool_crossing_carried_total                       dirty-worklist resolution: edges examined /
//	                                                  carried to the next slot
//	pool_resolver_rounds_total,
//	pool_resolver_messages_total                      cross-shard communication (conflict repairs;
//	                                                  pool probes are sequential)
//	pool_repair_nodes_total                           nodes in witness-region conflict repairs
//	pool_full_repairs_total                           full-repair fallbacks after a failed re-probe
//	pool_step, pool_degraded, pool_certified          serving state gauges
//	shard_up{shard="N"}, shard_health{shard="N"},
//	shard_backoff_slots{shard="N"},
//	shard_restarts{shard="N"}                         per-shard supervisor gauges
//	http_request_ns{route="R"}                        per-route latency (timeouts included)
//	http_requests_total{route="R",code="C"}           responses by route and status
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"distmatch/internal/dist"
	"distmatch/internal/gen"
	"distmatch/internal/rng"
	"distmatch/internal/shard"
	"distmatch/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nx := flag.Int("nx", 64, "left-side nodes of the bipartite slab")
	ny := flag.Int("ny", 64, "right-side nodes")
	prob := flag.Float64("p", 0.1, "slab edge probability")
	shards := flag.Int("shards", 4, "pool width")
	k := flag.Int("k", 3, "approximation target: certified matchings are (1-1/k)-approximate")
	seed := flag.Uint64("seed", 1, "root seed (identical seeds and request sequences replay bit-identically)")
	full := flag.Bool("full", false, "start with every slab edge live instead of empty")
	auditEvery := flag.Int("audit", 8, "pool conflict-audit cadence in applies")
	backoff := flag.Int("backoff", 1, "base auto-restart backoff of a killed shard, in applies")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	debugaddr := flag.String("debugaddr", "", "separate listener for pprof + /metrics (empty = off)")
	accesslog := flag.Bool("accesslog", true, "log every request to stderr")
	events := flag.Int("events", 4096, "event-ring capacity (structured trace records held)")
	flag.Parse()

	reg := telemetry.New(telemetry.Options{EventCapacity: *events})
	dist.SetTelemetry(reg)

	g := gen.BipartiteGnp(rng.New(*seed), *nx, *ny, *prob)
	pool := shard.New(g, shard.Options{
		Shards: *shards, K: *k, Seed: *seed,
		StartEmpty: !*full, AuditEvery: *auditEvery,
		RestartBackoff: *backoff,
		Telemetry:      reg,
	})
	defer pool.Close()

	var logw io.Writer
	if *accesslog {
		logw = os.Stderr
	}
	if *debugaddr != "" {
		dbg := &http.Server{
			Addr:              *debugaddr,
			Handler:           newDebugHandler(reg),
			ReadHeaderTimeout: *timeout,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "distmatchd: debug listener: %v\n", err)
			}
		}()
		fmt.Printf("distmatchd: pprof + /metrics on %s\n", *debugaddr)
	}

	fmt.Printf("distmatchd: slab %v, %d shards, k=%d, seed %d — listening on %s\n",
		g, *shards, *k, *seed, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(pool, *timeout, reg, logw),
		ReadHeaderTimeout: *timeout,
	}
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "distmatchd: %v\n", err)
		os.Exit(1)
	}
}
