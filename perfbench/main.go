// Command perfbench is the repository benchmark: it runs one named
// workload against the serving stack (distmatchd over HTTP) or the
// engine (the paper's bipartite algorithm in process), checks every
// output it receives, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":N,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics and write their spans under
// -tracedir. A failed correctness check exits 1 after the result line;
// a run that cannot measure exits 2 without one. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // distmatchd binary
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// add records one metric and prints it with its sample count (0 when the
// value is not a statistic over samples).
func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		fmt.Printf("%-38s %14.4f %-8s n=%d\n", name, v, unit, n)
	} else {
		fmt.Printf("%-38s %14.4f %s\n", name, v, unit)
	}
}

// latency records the median of d in ms in untraced runs and its p99 as
// tail.<prefix>_p99_ms in traced ones, noting a p99 that has fewer than
// minBeyond samples beyond it. The p99 is not gated: on a shared 2-vCPU
// VM its run-to-run spread exceeds the largest bound a metric may have.
func (r *result) latency(prefix string, d samples, traced bool) {
	p99 := ms(d.quantile(0.99))
	if traced {
		r.add("tail."+prefix+"_p99_ms", p99, "ms", len(d))
	} else {
		r.add(prefix+"_p50_ms", ms(d.quantile(0.5)), "ms", len(d))
		fmt.Printf("%-38s %14.4f %-8s n=%d, not gated\n", prefix+"_p99_ms", p99, "ms", len(d))
	}
	if !tailTrusted(len(d), 0.99) {
		fmt.Printf("note: %s_p99_ms rests on %d samples, fewer than %d beyond p99\n", prefix, len(d), minBeyond)
	}
}

// endToEnd and perLayer are the metric sets of untraced and traced runs;
// every workload reports every metric of its set.
var (
	endToEnd = []string{
		"setup_s", "ops_per_s", "op_p50_ms", "read_p50_ms", "matching_ratio", "peak_rss_mb",
	}
	// servingLayerNames are the layers only the serving workloads run.
	servingLayerNames = []string{
		"http.apply_server_us", "http.apply_self_us", "http.wire_us", "http.matching_us",
		"http.apply_bytes", "http.matching_bytes",
		"shard.apply_us", "shard.apply_p99_us", "shard.route_us", "shard.commit_us",
		"shard.barrier_us", "shard.barrier_p99_us", "shard.lock_wait_us", "shard.query_ns",
		"shard.audits_per_slot", "shard.audit_pass_ratio", "shard.audits", "shard.audit_failures",
		"shard.repairs_per_slot", "shard.adopts_per_slot", "shard.crossing_share",
		"shard.crossing_scanned_per_matched", "shard.resolver_node_rounds_per_slot",
		"shard.resolver_messages_per_slot", "shard.overhead_x",
		"dynamic.audit_us_per_slot", "dynamic.audits_per_shard_apply", "dynamic.audits",
		"dynamic.repair_us_per_slot", "dynamic.repairs_per_shard_apply",
		"dynamic.apply_us_per_slot", "dynamic.single_slot_us",
		"dist.runs_per_slot", "dist.sweep_us_per_slot", "dist.node_rounds_per_slot", "dist.messages_per_slot",
		"loadgen.lag_p99_ms", "loadgen.backlog_max", "loadgen.failed_share",
		"loadgen.sustainable_updates_per_s",
	}
	perLayer = append(slices.Clone(servingLayerNames),
		"dist.node_rounds_per_s", "dist.rounds", "dist.messages", "dist.oracle_calls",
		"dist.node_rounds", "dist.aborted_runs", "loadgen.steal_share", "loadgen.discarded_windows",
		"tail.op_p99_ms", "tail.read_p99_ms", "trace.overhead_pct")
)

// layerUnit is the unit a per-layer metric is reported in, read off its
// name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us_per_"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_bytes"):
		return "B"
	case strings.HasSuffix(name, "_x"):
		return "x"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.Contains(name, "_per_") || strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share"):
		return "1"
	}
	return "count"
}

// finishTrace prints the self time of every span name and writes the
// spans out.
func finishTrace(tr *tracer, cfg config) {
	printLayerTimes(selfTimes(tr.spans))
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		return
	}
	fmt.Printf("%d spans written to %s\n", len(tr.spans), path)
}

// hostStamp describes where a result was measured: numbers from
// different hosts do not compare.
func hostStamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "source_sha256": sourceDigest("."),
	}
}

// sourceDigest identifies the commit under test by its Go sources: the
// benchmark runs from checkouts that carry no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	var cfg config
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: churn | bulk | solve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics and records spans")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin/distmatchd", "distmatchd binary")
	flag.StringVar(&cfg.traceDir, "tracedir", ".bench_build/traces", "directory traced runs write spans to")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace != 0
	if secs < 1 {
		fatalf("-seconds must be at least 1")
	}

	stamp, _ := json.Marshal(hostStamp())
	fmt.Printf("host: %s\n", stamp)
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", cfg.workload, cfg.seed, secs, cfg.trace)

	var res *result
	var err error
	switch cfg.workload {
	case "churn":
		res, err = runServing(churn, cfg)
	case "bulk":
		res, err = runServing(bulk, cfg)
	case "solve":
		res, err = runSolve(cfg)
	default:
		fatalf("unknown workload %q (churn | bulk | solve)", cfg.workload)
	}
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			fatalf("%s reported no %s", cfg.workload, name)
		}
	}
	if len(res.Metrics) != len(want) {
		fatalf("%s reported %d metrics, want %d", cfg.workload, len(res.Metrics), len(want))
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
