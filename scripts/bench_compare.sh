#!/usr/bin/env bash
# Records the engine and serving micro-benchmarks into one BENCH file:
# node-rounds/s of the two engine entry points (dist.Run and
# dist.RunFlat) and of every protocol's exported entry point (Israeli–Itai,
# MIS, the LPR weight classes, LocalGreedy, Algorithms 3-5, the Lemma 3.7
# strict-CONGEST pipeline and the LOCAL-model generic algorithm), the
# Config.Workers scaling sweep, the workers × topology grid (4-regular /
# dense G(n,m) / irregular G(n,p) / star hub at workers {1,2,4,8}), the
# batch-runner amortization pair, the dynamic-maintainer switch and
# active-set region-repair pairs, the sharded-serving group (one churn
# slot through the 4-shard Pool — pipelined, serial and concurrent —
# vs one unsharded Maintainer, plus the flagged query path) and the
# telemetry-overhead group (the flat engine sweep, the Maintainer slot
# and the pool slot rerun with a live telemetry registry).
#
# Each benchmark runs COUNT times and the best rate is recorded: on a
# shared host whose throughput swings over minutes the best run
# estimates uncontended-hardware throughput. Raise COUNT (and BENCHTIME)
# for stabler numbers, and record the host with the numbers.
#
# Run from the repository root: ./scripts/bench_compare.sh OUT.json
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 OUT.json" >&2
	exit 2
fi
out=$(realpath -m "$1")
cd "$(dirname "$0")/.."
benchtime=${BENCHTIME:-1s}
count=${COUNT:-3}

# The groups and the sweeps run as separate invocations: a "/" in a
# -bench alternation would be treated as a sub-benchmark separator.
# The amortization/maintenance pairs get a process of their own — the
# LOCAL-model generic workload retires hundreds of MB of map garbage,
# and sharing its heap skews the GC pacing of whatever runs next.
raw=$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^(BenchmarkEngineRound|BenchmarkEngineRoundFlat|BenchmarkAlgIsraeliItai|BenchmarkAlgMIS|BenchmarkAlgLPRQuarter|BenchmarkAlgBipartiteMCM|BenchmarkAlgGeneralMCM|BenchmarkAlgWeightedMWM|BenchmarkAlgLocalGreedy|BenchmarkAlgBipartiteStrict|BenchmarkAlgGenericMCM)$' \
	. 2>&1)
raw+=$'\n'$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^(BenchmarkRunnerShortFresh|BenchmarkRunnerShortReuse|BenchmarkDynamicSwitchIncremental|BenchmarkDynamicSwitchRecompute|BenchmarkDynamicRegionRepairActive|BenchmarkDynamicRegionRepairFullSweep)$' \
	. 2>&1)
raw+=$'\n'$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^(BenchmarkShardServingPoolApply|BenchmarkShardServingPoolApplySerial|BenchmarkShardServingPoolApplyConcurrent|BenchmarkShardServingSingleApply|BenchmarkShardServingQuery)$' \
	. 2>&1)
raw+=$'\n'$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^(BenchmarkEngineRoundFlatTelemetry|BenchmarkShardServingSingleApplyTelemetry|BenchmarkShardServingPoolApplyTelemetry)$' \
	. 2>&1)
raw+=$'\n'$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^(BenchmarkEngineRoundWorkers|BenchmarkEngineRoundFlatWorkers)$/^w[0-9]+$' \
	. 2>&1)
raw+=$'\n'$(go test -run '^$' -benchtime "$benchtime" -count "$count" \
	-bench '^BenchmarkEngineRoundFlatTopo$' \
	. 2>&1)

{
	echo '{'
	echo '  "recorded": "'"$(date -u +%Y-%m-%dT%H:%M:%SZ)"'",'
	echo '  "go": "'"$(go env GOVERSION)"'",'
	echo '  "cpus": '"$(nproc)"','
	echo '  "cpu": "'"$(printf '%s\n' "$raw" | sed -n 's/^cpu: //p' | head -1)"'",'
	echo '  "benchtime": "'"$benchtime"'",'
	echo '  "count": '"$count"','
	echo '  "metric": "node-rounds/s (engine/protocols/scaling/topo), ns/slot (dynamic, shard_serving); best of count runs",'
	echo '  "note": "engine times the two dist entry points on 4096 nodes exchanging one signal per edge per round of a 4-regular graph: run is dist.Run (blocking programs on coroutines), run_flat is dist.RunFlat (RoundProgram state machines). protocols times each exported algorithm entry point, all of which execute the flat form. scaling sweeps Config.Workers for both engine entry points; topo_scaling sweeps RunFlat across message patterns. runner_short compares fresh-engine vs dist.Runner setup on an 8-round 256-node run. dynamic_switch and dynamic_region are the maintenance pairs. shard_serving: one 4-toggle churn slot on a 512+512 slab through the 4-shard Pool (pipelined, serial, concurrent clients) vs the same stream through one unsharded Maintainer; overhead_x = pool/single, query_ns prices one flagged read. telemetry_overhead reruns the flat engine sweep, the Maintainer slot and the pool slot with a live registry; overhead_x values are expected within noise of 1.0.",'
	printf '%s\n' "$raw" | awk '
		/^Benchmark/ {
			name=$1; sub(/-[0-9]+$/, "", name)
			rate=0
			for (i=2; i<NF; i++) if ($(i+1) == "node-rounds/s") rate=$i
			if (rate > rates[name]) rates[name]=rate
			nspop=0
			for (i=2; i<NF; i++) if ($(i+1) == "ns/op") nspop=$i
			if (ns[name] == 0 || (nspop > 0 && nspop < ns[name])) ns[name]=nspop
		}
		END {
			printf "  \"engine\": {\"run\": %.0f, \"run_flat\": %.0f},\n", \
				rates["BenchmarkEngineRound"]+0, rates["BenchmarkEngineRoundFlat"]+0
			np=split("IsraeliItai MIS LPRQuarter BipartiteMCM BipartiteStrict GeneralMCM GenericMCM WeightedMWM LocalGreedy", order, " ")
			printf "  \"protocols\": [\n"
			for (k=1; k<=np; k++) {
				printf "    {\"name\": \"%s\", \"node_rounds_per_s\": %.0f}%s\n", \
					order[k], rates["BenchmarkAlg" order[k]]+0, (k<np ? "," : "")
			}
			printf "  ],\n"
			fresh=rates["BenchmarkRunnerShortFresh"]+0
			reuse=rates["BenchmarkRunnerShortReuse"]+0
			printf "  \"runner_short\": {\"fresh\": %.0f, \"reuse\": %.0f, \"speedup\": %.2f},\n", \
				fresh, reuse, (fresh > 0 ? reuse/fresh : 0)
			inc=ns["BenchmarkDynamicSwitchIncremental"]+0
			full=ns["BenchmarkDynamicSwitchRecompute"]+0
			printf "  \"dynamic_switch\": {\"incremental_ns_per_slot\": %.0f, \"recompute_ns_per_slot\": %.0f, \"speedup\": %.2f},\n", \
				inc, full, (inc > 0 ? full/inc : 0)
			ract=ns["BenchmarkDynamicRegionRepairActive"]+0
			rfull=ns["BenchmarkDynamicRegionRepairFullSweep"]+0
			printf "  \"dynamic_region\": {\"active_ns_per_slot\": %.0f, \"fullsweep_ns_per_slot\": %.0f, \"speedup\": %.2f},\n", \
				ract, rfull, (ract > 0 ? rfull/ract : 0)
			spool=ns["BenchmarkShardServingPoolApply"]+0
			sserial=ns["BenchmarkShardServingPoolApplySerial"]+0
			sconc=ns["BenchmarkShardServingPoolApplyConcurrent"]+0
			ssingle=ns["BenchmarkShardServingSingleApply"]+0
			squery=ns["BenchmarkShardServingQuery"]+0
			printf "  \"shard_serving\": {\"pool_ns_per_slot\": %.0f, \"serial_ns_per_slot\": %.0f, \"concurrent_ns_per_slot\": %.0f, \"single_ns_per_slot\": %.0f, \"overhead_x\": %.2f, \"query_ns\": %.0f},\n", \
				spool, sserial, sconc, ssingle, (ssingle > 0 ? spool/ssingle : 0), squery
			tflat=rates["BenchmarkEngineRoundFlatTelemetry"]+0
			bflat=rates["BenchmarkEngineRoundFlat"]+0
			tsingle=ns["BenchmarkShardServingSingleApplyTelemetry"]+0
			tpool=ns["BenchmarkShardServingPoolApplyTelemetry"]+0
			printf "  \"telemetry_overhead\": {\"engine_flat\": %.0f, \"engine_flat_telemetry\": %.0f, \"engine_overhead_x\": %.4f, \"maintainer_ns_per_slot\": %.0f, \"maintainer_telemetry_ns_per_slot\": %.0f, \"maintainer_overhead_x\": %.4f, \"pool_ns_per_slot\": %.0f, \"pool_telemetry_ns_per_slot\": %.0f, \"pool_overhead_x\": %.4f},\n", \
				bflat, tflat, (tflat > 0 ? bflat/tflat : 0), ssingle, tsingle, (ssingle > 0 ? tsingle/ssingle : 0), spool, tpool, (spool > 0 ? tpool/spool : 0)
			printf "  \"scaling\": [\n"
			nw=split("1 2 4 8 16", ws, " ")
			for (k=1; k<=nw; k++) {
				w=ws[k]
				run=rates["BenchmarkEngineRoundWorkers/w" w]+0
				flat=rates["BenchmarkEngineRoundFlatWorkers/w" w]+0
				printf "    {\"workers\": %s, \"run\": %.0f, \"run_flat\": %.0f}%s\n", \
					w, run, flat, (k<nw ? "," : "")
			}
			printf "  ],\n"
			printf "  \"topo_scaling\": [\n"
			nt=split("dreg4 gnm16 gnp8 star", ts, " ")
			nw2=split("1 2 4 8", ws2, " ")
			row=0
			for (k=1; k<=nt; k++) {
				t=ts[k]
				for (j=1; j<=nw2; j++) {
					w=ws2[j]
					row++
					r=rates["BenchmarkEngineRoundFlatTopo/" t "/w" w]+0
					printf "    {\"topology\": \"%s\", \"workers\": %s, \"flat\": %.0f}%s\n", \
						t, w, r, (row<nt*nw2 ? "," : "")
				}
			}
			printf "  ]\n"
		}'
	echo '}'
} > "$out"

echo "wrote $out:"
cat "$out"
