#!/usr/bin/env bash
# bench.sh — run the simulator-core and planner benchmarks and record the
# results.
#
# Runs the engine benchmarks (BenchmarkFullSim across worker counts,
# BenchmarkFullSimCached cold/warm, BenchmarkRunKernel) and the planner
# benchmarks (BenchmarkBuildClusters across suite profiles,
# BenchmarkStreamingPlan, BenchmarkPlanPhoton, BenchmarkPlanPKA) with
# -benchmem and emits two artifacts:
#
#   BENCH_PR${PR}.txt   raw `go test -bench` output (benchstat-compatible:
#                       feed two of these to `benchstat old.txt new.txt`)
#   BENCH_PR${PR}.json  parsed per-benchmark numbers plus the frozen
#                       baselines of earlier PRs, so the perf trajectory is
#                       diffable in-repo
#
# Usage: [PR=n] scripts/bench.sh [benchtime] [out.json]
#   PR         PR number stamped into the artifacts (default 10)
#   benchtime  go -benchtime value (default 3x; CI smoke uses 1x)
#   out.json   output path (default BENCH_PR${PR}.json next to the repo root)
#
# Historical acceptance bars (recorded in the frozen baseline_pr* blocks, not
# gated below): FullSim/j1 <= baseline_pr1/1.5 and RunKernel allocs_per_op
# <= 2 (PR 2), FullSimCached/warm >= 5x faster than cold (PR 3),
# BuildClusters/hf >= 3x faster with >= 10x fewer allocs than baseline_pr3
# (PR 4), FullSim/j1 and RunKernel <= baseline_pr4/1.3 (PR 5). Since PR 13
# the exact engine schedules from per-SM event queues in (ready, launch id)
# order; RunKernel rows recorded before it are engine fingerprint v2.
#
# Scaling section (PR 6): BenchmarkFullSim is a fixed j ∈ {1,2,4,8,16}
# ladder, so every BENCH_PR*.json from PR 6 on carries the parallel speedup
# curve of the work-stealing segment executor as a tracked artifact. The
# scaling bar is machine-relative: FullSim/j4 must never be slower than
# FullSim/j1 beyond timing noise (CI gates j4 <= j1 * 1.15). On an N-core
# machine jmin(4,N) should approach min(4,N)x the j1 throughput; on the
# 1-core CI container every rung clamps to one worker (parallel.Workers),
# which is exactly what retires PR 5's j4-14%-slower-than-j1 regression.
#
# Remote-cache section (PR 7): BenchmarkRemoteWarm/{batched,single} pins the
# wire-amortization of the cachenet client (one BatchGet round trip per
# workload vs one Get per segment; gate: single/batched >= 2), and
# BenchmarkDSECached/{cold,warm-remote} pins the fleet payoff (a DSE sweep
# against a seeded cacheserver vs against an empty one; gate: warm-remote
# <= cold * 0.25). PR 7 also chases PR 6's warm-replay drift: the cached
# replay path was rebuilt around per-worker scratch and single-pass key
# hashing, and the warm gate holds FullSimCached/warm to within 1.25x of the
# frozen baseline_pr5 row (78705 ns) so the drift cannot silently return.
#
# Intra-kernel section (PR 8): BenchmarkRunKernelPar/j{1,2,4,8} is the per-SM
# sharded engine's scaling ladder on the same kernel BenchmarkRunKernel runs
# serially. Two gates: RunKernelPar/j4 <= RunKernel * 0.6 on a >=4-core
# machine (skipped below 4 cores, where parallel.Workers clamps every rung to
# the serial path and the ratio measures nothing), and the accuracy half —
# `experiments -run epochsweep -scale quick` must report max total-cycles
# error <= 2% at the default epoch. The default-point error numbers are
# embedded in the JSON under "epochsweep" so the accuracy trajectory is
# tracked alongside the perf trajectory.
#
# Streaming section (PR 9, gate re-based in PR 12): BenchmarkStreamIngest/
# {onepass,twopass} runs the planner end to end over the same 2M-invocation
# serving-trace CSV — onepass is the single-pass IncrementalPlanner fed by
# ScanBytes, twopass the SampleStream over FastCSVScanner.Scan. Both share
# the one byte-level decoder since PR 12, so their ratio says nothing about
# it any more; the gate holds onepass to the frozen baseline_pr9 absolute
# (358608457 ns) with the usual 1.25x noise allowance.
# BenchmarkIncrementalPlan tracks the amortized cost of one re-plan from
# warm reservoirs (the per-re-plan, not per-invocation, price a serving
# deployment pays). PR 15 adds the decoder on its own, ungated:
# BenchmarkScanBytes (serving-trace rows through ScanBytes with a no-op
# yield; ns/row and MB/s) and BenchmarkParseTime/{fast,strconv} (the exact
# decimal fast path against strconv.ParseFloat on 17-digit fields).
#
# Barrier-merge section (PR 10): BenchmarkMergeEpoch/{uniform,skewed}/
# {serial,banked-j4} isolates the epoch-barrier merge — the serial loser-tree
# replay vs the three-phase banked replay on 4 merge workers, over a uniform
# L2-set mix and a 90%-in-one-quarter skewed one. Two gates on >=4-core
# machines (both skipped below, where the merge pool clamps): banked-j4 must
# finish the uniform mix in at most half the serial merge's time
# (serial/banked >= 2), and the PR 8 intra-kernel gate tightens from 0.6 to
# RunKernelPar/j4 <= RunKernel * 0.55 — the share the parallel merge claws
# back from the barrier. The epochsweep summary also carries replayed-access
# and miss counts per epoch setting into the JSON (es fields), so merge work
# volume is tracked alongside accuracy.
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${PR:-10}"
BENCHTIME="${1:-3x}"
OUT="${2:-BENCH_PR${PR}.json}"
RAW="${OUT%.json}.txt"

run_bench() {
  go test -run '^$' -bench "$1" -benchmem -benchtime "$BENCHTIME" -count 1 "$2"
}

{
  run_bench 'BenchmarkFullSim' ./internal/pipeline/   # also matches FullSimCached
  run_bench 'BenchmarkRunKernel|BenchmarkMergeEpoch' ./internal/gpu/
  run_bench 'BenchmarkBuildClusters|BenchmarkStreamingPlan|BenchmarkPlanPhoton|BenchmarkPlanPKA' .
  run_bench 'BenchmarkStreamIngest|BenchmarkIncrementalPlan' .
  run_bench 'BenchmarkScanBytes|BenchmarkParseTime' ./internal/trace/
  run_bench 'BenchmarkRemoteWarm|BenchmarkDSECached' ./internal/cachenet/
} | tee "$RAW"

# Parse "BenchmarkName-N  iters  T ns/op  B B/op  A allocs/op" rows into
# JSON. The baseline blocks are earlier PRs' engines measured on the same
# machine class (Xeon 2.10GHz) right before the next change landed.
awk -v benchtime="$BENCHTIME" '
  /^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^Benchmark/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns = $(i-1)
      if ($i == "B/op")      bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    if (n++) printf ",\n"
    printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
      name, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs)
  }
  END {
    if (n == 0) { print "bench.sh: no benchmark rows parsed" > "/dev/stderr"; exit 1 }
  }
' "$RAW" > /tmp/bench_rows.$$ || { rm -f /tmp/bench_rows.$$; exit 1; }

# Epoch-accuracy measurement (PR 8): the epochsweep experiment scores the
# relaxed-sync intra-kernel engine against the exact engine across the
# reduced DSE workloads. Its error columns are deterministic (quick scale,
# cold cache), so the parsed default-point numbers are reproducible
# artifacts, unlike the timing rows above. The <= 2% gate runs further down
# with the perf gates.
go build -o /tmp/experiments_bench.$$ ./cmd/experiments
/tmp/experiments_bench.$$ -run epochsweep -scale quick | tee /tmp/epochsweep.$$
rm -f /tmp/experiments_bench.$$
# "default epoch 64: max error 1.290% mean 0.350% across 17 workloads
#  replayed 1355117 misses 823896" (PR 10 appended the last four fields;
# positions of the earlier ones are frozen)
es_epoch="$(awk '/^default epoch /{sub(/:$|:/,"",$3); print $3; exit}' /tmp/epochsweep.$$)"
es_max="$(awk '/^default epoch /{sub(/%/,"",$6); print $6; exit}' /tmp/epochsweep.$$)"
es_mean="$(awk '/^default epoch /{sub(/%/,"",$8); print $8; exit}' /tmp/epochsweep.$$)"
es_n="$(awk '/^default epoch /{print $10; exit}' /tmp/epochsweep.$$)"
es_replayed="$(awk '/^default epoch /{print $13; exit}' /tmp/epochsweep.$$)"
es_misses="$(awk '/^default epoch /{print $15; exit}' /tmp/epochsweep.$$)"
es_replayed="${es_replayed:-0}"
es_misses="${es_misses:-0}"
rm -f /tmp/epochsweep.$$
if [ -z "$es_max" ]; then
  echo "bench.sh: epochsweep produced no default-epoch summary line" >&2
  rm -f /tmp/bench_rows.$$
  exit 1
fi

cat > "$OUT" <<EOF
{
  "pr": $PR,
  "benchtime": "$BENCHTIME",
  "goos": "$(go env GOOS)",
  "goarch": "$(go env GOARCH)",
  "baseline_pr1": [
    {"name": "FullSim/j1", "ns_per_op": 847070212, "bytes_per_op": 36148534, "allocs_per_op": 216177},
    {"name": "RunKernel", "ns_per_op": 21086218, "bytes_per_op": 183448, "allocs_per_op": 616}
  ],
  "baseline_pr2": [
    {"name": "FullSim/j1", "ns_per_op": 467215781, "bytes_per_op": 6214402, "allocs_per_op": 2393},
    {"name": "RunKernel", "ns_per_op": 13752289, "bytes_per_op": 0, "allocs_per_op": 0}
  ],
  "baseline_pr3": [
    {"name": "FullSim/j1", "ns_per_op": 517094977, "bytes_per_op": 6214442, "allocs_per_op": 2394},
    {"name": "FullSimCached/warm", "ns_per_op": 74411, "bytes_per_op": 32224, "allocs_per_op": 194},
    {"name": "RunKernel", "ns_per_op": 17164885, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 4236308, "bytes_per_op": 3830101, "allocs_per_op": 39227},
    {"name": "BuildClusters/casio", "ns_per_op": 26801373, "bytes_per_op": 23900365, "allocs_per_op": 228394},
    {"name": "BuildClusters/hf", "ns_per_op": 151827473, "bytes_per_op": 148147226, "allocs_per_op": 1275269},
    {"name": "StreamingPlan", "ns_per_op": 79307581, "bytes_per_op": 52601096, "allocs_per_op": 380865},
    {"name": "PlanPhoton", "ns_per_op": 14501224, "bytes_per_op": 5346144, "allocs_per_op": 10230},
    {"name": "PlanPKA", "ns_per_op": 59973807, "bytes_per_op": 3792242, "allocs_per_op": 10441}
  ],
  "baseline_pr4": [
    {"name": "FullSim/j1", "ns_per_op": 450391494, "bytes_per_op": 6214437, "allocs_per_op": 2394},
    {"name": "FullSimCached/cold", "ns_per_op": 453944623, "bytes_per_op": 6244650, "allocs_per_op": 2606},
    {"name": "FullSimCached/warm", "ns_per_op": 67849, "bytes_per_op": 32224, "allocs_per_op": 194},
    {"name": "RunKernel", "ns_per_op": 13844719, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1444283, "bytes_per_op": 244893, "allocs_per_op": 87},
    {"name": "BuildClusters/casio", "ns_per_op": 8021962, "bytes_per_op": 1266658, "allocs_per_op": 116},
    {"name": "BuildClusters/hf", "ns_per_op": 45222130, "bytes_per_op": 7027757, "allocs_per_op": 92},
    {"name": "StreamingPlan", "ns_per_op": 40265737, "bytes_per_op": 14081170, "allocs_per_op": 749},
    {"name": "PlanPhoton", "ns_per_op": 14464282, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 55958188, "bytes_per_op": 14505304, "allocs_per_op": 10541}
  ],
  "baseline_pr5": [
    {"name": "FullSim/j1", "ns_per_op": 311406732, "bytes_per_op": 773202, "allocs_per_op": 287},
    {"name": "FullSim/j2", "ns_per_op": 316498806, "bytes_per_op": 1540026, "allocs_per_op": 571},
    {"name": "FullSim/j4", "ns_per_op": 353744814, "bytes_per_op": 3073488, "allocs_per_op": 1131},
    {"name": "FullSimCached/cold", "ns_per_op": 295320037, "bytes_per_op": 808712, "allocs_per_op": 516},
    {"name": "FullSimCached/warm", "ns_per_op": 78705, "bytes_per_op": 32232, "allocs_per_op": 194},
    {"name": "RunKernel", "ns_per_op": 9286617, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1478553, "bytes_per_op": 244893, "allocs_per_op": 87},
    {"name": "BuildClusters/casio", "ns_per_op": 8457153, "bytes_per_op": 1266658, "allocs_per_op": 116},
    {"name": "BuildClusters/hf", "ns_per_op": 44122617, "bytes_per_op": 7027757, "allocs_per_op": 92},
    {"name": "StreamingPlan", "ns_per_op": 44514272, "bytes_per_op": 14081120, "allocs_per_op": 749},
    {"name": "PlanPhoton", "ns_per_op": 14210057, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 58903315, "bytes_per_op": 14505298, "allocs_per_op": 10541}
  ],
  "baseline_pr6": [
    {"name": "FullSim/j1", "ns_per_op": 326761569, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j2", "ns_per_op": 313001309, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j4", "ns_per_op": 310394559, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j8", "ns_per_op": 306159008, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j16", "ns_per_op": 337015624, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSimCached/cold", "ns_per_op": 341941159, "bytes_per_op": 808568, "allocs_per_op": 516},
    {"name": "FullSimCached/warm", "ns_per_op": 96172, "bytes_per_op": 32088, "allocs_per_op": 194},
    {"name": "RunKernel", "ns_per_op": 9181252, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1494655, "bytes_per_op": 244893, "allocs_per_op": 87},
    {"name": "BuildClusters/casio", "ns_per_op": 9949388, "bytes_per_op": 1266704, "allocs_per_op": 117},
    {"name": "BuildClusters/hf", "ns_per_op": 47024287, "bytes_per_op": 7027757, "allocs_per_op": 92},
    {"name": "StreamingPlan", "ns_per_op": 37996165, "bytes_per_op": 14081120, "allocs_per_op": 749},
    {"name": "PlanPhoton", "ns_per_op": 13309169, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 58133138, "bytes_per_op": 14505304, "allocs_per_op": 10541}
  ],
  "baseline_pr7": [
    {"name": "FullSim/j1", "ns_per_op": 313197222, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j2", "ns_per_op": 309525348, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j4", "ns_per_op": 313951453, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j8", "ns_per_op": 306346945, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSim/j16", "ns_per_op": 308417651, "bytes_per_op": 773266, "allocs_per_op": 288},
    {"name": "FullSimCached/cold", "ns_per_op": 305404769, "bytes_per_op": 799944, "allocs_per_op": 356},
    {"name": "FullSimCached/warm", "ns_per_op": 52736, "bytes_per_op": 23474, "allocs_per_op": 34},
    {"name": "RunKernel", "ns_per_op": 9340522, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1616073, "bytes_per_op": 244893, "allocs_per_op": 87},
    {"name": "BuildClusters/casio", "ns_per_op": 8930882, "bytes_per_op": 1266658, "allocs_per_op": 116},
    {"name": "BuildClusters/hf", "ns_per_op": 45407978, "bytes_per_op": 7027757, "allocs_per_op": 92},
    {"name": "StreamingPlan", "ns_per_op": 42671684, "bytes_per_op": 14081165, "allocs_per_op": 749},
    {"name": "PlanPhoton", "ns_per_op": 13949424, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 57155091, "bytes_per_op": 14505309, "allocs_per_op": 10541},
    {"name": "RemoteWarm/batched", "ns_per_op": 426755, "bytes_per_op": 332325, "allocs_per_op": 535},
    {"name": "RemoteWarm/single", "ns_per_op": 4801324, "bytes_per_op": 303770, "allocs_per_op": 4109},
    {"name": "DSECached/cold", "ns_per_op": 6306487522, "bytes_per_op": 342964944, "allocs_per_op": 150340},
    {"name": "DSECached/warm-remote", "ns_per_op": 71379350, "bytes_per_op": 103695434, "allocs_per_op": 54995}
  ],
  "baseline_pr8": [
    {"name": "FullSim/j1", "ns_per_op": 309078404, "bytes_per_op": 773304, "allocs_per_op": 288},
    {"name": "FullSim/j2", "ns_per_op": 317558687, "bytes_per_op": 773304, "allocs_per_op": 288},
    {"name": "FullSim/j4", "ns_per_op": 303726424, "bytes_per_op": 773304, "allocs_per_op": 288},
    {"name": "FullSim/j8", "ns_per_op": 323004711, "bytes_per_op": 773304, "allocs_per_op": 288},
    {"name": "FullSim/j16", "ns_per_op": 299181308, "bytes_per_op": 773304, "allocs_per_op": 288},
    {"name": "FullSimCached/cold", "ns_per_op": 297544180, "bytes_per_op": 800232, "allocs_per_op": 356},
    {"name": "FullSimCached/warm", "ns_per_op": 63775, "bytes_per_op": 23768, "allocs_per_op": 34},
    {"name": "RunKernel", "ns_per_op": 9743589, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j1", "ns_per_op": 9291325, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j2", "ns_per_op": 9091004, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j4", "ns_per_op": 9115631, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j8", "ns_per_op": 9126569, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1622508, "bytes_per_op": 294456, "allocs_per_op": 100},
    {"name": "BuildClusters/casio", "ns_per_op": 8265037, "bytes_per_op": 1714216, "allocs_per_op": 137},
    {"name": "BuildClusters/hf", "ns_per_op": 51360670, "bytes_per_op": 9649608, "allocs_per_op": 110},
    {"name": "StreamingPlan", "ns_per_op": 51573494, "bytes_per_op": 14256424, "allocs_per_op": 761},
    {"name": "PlanPhoton", "ns_per_op": 16632513, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 58283139, "bytes_per_op": 14505304, "allocs_per_op": 10541},
    {"name": "RemoteWarm/batched", "ns_per_op": 3318484, "bytes_per_op": 508496, "allocs_per_op": 563},
    {"name": "RemoteWarm/single", "ns_per_op": 7784412, "bytes_per_op": 479920, "allocs_per_op": 4137},
    {"name": "DSECached/cold", "ns_per_op": 6196672295, "bytes_per_op": 342995336, "allocs_per_op": 150375},
    {"name": "DSECached/warm-remote", "ns_per_op": 71290080, "bytes_per_op": 103723000, "allocs_per_op": 54999}
  ],
  "baseline_pr9": [
    {"name": "FullSim/j1", "ns_per_op": 323032264, "bytes_per_op": 773298, "allocs_per_op": 288},
    {"name": "FullSim/j2", "ns_per_op": 297601901, "bytes_per_op": 773298, "allocs_per_op": 288},
    {"name": "FullSim/j4", "ns_per_op": 305389443, "bytes_per_op": 773298, "allocs_per_op": 288},
    {"name": "FullSim/j8", "ns_per_op": 294949362, "bytes_per_op": 773298, "allocs_per_op": 288},
    {"name": "FullSim/j16", "ns_per_op": 297876036, "bytes_per_op": 773298, "allocs_per_op": 288},
    {"name": "FullSimCached/cold", "ns_per_op": 306483958, "bytes_per_op": 800232, "allocs_per_op": 356},
    {"name": "FullSimCached/warm", "ns_per_op": 56498, "bytes_per_op": 23762, "allocs_per_op": 34},
    {"name": "RunKernel", "ns_per_op": 9983080, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j1", "ns_per_op": 9524012, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j2", "ns_per_op": 9370515, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j4", "ns_per_op": 9550297, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "RunKernelPar/j8", "ns_per_op": 9396495, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "BuildClusters/rodinia", "ns_per_op": 1515060, "bytes_per_op": 244893, "allocs_per_op": 87},
    {"name": "BuildClusters/casio", "ns_per_op": 8452263, "bytes_per_op": 1266658, "allocs_per_op": 116},
    {"name": "BuildClusters/hf", "ns_per_op": 48419480, "bytes_per_op": 7027802, "allocs_per_op": 92},
    {"name": "StreamingPlan", "ns_per_op": 39844083, "bytes_per_op": 13217776, "allocs_per_op": 665},
    {"name": "PlanPhoton", "ns_per_op": 14221735, "bytes_per_op": 5387104, "allocs_per_op": 10231},
    {"name": "PlanPKA", "ns_per_op": 57990503, "bytes_per_op": 14505304, "allocs_per_op": 10541},
    {"name": "StreamIngest/onepass", "ns_per_op": 358608457, "bytes_per_op": 14589000, "allocs_per_op": 12731},
    {"name": "StreamIngest/twopass", "ns_per_op": 1198038201, "bytes_per_op": 269959304, "allocs_per_op": 4003259},
    {"name": "IncrementalPlan", "ns_per_op": 36031705, "bytes_per_op": 8132738, "allocs_per_op": 12219},
    {"name": "RemoteWarm/batched", "ns_per_op": 467328, "bytes_per_op": 332325, "allocs_per_op": 535},
    {"name": "RemoteWarm/single", "ns_per_op": 4597735, "bytes_per_op": 303770, "allocs_per_op": 4109},
    {"name": "DSECached/cold", "ns_per_op": 6269294929, "bytes_per_op": 342990168, "allocs_per_op": 150308},
    {"name": "DSECached/warm-remote", "ns_per_op": 60415706, "bytes_per_op": 103722384, "allocs_per_op": 54986}
  ],
  "epochsweep": {"default_epoch": $es_epoch, "max_error_pct": $es_max, "mean_error_pct": $es_mean, "workloads": $es_n, "replayed": $es_replayed, "misses": $es_misses},
  "benchmarks": [
$(cat /tmp/bench_rows.$$)
  ]
}
EOF
rm -f /tmp/bench_rows.$$

# Scaling gate (PR 6): adding workers must never cost wall clock. FullSim/j4
# has to land within timing noise of FullSim/j1 (or beat it, on multicore
# machines); 1.15 is the noise allowance for single-iteration CI smokes.
# Benchmark rows carry a -GOMAXPROCS suffix except when GOMAXPROCS is 1;
# strip it before comparing names.
ns_of() {
  awk -v b="BenchmarkFullSim/$1" \
    '{ name = $1; sub(/-[0-9]+$/, "", name); if (name == b) { print $3; exit } }' "$RAW"
}
j1="$(ns_of j1)"; j4="$(ns_of j4)"
if [ -n "$j1" ] && [ -n "$j4" ]; then
  awk -v j1="$j1" -v j4="$j4" 'BEGIN {
    ratio = j4 / j1
    if (ratio > 1.15) {
      printf "bench.sh: scaling gate FAILED: FullSim/j4 = %.0f ns > FullSim/j1 = %.0f ns * 1.15 (ratio %.3f)\n", j4, j1, ratio
      exit 1
    }
    printf "bench.sh: scaling gate ok: FullSim/j4 / FullSim/j1 = %.3f (must be <= 1.15)\n", ratio
  }'
else
  echo "bench.sh: scaling gate skipped (FullSim j1/j4 rows not found in $RAW)" >&2
fi

# bench_ns extracts the ns/op of a fully-qualified benchmark name.
bench_ns() {
  awk -v b="Benchmark$1" \
    '{ name = $1; sub(/-[0-9]+$/, "", name); if (name == b) { print $3; exit } }' "$RAW"
}

# Warm-replay gate (PR 7, retiring PR 6's drift): the cached warm replay is
# held to the frozen baseline_pr5 absolute (78705 ns) with a 1.25x noise
# allowance. An absolute bar — not cold-relative — because the drift this
# chases was warm-path-only and invisible to the warm/cold ratio.
warm="$(bench_ns 'FullSimCached/warm')"
if [ -n "$warm" ]; then
  awk -v warm="$warm" 'BEGIN {
    bar = 78705 * 1.25
    if (warm > bar) {
      printf "bench.sh: warm-replay gate FAILED: FullSimCached/warm = %.0f ns > baseline_pr5 78705 ns * 1.25 = %.0f ns\n", warm, bar
      exit 1
    }
    printf "bench.sh: warm-replay gate ok: FullSimCached/warm = %.0f ns (must be <= %.0f)\n", warm, bar
  }'
else
  echo "bench.sh: warm-replay gate skipped (FullSimCached/warm row not found in $RAW)" >&2
fi

# Remote-cache gates (PR 7): a DSE sweep against a seeded cacheserver must
# run in at most a quarter of the cold sweep, and the batched lookup path
# must beat per-segment single Gets by at least 2x.
dse_cold="$(bench_ns 'DSECached/cold')"; dse_warm="$(bench_ns 'DSECached/warm-remote')"
if [ -n "$dse_cold" ] && [ -n "$dse_warm" ]; then
  awk -v cold="$dse_cold" -v warm="$dse_warm" 'BEGIN {
    ratio = warm / cold
    if (ratio > 0.25) {
      printf "bench.sh: remote-warm gate FAILED: DSECached/warm-remote / cold = %.3f (must be <= 0.25)\n", ratio
      exit 1
    }
    printf "bench.sh: remote-warm gate ok: DSECached/warm-remote / cold = %.3f (must be <= 0.25)\n", ratio
  }'
else
  echo "bench.sh: remote-warm gate skipped (DSECached rows not found in $RAW)" >&2
fi

rw_batched="$(bench_ns 'RemoteWarm/batched')"; rw_single="$(bench_ns 'RemoteWarm/single')"
if [ -n "$rw_batched" ] && [ -n "$rw_single" ]; then
  awk -v batched="$rw_batched" -v single="$rw_single" 'BEGIN {
    speedup = single / batched
    if (speedup < 2.0) {
      printf "bench.sh: batch gate FAILED: RemoteWarm single/batched = %.2fx (must be >= 2)\n", speedup
      exit 1
    }
    printf "bench.sh: batch gate ok: RemoteWarm single/batched = %.2fx (must be >= 2)\n", speedup
  }'
else
  echo "bench.sh: batch gate skipped (RemoteWarm rows not found in $RAW)" >&2
fi

# Intra-kernel scaling gate (PR 8, tightened by PR 10's parallel barrier
# merge): on a >=4-core machine the per-SM sharded engine at j4 must finish
# the bench kernel in at most 0.55x the exact serial engine's time. Below 4
# cores parallel.Workers clamps the shard pool, the j4 rung degenerates
# toward serial-plus-barrier-overhead, and the ratio measures nothing —
# skipped, not waived: any >=4-core runner enforces it.
cores="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
par_j4="$(bench_ns 'RunKernelPar/j4')"; rk_serial="$(bench_ns 'RunKernel')"
if [ "$cores" -lt 4 ]; then
  echo "bench.sh: intra-kernel gate skipped ($cores cores < 4: RunKernelPar rungs clamp to the serial path)" >&2
elif [ -n "$par_j4" ] && [ -n "$rk_serial" ]; then
  awk -v par="$par_j4" -v serial="$rk_serial" 'BEGIN {
    ratio = par / serial
    if (ratio > 0.55) {
      printf "bench.sh: intra-kernel gate FAILED: RunKernelPar/j4 = %.0f ns > RunKernel = %.0f ns * 0.55 (ratio %.3f)\n", par, serial, ratio
      exit 1
    }
    printf "bench.sh: intra-kernel gate ok: RunKernelPar/j4 / RunKernel = %.3f (must be <= 0.55)\n", ratio
  }'
else
  echo "bench.sh: intra-kernel gate skipped (RunKernelPar/j4 or RunKernel row not found in $RAW)" >&2
fi

# Barrier-merge gate (PR 10): on a >=4-core machine the banked three-phase
# merge on 4 workers must replay the uniform epoch mix at least 2x as fast
# as the serial loser-tree merge. Below 4 cores the merge pool clamps and
# banked degenerates to bucketing overhead on one worker — skipped there.
me_serial="$(bench_ns 'MergeEpoch/uniform/serial')"
me_banked="$(bench_ns 'MergeEpoch/uniform/banked-j4')"
if [ "$cores" -lt 4 ]; then
  echo "bench.sh: barrier-merge gate skipped ($cores cores < 4: merge workers clamp to the serial path)" >&2
elif [ -n "$me_serial" ] && [ -n "$me_banked" ]; then
  awk -v serial="$me_serial" -v banked="$me_banked" 'BEGIN {
    speedup = serial / banked
    if (speedup < 2.0) {
      printf "bench.sh: barrier-merge gate FAILED: MergeEpoch serial/banked-j4 = %.2fx (must be >= 2)\n", speedup
      exit 1
    }
    printf "bench.sh: barrier-merge gate ok: MergeEpoch serial/banked-j4 = %.2fx (must be >= 2)\n", speedup
  }'
else
  echo "bench.sh: barrier-merge gate skipped (MergeEpoch rows not found in $RAW)" >&2
fi

# Streaming-ingest gate (PR 9; absolute since PR 12): the single-pass
# planner over the zero-alloc byte decoder is held to the frozen
# baseline_pr9 row (358608457 ns for the 2M-invocation serving trace) with
# a 1.25x noise allowance.
si_one="$(bench_ns 'StreamIngest/onepass')"
if [ -n "$si_one" ]; then
  awk -v one="$si_one" 'BEGIN {
    bar = 358608457 * 1.25
    if (one > bar) {
      printf "bench.sh: streaming gate FAILED: StreamIngest/onepass = %.0f ns > baseline_pr9 358608457 ns * 1.25 = %.0f ns\n", one, bar
      exit 1
    }
    printf "bench.sh: streaming gate ok: StreamIngest/onepass = %.0f ns (must be <= %.0f)\n", one, bar
  }'
else
  echo "bench.sh: streaming gate skipped (StreamIngest/onepass row not found in $RAW)" >&2
fi

# Epoch-accuracy gate (PR 8): the relaxed-sync engine's default configuration
# must keep the max total-cycles error across the DSE workloads at or under
# 2% of the exact engine. Deterministic — never skipped.
awk -v max="$es_max" -v mean="$es_mean" -v epoch="$es_epoch" 'BEGIN {
  if (max + 0 > 2.0) {
    printf "bench.sh: epoch-accuracy gate FAILED: max error %.3f%% at default epoch %s (must be <= 2%%)\n", max, epoch
    exit 1
  }
  printf "bench.sh: epoch-accuracy gate ok: default epoch %s max error %.3f%% mean %.3f%% (must be <= 2%%)\n", epoch, max, mean
}'

echo "wrote $RAW and $OUT"
