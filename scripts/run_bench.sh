#!/usr/bin/env bash
# Records the perf trajectory of the navigation hot path across PRs.
#
# Runs the tracked microbenchmark suites and writes their JSON next to
# the sources as BENCH_<name>.json; commit the refreshed files alongside any
# change that moves them. Compare two revisions by checking out each and
# diffing the emitted JSON (real_time per benchmark; for batch navigation
# also the `messages` counter of the batched=0 vs batched=1 rows in
# BENCH_batch_nav.json / BENCH_lxp_chunking.json — the before/after
# message counts of the vectored fill path). For
# BENCH_service.json the numbers that matter are items_per_second across the
# BM_ServiceThroughput workers:1..8 rows (worker-pool scaling on the
# 64-session workload), the mismatches counter (framed answers must equal
# in-process evaluation), and BM_ServiceOverload's ok/rejected/dropped split.
# For BENCH_source_cache.json (E14) compare the cache_kb:0 vs cache_kb:4096
# rows of BM_SharedCacheSessions: wrapper_exchanges (>= 50% reduction warm),
# items_per_second (>= 2x), mismatches (= 0), and BM_CacheBudgetPressure's
# evictions + rejects (> 0: the undersized budget churns, either displacing
# entries or turning publishes away) / over_budget (= 0); BM_CacheOps'
# threads:1 and threads:4 rows give the publish+lookup pairs per second one
# shared cache serves, and their "rev" rows price them against a parent
# build. For
# BENCH_plan_opt.json (E15) compare
# the pushdown:0 vs pushdown:1 rows of BM_RelationalScanPushdown and
# BM_RelationalJoinPushdown (the sources registered without vs with their
# declared pushdown capability; the optimizer runs in both):
# wrapper_exchanges (>= 25% reduction with the capability declared),
# mismatches (= 0); BM_XmlFig3Pushdown must show exchange parity (the XML
# wrapper declares no pushdown capability) and BM_OptimizeCost's
# optimize:0 vs optimize:1 rows price the pass pipeline per compile.
#
# BENCH_node_id.json, BENCH_plan_opt.json, BENCH_async_fill.json and
# BENCH_source_cache.json record 5 repetitions per benchmark, aggregates only
# (mean/median/stddev/cv/min; see bench/bench_stats.h). <SUITE>_PARENT=<that
# suite's bench binary built from a parent checkout> (NODE_ID_PARENT,
# SOURCE_CACHE_PARENT, ...) adds that binary's rows to the suite's
# BENCH_<suite>.json, marked "rev": "parent" (the current tree's rows are
# "rev": "change"). The two binaries then run 5 single-repetition pairs
# (BENCH_REPETITIONS=1), alternating which goes first — the first run of a
# series is often the slowest — and the script aggregates each side's 5 runs
# into the same aggregates-only rows. A parent binary must be built with
# this tree's bench/bench_stats.h, or it ignores BENCH_REPETITIONS.
#
# For BENCH_answer_views.json (E16) compare the views_kb:0 vs views_kb:1024
# rows of BM_AnswerViewSessions: warm wrapper_exchanges (= 0 with views on),
# items_per_second (>= 2x), mismatches (= 0), view_hits (> 0).
#
# For BENCH_tcp.json (E17, real loopback sockets) the numbers that matter
# are BM_TcpPipeline's items_per_second across depth:1/4/16 at each conns
# level (pipelining must beat request/response lockstep), and mismatches
# (= 0) in both BM_TcpPipeline and BM_TcpSessionThroughput — framed answers
# over a real wire must equal in-process evaluation.
#
# For BENCH_fleet.json (E18, the session router over 3 real TCP backends)
# the numbers that matter are BM_FleetPlacement's open_p50_us/open_p99_us and
# items_per_second at conns:16/per_thread:64 (1024 concurrent sessions),
# mismatches (= 0 — placement must never change answers), sheds (= 0 while
# every backend is healthy), and BM_FleetFailover's mismatches (= 0: a
# backend killed mid-navigation must not change a single answer byte) with
# failovers/replays > 0 proving the kill actually exercised the rebind and
# path-replay machinery.
#
# For BENCH_async_fill.json (E7 + E19, the readahead window) the numbers
# that matter are BM_AsyncFillOverTcp's real_time at window:0 vs window:8
# for query:0 (the two-source join) and query:1 (the wide scan) — the
# concurrent readahead window over 250us-latency TCP wrappers must cut the
# join's wall clock by >= 1.5x — with mismatches (= 0), async_batches > 0
# (real pipelined RoundTripMany on the wire) and readahead_hits > 0. A
# flight carries up to W queued holes, so at window:8 async_ops (one per
# flight or demand batch) falls below the element count and
# holes_per_flight rises above 1 on both queries. And
# BM_ReadaheadPagingWalk's demand_fills / readahead_hits / pages_fetched
# across window:0..4 (E7: fills the client waits for vs. fills a flight
# answered, and the speculation cost in source pages).
# Every JSON's "context" records the host (name, CPUs, MHz, caches).
#
# The e2e suite is the end-to-end benchmark (bench_e2e/run.py, the
# workloads of BENCHMARK.json), not a google-benchmark binary: it runs every
# workload over seeds 1-5 (10 s each) plus traced scan_churn and browse
# runs, and writes min/median per metric and the host to BENCH_e2e.json via
# scripts/bench_e2e.py, replacing the whole file. Rows of the current tree
# are labeled `change`; E2E_PARENT=<checkout of the parent commit> adds
# `parent` rows, run alternately with it. Each checkout builds its own tree
# (.bench_build/), so the build-dir argument does not apply.
#
# Usage: scripts/run_bench.sh [suite] [build-dir]
#   With no arguments, runs every tracked suite against ./build. A first
#   argument naming a suite (e.g. `plan_opt`) runs just that one, with an
#   optional build dir after it; a first argument naming an existing
#   directory is taken as the build dir. Anything else is an error.
set -euo pipefail
cd "$(dirname "$0")/.."
MIN_TIME="${BENCH_MIN_TIME:-0.2}"

SUITES=(node_id plan_pipeline batch_nav lxp_chunking service faults source_cache plan_opt answer_views tcp fleet async_fill e2e)
BUILD=build
if [ $# -gt 0 ]; then
  matched=0
  for name in "${SUITES[@]}"; do
    if [ "$1" = "$name" ]; then
      SUITES=("$name")
      BUILD="${2:-build}"
      matched=1
      break
    fi
  done
  if [ "$matched" = 0 ]; then
    if [ -d "$1" ]; then
      BUILD="$1"
    else
      echo "unknown suite or build dir '$1' — valid suites: ${SUITES[*]}" >&2
      echo "usage: scripts/run_bench.sh [suite] [build-dir]" >&2
      exit 1
    fi
  fi
fi
for name in "${SUITES[@]}"; do
  if [ "$name" = e2e ]; then
    echo "== bench_e2e"
    revs=(--rev change=.)
    if [ -n "${E2E_PARENT:-}" ]; then revs+=(--rev "parent=$E2E_PARENT"); fi
    python3 scripts/bench_e2e.py --out BENCH_e2e.json "${revs[@]}" \
      --traced scan_churn,browse
    continue
  fi
  bin="$BUILD/bench/bench_$name"
  if [ ! -x "$bin" ]; then
    echo "missing $bin — build first: cmake -B $BUILD -S . && cmake --build $BUILD" >&2
    exit 1
  fi
  parent_var="$(echo "$name" | tr '[:lower:]' '[:upper:]')_PARENT"
  parent_bin="${!parent_var:-}"
  if [ -z "$parent_bin" ]; then
    echo "== bench_$name"
    "$bin" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
      > "BENCH_$name.json"
    continue
  fi
  echo "== bench_$name, alternating with the parent: $parent_bin"
  python3 - "$bin" "$parent_bin" "BENCH_$name.json" "$MIN_TIME" <<'PY'
import json, math, os, re, statistics, subprocess, sys
change_bin, parent_bin, out, min_time = sys.argv[1:5]
PAIRS = 5
env = dict(os.environ, BENCH_REPETITIONS="1")
docs = {"change": None, "parent": None}
runs = {"change": {}, "parent": {}}  # rev -> run_name -> [row], in order
for i in range(PAIRS):
    order = [("change", change_bin), ("parent", parent_bin)]
    for rev, path in order if i % 2 == 0 else reversed(order):
        doc = json.loads(subprocess.run(
            [path, "--benchmark_format=json",
             "--benchmark_min_time=" + min_time],
            env=env, check=True, stdout=subprocess.PIPE, text=True).stdout)
        docs[rev] = docs[rev] or doc
        for row in doc["benchmarks"]:
            if row.get("run_type") == "aggregate":
                sys.exit("%s ignores BENCH_REPETITIONS=1; build it with this "
                         "tree's bench/bench_stats.h" % path)
            runs[rev].setdefault(row["run_name"], []).append(row)

FIXED = {"name", "family_index", "per_family_instance_index", "run_name",
         "run_type", "repetitions", "repetition_index", "threads",
         "iterations", "time_unit", "aggregate_name", "aggregate_unit"}
STATS = [("mean", statistics.mean), ("median", statistics.median),
         ("stddev", statistics.stdev), ("min", min)]

def aggregate(rows, rev):
    first = rows[0]
    run_name = re.sub(r"repeats:1(?=/|$)", "repeats:%d" % len(rows),
                      first["run_name"])
    values = [k for k, v in first.items()
              if k not in FIXED and isinstance(v, (int, float))
              and not isinstance(v, bool)]
    for agg, fn in STATS + [("cv", None)]:
        row = {"name": run_name + "_" + agg,
               "family_index": first["family_index"],
               "per_family_instance_index": first["per_family_instance_index"],
               "run_name": run_name, "run_type": "aggregate",
               "repetitions": len(rows), "threads": first["threads"],
               "aggregate_name": agg,
               "aggregate_unit": "percentage" if agg == "cv" else "time",
               "iterations": len(rows), "time_unit": first["time_unit"]}
        for k in values:
            xs = [r[k] for r in rows]
            if agg == "cv":
                mean = statistics.mean(xs)
                row[k] = statistics.stdev(xs) / mean if mean else math.nan
            else:
                row[k] = fn(xs)
        row["rev"] = rev
        yield row

result = docs["change"]
result["benchmarks"] = [row for rev in ("change", "parent")
                        for rows in runs[rev].values()
                        for row in aggregate(rows, rev)]
result["context"]["parent_executable"] = docs["parent"]["context"]["executable"]
result["context"]["runs"] = ("%d single-repetition pairs, alternating which "
                             "binary goes first" % PAIRS)
with open(out, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
PY
done
echo "wrote: $(printf 'BENCH_%s.json ' "${SUITES[@]}")"
