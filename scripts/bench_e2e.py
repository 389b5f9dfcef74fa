#!/usr/bin/env python3
"""Runs the end-to-end benchmark over several seeds and records min/median.

    python3 scripts/bench_e2e.py --out BENCH_e2e.json --rev change=. \\
        [--rev parent=../parent-checkout] [--seeds 1,2,3,4,5] [--seconds 10] \\
        [--workloads browse,zipf_views,scan_churn] [--traced scan_churn]

Each --rev LABEL=DIR names a checkout whose bench_e2e/run.py is run, so each
side builds and runs its own sources (CARGO_TARGET_DIR is dropped from the
environment, so every checkout builds into its own .bench_build/). With two
revs every seed runs both back to back, alternating which goes first, so
drift of the host hits both sides alike. For each (label, workload, trace)
the output keeps every run's value of every metric plus its min and median,
the seeds, and the host (CPU model and count from the benchmark's "# env"
line); its context maps each label to the git commit of its checkout (with
"+dirty" for uncommitted changes, null outside a git checkout). --out is
written afresh: every row in it comes from this one invocation. --traced
adds --trace 1 runs (the per-layer metrics) of the named workloads, of the
same length. Exits non-zero if any run failed or reported an incorrect
answer.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(tree) / "bench_e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    child_env = {k: v for k, v in os.environ.items()
                 if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(cmd, cwd=tree, env=child_env,
                          stdout=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    env = {}
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    if proc.returncode != 0 or not lines:
        return None, env
    return json.loads(lines[-1]), env


def revision(tree):
    """Short git commit of the checkout at `tree`, or None."""
    def git(*args):
        return subprocess.run(["git", "-C", tree] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != Path(tree):
        return None
    commit = git("rev-parse", "--short", "HEAD").stdout.strip()
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return commit + ("+dirty" if dirty else "")


def summarize(label, workload, trace, seconds, runs):
    metrics = {}
    for result, _ in runs:
        for name, m in result["metrics"].items():
            entry = metrics.setdefault(name, {"unit": m["unit"], "runs": []})
            entry["runs"].append(m["value"])
    for entry in metrics.values():
        entry["min"] = min(entry["runs"])
        entry["median"] = statistics.median(entry["runs"])
    env = runs[0][1]
    return {
        "label": label,
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "seeds": [e.get("seed") for _, e in runs],
        "host": {"cpu": env.get("cpu"), "nproc": env.get("nproc")},
        "correct": all(r["correct"] for r, _ in runs),
        "failed": sum(r["failed"] for r, _ in runs),
        "attempted": sum(r["attempted"] for r, _ in runs),
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--rev", action="append", required=True,
                    help="LABEL=DIR: a checkout to run (repeatable)")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default="browse,zipf_views,scan_churn")
    ap.add_argument("--traced", default="",
                    help="workloads to also run with --trace 1")
    args = ap.parse_args()

    revs = []
    for spec in args.rev:
        label, _, tree = spec.partition("=")
        if not label or not tree:
            ap.error("--rev takes LABEL=DIR, got %r" % spec)
        revs.append((label, str(Path(tree).resolve())))
    seeds = [int(s) for s in args.seeds.split(",") if s]
    plan = [(w, 0) for w in args.workloads.split(",") if w]
    plan += [(w, 1) for w in args.traced.split(",") if w]

    rows = []
    ok = True
    seconds = args.seconds
    for workload, trace in plan:
        runs = {label: [] for label, _ in revs}
        for i, seed in enumerate(seeds):
            order = revs if i % 2 == 0 else list(reversed(revs))
            for label, tree in order:
                result, env = run_once(tree, workload, seed, seconds, trace)
                if result is None or not result["correct"]:
                    print("FAILED: %s %s seed %d trace %d" %
                          (label, workload, seed, trace), file=sys.stderr)
                    ok = False
                    continue
                runs[label].append((result, env))
                print("%s %s seed=%d trace=%d session_p50_ms=%s" %
                      (label, workload, seed, trace,
                       result["metrics"].get("session_p50_ms", {}).get("value")),
                      file=sys.stderr)
        for label, _ in revs:
            if runs[label]:
                rows.append(
                    summarize(label, workload, trace, seconds, runs[label]))
    context = {
        "benchmark": "bench_e2e/run.py (BENCHMARK.json workloads)",
        "regenerate": "scripts/run_bench.sh e2e",
        "aggregates": "min and median over the seeds; runs in seed order",
        "revs": {label: revision(tree) for label, tree in revs},
    }
    doc = {"context": context, "rows": rows}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
