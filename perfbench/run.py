#!/usr/bin/env python3
"""End-to-end benchmark of the validity library.

    python3 perfbench/run.py --workload churn_sweep --seed 7 --seconds 20 \
        --trace 0 [--threads N]

Builds perfbench/ (and through it the library, from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, checks its outputs, prints a readable report, and prints as the
last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans next to the build). See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402  (path set above)

WORKLOADS = ("churn_sweep", "service_trace", "cold_grid")
DEADLINE_S = 170.0
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures and builds the workload binary; returns its path or None."""
    out = build_dir()
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "-j", str(BUILD_JOBS)]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = out / "perfbench_workloads"
    return binary if binary.exists() else None


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --- metric derivation ------------------------------------------------------


def end_to_end(raw):
    """The gated end-to-end metrics (BENCHMARK.json end_to_end).

    Every repetition of a run does identical work; queries_per_s is one
    repetition's queries over the median repetition's host time, and
    setup_s the median of the run's timed set-ups.
    """
    v, samples = raw["values"], raw["samples"]
    return {
        "setup_s": stats.median(samples["setup_s"]),
        "queries_per_s": v["queries_per_rep"] / stats.median(samples["rep_s"]),
        "peak_rss_mb": v["peak_rss_mb"],
        "messages_per_query": v["messages_per_query"],
    }


def workload_metrics(raw):
    """End-to-end metrics that exist on some workloads only: printed, with
    their sample counts, but not gated (every gated metric must exist on
    every workload)."""
    out = []
    samples = raw["samples"]
    if "query_ms" in samples:
        for p, name in ((50, "query_ms_p50"), (95, "query_ms_p95")):
            value, n = stats.percentile(samples["query_ms"], p)
            out.append((name, value, "ms", f"n={n} engine.Run calls"))
    if "valid_fraction" in raw["values"]:
        out.append(("valid_fraction", raw["values"]["valid_fraction"], "ratio",
                    "sim; share within the ORACLE interval up to sketch slack"))
    if "sim_latency" in samples:
        value, n = stats.percentile(samples["sim_latency"], 99)
        out.append(("sim_latency_p99", value, "ticks",
                    f"sim; n={n} retired_at - submitted_at"))
    return out


def per_layer(raw, spec):
    """Every per-layer metric of BENCHMARK.json; absent ones read 0."""
    v, samples = raw["values"], raw["samples"]
    derived = dict(v)
    for name in ("topology.generate_ms", "topology.diameter_ms",
                 "common.zipf_values_ms"):
        derived[name] = stats.median(samples[name])
    if "core.service.admission_wait" in samples:
        derived["core.service.admission_wait_p99"], _ = stats.percentile(
            samples["core.service.admission_wait"], 99)
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in raw["absent"]:
            value = 0.0
        elif name in derived:
            value = derived[name]
        else:
            raise KeyError(f"the workload reported no per-layer metric {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def human_report(workload, raw, rows):
    """Readable lines before the result: counts, then (name, value, unit,
    note) rows."""
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {workload}: {attempted} queries attempted, {failed} failed "
          f"(failed_fraction {failed / max(1, attempted):.6f})")
    print(f"  repetitions timed: {len(raw['samples']['rep_s'])}, "
          f"setups timed: {len(raw['samples']['setup_s'])}")
    for name, value, unit, note in rows:
        suffix = f"  ({note})" if note else ""
        print(f"  {name:<40} {value:.6g} {unit}{suffix}")
    for failure in raw["failures"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="churn_sweep workers (default min(4, nproc))")
    args = parser.parse_args(argv)
    start = time.monotonic()

    spec = load_spec()
    binary = build()
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--trace-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10.0, DEADLINE_S -
                                          (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("perfbench: workload timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: workload exited with {proc.returncode}")
        return 1
    raw = json.loads(lines[-1])

    if args.trace:
        metrics = per_layer(raw, spec)
        extra = []
    else:
        e2e = end_to_end(raw)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        extra = workload_metrics(raw)
    rows = [(name, m["value"], m["unit"],
             "absent: " + raw["absent"][name] if name in raw["absent"] else "")
            for name, m in metrics.items()]
    human_report(args.workload, raw, rows + extra)

    correct = (raw["failed"] == 0 and not raw["failures"] and
               raw["attempted"] > 0 and
               all(math.isfinite(m["value"]) for m in metrics.values()))
    if not args.trace:
        correct = correct and all(m["value"] > 0 for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
