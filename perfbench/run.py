#!/usr/bin/env python3
"""End-to-end benchmark of the ROLP reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload cassandra-wi-rolp --seed 1 --seconds 30 --trace 0

It builds the `perfbench` harness (a package of its own that links the
workspace crates by path), then runs the workload in fresh processes until
`--seconds` have passed (at least MIN_RUNS times), every run with the same
seed. With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json:
medians of the host measurements, and the simulated (modeled) results,
which must repeat exactly. With `--trace 1` it alternates untraced and
traced runs and reports the per-layer metrics.

Every run is checked: the harness's own output checks (work done, the
telemetry buckets summing to the simulated clock, the served latency
decomposition), exact agreement of every simulated output between runs of
the seed, traced or not, and for a traced run a layer coverage of at
least MIN_COVERAGE. A run that crashes, fails a check or diverges is
counted as failed. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it
list every metric, including the ones that exist on one workload only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("cassandra-wi-rolp", "graphchi-pr-g1", "served-mix-rolp")
# Untraced runs per benchmark run, whatever --seconds allows.
MIN_RUNS = 3
# Stops a run whose processes fail at once from looping for --seconds.
MAX_RUNS = 40
# A traced run whose layer self times cover less of its span than this
# fails: some host time went unattributed.
MIN_COVERAGE = 0.95
# One run of the slowest workload takes about 14 s traced.
CHILD_TIMEOUT_S = 120

# Metrics the harness measures on one workload only; printed, not gated.
WORKLOAD_ONLY = {
    "pause_p95_ms": "ms",
    "slo_attainment": "ratio",
    "request_p50_ms": "ms",
    "request_p9999_ms": "ms",
    "sim.request_gc_share": "ratio",
    "sim.reconverge_epochs_max": "count",
    "sim.decomposition_rel_error": "ratio",
    "sim.requests": "count",
}
# Simulated totals printed beside the metrics, for context.
TOTALS = {"sim.ops": "count", "sim.gc_cycles": "count", "sim.pauses": "count"}
HOST_METRICS = {"host_s_per_sim_s", "host_cpu_s_per_sim_s", "setup_s", "peak_rss_mb"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the harness; returns the binary path or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = os.path.join(target, "release", "perfbench")
    if done.returncode != 0 or not os.path.exists(binary):
        log(f"build failed with exit code {done.returncode}")
        return None
    return binary


def child(binary, workload, seed, traced):
    """One run in a fresh process: (record, error)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"run timed out after {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if record is None or done.returncode not in (0, 2):
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"exit code {done.returncode}: {' | '.join(tail)}"
    if record["failures"]:
        return None, "; ".join(record["failures"])
    if traced and record["layers"]["trace.coverage_frac"] < MIN_COVERAGE:
        return None, f"trace coverage {record['layers']['trace.coverage_frac']} < {MIN_COVERAGE}"
    return record, None


class Runs:
    """Runs of one seed, with failure accounting and cross-run checks."""

    def __init__(self, binary, workload, seed):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.attempted = 0
        self.errors = []
        self.untraced = []
        self.traced = []
        self.reference = None
        self.durations = []

    def run(self, traced):
        self.attempted += 1
        started = time.monotonic()
        record, error = child(self.binary, self.workload, self.seed, traced)
        self.durations.append(time.monotonic() - started)
        if record is not None:
            outputs = (record["sim"], record["fingerprint"])
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                error = "simulated outputs differ from an earlier run of the seed"
                record = None
        if error:
            self.errors.append(error)
            log(f"run {self.attempted} failed: {error}")
            return
        (self.traced if traced else self.untraced).append(record)

    def mean_duration(self):
        return statistics.mean(self.durations) if self.durations else 0.0


def measure(binary, workload, seed, seconds, trace):
    runs = Runs(binary, workload, seed)
    started = time.monotonic()

    def time_left(next_cost):
        return time.monotonic() - started + next_cost <= seconds

    if trace:
        # Alternate untraced and traced runs; at least one of each.
        while runs.attempted < 2 or (runs.attempted < MAX_RUNS
                                     and time_left(2 * runs.mean_duration())):
            runs.run(traced=False)
            runs.run(traced=True)
    else:
        while runs.attempted < MIN_RUNS or (runs.attempted < MAX_RUNS
                                            and time_left(runs.mean_duration())):
            runs.run(traced=False)
    return runs


def median(values):
    return statistics.median(values) if values else None


def end_to_end(runs):
    recs = runs.untraced
    if not recs:
        return {}
    out = {
        "host_s_per_sim_s": median([r["host_s"] / r["sim_s"] for r in recs]),
        "host_cpu_s_per_sim_s": median([r["cpu_s"] / r["sim_s"] for r in recs]),
        "setup_s": median([s for r in recs for s in r["setup_s"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in recs]),
    }
    out.update(recs[0]["sim"])
    return out


def per_layer(runs):
    if not runs.traced or not runs.untraced:
        return {}
    out = {}
    for name in runs.traced[0]["layers"]:
        out[name] = median([r["layers"][name] for r in runs.traced])
    traced = median([r["host_s"] for r in runs.traced])
    untraced = median([r["host_s"] for r in runs.untraced])
    out["trace.overhead_frac"] = traced / untraced - 1.0
    out.update(runs.untraced[0]["sim"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    binary = build()
    if binary is None:
        return 1

    runs = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if not runs.untraced and not runs.traced:
        log("every run failed")
        for e in runs.errors:
            log(f"  {e}")
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = per_layer(runs) if args.trace else end_to_end(runs)
    metrics = {}
    missing = []
    for m in declared:
        value = measured.get(m["name"])
        if value is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(WORKLOAD_ONLY, **TOTALS)
    print(f"{args.workload} seed {args.seed}: {len(runs.untraced)} untraced and "
          f"{len(runs.traced)} traced run(s) passed of {runs.attempted}")
    for name, value in measured.items():
        host = name in HOST_METRICS or ("." in name and not name.startswith("sim."))
        clock = "host" if host else "sim (modeled)"
        only = "  [this workload only]" if name in WORKLOAD_ONLY else ""
        print(f"  {name:<30} {value:>16.6g} {units.get(name, ''):<6} {clock}{only}")

    failed = len(runs.errors)
    correct = failed == 0 and not missing
    if missing:
        log(f"metrics not measured: {', '.join(missing)}")
    print(json.dumps({"correct": correct, "attempted": runs.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
