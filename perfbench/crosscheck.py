#!/usr/bin/env python3
"""Checks the benchmark's simulated metrics against the repository binaries.

Run from the repository root:

    python3 perfbench/crosscheck.py

At the default seed the benchmark's workloads are the `rolp-sim` and
`rolp-serve` defaults (plus the run lengths and serving phases the
benchmark fixes). This script builds both binaries and the harness, runs
each workload through both with the same configuration, and requires every
value that both report to be equal: `--stats-json` for the batch
workloads, `--serve-json` and `--stats-json` for the served one. It exits 1
on any difference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (the benchmark's own build step)

MIB = 1024 * 1024
SCALE = 64
SERVED_PHASES = "30s@3000x3/1;30s@6000x1/3;30s@3000x3/1;30s@6000x1/3"
BATCH = {
    "cassandra-wi-rolp": ["--workload", "cassandra-wi", "--collector", "rolp",
                          "--secs", "270", "--discard", "30"],
    "graphchi-pr-g1": ["--workload", "graphchi-pr", "--collector", "g1",
                       "--secs", "240", "--discard", "30"],
}
SERVE = ["--phases", SERVED_PHASES, "--inference-period", "2", "--seed", "42"]


def stats_pairs(stats, sim):
    """(name, binary value, benchmark value) for every shared stats-json value."""
    tel = stats["telemetry"]
    hits, misses = tel["count_microcache_hits"], tel["count_microcache_misses"]
    pairs = [
        ("ops", stats["ops"], sim["sim.ops"]),
        ("gc_cycles", stats["gc_cycles"], sim["sim.gc_cycles"]),
        ("pauses.count", stats["pauses"]["count"], sim["sim.pauses"]),
        ("pauses.p50_ms", stats["pauses"]["p50_ms"], sim["pause_p50_ms"]),
        ("ops_per_busy_sec", stats["ops_per_busy_sec"], sim["sim_ops_per_busy_s"]),
        ("max_committed_bytes", stats["max_committed_bytes"] / MIB, sim["max_committed_mb"]),
        ("profiling_overhead", stats["profiling_overhead"], sim["sim.profiling_overhead_frac"]),
        ("time_gc_mark_ns", tel["time_gc_mark_ns"] / 1e9, sim["sim.gc_mark_s"]),
        ("time_gc_evac_ns", tel["time_gc_evac_ns"] / 1e9, sim["sim.gc_evac_s"]),
        ("time_gc_remset_ns", tel["time_gc_remset_ns"] / 1e9, sim["sim.gc_remset_s"]),
        ("count_profiled_allocs", tel["count_profiled_allocs"], sim["sim.profiled_allocs"]),
        ("count_tlab_refills", tel["count_tlab_refills"], sim["sim.tlab_refills"]),
        ("count_epochs_inferred", tel["count_epochs_inferred"], sim["sim.epochs_inferred"]),
        ("microcache hit fraction", hits / (hits + misses) if hits + misses else 0.0,
         sim["sim.microcache_hit_frac"]),
    ]
    if "rolp" in stats:
        rolp = stats["rolp"]
        pairs += [
            ("rolp.survivor_records", rolp["survivor_records"], sim["sim.survivor_records"]),
            ("rolp.conflicts_resolved", rolp["conflicts_resolved"], sim["sim.conflicts_resolved"]),
            ("rolp.old_table_bytes", rolp["old_table_bytes"] // SCALE / MIB, sim["sim.old_table_mb"]),
        ]
    return pairs


def serve_pairs(serve, sim):
    """(name, binary value, benchmark value) for every shared serve-json value."""
    return [
        ("requests", serve["requests"], sim["sim.requests"]),
        ("slo[0].attainment", serve["slo"][0]["attainment"], sim["slo_attainment"]),
        ("latency.corrected_p50_ms", serve["latency"]["corrected_p50_ms"], sim["request_p50_ms"]),
        ("decomposition.rel_error", serve["decomposition"]["rel_error"],
         sim["sim.decomposition_rel_error"]),
        ("gc.pauses", serve["gc"]["pauses"], sim["sim.pauses"]),
        ("reconvergence max", max(r["epochs_to_reconverge"] for r in serve["reconvergence"]),
         sim["sim.reconverge_epochs_max"]),
    ]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "-p", "rolp-cli"],
                   cwd=ROOT, env=env, check=True)
    harness = bench.build()
    if harness is None:
        return 1
    out_dir = os.path.join(target, "crosscheck")
    os.makedirs(out_dir, exist_ok=True)

    def harness_sim(workload):
        done = subprocess.run([harness, "--workload", workload, "--seed", "42"],
                              capture_output=True, text=True, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])["sim"]

    def load(path):
        with open(path) as f:
            return json.load(f)

    mismatches = 0
    checked = 0

    def compare(workload, pairs):
        nonlocal mismatches, checked
        for name, binary, ours in pairs:
            checked += 1
            # Both sides print shortest round-trip floats, and the ratios
            # recomputed here use the harness's operations: equality is exact.
            if binary != ours:
                mismatches += 1
                print(f"MISMATCH {workload} {name}: binary {binary} benchmark {ours}")

    for workload, flags in BATCH.items():
        stats_path = os.path.join(out_dir, f"{workload}.stats.json")
        subprocess.run([os.path.join(target, "release", "rolp-sim"), *flags,
                        "--stats-json", stats_path], check=True, stdout=subprocess.DEVNULL)
        compare(workload, stats_pairs(load(stats_path), harness_sim(workload)))

    workload = "served-mix-rolp"
    serve_path = os.path.join(out_dir, f"{workload}.serve.json")
    stats_path = os.path.join(out_dir, f"{workload}.stats.json")
    subprocess.run([os.path.join(target, "release", "rolp-serve"), *SERVE,
                    "--serve-json", serve_path, "--stats-json", stats_path],
                   check=True, stdout=subprocess.DEVNULL)
    sim = harness_sim(workload)
    compare(workload, stats_pairs(load(stats_path), sim) + serve_pairs(load(serve_path), sim))

    print(f"{checked} shared values compared, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
