//! One run of a workload through the binaries' own entry points —
//! [`rolp_workloads::execute_hooked`] for the batch workloads and
//! [`rolp_serve::serve_with`] for the served one — timed from outside.
//!
//! Host time (real time on this machine) and sim time (the cost model's
//! simulated clock, *modeled*) are kept apart: host values live in
//! [`Sample::host_s`], [`Sample::cpu_s`] and [`Sample::setup_s`]; every
//! simulated value lives in [`Sample::sim`] and must repeat exactly for a
//! seed.

use std::rc::Rc;
use std::time::Instant;

use rolp::runtime::RunReport;
use rolp_metrics::{quantile_sorted, PauseRecorder, SimTime};
use rolp_telemetry::{bucket::Bucket, CounterId};
use rolp_workloads::{execute_hooked, RunBudget, Workload};

use crate::config::{self, WorkloadId, SCALE};
use crate::layers::{Decorate, LayerClock, Probe, Probed};

/// Post-discard pauses a batch run needs before `pause_p95_ms` keeps ten
/// samples beyond it.
pub const MIN_PAUSES_FOR_P95: usize = 200;

/// Largest relative error allowed between the served run's summed
/// per-request latency decomposition and its service wall time.
pub const MAX_DECOMPOSITION_ERROR: f64 = 1e-2;

/// One run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host seconds from entering the entry point to the first tick:
    /// program build, `JvmRuntime::new` and workload setup.
    pub setup_s: f64,
    /// Host wall seconds from the first tick to the returned report.
    pub host_s: f64,
    /// Process user+system CPU seconds over the same span.
    pub cpu_s: f64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// Simulated (modeled) metrics, by name. Identical for every run of
    /// one seed.
    pub sim: Vec<(&'static str, f64)>,
    /// Exact digests of the simulated outputs: op and GC counts, the
    /// pause list, the final decision table and, for the served run, the
    /// latency histogram.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Output checks this run failed.
    pub failures: Vec<String>,
}

impl Sample {
    /// The simulated metric `name`.
    pub fn sim(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Host wall seconds per simulated second.
    pub fn host_s_per_sim_s(&self) -> f64 {
        self.host_s / self.sim_s
    }
}

/// Process CPU time (user + system, every thread) in seconds, from
/// `/proc/self/stat` (Linux; clock ticks of 1/100 s).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Runs `id` once. With `decorate`, the workload (or every served tenant)
/// is wrapped in a `Probed` that installs it; without, the run is the
/// plain untraced entry point.
pub fn run(id: WorkloadId, seed: u64, decorate: Option<Rc<dyn Decorate>>) -> Sample {
    let probe = decorate.map(Probe::new);
    match id {
        WorkloadId::ServedMixRolp => run_served(seed, probe, false),
        _ => run_batch(id, seed, probe, false),
    }
}

/// Host seconds `id` takes to set up: one run with a zero budget. Set-up
/// time is taken before the first tick, so the run's few remaining steps
/// do not count.
pub fn setup_only(id: WorkloadId, seed: u64) -> f64 {
    match id {
        WorkloadId::ServedMixRolp => run_served(seed, None, true).setup_s,
        _ => run_batch(id, seed, None, true).setup_s,
    }
}

/// Runs `id` with the timing decorators and returns the sample with the
/// clock they filled.
pub fn run_traced(id: WorkloadId, seed: u64) -> (Sample, LayerClock) {
    let clock = LayerClock::default();
    let sample = run(id, seed, Some(Rc::new(clock.clone())));
    (sample, clock)
}

/// Span bookkeeping shared by both entry points.
struct Span {
    entered: Instant,
    started: Option<(Instant, f64)>,
    setup_s: f64,
}

impl Span {
    fn enter() -> Span {
        Span { entered: Instant::now(), started: None, setup_s: 0.0 }
    }

    fn start(&mut self, probe: Option<&Rc<Probe>>) {
        self.setup_s = self.entered.elapsed().as_secs_f64();
        if let Some(p) = probe {
            p.decorate().span_start();
        }
        self.started = Some((Instant::now(), process_cpu_s()));
    }

    /// `(host_s, cpu_s)` of the span.
    fn end(&self, probe: Option<&Rc<Probe>>) -> (f64, f64) {
        let (t, cpu) = self.started.expect("the run reached its first tick");
        let host = t.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - cpu;
        if let Some(p) = probe {
            p.decorate().span_end();
        }
        (host, cpu)
    }
}

fn run_batch(id: WorkloadId, seed: u64, probe: Option<Rc<Probe>>, setup_only: bool) -> Sample {
    let mut span = Span::enter();
    let mut workload = config::batch_workload(id, seed);
    if let Some(p) = &probe {
        workload = Box::new(Probed::new(workload, p.clone()));
    }
    let cfg = config::batch_config(id, seed);
    let budget = if setup_only {
        RunBudget { sim_time: SimTime::ZERO, warmup_discard: SimTime::ZERO, max_ops: 0 }
    } else {
        config::batch_budget(id)
    };
    let mut digest = 0;
    let out = execute_hooked(
        &mut *workload,
        cfg,
        &budget,
        |_| span.start(probe.as_ref()),
        |rt| digest = rt.vm.env.decisions.as_ref().map_or(0, |s| s.load().digest()),
    );
    let (host_s, cpu_s) = span.end(probe.as_ref());
    if setup_only {
        return Sample { setup_s: span.setup_s, ..Sample::default() };
    }

    let mut sim = Vec::new();
    let mut failures = Vec::new();
    pause_metrics(&out.pauses, true, &mut sim, &mut failures);
    report_metrics(&out.report, &mut sim);
    let fingerprint = vec![
        ("ops", out.report.ops),
        ("gc_cycles", out.report.gc_cycles),
        ("elapsed_ns", out.report.elapsed.as_nanos()),
        ("pauses", out.raw_pauses.count() as u64),
        ("pause_digest", pause_digest(&out.raw_pauses)),
        ("decision_digest", digest),
    ];
    report_checks(&out.report, &mut failures);
    Sample {
        setup_s: span.setup_s,
        host_s,
        cpu_s,
        sim_s: out.report.elapsed.as_secs_f64(),
        sim,
        fingerprint,
        failures,
    }
}

fn run_served(seed: u64, probe: Option<Rc<Probe>>, setup_only: bool) -> Sample {
    let mut span = Span::enter();
    let mut cfg = config::serve_config(seed);
    if setup_only {
        cfg.max_requests = 0;
    }
    let mut tenants = config::served_tenants(seed);
    if let Some(p) = &probe {
        tenants = tenants
            .into_iter()
            .map(|t| Box::new(Probed::new(t, p.clone())) as Box<dyn Workload>)
            .collect();
    }
    let mut set = config::tenant_set(tenants, seed);
    let out = rolp_serve::serve_with(&cfg, &mut set, |_| span.start(probe.as_ref()));
    let (host_s, cpu_s) = span.end(probe.as_ref());
    if setup_only {
        return Sample { setup_s: span.setup_s, ..Sample::default() };
    }

    let mut sim = Vec::new();
    let mut failures = Vec::new();
    pause_metrics(&out.pauses, false, &mut sim, &mut failures);
    report_metrics(&out.report, &mut sim);
    let latency = &out.latency;
    let corrected = latency.corrected();
    let primary = latency.attainment()[0];
    let wall = latency.service_wall_ns() as f64;
    let decomposed = latency.decomposed_ns() as f64;
    let rel_error = if wall > 0.0 { (wall - decomposed).abs() / wall } else { 0.0 };
    let reconverge = out.reconvergence().iter().map(|c| c.epochs_to_reconverge).max().unwrap_or(0);
    sim.extend([
        ("slo_attainment", primary.2),
        ("request_p50_ms", ms(corrected.percentile(50.0))),
        ("request_p9999_ms", ms(corrected.percentile(99.99))),
        ("sim.requests", out.requests as f64),
        ("sim.request_gc_share", latency.decomposed().gc_ns as f64 / wall.max(1.0)),
        ("sim.reconverge_epochs_max", reconverge as f64),
        ("sim.decomposition_rel_error", rel_error),
    ]);
    if rel_error > MAX_DECOMPOSITION_ERROR {
        failures.push(format!("latency decomposition rel_error {rel_error} > 1e-2"));
    }
    if out.requests == 0 {
        failures.push("no request served".to_string());
    }
    let last_digest = out.digest_changes.last().map_or(0, |c| c.digest);
    let fingerprint = vec![
        ("ops", out.report.ops),
        ("gc_cycles", out.report.gc_cycles),
        ("elapsed_ns", out.elapsed.as_nanos()),
        ("pauses", out.pauses.count() as u64),
        ("pause_digest", pause_digest(&out.pauses)),
        ("decision_digest", last_digest),
        ("digest_changes", out.digest_changes.len() as u64),
        ("requests", out.requests),
        ("slo_hits", primary.1),
        ("latency_digest", histogram_digest(corrected)),
    ];
    report_checks(&out.report, &mut failures);
    Sample {
        setup_s: span.setup_s,
        host_s,
        cpu_s,
        sim_s: out.elapsed.as_secs_f64(),
        sim,
        fingerprint,
        failures,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Pause percentiles: p50 always, p95 on batch runs, which must keep at
/// least ten pauses beyond it.
fn pause_metrics(
    pauses: &PauseRecorder,
    batch: bool,
    sim: &mut Vec<(&'static str, f64)>,
    failures: &mut Vec<String>,
) {
    sim.push(("pause_p50_ms", pauses.percentile_ms(50.0)));
    if batch {
        sim.push(("pause_p95_ms", pauses.percentile_ms(95.0)));
        if pauses.count() < MIN_PAUSES_FOR_P95 {
            failures.push(format!(
                "{} post-discard pauses; pause_p95_ms needs {MIN_PAUSES_FOR_P95}",
                pauses.count()
            ));
        }
    }
    sim.push(("sim.pauses", pauses.count() as f64));
}

fn report_metrics(report: &RunReport, sim: &mut Vec<(&'static str, f64)>) {
    let t = &report.telemetry;
    let secs = |b: Bucket| t.time(b) as f64 / 1e9;
    let profiler_s = [
        Bucket::MutatorProfiling,
        Bucket::GcProfiling,
        Bucket::ProfilerMerge,
        Bucket::ProfilerInfer,
        Bucket::ProfilerResolve,
        Bucket::ProfilerPublish,
    ]
    .into_iter()
    .map(secs)
    .sum::<f64>();
    let hits = t.counter(CounterId::MicrocacheHits);
    let lookups = hits + t.counter(CounterId::MicrocacheMisses);
    let rolp = report.rolp.as_ref();
    let rolp_count = |f: fn(&rolp::RolpStats) -> u64| rolp.map_or(0, f) as f64;
    sim.extend([
        ("sim_ops_per_busy_s", report.ops_per_busy_sec),
        ("max_committed_mb", mib(report.max_committed_bytes)),
        ("sim.ops", report.ops as f64),
        ("sim.gc_cycles", report.gc_cycles as f64),
        ("sim.gc_mark_s", secs(Bucket::GcMark)),
        ("sim.gc_evac_s", secs(Bucket::GcEvac)),
        ("sim.gc_remset_s", secs(Bucket::GcRemset)),
        ("sim.survivor_records", rolp_count(|s| s.survivor_records)),
        ("sim.profiler_s", profiler_s),
        ("sim.profiling_overhead_frac", report.profiling_overhead),
        ("sim.profiled_allocs", t.counter(CounterId::ProfiledAllocs) as f64),
        ("sim.tlab_refills", t.counter(CounterId::TlabRefills) as f64),
        ("sim.microcache_hit_frac", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 }),
        ("sim.epochs_inferred", t.counter(CounterId::EpochsInferred) as f64),
        ("sim.conflicts_resolved", rolp_count(|s| s.conflicts.resolved)),
        ("sim.old_table_mb", mib(rolp.map_or(0, |s| s.old_table_bytes) / SCALE)),
    ]);
}

/// Checks every run must pass: work happened, and the telemetry buckets
/// partition the simulated clock exactly.
fn report_checks(report: &RunReport, failures: &mut Vec<String>) {
    if report.ops == 0 {
        failures.push("no operation completed".to_string());
    }
    if report.gc_cycles == 0 {
        failures.push("no GC cycle ran".to_string());
    }
    let buckets = report.telemetry.clock_backed_ns();
    let clock = report.elapsed.as_nanos();
    if buckets != clock {
        failures.push(format!("telemetry buckets sum to {buckets} ns, clock reads {clock} ns"));
    }
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pause_digest(pauses: &PauseRecorder) -> u64 {
    fnv(pauses.events().iter().flat_map(|e| [e.at.as_nanos(), e.duration.as_nanos()]))
}

fn histogram_digest(h: &rolp_metrics::Histogram) -> u64 {
    fnv(h.iter_buckets().flat_map(|(v, n)| [v, n]))
}

/// Per-layer host metrics of a traced run, by name: self time per
/// simulated second, call counts, mean ns per call and per-cycle
/// percentiles.
pub fn layer_metrics(sample: &Sample, clock: &LayerClock) -> Vec<(&'static str, f64)> {
    let per_sim_s = |ns: u64| ns as f64 / 1e9 / sample.sim_s;
    let mean = |ns: u64, calls: u64| if calls == 0 { 0.0 } else { ns as f64 / calls as f64 };
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let pct_ms = |samples: &[u64], q: f64| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        quantile_sorted(&sorted, q) as f64 / 1e6
    };
    let cycles = clock.gc_cycle_ns.borrow();
    let gc_ends = clock.on_gc_end_ns.borrow();
    let selfs = [clock.vm_ns(), clock.fast_ns.get(), clock.slow_ns.get(), clock.gc_ns()];
    let total_self = selfs.iter().sum::<u64>() + clock.rolp_ns() + clock.driver_ns();
    vec![
        ("vm.ticks", clock.ticks.get() as f64),
        ("vm.self_s_per_sim_s", per_sim_s(clock.vm_ns())),
        ("heap.fast_alloc_calls", clock.fast_calls.get() as f64),
        ("heap.fast_alloc_ns", mean(clock.fast_ns.get(), clock.fast_calls.get())),
        ("heap.fast_alloc_hit_frac", frac(clock.fast_hits.get(), clock.fast_calls.get())),
        ("heap.slow_alloc_calls", clock.slow_calls.get() as f64),
        ("heap.slow_alloc_ns", mean(clock.slow_ns.get(), clock.slow_calls.get())),
        ("gc.cycles", cycles.len() as f64),
        ("gc.self_s_per_sim_s", per_sim_s(clock.gc_ns())),
        ("gc.cycle_ms_p50", pct_ms(&cycles, 0.5)),
        ("gc.cycle_ms_p90", pct_ms(&cycles, 0.9)),
        ("rolp.on_alloc_calls", clock.on_alloc_calls.get() as f64),
        ("rolp.on_alloc_ns", mean(clock.on_alloc_ns.get(), clock.on_alloc_calls.get())),
        ("rolp.on_survivor_calls", clock.on_survivor_calls.get() as f64),
        ("rolp.on_survivor_ns", mean(clock.on_survivor_ns.get(), clock.on_survivor_calls.get())),
        ("rolp.on_gc_end_ms_p50", pct_ms(&gc_ends, 0.5)),
        ("rolp.on_gc_end_ms_p90", pct_ms(&gc_ends, 0.9)),
        ("rolp.self_s_per_sim_s", per_sim_s(clock.rolp_ns())),
        ("driver.self_s_per_sim_s", per_sim_s(clock.driver_ns())),
        ("trace.coverage_frac", frac(total_self, clock.span_ns.get())),
        ("sim.decision_changes", clock.decision_changes.get() as f64),
    ]
}
