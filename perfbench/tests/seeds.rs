//! The seed argument: one seed reproduces exactly, another seed changes
//! the simulated results, the default seed is the binaries' default
//! configuration, and the traced run changes no simulated output.
//!
//! Runs the full workloads; use `cargo test --release`.

use rolp_metrics::SimScale;
use rolp_perfbench::config::{self, WorkloadId, DEFAULT_SEED, SCALE};
use rolp_perfbench::{run, run_traced, Sample};
use rolp_workloads::{execute, presets, CassandraMix, GraphAlgo, Workload};

fn checked(s: Sample) -> Sample {
    assert!(s.failures.is_empty(), "output checks failed: {:?}", s.failures);
    s
}

fn sim(s: &Sample, name: &str) -> f64 {
    s.sim(name).unwrap_or_else(|| panic!("{name} measured"))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-length workloads: run with --release")]
fn one_seed_reproduces_exactly_and_another_changes_the_results() {
    for id in [WorkloadId::ServedMixRolp, WorkloadId::CassandraWiRolp] {
        let a = checked(run(id, 7, None));
        let b = checked(run(id, 7, None));
        assert_eq!(a.sim, b.sim, "{}", id.name());
        assert_eq!(a.fingerprint, b.fingerprint, "{}", id.name());
        let c = checked(run(id, 8, None));
        assert_ne!(a.fingerprint, c.fingerprint, "{}: seed 8 ran seed 7's inputs", id.name());
        assert_ne!(a.sim, c.sim, "{}", id.name());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-length workloads: run with --release")]
fn traced_runs_change_no_simulated_output() {
    for id in WorkloadId::ALL {
        let plain = checked(run(id, 3, None));
        let (traced, clock) = run_traced(id, 3);
        let traced = checked(traced);
        assert_eq!(plain.sim, traced.sim, "{}", id.name());
        assert_eq!(plain.fingerprint, traced.fingerprint, "{}", id.name());
        assert!(clock.ticks.get() > 0 && clock.span_ns.get() > 0, "{}", id.name());
    }
}

/// What `rolp-sim` runs for a batch workload: the preset, its runtime
/// configuration, the same budget.
fn preset_batch(id: WorkloadId) -> rolp_workloads::RunOutcome {
    let scale = SimScale::new(SCALE);
    let mut workload: Box<dyn Workload> = match id {
        WorkloadId::CassandraWiRolp => {
            Box::new(presets::cassandra(CassandraMix::WriteIntensive, scale))
        }
        WorkloadId::GraphchiPrG1 => Box::new(presets::graphchi(GraphAlgo::PageRank, scale)),
        WorkloadId::ServedMixRolp => unreachable!("batch workloads only"),
    };
    let mut cfg = config::batch_config(id, DEFAULT_SEED);
    cfg.seed = rolp::runtime::RuntimeConfig::default().seed;
    execute(&mut *workload, cfg, &config::batch_budget(id))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-length workloads: run with --release")]
fn the_default_seed_runs_the_binaries_default_inputs() {
    for id in [WorkloadId::GraphchiPrG1, WorkloadId::CassandraWiRolp] {
        let ours = checked(run(id, DEFAULT_SEED, None));
        let theirs = preset_batch(id);
        let r = &theirs.report;
        assert_eq!(sim(&ours, "sim.ops"), r.ops as f64, "{}", id.name());
        assert_eq!(sim(&ours, "sim.gc_cycles"), r.gc_cycles as f64, "{}", id.name());
        assert_eq!(sim(&ours, "sim_ops_per_busy_s"), r.ops_per_busy_sec, "{}", id.name());
        assert_eq!(sim(&ours, "sim.pauses"), theirs.pauses.count() as f64, "{}", id.name());
        assert_eq!(sim(&ours, "pause_p50_ms"), theirs.pauses.percentile_ms(50.0), "{}", id.name());
        assert_eq!(sim(&ours, "pause_p95_ms"), theirs.pauses.percentile_ms(95.0), "{}", id.name());
    }

    let ours = checked(run(WorkloadId::ServedMixRolp, DEFAULT_SEED, None));
    let cfg = config::serve_config(DEFAULT_SEED);
    let theirs = rolp_serve::serve(&cfg, &mut rolp_serve::default_tenants(cfg.scale));
    assert_eq!(sim(&ours, "sim.requests"), theirs.requests as f64);
    assert_eq!(sim(&ours, "sim.ops"), theirs.report.ops as f64);
    assert_eq!(sim(&ours, "slo_attainment"), theirs.latency.attainment()[0].2);
    let p9999 = theirs.latency.corrected().percentile(99.99) as f64 / 1e6;
    assert_eq!(sim(&ours, "request_p9999_ms"), p9999);
    assert_eq!(sim(&ours, "pause_p50_ms"), theirs.pauses.percentile_ms(50.0));
}
