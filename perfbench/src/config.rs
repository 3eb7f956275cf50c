//! The benchmark's three workloads and how `--seed` reaches them.
//!
//! Every workload is the program's default configuration at scale 1/64
//! with four guest mutator threads. The seed is folded into every random
//! stream the run has — the workload parameter seeds, the runtime's
//! [`RuntimeConfig::seed`] and the serving arrival/tenant-picker seeds —
//! as an offset from [`DEFAULT_SEED`], so the default seed reproduces the
//! `rolp-sim` and `rolp-serve` defaults exactly.

use rolp::runtime::{CollectorKind, RuntimeConfig};
use rolp_metrics::{SimScale, SimTime};
use rolp_serve::{parse_phases, ServeConfig, TenantSet};
use rolp_vm::CostModel;
use rolp_workloads::{
    presets, CassandraMix, CassandraWorkload, GraphAlgo, GraphChiParams, GraphChiWorkload,
    LuceneWorkload, RunBudget, Workload,
};

/// The seed both binaries default to (`RuntimeConfig::seed`, `rolp-serve
/// --seed`). At this seed every workload keeps its preset seeds.
pub const DEFAULT_SEED: u64 = 42;

/// Experiment scale divisor (the binaries' default).
pub const SCALE: u64 = 64;

/// Guest mutator threads (the binaries' default).
pub const THREADS: u32 = 4;

/// Warm-up discard of the batch runs, in simulated seconds (the
/// `rolp-sim` default).
pub const DISCARD_SECS: u64 = 30;

/// The served run's traffic: four 30 s phases alternating 3000 and
/// 6000 requests/s and flipping the hot tenant each time.
pub const SERVED_PHASES: &str = "30s@3000x3/1;30s@6000x1/3;30s@3000x3/1;30s@6000x1/3";

/// Inference period of the served run, in GC cycles, so the profiler
/// re-learns within each phase.
pub const SERVED_INFERENCE_PERIOD: u64 = 2;

/// The tenant picker seed `rolp_serve::default_tenants` uses.
const TENANT_PICKER_SEED: u64 = 0x5EC7;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Cassandra write-intensive under ROLP, long enough for learning to
    /// finish: every ROLP layer does most of its work here.
    CassandraWiRolp,
    /// GraphChi PageRank under plain G1: the profiler is bypassed.
    GraphchiPrG1,
    /// Open-loop `rolp-serve` run with Cassandra-WI and Lucene tenants.
    ServedMixRolp,
}

impl WorkloadId {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadId; 3] =
        [WorkloadId::CassandraWiRolp, WorkloadId::GraphchiPrG1, WorkloadId::ServedMixRolp];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::CassandraWiRolp => "cassandra-wi-rolp",
            WorkloadId::GraphchiPrG1 => "graphchi-pr-g1",
            WorkloadId::ServedMixRolp => "served-mix-rolp",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The collector the workload runs under.
    pub fn collector(self) -> CollectorKind {
        match self {
            WorkloadId::GraphchiPrG1 => CollectorKind::G1,
            WorkloadId::CassandraWiRolp | WorkloadId::ServedMixRolp => CollectorKind::RolpNg2c,
        }
    }

    /// Simulated run length of a batch workload, in seconds: long enough
    /// for at least 200 post-discard pauses, so `pause_p95_ms` keeps ten
    /// samples beyond it. `None` for the served run, whose length is its
    /// phase schedule.
    pub fn batch_secs(self) -> Option<u64> {
        match self {
            WorkloadId::CassandraWiRolp => Some(270),
            WorkloadId::GraphchiPrG1 => Some(240),
            WorkloadId::ServedMixRolp => None,
        }
    }
}

/// Offsets a preset seed by the benchmark seed's distance from
/// [`DEFAULT_SEED`], so the default seed keeps the preset.
pub(crate) fn offset_seed(preset: u64, seed: u64) -> u64 {
    preset.wrapping_add(seed.wrapping_sub(DEFAULT_SEED))
}

fn scale() -> SimScale {
    SimScale::new(SCALE)
}

/// The batch workload `id` (not the served one), seeded by `seed`.
///
/// # Panics
///
/// Panics if `id` is the served workload.
pub(crate) fn batch_workload(id: WorkloadId, seed: u64) -> Box<dyn Workload> {
    match id {
        WorkloadId::CassandraWiRolp => Box::new(cassandra(seed, false)),
        WorkloadId::GraphchiPrG1 => {
            // `presets::graphchi` bakes its seed in at construction and
            // exposes no parameters, so its values are restated here; the
            // default-seed tests pin them to the preset.
            let s = scale();
            Box::new(GraphChiWorkload::new(GraphChiParams {
                algo: GraphAlgo::PageRank,
                vertices: s.count(42_000_000) as u32,
                edges: s.count(1_500_000_000),
                shards: 16,
                chunk: 4_096,
                io_ns_per_edge: 800,
                update_sample: 64,
                seed: offset_seed(0x6AF, seed),
            }))
        }
        WorkloadId::ServedMixRolp => panic!("served-mix-rolp is not a batch workload"),
    }
}

/// The Cassandra write-intensive preset, reseeded. `unpaced` zeroes the
/// workload's own op pacing (the served run's arrival schedule paces
/// requests instead).
fn cassandra(seed: u64, unpaced: bool) -> CassandraWorkload {
    let preset = presets::cassandra(CassandraMix::WriteIntensive, scale());
    let mut params = preset.params().clone();
    params.seed = offset_seed(params.seed, seed);
    if unpaced {
        params.op_pacing_ns = 0;
    }
    CassandraWorkload::new(params)
}

/// The served run's tenants (the `rolp_serve::default_tenants` mix),
/// reseeded.
pub(crate) fn served_tenants(seed: u64) -> Vec<Box<dyn Workload>> {
    let mut lucene = presets::lucene(scale());
    let mut params = lucene.params_mut().clone();
    params.seed = offset_seed(params.seed, seed);
    params.op_pacing_ns = 0;
    vec![Box::new(cassandra(seed, true)), Box::new(LuceneWorkload::new(params))]
}

/// Wraps (possibly decorated) tenants into the served run's tenant set.
pub(crate) fn tenant_set(tenants: Vec<Box<dyn Workload>>, seed: u64) -> TenantSet {
    TenantSet::new(tenants, offset_seed(TENANT_PICKER_SEED, seed))
}

/// The runtime configuration of a batch workload — what `rolp-sim`
/// assembles from its defaults, plus the seed.
pub fn batch_config(id: WorkloadId, seed: u64) -> RuntimeConfig {
    let s = scale();
    RuntimeConfig {
        collector: id.collector(),
        heap: presets::bigdata_heap(s),
        cost: CostModel::scaled(s),
        threads: THREADS,
        side_table_scale: s.divisor(),
        seed,
        ..Default::default()
    }
}

/// The batch run budget of `id`.
///
/// # Panics
///
/// Panics if `id` is the served workload.
pub fn batch_budget(id: WorkloadId) -> RunBudget {
    let secs = id.batch_secs().expect("batch workload");
    RunBudget {
        sim_time: SimTime::from_secs(secs),
        warmup_discard: SimTime::from_secs(DISCARD_SECS),
        max_ops: u64::MAX,
    }
}

/// The serving configuration — `rolp-serve` defaults with the
/// benchmark's phases, inference period and seed.
pub fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(CollectorKind::RolpNg2c, scale());
    cfg.threads = THREADS;
    cfg.phases = parse_phases(SERVED_PHASES).expect("served phases parse");
    cfg.inference_period = Some(SERVED_INFERENCE_PERIOD);
    cfg.seed = seed;
    cfg
}
