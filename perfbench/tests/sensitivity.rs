//! The benchmark sees a slower layer, and attributes it to that layer.
//!
//! Two test-only decorators slow one layer down on purpose, through the
//! same public seams the traced run uses:
//!
//! - A sleeps a fixed time after every `CollectorApi::allocate` call that
//!   ran a GC cycle. `host_s_per_sim_s` must rise beyond its bound on
//!   both batch workloads, and no simulated output may change.
//! - B sleeps the same time in the profiler's `GcHooks::on_gc_end` only.
//!   It must move `cassandra-wi-rolp` beyond the bound and leave
//!   `graphchi-pr-g1`, which bypasses the profiler, within it.
//!
//! Runs the full workloads; use `cargo test --release`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use rolp_gc::{GcCycleInfo, GcHooks};
use rolp_heap::{ObjectHeader, ObjectRef, RegionKind};
use rolp_perfbench::{run, Decorate, Sample, WorkloadId};
use rolp_vm::{AllocRequest, CollectorApi, VmEnv};

const DELAY: Duration = Duration::from_millis(20);
const RUNS: usize = 3;
const SEED: u64 = 7;

/// The `bound` of an end-to-end metric in `BENCHMARK.json`.
fn bound(metric: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let line = spec
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{metric}\"")) && l.contains("\"bound\""))
        .unwrap_or_else(|| panic!("{metric} has a bound"));
    let value = line.split("\"bound\":").nth(1).expect("bound value");
    value.trim().trim_end_matches(['}', ',', ' ']).parse().expect("numeric bound")
}

struct DelayPerCycle;

struct DelayCollector(Box<dyn CollectorApi>);

impl CollectorApi for DelayCollector {
    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
        let cycles = self.0.gc_cycles();
        let obj = self.0.allocate(env, req);
        if self.0.gc_cycles() != cycles {
            std::thread::sleep(DELAY);
        }
        obj
    }

    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        self.0.fast_alloc(env, req, thread)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn gc_cycles(&self) -> u64 {
        self.0.gc_cycles()
    }

    fn load_barrier_ns(&self) -> u64 {
        self.0.load_barrier_ns()
    }

    fn store_barrier_ns(&self) -> u64 {
        self.0.store_barrier_ns()
    }

    fn work_tax_permille(&self) -> u64 {
        self.0.work_tax_permille()
    }
}

impl Decorate for DelayPerCycle {
    fn collector(&self, inner: Box<dyn CollectorApi>) -> Box<dyn CollectorApi> {
        Box::new(DelayCollector(inner))
    }
}

struct DelayOnGcEnd;

struct DelayHooks(Rc<RefCell<dyn GcHooks>>);

impl GcHooks for DelayHooks {
    fn advise(&self, context: u32) -> Option<u8> {
        self.0.borrow().advise(context)
    }

    fn survivor_tracking_enabled(&self) -> bool {
        self.0.borrow().survivor_tracking_enabled()
    }

    fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, worker: u32) {
        self.0.borrow_mut().on_survivor(header, from, worker);
    }

    fn on_gc_end(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        self.0.borrow_mut().on_gc_end(env, info);
        std::thread::sleep(DELAY);
    }

    fn on_liveness(&mut self, context_live: &HashMap<u32, u64>) {
        self.0.borrow_mut().on_liveness(context_live);
    }
}

impl Decorate for DelayOnGcEnd {
    fn hooks(&self, inner: Rc<RefCell<dyn GcHooks>>) -> Rc<RefCell<dyn GcHooks>> {
        Rc::new(RefCell::new(DelayHooks(inner)))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median `host_s_per_sim_s` of plain, A and B runs, interleaved so a
/// change in machine load hits all three alike. Every decorated run's
/// simulated outputs must equal the plain run's.
fn measure(id: WorkloadId) -> [f64; 3] {
    let mut host: [Vec<f64>; 3] = Default::default();
    let mut reference: Option<Sample> = None;
    for _ in 0..RUNS {
        let runs = [
            run(id, SEED, None),
            run(id, SEED, Some(Rc::new(DelayPerCycle))),
            run(id, SEED, Some(Rc::new(DelayOnGcEnd))),
        ];
        for (i, s) in runs.into_iter().enumerate() {
            assert!(s.failures.is_empty(), "{}: {:?}", id.name(), s.failures);
            let r = reference.get_or_insert_with(|| s.clone());
            assert_eq!(s.sim, r.sim, "{}: a delay changed a simulated metric", id.name());
            assert_eq!(s.fingerprint, r.fingerprint, "{}: a delay changed a sim output", id.name());
            host[i].push(s.host_s_per_sim_s());
        }
    }
    host.map(median)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full-length workloads: run with --release")]
fn a_slower_gc_cycle_shows_on_both_batch_workloads_and_a_slower_hook_only_under_rolp() {
    let bound = bound("host_s_per_sim_s");
    let [plain, a, b] = measure(WorkloadId::CassandraWiRolp);
    eprintln!("cassandra-wi-rolp host_s_per_sim_s: plain {plain:.5} A {a:.5} B {b:.5}");
    assert!(a / plain - 1.0 > bound, "A moved cassandra by only {:.3}", a / plain - 1.0);
    assert!(b / plain - 1.0 > bound, "B moved cassandra by only {:.3}", b / plain - 1.0);

    let [plain, a, b] = measure(WorkloadId::GraphchiPrG1);
    eprintln!("graphchi-pr-g1 host_s_per_sim_s: plain {plain:.5} A {a:.5} B {b:.5}");
    assert!(a / plain - 1.0 > bound, "A moved graphchi by only {:.3}", a / plain - 1.0);
    assert!((b / plain - 1.0).abs() <= bound, "B moved graphchi by {:.3}", b / plain - 1.0);
}
