//! Layer decorators: the traced run's host-time split, taken from outside
//! the program.
//!
//! A `Probed` workload wraps the real one. Its first `setup` installs
//! decorators around the runtime's public layer traits before any guest
//! allocation happens: the collector's [`CollectorApi`] and — under ROLP —
//! the VM's [`VmProfiler`] and the profiler's [`GcHooks`], by rebuilding
//! the [`RegionalCollector`] around decorated hooks. Its `tick`
//! brackets every workload tick. Decorators only forward, so a decorated
//! run's simulated outputs must equal an undecorated run's; the benchmark
//! checks that on every traced run.
//!
//! [`LayerClock`] is the timing decorator. The benchmark's tests add
//! decorators of their own that slow one layer down on purpose.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use rolp::runtime::{CollectorKind, JvmRuntime};
use rolp_gc::{GcCycleInfo, GcHooks, NullHooks, RegionalCollector, RegionalConfig};
use rolp_heap::{ObjectHeader, ObjectRef, RegionKind};
use rolp_vm::{
    AllocRequest, CollectorApi, JitState, MethodId, MutatorCtx, Program, ProgramBuilder, ThreadId,
    VmEnv, VmProfiler,
};
use rolp_workloads::Workload;

/// Replaces layers of a runtime with decorated versions. Every method
/// defaults to "leave the layer as it is".
pub trait Decorate {
    /// Decorates the VM's profiler hooks (not called when the runtime has
    /// no profiler: `NullProfiler` is left alone).
    fn profiler(&self, inner: Rc<RefCell<dyn VmProfiler>>) -> Rc<RefCell<dyn VmProfiler>> {
        inner
    }

    /// Decorates the ROLP profiler's GC hooks (not called when the
    /// runtime has no profiler).
    fn hooks(&self, inner: Rc<RefCell<dyn GcHooks>>) -> Rc<RefCell<dyn GcHooks>> {
        inner
    }

    /// Decorates the collector.
    fn collector(&self, inner: Box<dyn CollectorApi>) -> Box<dyn CollectorApi> {
        inner
    }

    /// The decorators are in place; nothing has been allocated yet.
    fn installed(&self, _rt: &JvmRuntime) {}

    /// Setup is over and the first tick is next (the measured span opens).
    fn span_start(&self) {}

    /// The run returned its report (the measured span closes).
    fn span_end(&self) {}

    /// A workload tick is about to run.
    fn tick_start(&self) {}

    /// A workload tick returned.
    fn tick_end(&self, _env: &VmEnv) {}
}

/// Decorators shared by every tenant of one run, installed once.
pub(crate) struct Probe {
    decorate: Rc<dyn Decorate>,
    installed: Cell<bool>,
}

impl Probe {
    /// A probe installing `decorate`.
    pub(crate) fn new(decorate: Rc<dyn Decorate>) -> Rc<Probe> {
        Rc::new(Probe { decorate, installed: Cell::new(false) })
    }

    /// The installed decorator.
    pub(crate) fn decorate(&self) -> &Rc<dyn Decorate> {
        &self.decorate
    }

    fn install(&self, rt: &mut JvmRuntime) {
        let d = &self.decorate;
        if self.installed.replace(true) {
            return;
        }
        let pretenuring = match rt.kind() {
            CollectorKind::G1 => false,
            CollectorKind::RolpNg2c => true,
            other => panic!("no decorated collector for {other:?}"),
        };
        let (hooks, store): (Rc<RefCell<dyn GcHooks>>, _) = match &rt.profiler {
            Some(p) => {
                rt.vm.profiler = d.profiler(rt.vm.profiler.clone());
                (d.hooks(p.clone()), Some(p.borrow().decision_store()))
            }
            None => (Rc::new(RefCell::new(NullHooks)), None),
        };
        // The benchmark's runtimes keep the default collector tunables;
        // the traced-equality check catches a rebuilt collector that
        // differs from the original.
        let mut regional = RegionalCollector::with_config(
            RegionalConfig { pretenuring, ..RegionalConfig::default() },
            hooks,
            rt.vm.collector.name(),
        );
        if let Some(store) = store {
            regional.set_decision_store(store);
        }
        rt.vm.collector = d.collector(Box::new(regional));
        d.installed(rt);
    }
}

/// A workload whose setup installs a `Probe` and whose ticks report to
/// it. Every other method forwards to the wrapped workload.
pub(crate) struct Probed {
    inner: Box<dyn Workload>,
    probe: Rc<Probe>,
}

impl Probed {
    /// Wraps `inner`.
    pub(crate) fn new(inner: Box<dyn Workload>, probe: Rc<Probe>) -> Self {
        Probed { inner, probe }
    }
}

impl Workload for Probed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn profiling_filters(&self) -> rolp::PackageFilters {
        self.inner.profiling_filters()
    }

    fn annotation_count(&self) -> usize {
        self.inner.annotation_count()
    }

    fn declare_program(&mut self, b: &mut ProgramBuilder) {
        self.inner.declare_program(b);
    }

    fn build_program(&mut self) -> Program {
        self.inner.build_program()
    }

    fn setup(&mut self, rt: &mut JvmRuntime) {
        self.probe.install(rt);
        self.inner.setup(rt);
    }

    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64 {
        let d = &self.probe.decorate;
        d.tick_start();
        let done = self.inner.tick(ctx);
        d.tick_end(ctx.env());
        done
    }

    fn set_annotations(&mut self, on: bool) {
        self.inner.set_annotations(on);
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// The timing decorator of a traced run: a shared handle to the run's
/// [`Tally`], cloned into every decorator it installs.
#[derive(Clone, Default)]
pub struct LayerClock(Rc<Tally>);

impl std::ops::Deref for LayerClock {
    type Target = Tally;

    fn deref(&self) -> &Tally {
        &self.0
    }
}

/// Host-time accounting of one traced run, filled by the timing
/// decorators. Totals count only inside the measured span; set-up work
/// before it is not attributed.
#[derive(Default)]
pub struct Tally {
    armed: Cell<bool>,
    in_tick: Cell<bool>,
    span_started: Cell<Option<Instant>>,
    tick_started: Cell<Option<Instant>>,
    gap_started: Cell<Option<Instant>>,
    /// Measured span (first tick to report), ns.
    pub span_ns: Cell<u64>,
    /// Host time between ticks — before the first, between two, after
    /// the last — timed directly, ns.
    pub gap_ns: Cell<u64>,
    /// Workload ticks.
    pub ticks: Cell<u64>,
    /// Host time inside ticks, ns.
    pub tick_ns: Cell<u64>,
    /// Decorated calls made from inside ticks (their full durations), ns.
    pub layer_in_tick_ns: Cell<u64>,
    /// `CollectorApi::fast_alloc` calls.
    pub fast_calls: Cell<u64>,
    /// `fast_alloc` calls the fast path served.
    pub fast_hits: Cell<u64>,
    /// Host time in `fast_alloc`, ns.
    pub fast_ns: Cell<u64>,
    /// `allocate` calls that ran no GC cycle.
    pub slow_calls: Cell<u64>,
    /// Host time in those calls, ns.
    pub slow_ns: Cell<u64>,
    /// Self time of each `allocate` call that ran a GC cycle (profiler
    /// hooks inside it excluded), ns.
    pub gc_cycle_ns: RefCell<Vec<u64>>,
    /// `VmProfiler::on_alloc` calls.
    pub on_alloc_calls: Cell<u64>,
    /// Host time in `on_alloc`, ns.
    pub on_alloc_ns: Cell<u64>,
    /// Host time in `VmProfiler::on_jit_compile`, ns.
    pub on_jit_ns: Cell<u64>,
    /// `GcHooks::on_survivor` calls.
    pub on_survivor_calls: Cell<u64>,
    /// Host time in `on_survivor`, ns.
    pub on_survivor_ns: Cell<u64>,
    /// Host time of each `GcHooks::on_gc_end` call, ns.
    pub on_gc_end_ns: RefCell<Vec<u64>>,
    /// Host time in `GcHooks::on_liveness`, ns.
    pub on_liveness_ns: Cell<u64>,
    /// Running total of hook time, armed or not (nesting bookkeeping).
    hook_total_ns: Cell<u64>,
    last_version: Cell<u64>,
    last_digest: Cell<u64>,
    /// Published decision tables whose digest differed from the one
    /// before, observed between ticks.
    pub decision_changes: Cell<u64>,
}

impl Tally {
    /// Books a top-level decorated call that took `ns`, to be taken out
    /// of the VM self time of the tick it ran in.
    fn top_level(&self, ns: u64) {
        if self.in_tick.get() {
            bump(&self.layer_in_tick_ns, ns);
        }
    }

    fn armed(&self) -> bool {
        self.armed.get()
    }

    /// Total profiler self time (VM hooks and GC hooks), ns.
    pub fn rolp_ns(&self) -> u64 {
        self.on_alloc_ns.get()
            + self.on_jit_ns.get()
            + self.on_survivor_ns.get()
            + self.on_gc_end_ns.borrow().iter().sum::<u64>()
            + self.on_liveness_ns.get()
    }

    /// GC self time, ns.
    pub fn gc_ns(&self) -> u64 {
        self.gc_cycle_ns.borrow().iter().sum()
    }

    /// VM self time: ticks minus every decorated call inside them, ns.
    pub fn vm_ns(&self) -> u64 {
        self.tick_ns.get().saturating_sub(self.layer_in_tick_ns.get())
    }

    /// Driver self time: the time between ticks, ns. The trace's own
    /// bookkeeping after each tick falls in no layer, so it shows as the
    /// part of the span nothing covers; a decorated call made between
    /// ticks would count twice and push the coverage above 1.
    pub fn driver_ns(&self) -> u64 {
        self.gap_ns.get()
    }

    fn close_gap(&self, now: Instant) {
        if let Some(t) = self.gap_started.take() {
            if self.armed() {
                bump(&self.gap_ns, (now - t).as_nanos() as u64);
            }
        }
    }
}

impl Decorate for LayerClock {
    fn profiler(&self, inner: Rc<RefCell<dyn VmProfiler>>) -> Rc<RefCell<dyn VmProfiler>> {
        Rc::new(RefCell::new(TimedProfiler { inner, clock: self.clone() }))
    }

    fn hooks(&self, inner: Rc<RefCell<dyn GcHooks>>) -> Rc<RefCell<dyn GcHooks>> {
        Rc::new(RefCell::new(TimedHooks { inner, clock: self.clone() }))
    }

    fn collector(&self, inner: Box<dyn CollectorApi>) -> Box<dyn CollectorApi> {
        Box::new(TimedCollector { inner, clock: self.clone() })
    }

    fn installed(&self, rt: &JvmRuntime) {
        if let Some(store) = rt.vm.env.decisions.as_deref() {
            let table = store.load();
            self.last_version.set(table.version());
            self.last_digest.set(table.digest());
        }
    }

    fn span_start(&self) {
        self.armed.set(true);
        let now = Instant::now();
        self.span_started.set(Some(now));
        self.gap_started.set(Some(now));
    }

    fn span_end(&self) {
        let now = Instant::now();
        self.close_gap(now);
        if let Some(t) = self.span_started.take() {
            self.span_ns.set((now - t).as_nanos() as u64);
        }
        self.armed.set(false);
    }

    fn tick_start(&self) {
        let now = Instant::now();
        self.close_gap(now);
        self.in_tick.set(true);
        self.tick_started.set(Some(now));
    }

    fn tick_end(&self, env: &VmEnv) {
        if let Some(t) = self.tick_started.take() {
            if self.armed() {
                bump(&self.ticks, 1);
                bump(&self.tick_ns, ns_since(t));
            }
        }
        self.in_tick.set(false);
        if let Some(store) = env.decisions.as_deref() {
            let table = store.load();
            if table.version() != self.last_version.get() {
                self.last_version.set(table.version());
                let digest = table.digest();
                if digest != self.last_digest.replace(digest) {
                    bump(&self.decision_changes, 1);
                }
            }
        }
        self.gap_started.set(Some(Instant::now()));
    }
}

struct TimedProfiler {
    inner: Rc<RefCell<dyn VmProfiler>>,
    clock: LayerClock,
}

impl VmProfiler for TimedProfiler {
    fn on_jit_compile(&mut self, program: &Program, jit: &mut JitState, method: MethodId) {
        let t = Instant::now();
        self.inner.borrow_mut().on_jit_compile(program, jit, method);
        let ns = ns_since(t);
        if self.clock.armed() {
            bump(&self.clock.on_jit_ns, ns);
            self.clock.top_level(ns);
        }
    }

    fn on_alloc(&mut self, site_profile_id: u16, tss: u16, thread: ThreadId) -> u32 {
        let t = Instant::now();
        let ctx = self.inner.borrow_mut().on_alloc(site_profile_id, tss, thread);
        let ns = ns_since(t);
        if self.clock.armed() {
            bump(&self.clock.on_alloc_calls, 1);
            bump(&self.clock.on_alloc_ns, ns);
            self.clock.top_level(ns);
        }
        ctx
    }

    fn exception_hook_installed(&self) -> bool {
        self.inner.borrow().exception_hook_installed()
    }

    fn on_unprofiled_alloc(&mut self) {
        // Untimed: a counter bump per allocation, left in VM self time.
        self.inner.borrow_mut().on_unprofiled_alloc();
    }
}

struct TimedHooks {
    inner: Rc<RefCell<dyn GcHooks>>,
    clock: LayerClock,
}

impl TimedHooks {
    fn hook_done(&self, ns: u64) {
        bump(&self.clock.hook_total_ns, ns);
    }
}

impl GcHooks for TimedHooks {
    fn advise(&self, context: u32) -> Option<u8> {
        self.inner.borrow().advise(context)
    }

    fn survivor_tracking_enabled(&self) -> bool {
        self.inner.borrow().survivor_tracking_enabled()
    }

    fn on_survivor(&mut self, header: ObjectHeader, from: RegionKind, worker: u32) {
        let t = Instant::now();
        self.inner.borrow_mut().on_survivor(header, from, worker);
        let ns = ns_since(t);
        self.hook_done(ns);
        if self.clock.armed() {
            bump(&self.clock.on_survivor_calls, 1);
            bump(&self.clock.on_survivor_ns, ns);
        }
    }

    fn on_gc_end(&mut self, env: &mut VmEnv, info: &GcCycleInfo) {
        let t = Instant::now();
        self.inner.borrow_mut().on_gc_end(env, info);
        let ns = ns_since(t);
        self.hook_done(ns);
        if self.clock.armed() {
            self.clock.on_gc_end_ns.borrow_mut().push(ns);
        }
    }

    fn on_liveness(&mut self, context_live: &std::collections::HashMap<u32, u64>) {
        let t = Instant::now();
        self.inner.borrow_mut().on_liveness(context_live);
        let ns = ns_since(t);
        self.hook_done(ns);
        if self.clock.armed() {
            bump(&self.clock.on_liveness_ns, ns);
        }
    }
}

struct TimedCollector {
    inner: Box<dyn CollectorApi>,
    clock: LayerClock,
}

impl CollectorApi for TimedCollector {
    fn allocate(&mut self, env: &mut VmEnv, req: AllocRequest) -> ObjectRef {
        let cycles = self.inner.gc_cycles();
        let hooks_before = self.clock.hook_total_ns.get();
        let t = Instant::now();
        let obj = self.inner.allocate(env, req);
        let ns = ns_since(t);
        if self.clock.armed() {
            let own = ns.saturating_sub(self.clock.hook_total_ns.get() - hooks_before);
            if self.inner.gc_cycles() != cycles {
                self.clock.gc_cycle_ns.borrow_mut().push(own);
            } else {
                bump(&self.clock.slow_calls, 1);
                bump(&self.clock.slow_ns, own);
            }
            self.clock.top_level(ns);
        }
        obj
    }

    fn fast_alloc(
        &mut self,
        env: &mut VmEnv,
        req: &AllocRequest,
        thread: u32,
    ) -> Option<ObjectRef> {
        let t = Instant::now();
        let obj = self.inner.fast_alloc(env, req, thread);
        let ns = ns_since(t);
        if self.clock.armed() {
            bump(&self.clock.fast_calls, 1);
            bump(&self.clock.fast_hits, obj.is_some() as u64);
            bump(&self.clock.fast_ns, ns);
            self.clock.top_level(ns);
        }
        obj
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gc_cycles(&self) -> u64 {
        self.inner.gc_cycles()
    }

    fn load_barrier_ns(&self) -> u64 {
        self.inner.load_barrier_ns()
    }

    fn store_barrier_ns(&self) -> u64 {
        self.inner.store_barrier_ns()
    }

    fn work_tax_permille(&self) -> u64 {
        self.inner.work_tax_permille()
    }
}
