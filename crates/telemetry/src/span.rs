//! Time-attribution spans: the `span!`-style RAII guard.
//!
//! The simulator is single-threaded per VM loop, so the *current bucket*
//! lives in a `Cell` behind an `Rc` shared between the [`Telemetry`]
//! handle and its guards. Opening a span swaps the current bucket and
//! returns a [`SpanGuard`] that restores the previous one on drop —
//! nestable, panic-safe, allocation-free (one `Rc` clone, one `Cell`
//! swap). Every nanosecond charged while a guard lives is attributed to
//! its bucket via [`Telemetry::on_charge`].

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::bucket::{Bucket, CounterId, HistId};
use crate::cell::{CellWriter, ThreadCells};
use crate::registry::Registry;

struct ThreadState {
    writer: CellWriter,
    current: Cell<Bucket>,
}

/// The per-VM telemetry handle: owns this thread's cells and the current
/// attribution bucket, and carries the shared [`Registry`].
pub struct Telemetry {
    registry: Arc<Registry>,
    state: Rc<ThreadState>,
}

impl Telemetry {
    /// A telemetry plane with a fresh registry and one registered thread
    /// cell block (the VM loop's).
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// A telemetry handle registering a new cell block in an existing
    /// registry.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let writer = registry.register_thread();
        Telemetry {
            registry,
            state: Rc::new(ThreadState { writer, current: Cell::new(Bucket::MutatorApp) }),
        }
    }

    /// The shared registry (for publication, gauges, totals).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// This handle's cell block (read side; the handle owns its writer).
    pub fn cells(&self) -> &Arc<ThreadCells> {
        self.state.writer.cells()
    }

    /// The bucket charges are currently attributed to.
    pub fn current(&self) -> Bucket {
        self.state.current.get()
    }

    /// Opens an attribution span: charges land in `bucket` until the
    /// returned guard drops (which restores the previous bucket).
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, bucket: Bucket) -> SpanGuard {
        let prev = self.state.current.replace(bucket);
        SpanGuard { state: Rc::clone(&self.state), prev }
    }

    /// Attributes `ns` to the current bucket (the `VmEnv::charge` hook).
    #[inline]
    pub fn on_charge(&self, ns: u64) {
        self.state.writer.add_time(self.state.current.get(), ns);
    }

    /// Attributes `ns` directly to `bucket`, bypassing the current span
    /// (pause decomposition, idle time, modeled profiler stages).
    #[inline]
    pub fn add(&self, bucket: Bucket, ns: u64) {
        self.state.writer.add_time(bucket, ns);
    }

    /// Increments counter `id` by `n`.
    #[inline]
    pub fn bump(&self, id: CounterId, n: u64) {
        self.state.writer.bump(id, n);
    }

    /// Records `value` into histogram series `id`.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        self.state.writer.record(id, value);
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("current", &self.current())
            .field("threads", &self.registry.thread_count())
            .finish()
    }
}

/// Restores the previous attribution bucket when dropped.
pub struct SpanGuard {
    state: Rc<ThreadState>,
    prev: Bucket,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.state.current.set(self.prev);
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard").field("restores", &self.prev).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_land_in_the_current_bucket() {
        let t = Telemetry::new();
        t.on_charge(100);
        {
            let _g = t.span(Bucket::MutatorProfiling);
            t.on_charge(30);
        }
        t.on_charge(5);
        assert_eq!(t.cells().time(Bucket::MutatorApp), 105);
        assert_eq!(t.cells().time(Bucket::MutatorProfiling), 30);
    }

    #[test]
    fn spans_nest_and_restore() {
        let t = Telemetry::new();
        assert_eq!(t.current(), Bucket::MutatorApp);
        {
            let _outer = t.span(Bucket::JitCompile);
            assert_eq!(t.current(), Bucket::JitCompile);
            {
                let _inner = t.span(Bucket::MutatorProfiling);
                assert_eq!(t.current(), Bucket::MutatorProfiling);
            }
            assert_eq!(t.current(), Bucket::JitCompile);
        }
        assert_eq!(t.current(), Bucket::MutatorApp);
    }

    #[test]
    fn guard_restores_on_panic() {
        let t = Telemetry::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = t.span(Bucket::GcMark);
            panic!("boom");
        }));
        assert!(r.is_err());
        assert_eq!(t.current(), Bucket::MutatorApp, "guard restored during unwind");
    }

    #[test]
    fn handles_share_one_registry() {
        let registry = Arc::new(Registry::new());
        let a = Telemetry::with_registry(Arc::clone(&registry));
        let b = Telemetry::with_registry(Arc::clone(&registry));
        a.add(Bucket::GcEvac, 10);
        b.add(Bucket::GcEvac, 7);
        assert_eq!(registry.thread_count(), 2);
        assert_eq!(registry.total_time(Bucket::GcEvac), 17);
    }
}
