//! The metric registry: cell registration, gauges, safepoint aggregation.

use std::sync::{Arc, Mutex};

use std::sync::atomic::{AtomicU64, Ordering};

use rolp_metrics::Histogram;

use crate::bucket::{Bucket, CounterId, GaugeId, HistId};
use crate::cell::{CellWriter, ThreadCells};
use crate::snapshot::{MetricsSnapshot, SnapshotStore};

/// Registration and aggregation point for all metric cells of one run.
///
/// Threads register cells on the cold path (once, under a mutex) and
/// record into them through each block's single [`CellWriter`]; gauges
/// are process-wide atomics; the registry aggregates everything into
/// [`MetricsSnapshot`]s published through its [`SnapshotStore`].
#[derive(Debug)]
pub struct Registry {
    threads: Mutex<Vec<Arc<ThreadCells>>>,
    gauges: [AtomicU64; GaugeId::COUNT],
    store: SnapshotStore,
}

impl Registry {
    /// An empty registry whose store holds the version-0 snapshot.
    pub fn new() -> Self {
        Registry {
            threads: Mutex::new(Vec::new()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            store: SnapshotStore::new(),
        }
    }

    /// Registers a new thread cell block (cold path) and returns its only
    /// writer; the registry keeps a read handle for aggregation.
    pub fn register_thread(&self) -> CellWriter {
        let writer = CellWriter::new();
        self.threads.lock().expect("registry poisoned").push(Arc::clone(writer.cells()));
        writer
    }

    /// Number of registered thread cell blocks.
    pub fn thread_count(&self) -> usize {
        self.threads.lock().expect("registry poisoned").len()
    }

    /// Sets gauge `id` to `value` (last write wins).
    pub fn set_gauge(&self, id: GaugeId, value: u64) {
        self.gauges[id.index()].store(value, Ordering::Relaxed);
    }

    /// Current value of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id.index()].load(Ordering::Relaxed)
    }

    /// Live sum of time attributed to `bucket` across all cells (the
    /// governor's epoch-boundary read; does not require a publish).
    pub fn total_time(&self, bucket: Bucket) -> u64 {
        self.threads.lock().expect("registry poisoned").iter().map(|c| c.time(bucket)).sum()
    }

    /// Aggregates all cells into a fresh snapshot versioned after the
    /// currently published one. Safepoint-side: assumes no concurrent
    /// recorders are mid-update.
    pub fn aggregate(&self, at_ns: u64) -> MetricsSnapshot {
        let threads = self.threads.lock().expect("registry poisoned");
        let mut time_ns = [0u64; Bucket::COUNT];
        let mut counters = [0u64; CounterId::COUNT];
        for cells in threads.iter() {
            for b in Bucket::ALL {
                time_ns[b.index()] += cells.time(b);
            }
            for c in CounterId::ALL {
                counters[c.index()] += cells.counter(c);
            }
        }
        let mut histograms = Vec::with_capacity(HistId::COUNT);
        for h in HistId::ALL {
            let mut counts = vec![0u64; Histogram::SLOTS];
            let (mut min, mut max, mut sum) = (u64::MAX, 0u64, 0u128);
            for cells in threads.iter() {
                cells.histogram_cell(h).drain_into(&mut counts, &mut min, &mut max, &mut sum);
            }
            histograms.push(Histogram::from_bucket_counts(&counts, min, max, sum));
        }
        let gauges = std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed));
        MetricsSnapshot::assemble(
            self.store.version() + 1,
            at_ns,
            time_ns,
            counters,
            gauges,
            histograms,
        )
    }

    /// Aggregates and publishes a snapshot at `at_ns`; returns its
    /// version.
    pub fn publish(&self, at_ns: u64) -> u64 {
        let snapshot = self.aggregate(at_ns);
        self.store.publish(snapshot)
    }

    /// The snapshot store (lock-free read side).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_cells_across_threads() {
        let reg = Registry::new();
        let a = reg.register_thread();
        let b = reg.register_thread();
        a.add_time(Bucket::MutatorApp, 100);
        b.add_time(Bucket::MutatorApp, 50);
        b.add_time(Bucket::GcMark, 7);
        a.bump(CounterId::GcPauses, 2);
        b.bump(CounterId::GcPauses, 1);
        a.record(HistId::GcPauseNs, 10);
        b.record(HistId::GcPauseNs, 1_000);
        reg.set_gauge(GaugeId::DecisionVersion, 4);

        let s = reg.aggregate(99);
        assert_eq!(s.version(), 1);
        assert_eq!(s.at_ns(), 99);
        assert_eq!(s.time(Bucket::MutatorApp), 150);
        assert_eq!(s.time(Bucket::GcMark), 7);
        assert_eq!(s.counter(CounterId::GcPauses), 3);
        assert_eq!(s.gauge(GaugeId::DecisionVersion), 4);
        let h = s.histogram(HistId::GcPauseNs);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 1_000);
    }

    #[test]
    fn publish_versions_are_monotonic_and_cumulative() {
        let reg = Registry::new();
        let writer = reg.register_thread();
        writer.add_time(Bucket::MutatorApp, 10);
        assert_eq!(reg.publish(1), 1);
        writer.add_time(Bucket::MutatorApp, 5);
        assert_eq!(reg.publish(2), 2);
        // Cells are cumulative, so later snapshots contain earlier time.
        assert_eq!(reg.store().load().time(Bucket::MutatorApp), 15);
        let history = reg.store().history();
        assert_eq!(history.len(), 3);
        assert_eq!(history[1].time(Bucket::MutatorApp), 10);
    }

    #[test]
    fn total_time_reads_live_without_publish() {
        let reg = Registry::new();
        let writer = reg.register_thread();
        writer.add_time(Bucket::MutatorProfiling, 42);
        assert_eq!(reg.total_time(Bucket::MutatorProfiling), 42);
        assert_eq!(reg.store().version(), 0, "no publish happened");
    }
}
