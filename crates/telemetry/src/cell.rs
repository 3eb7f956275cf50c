//! Per-thread single-writer metric cells.
//!
//! Each thread that wants to record metrics registers one [`ThreadCells`]
//! block in the [`crate::Registry`] and gets back the block's only
//! [`CellWriter`]. The writer is neither `Clone` nor `Sync`, so exactly
//! one thread updates a block, and an update is a `Relaxed` load plus a
//! `Relaxed` store — no locked read-modify-write, no allocation, no
//! contention. Readers on any thread hold `Arc<ThreadCells>` and load
//! the cells; aggregation (safepoint-side, no racing writers in the
//! simulator) reconstructs exact [`rolp_metrics::Histogram`]s because
//! the cells share its bucket layout bit for bit.

use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rolp_metrics::Histogram;

use crate::bucket::{Bucket, CounterId, HistId};

/// Adds `n` to a cell that only one [`CellWriter`] updates. Nothing can
/// land between the load and the store, so the add is exact without a
/// locked read-modify-write; it wraps on overflow, as `fetch_add` does.
#[inline]
fn add(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// A histogram cell mirroring [`Histogram`]'s bucket layout.
///
/// Recording is wait-free: one index computation plus `Relaxed` loads
/// and stores — three adds and the two extremes, no locked
/// read-modify-write. That is exact because only the owning
/// [`CellWriter`] records (the method is crate-private and the writer is
/// neither `Clone` nor `Sync`). [`HistogramCell::to_histogram`] converts
/// back to an exact `Histogram` — merging any partition of a sample
/// across cells yields the same histogram as recording it
/// single-threaded.
pub struct HistogramCell {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    /// Sum of recorded values. `u64` holds > 580 years of nanoseconds,
    /// far beyond any simulated run.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCell {
    /// An empty cell.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..Histogram::SLOTS).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            counts: counts.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Single writer: see [`CellWriter`].
    ///
    /// Values are durations in nanoseconds; the running sum is a `u64`,
    /// so the cell is exact as long as the total stays below `u64::MAX`
    /// (~584 years of attributed nanoseconds).
    #[inline]
    pub(crate) fn record(&self, value: u64) {
        add(&self.counts[Histogram::index_of(value)], 1);
        add(&self.total, 1);
        add(&self.sum, value);
        if value < self.min.load(Ordering::Relaxed) {
            self.min.store(value, Ordering::Relaxed);
        }
        if value > self.max.load(Ordering::Relaxed) {
            self.max.store(value, Ordering::Relaxed);
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Accumulates this cell into aggregation scratch state. Safepoint
    /// side: assumes no concurrent recorders (the simulator aggregates
    /// between ticks; tests join threads first).
    pub(crate) fn drain_into(
        &self,
        counts: &mut [u64],
        min: &mut u64,
        max: &mut u64,
        sum: &mut u128,
    ) {
        for (dst, src) in counts.iter_mut().zip(self.counts.iter()) {
            *dst += src.load(Ordering::Relaxed);
        }
        *min = (*min).min(self.min.load(Ordering::Relaxed));
        *max = (*max).max(self.max.load(Ordering::Relaxed));
        *sum += self.sum.load(Ordering::Relaxed) as u128;
    }

    /// Converts this cell alone into an exact [`Histogram`].
    pub fn to_histogram(&self) -> Histogram {
        let mut counts = vec![0u64; Histogram::SLOTS];
        let (mut min, mut max, mut sum) = (u64::MAX, 0u64, 0u128);
        self.drain_into(&mut counts, &mut min, &mut max, &mut sum);
        Histogram::from_bucket_counts(&counts, min, max, sum)
    }
}

impl Default for HistogramCell {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for HistogramCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramCell")
            .field("count", &self.count())
            .field("max", &self.max.load(Ordering::Relaxed))
            .finish()
    }
}

/// One thread's metric cells: time-per-bucket, counters, histograms.
///
/// This is the read side; the block's [`CellWriter`] updates it.
pub struct ThreadCells {
    time_ns: [AtomicU64; Bucket::COUNT],
    counters: [AtomicU64; CounterId::COUNT],
    histograms: [HistogramCell; HistId::COUNT],
}

impl ThreadCells {
    /// A zeroed cell block.
    pub fn new() -> Self {
        ThreadCells {
            time_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| HistogramCell::new()),
        }
    }

    /// Time attributed to `bucket` so far.
    pub fn time(&self, bucket: Bucket) -> u64 {
        self.time_ns[bucket.index()].load(Ordering::Relaxed)
    }

    /// Current value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()].load(Ordering::Relaxed)
    }

    /// The cell for histogram series `id`.
    pub fn histogram_cell(&self, id: HistId) -> &HistogramCell {
        &self.histograms[id.index()]
    }
}

impl Default for ThreadCells {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ThreadCells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total: u64 = Bucket::ALL.iter().map(|&b| self.time(b)).sum();
        f.debug_struct("ThreadCells").field("attributed_ns", &total).finish()
    }
}

/// The only writer of one [`ThreadCells`] block, handed out by
/// [`crate::Registry::register_thread`].
///
/// Every update is a `Relaxed` load and store rather than a locked
/// read-modify-write. That loses nothing because a block has exactly one
/// writer: this type is not `Clone`, and it is not `Sync`, so no second
/// thread can reach it through a shared reference. It is `Send`, so a
/// recorder thread can own it. The loads and stores stay atomic, so a
/// reader on another thread never tears a value; it sees every update
/// made before its last synchronization with the writer (the safepoint
/// on the VM thread, or a join).
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<rolp_telemetry::CellWriter>();
/// ```
///
/// ```compile_fail
/// fn copied<T: Clone>() {}
/// copied::<rolp_telemetry::CellWriter>();
/// ```
pub struct CellWriter {
    cells: Arc<ThreadCells>,
    _not_sync: PhantomData<Cell<()>>,
}

impl CellWriter {
    /// The writer of a fresh, zeroed block.
    pub(crate) fn new() -> Self {
        CellWriter { cells: Arc::new(ThreadCells::new()), _not_sync: PhantomData }
    }

    /// The block this writer updates, for readers.
    pub(crate) fn cells(&self) -> &Arc<ThreadCells> {
        &self.cells
    }

    /// Attributes `ns` of time to `bucket`.
    #[inline]
    pub fn add_time(&self, bucket: Bucket, ns: u64) {
        add(&self.cells.time_ns[bucket.index()], ns);
    }

    /// Increments counter `id` by `n`.
    #[inline]
    pub fn bump(&self, id: CounterId, n: u64) {
        add(&self.cells.counters[id.index()], n);
    }

    /// Records `value` into histogram series `id`.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        self.cells.histograms[id.index()].record(value);
    }
}

impl fmt::Debug for CellWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CellWriter").field(&self.cells).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_round_trips_to_exact_histogram() {
        let cell = HistogramCell::new();
        let mut reference = Histogram::new();
        for v in [0u64, 1, 31, 32, 1_000, 123_456_789, 1 << 62] {
            cell.record(v);
            reference.record(v);
        }
        let h = cell.to_histogram();
        assert_eq!(h.count(), reference.count());
        assert_eq!(h.min(), reference.min());
        assert_eq!(h.max(), reference.max());
        assert_eq!(h.mean(), reference.mean());
        for p in [50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), reference.percentile(p), "p{p}");
        }
    }

    #[test]
    fn empty_cell_converts_to_empty_histogram() {
        let h = HistogramCell::new().to_histogram();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn thread_cells_accumulate_time_and_counters() {
        let writer = CellWriter::new();
        writer.add_time(Bucket::MutatorApp, 100);
        writer.add_time(Bucket::MutatorApp, 50);
        writer.add_time(Bucket::GcEvac, 7);
        writer.bump(CounterId::JitCompiles, 2);
        writer.record(HistId::GcPauseNs, 1_000);
        let cells = writer.cells();
        assert_eq!(cells.time(Bucket::MutatorApp), 150);
        assert_eq!(cells.time(Bucket::GcEvac), 7);
        assert_eq!(cells.time(Bucket::Idle), 0);
        assert_eq!(cells.counter(CounterId::JitCompiles), 2);
        assert_eq!(cells.histogram_cell(HistId::GcPauseNs).count(), 1);
    }
}
