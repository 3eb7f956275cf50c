//! Property tests for the per-thread metric cells.
//!
//! The telemetry plane's correctness hinges on one equivalence: samples
//! recorded into per-thread [`rolp_telemetry::HistogramCell`]s and
//! merged at a safepoint must produce *exactly* the histogram a
//! single-threaded reference gets from the same samples — no lost
//! counts, no drifted extremes, identical percentiles. These tests run
//! the real multi-threaded path: cells are registered on the main
//! thread, each block's single writer moves into its own spawned thread,
//! and the main thread aggregates after joining. They are kept small
//! enough to stay Miri-clean; CI runs them under Miri with a reduced
//! case count and under ThreadSanitizer.

use std::sync::Arc;

use proptest::prelude::*;

use rolp_metrics::Histogram;
use rolp_telemetry::{Bucket, CounterId, HistId, Registry};

/// Partitions `samples` round-robin over `threads` real threads, each
/// owning the writer of its own registered cell block, then aggregates.
fn record_across_threads(
    samples: &[u64],
    threads: usize,
) -> (Arc<Registry>, rolp_telemetry::MetricsSnapshot) {
    let registry = Arc::new(Registry::new());
    let mut handles = Vec::new();
    for t in 0..threads {
        let writer = registry.register_thread();
        let chunk: Vec<u64> = samples.iter().copied().skip(t).step_by(threads).collect();
        handles.push(std::thread::spawn(move || {
            for v in chunk {
                writer.record(HistId::GcPauseNs, v);
                writer.add_time(Bucket::MutatorApp, v);
                writer.bump(CounterId::GcPauses, 1);
            }
        }));
    }
    for h in handles {
        h.join().expect("recorder thread");
    }
    let snapshot = registry.aggregate(0);
    (registry, snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 4 } else { 64 },
        ..ProptestConfig::default()
    })]

    /// Safepoint aggregation of per-thread cells is bit-identical to a
    /// single-threaded reference histogram fed the same samples.
    #[test]
    fn merged_cells_equal_reference_histogram(
        samples in prop::collection::vec(0u64..4_000_000_000, 1..200),
        threads in 1usize..5,
    ) {
        let mut reference = Histogram::new();
        for &v in &samples {
            reference.record(v);
        }

        let (_registry, snapshot) = record_across_threads(&samples, threads);
        let merged = snapshot.histogram(HistId::GcPauseNs);

        prop_assert_eq!(merged.count(), reference.count(), "no lost counts");
        prop_assert_eq!(merged.min(), reference.min());
        prop_assert_eq!(merged.max(), reference.max());
        prop_assert_eq!(merged.mean(), reference.mean());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(
                merged.percentile(p),
                reference.percentile(p),
                "p{} diverged", p
            );
        }
        let ref_buckets: Vec<(u64, u64)> = reference.iter_buckets().collect();
        let merged_buckets: Vec<(u64, u64)> = merged.iter_buckets().collect();
        prop_assert_eq!(merged_buckets, ref_buckets, "bucket-level divergence");
    }

    /// Time and counter cells are conserved across any thread partition.
    #[test]
    fn time_and_counters_are_conserved(
        samples in prop::collection::vec(0u64..1_000_000, 1..200),
        threads in 1usize..5,
    ) {
        let expected_time: u64 = samples.iter().sum();
        let (registry, snapshot) = record_across_threads(&samples, threads);
        prop_assert_eq!(snapshot.time(Bucket::MutatorApp), expected_time);
        prop_assert_eq!(snapshot.counter(CounterId::GcPauses), samples.len() as u64);
        prop_assert_eq!(registry.total_time(Bucket::MutatorApp), expected_time);
        prop_assert_eq!(registry.thread_count(), threads);
    }

    /// Aggregation is deterministic: two aggregations of the same cells
    /// observe the same state, and publishing bumps the version by one.
    #[test]
    fn aggregation_is_deterministic(
        samples in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let (registry, first) = record_across_threads(&samples, 2);
        let second = registry.aggregate(0);
        prop_assert_eq!(first.time(Bucket::MutatorApp), second.time(Bucket::MutatorApp));
        prop_assert_eq!(
            first.histogram(HistId::GcPauseNs).percentile(99.0),
            second.histogram(HistId::GcPauseNs).percentile(99.0)
        );
        let v1 = registry.publish(1);
        let v2 = registry.publish(2);
        prop_assert_eq!(v1 + 1, v2);
        prop_assert_eq!(registry.store().load().version(), v2);
    }
}
