//! The shared-cursor worker pool for embarrassingly parallel index spaces.
//!
//! GC pauses run on the VM thread; the sharded OLD table's per-shard
//! merge and inference fan-outs use this pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fans `work` out over the indices of `items` on a shared-cursor worker
/// pool, returning the results in input order.
///
/// Workers claim indices from one atomic cursor, each result lands in its
/// index's slot, and the output order matches `items` regardless of how
/// the claim race resolves. `workers <= 1` (or a single item) runs inline
/// on the caller — the deterministic reference the parallel path must
/// match.
pub fn fan_out_indexed<T, R, F>(items: &[T], workers: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            let (cursor, results, work) = (&cursor, &results, &work);
            s.spawn(move || loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else { break };
                *results[idx].lock().unwrap() = Some(work(idx, item));
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_input_order_at_any_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        let f = |i: usize, &v: &u32| (i as u32) * 1000 + v * 2;
        let seq = fan_out_indexed(&items, 1, f);
        for workers in [2, 4, 16, 64] {
            assert_eq!(fan_out_indexed(&items, workers, f), seq);
        }
        assert!(fan_out_indexed(&Vec::<u32>::new(), 4, f).is_empty());
    }
}
