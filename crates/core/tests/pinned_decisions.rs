//! Pinned decision tables: a guest program with three allocation
//! demographics, driven through the full runtime (JIT, GC cycles, epoch
//! pipeline, decision publication) on the default fast path, must publish
//! exactly the [`rolp_vm::DecisionTable`] recorded below — same version,
//! same digest, same `(row key, generation)` set — at one and at four
//! guest threads. The constants were captured from a build whose
//! four-thread runtime still profiled into a separate relaxed-atomic OLD
//! table, so they also prove that one exact table publishes the same
//! decisions at every thread count.

use rolp::runtime::{CollectorKind, JvmRuntime, RuntimeConfig};
use rolp_vm::ThreadId;

/// The final published decision state of one run.
#[derive(Debug, PartialEq, Eq)]
struct Published {
    version: u64,
    digest: u64,
    decisions: Vec<(u32, u8)>,
    epochs: u64,
    /// Sites holding a §7.5 expansion block at the end of the run.
    expanded_sites: Vec<u16>,
    /// FNV-1a over the OLD table's touched rows and their histograms.
    old_digest: u64,
}

fn fnv(hash: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Drives a program with three allocation demographics (transient,
/// middle-aged ring, factory conflict) long enough for several inference
/// epochs, rotating guest threads, and returns the final published
/// decision state.
fn run(threads: u32) -> Published {
    let mut b = rolp_vm::ProgramBuilder::new();
    let main = b.method("app.Main::run", 100, false);
    let worker = b.method("app.Worker::step", 80, false);
    let maker = b.method("app.Factory::make", 60, false);
    let call_worker = b.call_site(main, worker);
    let call_maker = b.call_site(worker, maker);
    let site_transient = b.alloc_site(worker, 1);
    let site_ring = b.alloc_site(main, 2);
    let site_factory = b.alloc_site(maker, 3);
    let program = b.build();

    let cfg = RuntimeConfig {
        collector: CollectorKind::RolpNg2c,
        heap: rolp_heap::HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 18 },
        threads,
        ..Default::default()
    };

    let mut rt = JvmRuntime::new(cfg, program);
    let class = rt.vm.env.heap.classes.register("app.Item");
    let mut ring = std::collections::VecDeque::new();
    let mut factory_held = std::collections::VecDeque::new();
    for i in 0..50_000u64 {
        let mut ctx = rt.ctx(ThreadId((i % threads as u64) as u32));
        ctx.call(call_worker, |ctx| {
            let h = ctx.alloc(site_transient, class, 0, 4);
            ctx.release(h);
            let held = ctx.alloc(site_ring, class, 0, 4);
            ring.push_back(held);
            if ring.len() > 96 {
                ctx.release(ring.pop_front().unwrap());
            }
            // The factory site alternates between transient and held
            // objects — the §7.5 conflict that forces an expansion.
            ctx.call(call_maker, |ctx| {
                let f = ctx.alloc(site_factory, class, 0, 4);
                if i % 2 == 0 {
                    ctx.release(f);
                } else {
                    factory_held.push_back(f);
                    if factory_held.len() > 48 {
                        ctx.release(factory_held.pop_front().unwrap());
                    }
                }
            });
            ctx.complete_ops(1);
        });
    }

    let profiler = rt.profiler.as_ref().expect("rolp collector has a profiler");
    let p = profiler.borrow();
    let snapshot = p.decision_store().snapshot();
    let mut old_digest = 0xcbf2_9ce4_8422_2325u64;
    for row in p.old.touched_rows() {
        fnv(&mut old_digest, row);
        for count in p.old.histogram(row) {
            fnv(&mut old_digest, count);
        }
    }
    Published {
        version: snapshot.version(),
        digest: snapshot.digest(),
        decisions: snapshot.iter().collect(),
        epochs: p.inferences(),
        expanded_sites: p.old.expanded_sites(),
        old_digest,
    }
}

/// The two decision rows every run publishes: sites 1 and 2, both at
/// generation 0.
const PINNED_DECISIONS: [(u32, u8); 2] = [(1 << 16, 0), (2 << 16, 0)];
const PINNED_DIGEST: u64 = 8_914_848_967_903_918_958;

#[test]
fn one_thread_publishes_the_pinned_decision_table() {
    let published = run(1);
    assert_eq!(
        published,
        Published {
            version: 7,
            digest: PINNED_DIGEST,
            decisions: PINNED_DECISIONS.to_vec(),
            epochs: 7,
            expanded_sites: Vec::new(),
            old_digest: 5_921_243_056_297_596_830,
        }
    );
}

#[test]
fn four_threads_publish_the_pinned_decision_table() {
    let published = run(4);
    assert_eq!(
        published,
        Published {
            version: 9,
            digest: PINNED_DIGEST,
            decisions: PINNED_DECISIONS.to_vec(),
            epochs: 9,
            expanded_sites: Vec::new(),
            old_digest: 5_655_797_231_662_454_698,
        }
    );
}
