//! Evacuation edge cases: empty collection sets, all-dead regions,
//! die-together accounting, self-referential objects, deep chains across
//! regions, the remembered-set prescan, and pause accounting.

use std::cell::RefCell;
use std::rc::Rc;

use rolp_gc::evac::evacuate_concurrent;
use rolp_gc::{
    evacuate, mark_liveness, prescan_remsets, rebuild_remsets, EvacStats, GcHooks, NullHooks,
    RegionalCollector, RegionalConfig,
};
use rolp_heap::verify::assert_heap_valid;
use rolp_heap::{
    ClassId, Heap, HeapConfig, ObjectHeader, ObjectRef, RegionId, RegionKind, SpaceKind, TlabAlloc,
};
use rolp_metrics::PauseKind;
use rolp_vm::{AllocRequest, CollectorApi, CostModel, JitConfig, ProgramBuilder, VmEnv};

fn env() -> VmEnv {
    let mut heap = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 64 * 1024 });
    heap.classes.register("t.Obj");
    VmEnv::new(heap, CostModel::default(), ProgramBuilder::new().build(), JitConfig::default(), 1)
}

fn alloc(env: &mut VmEnv, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
    let hash = env.heap.next_identity_hash();
    env.heap.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).expect("fits")
}

fn young_dest(from: RegionKind, _age: u8, _size: u32, _ctx: Option<u32>) -> SpaceKind {
    match from {
        RegionKind::Eden | RegionKind::Survivor => SpaceKind::Survivor,
        RegionKind::Dynamic(g) => SpaceKind::Dynamic(g),
        _ => SpaceKind::Old,
    }
}

#[test]
fn empty_cset_records_only_the_fixed_pause() {
    let mut env = env();
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &[], &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    let EvacStats { bytes_copied, survivors, regions_released, .. } = outcome.stats;
    assert_eq!((bytes_copied, survivors, regions_released), (0, 0, 0));
    assert_eq!(env.pauses.count(), 1);
    // Pause = safepoint + root scan only (no roots -> just the safepoint).
    assert!(outcome.pause.as_nanos() >= env.cost.safepoint_ns);
}

#[test]
fn all_dead_regions_are_released_for_free() {
    let mut env = env();
    // Fill two eden regions with garbage (no handles).
    for _ in 0..12 {
        let _ = alloc(&mut env, SpaceKind::Eden, 0, 16);
    }
    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    assert!(cset.len() >= 2);
    let free_before = env.heap.free_regions();

    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    assert_eq!(outcome.stats.bytes_copied, 0, "nothing live, nothing copied");
    assert_eq!(outcome.stats.regions_fully_dead, cset.len() as u64);
    assert_eq!(env.heap.free_regions(), free_before + cset.len());
}

fn tlab_alloc(env: &mut VmEnv, thread: u32) -> ObjectRef {
    let header = ObjectHeader::new(env.heap.next_identity_hash());
    match env.heap.tlab_alloc(thread, SpaceKind::Eden, ClassId(0), 0, 14, header) {
        TlabAlloc::Hit(o) | TlabAlloc::Refilled(o) => o,
        TlabAlloc::Miss => panic!("a 16-word object fits a TLAB"),
    }
}

/// Two threads carve one fresh eden region; retiring thread 0's buffer,
/// which thread 1's carve passed, stamps a filler over its tail.
fn region_with_filler(env: &mut VmEnv) -> (ObjectRef, ObjectRef) {
    let fillers = env.heap.stats().tlab_fillers;
    let a = tlab_alloc(env, 0);
    let b = tlab_alloc(env, 1);
    env.heap.retire_all_tlabs();
    assert_eq!(a.region(), b.region());
    assert_eq!(env.heap.stats().tlab_fillers, fillers + 1);
    env.heap.retire_current(SpaceKind::Eden);
    (a, b)
}

/// An eden collection set of six regions: two wholly dead, one partly
/// live (reached from a root and from an old holder's remembered-set
/// slot), one dead and one live region containing a TLAB filler, and one
/// empty region.
fn mixed_liveness_cset() -> (VmEnv, Vec<RegionId>) {
    let mut env = env();
    env.heap.set_tlab_bytes(256);
    let holder = alloc(&mut env, SpaceKind::Old, 1, 0);
    env.heap.handles.create(holder);
    for n in [8, 3] {
        for _ in 0..n {
            alloc(&mut env, SpaceKind::Eden, 0, 14);
        }
        env.heap.retire_current(SpaceKind::Eden);
    }
    let partly: Vec<ObjectRef> = (0..4).map(|_| alloc(&mut env, SpaceKind::Eden, 0, 14)).collect();
    env.heap.handles.create(partly[1]);
    env.heap.set_ref(holder, 0, partly[3]);
    env.heap.retire_current(SpaceKind::Eden);
    region_with_filler(&mut env);
    let (_, live) = region_with_filler(&mut env);
    env.heap.handles.create(live);
    let emptied = alloc(&mut env, SpaceKind::Eden, 0, 14).region();
    env.heap.region_mut(emptied).unbump(0);
    env.heap.retire_current(SpaceKind::Eden);
    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    assert_eq!(cset.len(), 6);
    (env, cset)
}

/// The region walk evacuation used to run after copying, computed before
/// evacuating: a non-empty collection-set region died together iff none
/// of its objects is live (every old object here is rooted, so live is
/// exactly what evacuation copies).
fn walked_fully_dead(env: &mut VmEnv, cset: &[RegionId]) -> u64 {
    let mark = mark_liveness(&mut env.heap);
    let heap = &env.heap;
    cset.iter()
        .filter(|&&r| {
            heap.region(r).used_bytes() > 0
                && !heap.objects_in_region(r).any(|o| mark.marked.contains(o))
        })
        .count() as u64
}

#[test]
fn fully_dead_regions_match_the_region_walk() {
    let (mut env, cset) = mixed_liveness_cset();
    let expected = walked_fully_dead(&mut env, &cset);
    assert_eq!(expected, 3, "two dead regions and the dead filler region");

    let (mut env, cset) = mixed_liveness_cset();
    let stw = evacuate(&mut env, &cset, &mut young_dest, &mut NullHooks, PauseKind::Young);
    assert!(!stw.failed);
    assert_eq!(stw.stats.survivors, 3);
    assert_eq!(stw.stats.regions_fully_dead, expected);

    let (mut env, cset) = mixed_liveness_cset();
    let conc = evacuate_concurrent(&mut env, &cset, &mut young_dest, &mut NullHooks);
    assert!(!conc.failed);
    assert_eq!(conc.stats.regions_fully_dead, expected);

    // The regional collector's young collection takes the same eden set.
    let (mut env, _) = mixed_liveness_cset();
    let hooks: Rc<RefCell<dyn GcHooks>> = Rc::new(RefCell::new(NullHooks));
    let config = RegionalConfig { eden_fraction: 0.0, ..Default::default() };
    let mut g1 = RegionalCollector::with_config(config, hooks, "G1");
    let req = AllocRequest {
        class: ClassId(0),
        ref_words: 0,
        data_words: 1,
        header: ObjectHeader::new(1),
        context: None,
        manual_gen: None,
        advised_gen: None,
    };
    g1.allocate(&mut env, req);
    assert_eq!(g1.stats().young_gcs, 1);
    assert_eq!(g1.stats().regions_died_together, expected);
    assert_heap_valid(&env.heap, false);
}

#[test]
fn prescan_sorts_valid_slots_and_counts_stale_ones() {
    let mut env = env();
    // Old holders referencing eden objects (one remembered-set slot each),
    // recorded in an order the sort must undo.
    let eden: Vec<ObjectRef> = (0..12).map(|i| alloc(&mut env, SpaceKind::Eden, 0, i)).collect();
    let holders: Vec<ObjectRef> =
        eden.iter().map(|_| alloc(&mut env, SpaceKind::Old, 1, 0)).collect();
    for (&e, &h) in eden.iter().zip(&holders).rev() {
        env.heap.set_ref(h, 0, e);
    }
    // Two holders drop their reference: their slots become stale.
    env.heap.set_ref(holders[2], 0, ObjectRef::NULL);
    env.heap.set_ref(holders[7], 0, ObjectRef::NULL);

    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    let mut in_cset = vec![false; env.heap.num_regions()];
    for r in &cset {
        in_cset[r.0 as usize] = true;
    }
    let prescan = prescan_remsets(&env.heap, &cset, &in_cset);
    assert_eq!(prescan.slots_examined, 12);
    assert_eq!(prescan.valid.len(), cset.len());
    let valid: Vec<_> = prescan.valid.iter().flatten().collect();
    assert_eq!(valid.len(), 10);
    for v in &valid {
        assert!(in_cset[v.value.region().0 as usize]);
    }
    for list in &prescan.valid {
        let keys: Vec<_> =
            list.iter().map(|v| (v.slot.region.0, v.slot.offset, v.slot.epoch)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted and distinct: {keys:?}");
    }
}

#[test]
fn self_referential_objects_survive() {
    let mut env = env();
    let obj = alloc(&mut env, SpaceKind::Eden, 1, 2);
    env.heap.set_ref(obj, 0, obj); // self-loop
    env.heap.set_data(obj, 1, 0x5E1F);
    let h = env.heap.handles.create(obj);

    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);
    let moved = env.heap.handles.get(h);
    assert_ne!(moved, obj);
    assert_eq!(env.heap.get_ref(moved, 0), moved, "self-loop re-targeted to the copy");
    assert_eq!(env.heap.get_data(moved, 1), 0x5E1F);
    assert_heap_valid(&env.heap, false);
}

#[test]
fn deep_chains_across_regions_survive_with_remsets_intact() {
    let mut env = env();
    // A chain alternating young/old so every link crosses a region.
    let mut prev = alloc(&mut env, SpaceKind::Old, 1, 1);
    let head = env.heap.handles.create(prev);
    for i in 0..60 {
        let space = if i % 2 == 0 { SpaceKind::Eden } else { SpaceKind::Old };
        let next = alloc(&mut env, space, 1, 1);
        env.heap.set_data(next, 0, i);
        env.heap.set_ref(prev, 0, next);
        prev = next;
    }

    let cset = env.heap.regions_of_kind(RegionKind::Eden);
    let mut hooks = NullHooks;
    let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
    assert!(!outcome.failed);

    // Walk the chain: every young link moved, every old link stayed, all
    // data intact.
    let mut cur = env.heap.handles.get(head);
    let mut seen = 0;
    loop {
        let next = env.heap.get_ref(cur, 0);
        if next.is_null() {
            break;
        }
        assert_eq!(env.heap.get_data(next, 0), seen);
        seen += 1;
        cur = next;
    }
    assert_eq!(seen, 60);
    rebuild_remsets(&mut env.heap);
    assert_heap_valid(&env.heap, true);
}

#[test]
fn survivor_pause_grows_with_copied_bytes() {
    let sizes = [4u32, 40]; // both below the humongous threshold (half of a 128-word region)
    let mut pauses = Vec::new();
    for &words in &sizes {
        let mut env = env();
        // Slow copy bandwidth so the copy term dominates the fixed costs.
        env.cost.copy_bandwidth_bytes_per_sec = 1_000_000;
        let mut handles = Vec::new();
        for _ in 0..6 {
            let o = alloc(&mut env, SpaceKind::Eden, 0, words);
            handles.push(env.heap.handles.create(o));
        }
        let cset = env.heap.regions_of_kind(RegionKind::Eden);
        let mut hooks = NullHooks;
        let outcome = evacuate(&mut env, &cset, &mut young_dest, &mut hooks, PauseKind::Young);
        assert_eq!(outcome.stats.survivors, 6);
        pauses.push(outcome.pause.as_nanos());
    }
    assert!(pauses[1] > pauses[0], "10x larger objects must cost more: {pauses:?}");
}
