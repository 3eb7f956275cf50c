//! Heap tracing (marking).
//!
//! A full transitive-closure mark from the root handles, producing
//! per-region live-byte counts. G1-like collectors run this as their
//! "concurrent" marking phase (charged to mutator time plus a short
//! remark pause); the full compaction and the CMS sweep consume its
//! results directly.

use std::collections::HashMap;

use rolp_heap::{Heap, ObjectRef, RegionKind};

/// One mark bit per heap word; an object is marked at its header word.
#[derive(Debug, Clone, Default)]
pub struct MarkBitmap {
    words_per_region: usize,
    bits: Vec<u64>,
}

impl MarkBitmap {
    /// A cleared bitmap covering every region of `heap`.
    pub fn for_heap(heap: &Heap) -> Self {
        let words_per_region = heap.region_words();
        let bits = heap.num_regions() * words_per_region;
        MarkBitmap { words_per_region, bits: vec![0; bits.div_ceil(64)] }
    }

    #[inline]
    fn locate(&self, obj: ObjectRef) -> (usize, u64) {
        let bit = obj.region().0 as usize * self.words_per_region + obj.offset() as usize;
        (bit / 64, 1u64 << (bit % 64))
    }

    /// Marks `obj`; true if it was not marked before.
    #[inline]
    pub fn insert(&mut self, obj: ObjectRef) -> bool {
        let (word, mask) = self.locate(obj);
        let fresh = self.bits[word] & mask == 0;
        self.bits[word] |= mask;
        fresh
    }

    /// True if `obj` is marked.
    #[inline]
    pub fn contains(&self, obj: ObjectRef) -> bool {
        let (word, mask) = self.locate(obj);
        self.bits.get(word).is_some_and(|w| w & mask != 0)
    }
}

/// Result of a marking pass.
#[derive(Debug, Clone, Default)]
pub struct MarkResult {
    /// Reachable objects.
    pub live_objects: u64,
    /// Reachable bytes.
    pub live_bytes: u64,
    /// The reachable objects (by current location).
    pub marked: MarkBitmap,
    /// Live objects per allocation context (objects whose headers carry a
    /// valid, non-biased context). Feeds the leak-detection use-case the
    /// paper sketches in §2.2: a context whose live population only grows
    /// is a leak suspect.
    pub context_live: HashMap<u32, u64>,
}

/// Marks the heap from the root handles, updating every region's
/// `live_bytes`.
///
/// # Panics
///
/// Panics (debug) if a forwarded header is encountered — marking must only
/// run on a heap at rest.
pub fn mark_liveness(heap: &mut Heap) -> MarkResult {
    // Reset liveness of every assigned region.
    let ids: Vec<_> = heap.regions().map(|(id, _)| id).collect();
    for id in ids {
        let r = heap.region_mut(id);
        if !matches!(r.kind, RegionKind::Free) {
            r.live_bytes = 0;
            r.liveness_valid = true;
        }
    }

    let mut result = MarkResult { marked: MarkBitmap::for_heap(heap), ..Default::default() };
    let mut stack: Vec<ObjectRef> = heap.handles.roots().collect();

    while let Some(obj) = stack.pop() {
        if !result.marked.insert(obj) {
            continue;
        }
        debug_assert!(!heap.header(obj).is_forwarded(), "marking over a forwarded object");
        let size_bytes = heap.size_words(obj) as u64 * 8;
        result.live_objects += 1;
        result.live_bytes += size_bytes;
        if let Some(ctx) = heap.header(obj).allocation_context() {
            if ctx != 0 {
                *result.context_live.entry(ctx).or_insert(0) += 1;
            }
        }
        let region = obj.region();
        heap.region_mut(region).live_bytes += size_bytes;
        for i in 0..heap.ref_words(obj) {
            let v = heap.get_ref(obj, i);
            if !v.is_null() && !result.marked.contains(v) {
                stack.push(v);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rolp_heap::{ClassId, HeapConfig, ObjectHeader, SpaceKind, TlabAlloc};

    fn heap() -> Heap {
        let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 32 * 1024 });
        h.classes.register("t.A");
        h
    }

    fn alloc(h: &mut Heap, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
        let hash = h.next_identity_hash();
        h.alloc_in(space, ClassId(0), refs, data, ObjectHeader::new(hash)).unwrap()
    }

    #[test]
    fn marks_transitive_closure_from_roots() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let b = alloc(&mut h, SpaceKind::Old, 1, 4);
        let c = alloc(&mut h, SpaceKind::Old, 0, 2);
        let dead = alloc(&mut h, SpaceKind::Eden, 0, 8);
        h.set_ref(a, 0, b);
        h.set_ref(b, 0, c);
        h.handles.create(a);

        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 3);
        assert!(r.marked.contains(a) && r.marked.contains(b) && r.marked.contains(c));
        assert!(!r.marked.contains(dead));
        let expected = (h.size_words(a) + h.size_words(b) + h.size_words(c)) as u64 * 8;
        assert_eq!(r.live_bytes, expected);
    }

    fn tlab_alloc(h: &mut Heap, thread: u32, refs: u16, data: u32) -> ObjectRef {
        let header = ObjectHeader::new(h.next_identity_hash());
        match h.tlab_alloc(thread, SpaceKind::Eden, ClassId(0), refs, data, header) {
            TlabAlloc::Hit(o) | TlabAlloc::Refilled(o) => o,
            TlabAlloc::Miss => panic!("small object must fit a TLAB"),
        }
    }

    /// A chain crossing eden and old regions, a shared target, a cycle,
    /// context-tagged headers, garbage, and TLAB filler words. Returns the
    /// reachable objects (each once), the dead object and a filler
    /// position.
    fn build_graph(h: &mut Heap) -> (Vec<ObjectRef>, ObjectRef, ObjectRef) {
        let root = alloc(h, SpaceKind::Eden, 4, 0);
        let mut live = vec![root];
        let mut prev = root;
        for i in 0..40u32 {
            let space = if i % 3 == 0 { SpaceKind::Old } else { SpaceKind::Eden };
            let next = alloc(h, space, 2, i % 7);
            // Contexts 0 (untagged) to 4, so some objects share one.
            let tagged = h.header(next).with_allocation_context(i % 5);
            h.set_header(next, tagged);
            h.set_ref(prev, 0, next);
            live.push(next);
            prev = next;
        }
        let shared = alloc(h, SpaceKind::Old, 0, 3);
        h.set_ref(root, 1, shared);
        h.set_ref(prev, 1, shared);
        live.push(shared);
        h.set_ref(prev, 0, root); // a cycle back to the root
        let dead = alloc(h, SpaceKind::Eden, 0, 5);
        // Two threads carving from one eden region: retiring thread 0's
        // buffer, which the second carve passed, stamps a filler over its
        // tail.
        h.set_tlab_bytes(256);
        let a = tlab_alloc(h, 0, 0, 1);
        let b = tlab_alloc(h, 1, 0, 1);
        h.retire_all_tlabs();
        assert!(h.stats().tlab_fillers >= 1);
        let filler = ObjectRef::new(a.region(), a.offset() + h.size_words(a));
        assert!(ObjectHeader::is_filler_word(h.region(filler.region()).word(filler.offset())));
        h.set_ref(root, 2, a);
        h.set_ref(root, 3, b);
        live.extend([a, b]);
        h.handles.create(root);
        (live, dead, filler)
    }

    #[test]
    fn mark_matches_the_constructed_graph() {
        let mut h = heap();
        let (live, dead, filler) = build_graph(&mut h);
        let r = mark_liveness(&mut h);

        let bytes = |h: &Heap, o: ObjectRef| h.size_words(o) as u64 * 8;
        assert_eq!(r.live_objects, live.len() as u64);
        assert_eq!(r.live_bytes, live.iter().map(|&o| bytes(&h, o)).sum::<u64>());
        for &o in &live {
            assert!(r.marked.contains(o), "{o:?} is reachable");
        }
        assert!(!r.marked.contains(dead));
        assert!(!r.marked.contains(filler));

        let mut region_live: HashMap<u32, u64> = HashMap::new();
        let mut context_live: HashMap<u32, u64> = HashMap::new();
        for &o in &live {
            *region_live.entry(o.region().0).or_insert(0) += bytes(&h, o);
            match h.header(o).allocation_context() {
                Some(ctx) if ctx != 0 => *context_live.entry(ctx).or_insert(0) += 1,
                _ => {}
            }
        }
        assert_eq!(context_live.len(), 4, "contexts 1..=4 are live");
        assert_eq!(r.context_live, context_live);
        for (id, region) in h.regions() {
            if !matches!(region.kind, RegionKind::Free) {
                let expected = region_live.get(&id.0).copied().unwrap_or(0);
                assert_eq!(region.live_bytes, expected, "region {id:?}");
                assert!(region.liveness_valid);
            }
        }
    }

    #[test]
    fn region_live_bytes_are_rebuilt() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 0, 2);
        let _dead = alloc(&mut h, SpaceKind::Eden, 0, 2);
        h.handles.create(a);
        mark_liveness(&mut h);
        let region = h.region(a.region());
        assert_eq!(region.live_bytes, h.size_words(a) as u64 * 8);
        assert!(region.garbage_bytes() > 0);
    }

    #[test]
    fn cycles_terminate() {
        let mut h = heap();
        let a = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let b = alloc(&mut h, SpaceKind::Eden, 1, 0);
        h.set_ref(a, 0, b);
        h.set_ref(b, 0, a);
        h.handles.create(a);
        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 2);
    }

    #[test]
    fn empty_roots_mark_nothing() {
        let mut h = heap();
        let _a = alloc(&mut h, SpaceKind::Eden, 0, 0);
        let r = mark_liveness(&mut h);
        assert_eq!(r.live_objects, 0);
        assert_eq!(r.live_bytes, 0);
    }
}
