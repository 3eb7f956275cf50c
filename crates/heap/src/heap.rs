//! The heap: region management, object allocation, and field access.
//!
//! The heap provides mechanism only. Collectors (in `rolp-gc`) decide when
//! to collect and where survivors go; guest programs (via `rolp-vm`) decide
//! what to allocate. The heap enforces the object layout, performs the
//! write barrier bookkeeping, and tracks committed/used bytes.

use crate::class::{ClassId, ClassTable};
use crate::handles::HandleTable;
use crate::header::ObjectHeader;
use crate::object::ObjectRef;
use crate::region::{Region, RegionId, RegionKind};
use crate::remset::{needs_barrier, SlotAddr};

/// Words of per-object overhead (header word + info word).
pub const OBJECT_HEADER_WORDS: u32 = 2;

/// Default TLAB size in bytes (1024 words). Chunks are additionally
/// capped at the current region's remaining space, so small-region test
/// heaps work unchanged.
pub const DEFAULT_TLAB_BYTES: usize = 8 * 1024;

/// Heap sizing parameters.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Bytes per region (must be a multiple of 8). Default 256 KiB — the
    /// paper's 1 MiB G1 regions scaled by the default 1/16 experiment
    /// scale, keeping the regions-per-heap ratio.
    pub region_bytes: usize,
    /// Total heap budget in bytes (`-Xmx`).
    pub max_heap_bytes: u64,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig { region_bytes: 256 * 1024, max_heap_bytes: 64 * 1024 * 1024 }
    }
}

/// The space an allocation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// Young-generation eden.
    Eden,
    /// Young-generation survivor space (GC-internal allocations).
    Survivor,
    /// Tenured space.
    Old,
    /// NG2C dynamic generation `g` (1..=14).
    Dynamic(u8),
}

impl SpaceKind {
    /// The region kind backing this space.
    pub fn region_kind(self) -> RegionKind {
        match self {
            SpaceKind::Eden => RegionKind::Eden,
            SpaceKind::Survivor => RegionKind::Survivor,
            SpaceKind::Old => RegionKind::Old,
            SpaceKind::Dynamic(g) => RegionKind::Dynamic(g),
        }
    }

    fn slot(self) -> usize {
        match self {
            SpaceKind::Eden => 0,
            SpaceKind::Survivor => 1,
            SpaceKind::Old => 2,
            SpaceKind::Dynamic(g) => {
                assert!((1..=14).contains(&g), "dynamic generation out of range");
                2 + g as usize
            }
        }
    }
}

/// Why an allocation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocFailure {
    /// No free region is available; the caller should trigger a collection
    /// and retry.
    NeedsGc,
    /// The request can never fit (larger than the whole heap budget).
    TooLarge,
}

/// Cumulative allocation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapStats {
    /// Objects allocated.
    pub allocations: u64,
    /// Bytes allocated (including per-object overhead).
    pub bytes_allocated: u64,
    /// Humongous objects allocated.
    pub humongous_allocations: u64,
    /// Write-barrier remembered-set records.
    pub barrier_records: u64,
    /// Objects copied by collectors through [`Heap::copy_object`].
    pub objects_copied: u64,
    /// Bytes copied by collectors.
    pub bytes_copied: u64,
    /// TLAB refills (chunk carves) through [`Heap::tlab_alloc`].
    pub tlab_refills: u64,
    /// Filler objects stamped by TLAB retirement (dead space that could
    /// not be returned to its region's frontier).
    pub tlab_fillers: u64,
}

/// A thread-local allocation buffer: a private chunk carved from a
/// region's frontier, bump-allocated without touching shared state.
#[derive(Debug, Clone, Copy)]
struct Tlab {
    region: RegionId,
    /// Next free word in the buffer.
    cursor: u32,
    /// One past the last word of the buffer.
    limit: u32,
}

/// Outcome of a [`Heap::tlab_alloc`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlabAlloc {
    /// Satisfied from the thread's existing buffer (the fast path: one
    /// private bump, no shared state touched).
    Hit(ObjectRef),
    /// Satisfied after carving a fresh chunk from the space's current
    /// region (the "refill under a lock" path in a real VM — callers
    /// charge this as a stall).
    Refilled(ObjectRef),
    /// Not TLAB-eligible (TLABs disabled, object larger than a chunk, or
    /// humongous) or no chunk could be carved. The caller falls through
    /// to [`Heap::alloc_in`]; any buffer the slow path would bump past
    /// has already been retired, so placement matches the shared path.
    Miss,
}

/// The managed heap.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    regions: Vec<Region>,
    free: Vec<RegionId>,
    /// Current allocation region per space (eden, survivor, old, dyn 1..14).
    current: [Option<RegionId>; 17],
    /// Guest class metadata.
    pub classes: ClassTable,
    /// Root-set handles.
    pub handles: HandleTable,
    epoch: u64,
    stats: HeapStats,
    hash_seed: u64,
    /// O(1) region counts per kind (see [`kind_slot`]).
    kind_counts: [u32; 20],
    /// TLAB chunk size in words; 0 disables TLAB allocation.
    tlab_words: usize,
    /// Per-thread, per-space allocation buffers (grown on demand).
    tlabs: Vec<[Option<Tlab>; 17]>,
}

/// Dense index for [`RegionKind`] used by the O(1) counters.
fn kind_slot(kind: RegionKind) -> usize {
    match kind {
        RegionKind::Free => 0,
        RegionKind::Eden => 1,
        RegionKind::Survivor => 2,
        RegionKind::Old => 3,
        RegionKind::Dynamic(g) => 3 + g as usize, // 4..=17
        RegionKind::Humongous => 18,
        RegionKind::HumongousCont => 19,
    }
}

impl Heap {
    /// Creates a heap with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the region size is not a positive multiple of 8 or the
    /// heap budget is smaller than one region.
    pub fn new(config: HeapConfig) -> Self {
        assert!(config.region_bytes >= 64 && config.region_bytes.is_multiple_of(8));
        let max_regions = (config.max_heap_bytes / config.region_bytes as u64) as usize;
        assert!(max_regions >= 1, "heap budget smaller than one region");
        let regions: Vec<Region> = (0..max_regions).map(|_| Region::new()).collect();
        let free = (0..max_regions as u32).rev().map(RegionId).collect();
        Heap {
            config,
            regions,
            free,
            current: [None; 17],
            classes: ClassTable::new(),
            handles: HandleTable::new(),
            epoch: 0,
            stats: HeapStats::default(),
            hash_seed: 0x9E37_79B9_7F4A_7C15,
            kind_counts: {
                let mut c = [0u32; 20];
                c[0] = max_regions as u32;
                c
            },
            tlab_words: DEFAULT_TLAB_BYTES / 8,
            tlabs: Vec::new(),
        }
    }

    /// Number of regions currently of `kind`, in O(1).
    pub fn num_of_kind(&self, kind: RegionKind) -> usize {
        self.kind_counts[kind_slot(kind)] as usize
    }

    /// Region size in words.
    pub fn region_words(&self) -> usize {
        self.config.region_bytes / 8
    }

    /// Region size in bytes.
    pub fn region_bytes(&self) -> usize {
        self.config.region_bytes
    }

    /// Total number of regions (free and assigned).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Number of regions currently on the free list.
    pub fn free_regions(&self) -> usize {
        self.free.len()
    }

    /// The configured heap budget in bytes.
    pub fn max_heap_bytes(&self) -> u64 {
        self.config.max_heap_bytes
    }

    /// Bytes of committed backing memory (regions that have ever been
    /// assigned keep their memory, as with pre-touched heaps).
    pub fn committed_bytes(&self) -> u64 {
        self.regions.iter().map(|r| (r.capacity_words() * 8) as u64).sum()
    }

    /// Bytes occupied by objects in live (non-free) regions.
    pub fn used_bytes(&self) -> u64 {
        self.regions
            .iter()
            .filter(|r| !matches!(r.kind, RegionKind::Free))
            .map(Region::used_bytes)
            .sum()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Shared access to a region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Mutable access to a region.
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0 as usize]
    }

    /// Iterates `(id, region)` over all regions.
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions.iter().enumerate().map(|(i, r)| (RegionId(i as u32), r))
    }

    /// Ids of regions currently of the given kind.
    pub fn regions_of_kind(&self, kind: RegionKind) -> Vec<RegionId> {
        self.regions().filter(|(_, r)| r.kind == kind).map(|(id, _)| id).collect()
    }

    fn take_free_region(&mut self, kind: RegionKind, words: usize) -> Option<RegionId> {
        let id = self.free.pop()?;
        self.epoch += 1;
        let epoch = self.epoch;
        self.regions[id.0 as usize].assign(kind, words, epoch);
        self.kind_counts[kind_slot(RegionKind::Free)] -= 1;
        self.kind_counts[kind_slot(kind)] += 1;
        Some(id)
    }

    /// Returns a region to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the region is already free.
    pub fn release_region(&mut self, id: RegionId) {
        let r = &mut self.regions[id.0 as usize];
        assert!(!matches!(r.kind, RegionKind::Free), "double release of region {id:?}");
        let old_kind = r.kind;
        r.release();
        self.kind_counts[kind_slot(old_kind)] -= 1;
        self.kind_counts[kind_slot(RegionKind::Free)] += 1;
        // Drop it from any current-allocation slot.
        for c in &mut self.current {
            if *c == Some(id) {
                *c = None;
            }
        }
        // Invalidate any TLAB still carved from it (the backing words are
        // being recycled; no filler needed for a freed region).
        for set in &mut self.tlabs {
            for tl in set.iter_mut() {
                if tl.map(|t| t.region) == Some(id) {
                    *tl = None;
                }
            }
        }
        self.free.push(id);
    }

    /// Commits backing memory for up to `n` additional free regions
    /// without assigning them (concurrent collectors pre-commit allocation
    /// headroom for the mutator allocation that proceeds during their
    /// cycles). Counted by [`Heap::committed_bytes`].
    pub fn commit_headroom(&mut self, n: usize) {
        let words = self.region_words();
        let mut committed = 0;
        for id in self.free.clone() {
            if committed >= n {
                break;
            }
            let r = &mut self.regions[id.0 as usize];
            if r.capacity_words() != words {
                // Touch the backing memory, as `assign` would, then return
                // the region to the free state (kind counts unchanged).
                r.assign(RegionKind::Eden, words, 0);
                r.release();
                committed += 1;
            }
        }
    }

    /// Detaches the current allocation region of `space` so subsequent
    /// allocations start a fresh region. Collectors call this when forming
    /// a collection set.
    pub fn retire_current(&mut self, space: SpaceKind) {
        self.current[space.slot()] = None;
    }

    /// Detaches every current allocation region.
    pub fn retire_all_current(&mut self) {
        self.current = [None; 17];
    }

    // --- TLABs ---

    /// Sets the TLAB chunk size in bytes (0 disables TLAB allocation).
    /// Retires any live buffers so a mid-run change cannot strand carved
    /// space.
    pub fn set_tlab_bytes(&mut self, bytes: usize) {
        self.retire_all_tlabs();
        self.tlab_words = bytes / 8;
    }

    /// The configured TLAB chunk size in bytes (0 when disabled).
    pub fn tlab_bytes(&self) -> usize {
        self.tlab_words * 8
    }

    /// Allocates an object in `space` through `thread`'s allocation
    /// buffer, if possible. See [`TlabAlloc`] for the outcomes; on
    /// [`TlabAlloc::Miss`] the caller should fall through to
    /// [`Heap::alloc_in`], which will then place the object exactly where
    /// the shared bump path would have (a buffer the slow path would
    /// have to bump past is retired before `Miss` is returned).
    ///
    /// With one mutator thread, placement is bit-identical to calling
    /// [`Heap::alloc_in`] directly: chunks are carved from the current
    /// region's frontier, capped at its remaining space (so no usable
    /// word is skipped), and retirement rolls the frontier back when the
    /// buffer is the last carve. With several threads interleaving carves,
    /// retirement stamps [filler words] over dead space instead, keeping
    /// every region parsable for cursor walks.
    ///
    /// [filler words]: ObjectHeader::filler_word
    pub fn tlab_alloc(
        &mut self,
        thread: u32,
        space: SpaceKind,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
        header: ObjectHeader,
    ) -> TlabAlloc {
        let size_words = (OBJECT_HEADER_WORDS + ref_words as u32 + data_words) as usize;
        let t = thread as usize;
        let slot = space.slot();
        if self.tlab_words == 0
            || size_words > self.tlab_words
            || size_words > self.region_words() / 2
        {
            // Humongous objects bypass TLABs entirely (they get dedicated
            // regions; the buffer stays valid). An oversized-but-regular
            // object will bump the shared frontier, so the buffer must be
            // retired first to roll the frontier back to the reference
            // position.
            if size_words <= self.region_words() / 2 {
                self.retire_tlab(t, slot);
            }
            return TlabAlloc::Miss;
        }
        if t >= self.tlabs.len() {
            self.tlabs.resize(t + 1, [None; 17]);
        }
        // Fast path: private bump inside the buffer.
        if let Some(tlab) = &mut self.tlabs[t][slot] {
            if (tlab.cursor as usize) + size_words <= tlab.limit as usize {
                let (region, offset) = (tlab.region, tlab.cursor);
                tlab.cursor += size_words as u32;
                return TlabAlloc::Hit(
                    self.init_object(region, offset, class, ref_words, data_words, header),
                );
            }
        }
        // Refill: retire the exhausted buffer, carve a fresh chunk.
        self.retire_tlab(t, slot);
        if self.refill_tlab(t, slot, space, size_words) {
            self.stats.tlab_refills += 1;
            let tlab = self.tlabs[t][slot].as_mut().expect("refill installed a buffer");
            let (region, offset) = (tlab.region, tlab.cursor);
            tlab.cursor += size_words as u32;
            TlabAlloc::Refilled(
                self.init_object(region, offset, class, ref_words, data_words, header),
            )
        } else {
            TlabAlloc::Miss
        }
    }

    /// Carves a chunk able to hold `size_words` into a fresh buffer for
    /// `(t, slot)`. Returns false if no region can provide one (the
    /// caller's slow path will report [`AllocFailure::NeedsGc`]).
    fn refill_tlab(&mut self, t: usize, slot: usize, space: SpaceKind, size_words: usize) -> bool {
        let region_words = self.region_words();
        // Carve from the space's current region. The chunk is capped at
        // the region's remaining space, so the carve succeeds exactly
        // when a shared bump of `size_words` would have.
        if let Some(id) = self.current[slot] {
            let r = &mut self.regions[id.0 as usize];
            let chunk = self.tlab_words.min(r.capacity_words() - r.top());
            if chunk >= size_words {
                let at = r.bump(chunk).expect("capped carve fits");
                self.tlabs[t][slot] =
                    Some(Tlab { region: id, cursor: at, limit: at + chunk as u32 });
                return true;
            }
        }
        // Current region absent or too full: take a fresh one — again
        // exactly when the shared path would.
        let Some(id) = self.take_free_region(space.region_kind(), region_words) else {
            return false;
        };
        self.current[slot] = Some(id);
        let chunk = self.tlab_words.min(region_words);
        debug_assert!(chunk >= size_words, "eligibility check bounds the object size");
        let at = self.regions[id.0 as usize].bump(chunk).expect("fresh region fits the carve");
        self.tlabs[t][slot] = Some(Tlab { region: id, cursor: at, limit: at + chunk as u32 });
        true
    }

    /// Retires one buffer: returns the unused tail to the region when the
    /// buffer is the last carve (restoring the exact shared-path
    /// frontier), otherwise stamps a filler word over it.
    fn retire_tlab(&mut self, t: usize, slot: usize) {
        if t >= self.tlabs.len() {
            return;
        }
        let Some(tlab) = self.tlabs[t][slot].take() else { return };
        if tlab.cursor == tlab.limit {
            return; // fully consumed, nothing to give back
        }
        let r = &mut self.regions[tlab.region.0 as usize];
        if r.top() == tlab.limit as usize {
            r.unbump(tlab.cursor);
        } else {
            let gap = (tlab.limit - tlab.cursor) as usize;
            r.set_word(tlab.cursor, ObjectHeader::filler_word(gap));
            self.stats.tlab_fillers += 1;
        }
    }

    /// Retires every live allocation buffer. Collectors call this at
    /// safepoint entry so regions are parsable (and, single-threaded,
    /// frontier-exact) before marking, evacuation, or verification.
    pub fn retire_all_tlabs(&mut self) {
        for t in 0..self.tlabs.len() {
            for slot in 0..17 {
                self.retire_tlab(t, slot);
            }
        }
    }

    /// Live (un-retired) buffer gaps as `(region, cursor, limit)` spans.
    /// The words inside a span are uninitialized until the owning thread
    /// allocates over them, so heap walkers running between safepoints
    /// must skip them just like retirement fillers.
    pub fn live_tlab_gaps(&self) -> Vec<(RegionId, u32, u32)> {
        let mut gaps = Vec::new();
        for per_thread in &self.tlabs {
            for tlab in per_thread.iter().flatten() {
                if tlab.cursor < tlab.limit {
                    gaps.push((tlab.region, tlab.cursor, tlab.limit));
                }
            }
        }
        gaps
    }

    /// Allocates an object in `space`.
    ///
    /// `ref_words` reference fields (initialized to `NULL`) are followed by
    /// `data_words` opaque words (zeroed). The supplied `header` is
    /// installed verbatim (collaborating profilers pre-encode the
    /// allocation context into it).
    pub fn alloc_in(
        &mut self,
        space: SpaceKind,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
        header: ObjectHeader,
    ) -> Result<ObjectRef, AllocFailure> {
        let size_words = OBJECT_HEADER_WORDS + ref_words as u32 + data_words;
        let region_words = self.region_words();

        // Humongous objects get a dedicated, exactly sized region.
        if size_words as usize > region_words / 2 {
            if (size_words as u64) * 8 > self.config.max_heap_bytes {
                return Err(AllocFailure::TooLarge);
            }
            let id = self
                .take_free_region(RegionKind::Humongous, size_words as usize)
                .ok_or(AllocFailure::NeedsGc)?;
            let region = &mut self.regions[id.0 as usize];
            let offset = region.bump(size_words as usize).expect("sized region must fit");
            self.stats.humongous_allocations += 1;
            return Ok(self.init_object(id, offset, class, ref_words, data_words, header));
        }

        // Fast path: bump in the space's current region.
        let slot = space.slot();
        if let Some(id) = self.current[slot] {
            if let Some(offset) = self.regions[id.0 as usize].bump(size_words as usize) {
                return Ok(self.init_object(id, offset, class, ref_words, data_words, header));
            }
        }
        // Slow path: grab a fresh region.
        let id = self
            .take_free_region(space.region_kind(), region_words)
            .ok_or(AllocFailure::NeedsGc)?;
        self.current[slot] = Some(id);
        let offset = self.regions[id.0 as usize]
            .bump(size_words as usize)
            .expect("fresh region must fit a non-humongous object");
        Ok(self.init_object(id, offset, class, ref_words, data_words, header))
    }

    fn init_object(
        &mut self,
        region: RegionId,
        offset: u32,
        class: ClassId,
        ref_words: u16,
        data_words: u32,
        header: ObjectHeader,
    ) -> ObjectRef {
        let size_words = OBJECT_HEADER_WORDS + ref_words as u32 + data_words;
        let info = size_words as u64 | ((ref_words as u64) << 32) | ((class.0 as u64) << 48);
        let r = &mut self.regions[region.0 as usize];
        r.set_word(offset, header.raw());
        r.set_word(offset + 1, info);
        let refs_at = offset + OBJECT_HEADER_WORDS;
        r.fill(refs_at, ref_words as usize, ObjectRef::NULL.raw());
        r.fill(refs_at + ref_words as u32, data_words as usize, 0);
        self.classes.note_allocation(class);
        self.stats.allocations += 1;
        self.stats.bytes_allocated += size_words as u64 * 8;
        ObjectRef::new(region, offset)
    }

    /// A fresh pseudo-random identity hash (deterministic per heap).
    pub fn next_identity_hash(&mut self) -> u32 {
        // SplitMix64 step; low 24 bits are what the header keeps.
        self.hash_seed = self.hash_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.hash_seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    }

    // --- Object access ---

    /// Reads the header of `obj`.
    #[inline]
    pub fn header(&self, obj: ObjectRef) -> ObjectHeader {
        ObjectHeader(self.region(obj.region()).word(obj.offset()))
    }

    /// Overwrites the header of `obj`.
    #[inline]
    pub fn set_header(&mut self, obj: ObjectRef, header: ObjectHeader) {
        let (region, offset) = (obj.region(), obj.offset());
        self.region_mut(region).set_word(offset, header.raw());
    }

    /// Total size of `obj` in words, including the two overhead words.
    #[inline]
    pub fn size_words(&self, obj: ObjectRef) -> u32 {
        self.info(obj) as u32
    }

    /// Number of reference fields of `obj`.
    #[inline]
    pub fn ref_words(&self, obj: ObjectRef) -> u16 {
        (self.info(obj) >> 32) as u16
    }

    /// Class of `obj`.
    #[inline]
    pub fn class_of(&self, obj: ObjectRef) -> ClassId {
        ClassId((self.info(obj) >> 48) as u16)
    }

    #[inline]
    fn info(&self, obj: ObjectRef) -> u64 {
        self.region(obj.region()).word(obj.offset() + 1)
    }

    /// Reads reference field `i` of `obj`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `i` is out of bounds.
    #[inline]
    pub fn get_ref(&self, obj: ObjectRef, i: u16) -> ObjectRef {
        debug_assert!(i < self.ref_words(obj), "ref field index out of bounds");
        let off = obj.offset() + OBJECT_HEADER_WORDS + i as u32;
        ObjectRef::from_raw(self.region(obj.region()).word(off))
    }

    /// Writes reference field `i` of `obj`, applying the write barrier
    /// (cross-region stores are recorded in the target region's remembered
    /// set, G1-style).
    #[inline]
    pub fn set_ref(&mut self, obj: ObjectRef, i: u16, value: ObjectRef) {
        debug_assert!(i < self.ref_words(obj), "ref field index out of bounds");
        let src_region = obj.region();
        let off = obj.offset() + OBJECT_HEADER_WORDS + i as u32;
        self.region_mut(src_region).set_word(off, value.raw());
        if needs_barrier(src_region, value) {
            let epoch = self.region(src_region).assigned_epoch;
            let slot = SlotAddr { region: src_region, offset: off, epoch };
            self.regions[value.region().0 as usize].rset.record(slot);
            self.stats.barrier_records += 1;
        }
    }

    /// Reads data word `j` of `obj`.
    #[inline]
    pub fn get_data(&self, obj: ObjectRef, j: u32) -> u64 {
        let base = obj.offset() + OBJECT_HEADER_WORDS + self.ref_words(obj) as u32;
        self.region(obj.region()).word(base + j)
    }

    /// Writes data word `j` of `obj`.
    #[inline]
    pub fn set_data(&mut self, obj: ObjectRef, j: u32, value: u64) {
        let base = obj.offset() + OBJECT_HEADER_WORDS + self.ref_words(obj) as u32;
        let region = obj.region();
        self.region_mut(region).set_word(base + j, value);
    }

    /// Follows forwarding: the current location of the object originally at
    /// `obj` (identity if not forwarded).
    pub fn resolve(&self, obj: ObjectRef) -> ObjectRef {
        let h = self.header(obj);
        if h.is_forwarded() {
            h.forwardee()
        } else {
            obj
        }
    }

    /// Copies `obj` into `to_space`, leaving a forwarding pointer behind.
    ///
    /// Returns the new location. If `obj` is already forwarded, returns the
    /// existing forwardee without copying (so concurrent discovery through
    /// multiple paths is idempotent).
    pub fn copy_object(
        &mut self,
        obj: ObjectRef,
        to_space: SpaceKind,
    ) -> Result<ObjectRef, AllocFailure> {
        let header = self.header(obj);
        if header.is_forwarded() {
            return Ok(header.forwardee());
        }
        let size = self.size_words(obj) as usize;
        let region_words = self.region_words();

        // Reserve space in the target.
        let (dst_region, dst_offset) = if size > region_words / 2 {
            let id =
                self.take_free_region(RegionKind::Humongous, size).ok_or(AllocFailure::NeedsGc)?;
            (id, self.regions[id.0 as usize].bump(size).expect("sized region"))
        } else {
            let slot = to_space.slot();
            let existing = self.current[slot]
                .and_then(|id| self.regions[id.0 as usize].bump(size).map(|off| (id, off)));
            match existing {
                Some(pair) => pair,
                None => {
                    let id = self
                        .take_free_region(to_space.region_kind(), region_words)
                        .ok_or(AllocFailure::NeedsGc)?;
                    self.current[slot] = Some(id);
                    let off = self.regions[id.0 as usize].bump(size).expect("fresh region");
                    (id, off)
                }
            }
        };

        // Copy the object image.
        let src_region = obj.region();
        if src_region == dst_region {
            // Cannot happen for a well-formed collection set (the target
            // allocation region is never in the collection set), but stay
            // correct anyway via a bounce buffer.
            let tmp: Vec<u64> =
                (0..size as u32).map(|i| self.region(src_region).word(obj.offset() + i)).collect();
            for (i, w) in tmp.into_iter().enumerate() {
                self.region_mut(dst_region).set_word(dst_offset + i as u32, w);
            }
        } else {
            let (a, b) = (src_region.0 as usize, dst_region.0 as usize);
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let (left, right) = self.regions.split_at_mut(hi);
            let (src, dst) =
                if a < b { (&left[lo], &mut right[0]) } else { (&right[0], &mut left[lo]) };
            dst.copy_from(src, obj.offset(), dst_offset, size);
        }

        let new_ref = ObjectRef::new(dst_region, dst_offset);
        // Install forwarding in the old copy.
        self.set_header(obj, ObjectHeader::forward_to(new_ref));
        self.regions[dst_region.0 as usize].live_bytes += size as u64 * 8;
        self.stats.objects_copied += 1;
        self.stats.bytes_copied += size as u64 * 8;
        Ok(new_ref)
    }

    /// Iterates the objects laid out in region `id`, in address order,
    /// yielding possibly-forwarded object refs (the info word survives
    /// forwarding, so walking is always possible).
    pub fn objects_in_region(&self, id: RegionId) -> ObjectWalk<'_> {
        ObjectWalk { heap: self, region: id, cursor: 0 }
    }
}

/// Iterator over the objects of one region (see
/// [`Heap::objects_in_region`]).
pub struct ObjectWalk<'a> {
    heap: &'a Heap,
    region: RegionId,
    cursor: u32,
}

impl Iterator for ObjectWalk<'_> {
    type Item = ObjectRef;

    fn next(&mut self) -> Option<ObjectRef> {
        let r = self.heap.region(self.region);
        loop {
            if (self.cursor as usize) >= r.top() {
                return None;
            }
            // TLAB retirement fillers are dead space, not objects: skip.
            let word = r.word(self.cursor);
            if ObjectHeader::is_filler_word(word) {
                self.cursor += ObjectHeader::filler_size_words(word) as u32;
                continue;
            }
            let obj = ObjectRef::new(self.region, self.cursor);
            let size = self.heap.size_words(obj);
            debug_assert!(size >= OBJECT_HEADER_WORDS, "corrupt object info word");
            self.cursor += size;
            return Some(obj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> Heap {
        Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 16 * 1024 })
    }

    fn alloc(heap: &mut Heap, space: SpaceKind, refs: u16, data: u32) -> ObjectRef {
        let class = ClassId(0);
        let hash = heap.next_identity_hash();
        heap.alloc_in(space, class, refs, data, ObjectHeader::new(hash)).unwrap()
    }

    fn heap_with_class() -> Heap {
        let mut h = small_heap();
        h.classes.register("test.Obj");
        h
    }

    #[test]
    fn allocation_lays_out_fields() {
        let mut h = heap_with_class();
        let o = alloc(&mut h, SpaceKind::Eden, 2, 3);
        assert_eq!(h.size_words(o), 7);
        assert_eq!(h.ref_words(o), 2);
        assert_eq!(h.class_of(o), ClassId(0));
        assert!(h.get_ref(o, 0).is_null());
        assert!(h.get_ref(o, 1).is_null());
        assert_eq!(h.get_data(o, 2), 0);
    }

    #[test]
    fn fields_read_back() {
        let mut h = heap_with_class();
        let a = alloc(&mut h, SpaceKind::Eden, 1, 1);
        let b = alloc(&mut h, SpaceKind::Old, 0, 1);
        h.set_ref(a, 0, b);
        h.set_data(a, 0, 777);
        h.set_data(b, 0, 888);
        assert_eq!(h.get_ref(a, 0), b);
        assert_eq!(h.get_data(a, 0), 777);
        assert_eq!(h.get_data(b, 0), 888);
    }

    #[test]
    fn cross_region_store_records_remset_entry() {
        let mut h = heap_with_class();
        let young = alloc(&mut h, SpaceKind::Eden, 1, 0);
        let old = alloc(&mut h, SpaceKind::Old, 1, 0);
        // Old object points at a young object: the young object's region
        // must remember the old slot.
        h.set_ref(old, 0, young);
        let rset_len = h.region(young.region()).rset.len();
        assert_eq!(rset_len, 1);
        // Same-region stores do not record: the barrier counter stays put.
        let young2 = alloc(&mut h, SpaceKind::Eden, 1, 0);
        assert_eq!(young2.region(), young.region(), "test assumes shared eden region");
        h.set_ref(young, 0, young2);
        assert_eq!(h.stats().barrier_records, 1);
    }

    #[test]
    fn allocation_spills_to_new_regions() {
        let mut h = heap_with_class();
        // Region is 128 words; each object is 2 + 30 = 32 words.
        let mut last = None;
        for _ in 0..8 {
            last = Some(alloc(&mut h, SpaceKind::Eden, 0, 30));
        }
        // 8 * 32 = 256 words -> two regions.
        assert_eq!(h.regions_of_kind(RegionKind::Eden).len(), 2);
        assert!(last.is_some());
    }

    #[test]
    fn heap_exhaustion_reports_needs_gc() {
        let mut h = heap_with_class();
        loop {
            let hash = h.next_identity_hash();
            match h.alloc_in(SpaceKind::Eden, ClassId(0), 0, 30, ObjectHeader::new(hash)) {
                Ok(_) => continue,
                Err(AllocFailure::NeedsGc) => break,
                Err(e) => panic!("unexpected failure {e:?}"),
            }
        }
        assert_eq!(h.free_regions(), 0);
    }

    #[test]
    fn humongous_objects_get_dedicated_regions() {
        let mut h = heap_with_class();
        // Region is 128 words; > 64 words is humongous.
        let o = alloc(&mut h, SpaceKind::Eden, 0, 100);
        assert_eq!(h.region(o.region()).kind, RegionKind::Humongous);
        assert_eq!(h.stats().humongous_allocations, 1);
        assert_eq!(h.get_data(o, 99), 0);
    }

    #[test]
    fn copy_object_forwards_and_preserves_fields() {
        let mut h = heap_with_class();
        let o = alloc(&mut h, SpaceKind::Eden, 1, 2);
        let p = alloc(&mut h, SpaceKind::Eden, 0, 0);
        h.set_ref(o, 0, p);
        h.set_data(o, 1, 4242);
        let header_before = h.header(o);

        let o2 = h.copy_object(o, SpaceKind::Old).unwrap();
        assert_ne!(o, o2);
        assert!(h.header(o).is_forwarded());
        assert_eq!(h.header(o).forwardee(), o2);
        assert_eq!(h.resolve(o), o2);
        assert_eq!(h.header(o2), header_before);
        assert_eq!(h.get_ref(o2, 0), p);
        assert_eq!(h.get_data(o2, 1), 4242);
        // Copying again is idempotent.
        assert_eq!(h.copy_object(o, SpaceKind::Old).unwrap(), o2);
        assert_eq!(h.stats().objects_copied, 1);
    }

    #[test]
    fn object_walk_visits_every_object_once() {
        let mut h = heap_with_class();
        let a = alloc(&mut h, SpaceKind::Eden, 0, 1);
        let b = alloc(&mut h, SpaceKind::Eden, 2, 5);
        let c = alloc(&mut h, SpaceKind::Eden, 0, 0);
        let walked: Vec<ObjectRef> = h.objects_in_region(a.region()).collect();
        assert_eq!(walked, vec![a, b, c]);
    }

    #[test]
    fn release_recycles_regions() {
        let mut h = heap_with_class();
        let o = alloc(&mut h, SpaceKind::Eden, 0, 30);
        let region = o.region();
        let free_before = h.free_regions();
        h.retire_current(SpaceKind::Eden);
        h.release_region(region);
        assert_eq!(h.free_regions(), free_before + 1);
        // Next eden allocation may reuse the same region.
        let o2 = alloc(&mut h, SpaceKind::Eden, 0, 30);
        assert_eq!(o2.region(), region);
    }

    #[test]
    fn used_and_committed_bytes_track_allocation() {
        let mut h = heap_with_class();
        assert_eq!(h.used_bytes(), 0);
        let _ = alloc(&mut h, SpaceKind::Eden, 0, 6);
        assert_eq!(h.used_bytes(), 8 * 8);
        assert_eq!(h.committed_bytes(), 1024);
    }

    #[test]
    fn identity_hashes_vary() {
        let mut h = small_heap();
        let a = h.next_identity_hash();
        let b = h.next_identity_hash();
        assert_ne!(a, b);
    }

    // --- TLABs ---

    fn tlab_alloc(heap: &mut Heap, thread: u32, refs: u16, data: u32) -> TlabAlloc {
        let hash = heap.next_identity_hash();
        heap.tlab_alloc(thread, SpaceKind::Eden, ClassId(0), refs, data, ObjectHeader::new(hash))
    }

    #[test]
    fn tlab_hits_after_one_refill() {
        let mut h = heap_with_class();
        let first = tlab_alloc(&mut h, 0, 0, 2);
        assert!(matches!(first, TlabAlloc::Refilled(_)), "first allocation carves: {first:?}");
        for _ in 0..10 {
            assert!(matches!(tlab_alloc(&mut h, 0, 0, 2), TlabAlloc::Hit(_)));
        }
        assert_eq!(h.stats().tlab_refills, 1);
    }

    /// Single-thread TLAB placement is bit-identical to the shared bump
    /// path — the core determinism contract of the fast path.
    #[test]
    fn single_thread_tlab_placement_matches_reference() {
        let roomy = || {
            let mut h = Heap::new(HeapConfig { region_bytes: 1024, max_heap_bytes: 1024 * 1024 });
            h.classes.register("test.Obj");
            h
        };
        let mut reference = roomy();
        let mut tlabbed = roomy();
        // Mixed sizes, including oversized (> tlab, > region/2 humongous)
        // objects that force Miss paths and region spills.
        let sizes: Vec<u32> =
            (0..200).map(|i: u32| [1, 7, 30, 62, 100][(i % 5) as usize]).collect();
        for &data in &sizes {
            let hr = reference.next_identity_hash();
            let a = reference
                .alloc_in(SpaceKind::Eden, ClassId(0), 1, data, ObjectHeader::new(hr))
                .unwrap();
            let ht = tlabbed.next_identity_hash();
            let b = match tlabbed.tlab_alloc(
                0,
                SpaceKind::Eden,
                ClassId(0),
                1,
                data,
                ObjectHeader::new(ht),
            ) {
                TlabAlloc::Hit(o) | TlabAlloc::Refilled(o) => o,
                TlabAlloc::Miss => tlabbed
                    .alloc_in(SpaceKind::Eden, ClassId(0), 1, data, ObjectHeader::new(ht))
                    .unwrap(),
            };
            assert_eq!(a, b, "placement diverged at data={data}");
        }
        tlabbed.retire_all_tlabs();
        // Identical region-by-region frontiers and word images.
        for (id, r) in reference.regions() {
            let rt = tlabbed.region(id);
            assert_eq!(r.kind, rt.kind, "{id:?}");
            assert_eq!(r.top(), rt.top(), "{id:?}");
            for off in 0..r.top() as u32 {
                assert_eq!(r.word(off), rt.word(off), "{id:?} word {off}");
            }
        }
        assert_eq!(reference.used_bytes(), tlabbed.used_bytes());
        assert_eq!(h_free(&reference), h_free(&tlabbed));
        assert!(tlabbed.stats().tlab_refills > 0, "TLABs actually engaged");
        assert_eq!(tlabbed.stats().tlab_fillers, 0, "one thread never needs fillers");
    }

    fn h_free(h: &Heap) -> usize {
        h.free_regions()
    }

    #[test]
    fn multi_thread_retirement_stamps_fillers_and_walk_skips_them() {
        let mut h = heap_with_class();
        // Shrink chunks below the region size so two threads can carve
        // from the same eden region, then interleave them so the second
        // carve moves the frontier past the first buffer.
        h.set_tlab_bytes(256);
        let a = match tlab_alloc(&mut h, 0, 0, 2) {
            TlabAlloc::Refilled(o) => o,
            other => panic!("expected refill, got {other:?}"),
        };
        let b = match tlab_alloc(&mut h, 1, 0, 2) {
            TlabAlloc::Refilled(o) => o,
            other => panic!("expected refill, got {other:?}"),
        };
        assert_eq!(a.region(), b.region(), "both carves from the shared eden region");
        h.retire_all_tlabs();
        assert!(h.stats().tlab_fillers >= 1, "thread 0's tail needed a filler");
        // The region stays parsable: the walk yields exactly the two
        // objects, skipping the filler between them.
        let walked: Vec<ObjectRef> = h.objects_in_region(a.region()).collect();
        assert_eq!(walked, vec![a, b]);
    }

    #[test]
    fn disabled_tlabs_always_miss() {
        let mut h = heap_with_class();
        h.set_tlab_bytes(0);
        assert_eq!(tlab_alloc(&mut h, 0, 0, 2), TlabAlloc::Miss);
        assert_eq!(h.stats().tlab_refills, 0);
    }

    #[test]
    fn released_region_invalidates_its_tlabs() {
        let mut h = heap_with_class();
        let o = match tlab_alloc(&mut h, 0, 0, 2) {
            TlabAlloc::Refilled(o) => o,
            other => panic!("expected refill, got {other:?}"),
        };
        h.retire_current(SpaceKind::Eden);
        h.release_region(o.region());
        // The next TLAB allocation must not write into the freed region
        // through a stale buffer: it re-carves.
        match tlab_alloc(&mut h, 0, 0, 2) {
            TlabAlloc::Refilled(_) => {}
            other => panic!("stale buffer survived release: {other:?}"),
        }
    }

    /// Reads `obj`'s reference and data words straight from its region and
    /// checks a fresh allocation's image: `refs` NULLs, then `data` zeros.
    fn assert_fresh(h: &Heap, obj: ObjectRef, refs: u16, data: u32) {
        assert_eq!((h.size_words(obj), h.ref_words(obj)), (2 + refs as u32 + data, refs));
        let r = h.region(obj.region());
        let body = obj.offset() + OBJECT_HEADER_WORDS;
        for i in 0..refs as u32 {
            assert_eq!(r.word(body + i), ObjectRef::NULL.raw(), "{obj:?} ref {i}");
        }
        for j in 0..data {
            assert_eq!(r.word(body + refs as u32 + j), 0, "{obj:?} data {j}");
        }
    }

    /// A recycled region still holds its dead objects' words. Both TLAB
    /// and shared allocations over them must start with NULL refs and
    /// zero data, and write nothing outside the new object: two TLABs
    /// end right before an already allocated neighbour, so an overlong
    /// fill would hit that neighbour's header.
    #[test]
    fn tlab_and_shared_allocations_clean_a_recycled_region() {
        let mut h = heap_with_class();
        let dead: Vec<ObjectRef> = (0..7).map(|_| alloc(&mut h, SpaceKind::Eden, 2, 12)).collect();
        let region = dead[0].region();
        for &o in &dead {
            assert_eq!(o.region(), region, "seven 16-word objects share a region");
            for i in 0..2 {
                h.set_ref(o, i, dead[0]);
            }
            for j in 0..12 {
                h.set_data(o, j, 0xDEAD_BEEF_0000 + j as u64);
            }
        }
        h.retire_current(SpaceKind::Eden);
        h.release_region(region);

        // 32-word TLABs: thread 0 carves words 0..32, thread 1 32..64,
        // and shared allocations bump from word 64.
        h.set_tlab_bytes(256);
        const LAST_WORD: u64 = 0x5E47_1E11;
        fn tlab(h: &mut Heap, thread: u32, refs: u16, data: u32) -> ObjectRef {
            let o = match tlab_alloc(h, thread, refs, data) {
                TlabAlloc::Hit(o) | TlabAlloc::Refilled(o) => o,
                TlabAlloc::Miss => panic!("thread {thread} missed its TLAB"),
            };
            assert_fresh(h, o, refs, data);
            o
        }
        let x1 = tlab(&mut h, 0, 2, 4);
        let w1 = tlab(&mut h, 1, 1, 5);
        let y1 = alloc(&mut h, SpaceKind::Eden, 3, 3);
        assert_fresh(&h, y1, 3, 3);
        assert_eq!((x1.region(), w1.region(), y1.region()), (region, region, region));
        assert_eq!((x1.offset(), w1.offset(), y1.offset()), (0, 32, 64));
        let neighbours = [(x1, 2, 4), (w1, 1, 5), (y1, 3, 3)];
        for (o, _, _) in neighbours {
            let last = o.offset() + h.size_words(o) - 1;
            h.region_mut(region).set_word(last, LAST_WORD);
        }
        let headers = neighbours.map(|(o, _, _)| h.header(o));
        let y2 = alloc(&mut h, SpaceKind::Eden, 0, 6);
        assert_fresh(&h, y2, 0, 6);
        // Each fills the rest of its TLAB, up to the next object's header:
        // one object with references only, one ending in data.
        let x2 = tlab(&mut h, 0, 22, 0);
        let w2 = tlab(&mut h, 1, 2, 20);
        assert_eq!((x2.offset(), w2.offset(), y2.offset()), (8, 40, 72));

        for ((o, refs, data), header) in neighbours.into_iter().zip(headers) {
            let last = o.offset() + h.size_words(o) - 1;
            assert_eq!(h.region(region).word(last), LAST_WORD, "{o:?} last word");
            assert_eq!(h.header(o), header, "{o:?} header");
            assert_eq!((h.size_words(o), h.ref_words(o)), (2 + refs + data, refs as u16));
        }
        for (o, refs, data) in [(y2, 0, 6), (x2, 22, 0), (w2, 2, 20)] {
            assert_fresh(&h, o, refs, data);
        }
    }

    #[test]
    fn humongous_objects_leave_the_tlab_intact() {
        let mut h = heap_with_class();
        assert!(matches!(tlab_alloc(&mut h, 0, 0, 2), TlabAlloc::Refilled(_)));
        // 100 data words > 64 (region/2): humongous, bypasses the TLAB.
        assert_eq!(tlab_alloc(&mut h, 0, 0, 100), TlabAlloc::Miss);
        // The buffer is still live: next small allocation hits.
        assert!(matches!(tlab_alloc(&mut h, 0, 0, 2), TlabAlloc::Hit(_)));
    }
}
