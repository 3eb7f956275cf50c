//! Remembered sets.
//!
//! Evacuating a region requires finding every reference into it from
//! outside the collection set without scanning the whole heap. As in G1,
//! each region keeps a *remembered set* of heap slots that held an
//! incoming cross-region reference at write-barrier time. Entries may be
//! stale (the slot has since been overwritten or its holder died); the
//! evacuator re-validates each slot before using it.

use crate::hash::FoldSet;
use crate::object::ObjectRef;
use crate::region::RegionId;

/// A heap slot: a word location `(region, word offset)` holding a
/// reference field, stamped with the holding region's assignment epoch.
///
/// The epoch makes stale entries detectable: if the region was released
/// and recycled since the entry was recorded, its epoch differs and the
/// evacuator must not dereference (let alone write through) the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotAddr {
    /// Region holding the slot.
    pub region: RegionId,
    /// Word offset of the slot within the region.
    pub offset: u32,
    /// `Region::assigned_epoch` of the holding region at record time.
    pub epoch: u64,
}

/// The remembered set of one region: slots that pointed into it.
///
/// Iteration order is the same in every run but arbitrary; the
/// evacuator sorts the slots before it acts on them.
#[derive(Debug, Clone, Default)]
pub struct RememberedSet {
    slots: FoldSet<SlotAddr>,
}

impl RememberedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `slot` held a reference into this region.
    pub fn record(&mut self, slot: SlotAddr) {
        self.slots.insert(slot);
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Number of recorded slots (possibly stale).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot is recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates all recorded slots.
    pub fn iter(&self) -> impl Iterator<Item = &SlotAddr> {
        self.slots.iter()
    }
}

/// Decides whether a reference store needs a remembered-set entry: the
/// source and destination live in different regions and the value is not
/// null.
pub fn needs_barrier(src_region: RegionId, value: ObjectRef) -> bool {
    !value.is_null() && value.region() != src_region
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_idempotent() {
        let mut rs = RememberedSet::new();
        let s = SlotAddr { region: RegionId(1), offset: 42, epoch: 1 };
        rs.record(s);
        rs.record(s);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn barrier_filter() {
        let here = RegionId(3);
        assert!(!needs_barrier(here, ObjectRef::NULL));
        assert!(!needs_barrier(here, ObjectRef::new(RegionId(3), 8)));
        assert!(needs_barrier(here, ObjectRef::new(RegionId(4), 8)));
    }
}
