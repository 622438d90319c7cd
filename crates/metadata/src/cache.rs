//! The memory-controller metadata cache (Table I: 256 KB, 8-way, LRU, 64 B).
//!
//! Unlike the tag-only CPU caches, this cache holds *live node values*: the
//! secure engine mutates cached nodes in place and the crash model needs the
//! exact dirty contents that are lost. Slots are identified by a flat index
//! `set · ways + way`, the coordinate Steins' offset records are keyed by
//! (§III-C: "a record for each metadata cache line").
//!
//! Storage is a single contiguous slab of slots indexed `set * ways + way`
//! (not a `Vec<Vec<_>>`): every lookup on the simulation hot path walks one
//! set's ways, and the flat layout makes that a bounds-checked slice scan
//! with no second pointer chase.
//!
//! Each slot carries a plain occupancy state (`Empty`/`Clean`/`Dirty`) and
//! its tag. The cache is only ever touched under `&mut` by the shard that
//! owns it, so no state is shared across threads and an install swaps the
//! victim's tag for the new one in a single step.

use crate::node::SitNode;
use steins_crypto as _; // crate-level dependency kept for doc links
use steins_obs::{Histogram, MetricRegistry};

/// Metadata cache geometry.
#[derive(Clone, Copy, Debug)]
pub struct MetaCacheConfig {
    /// Capacity in bytes (nodes are 64 B).
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl MetaCacheConfig {
    /// Table I default: 256 KB, 8-way.
    pub fn table1() -> Self {
        MetaCacheConfig {
            capacity_bytes: 256 << 10,
            ways: 8,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / 64 / self.ways as u64
    }

    /// Total slots (= cache lines = record entries).
    pub fn slots(&self) -> u64 {
        self.capacity_bytes / 64
    }

    /// This cache split across `shards` equal parts (at least one set
    /// each): the sharded engine divides one cache budget, it does not
    /// multiply it.
    pub fn split(&self, shards: usize) -> MetaCacheConfig {
        assert!(shards >= 1);
        let min = 64 * self.ways as u64; // one set
        MetaCacheConfig {
            capacity_bytes: (self.capacity_bytes / shards as u64).max(min),
            ways: self.ways,
        }
    }
}

/// Occupancy of one cache slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Holds nothing.
    Empty,
    /// Holds a node equal to its NVM copy.
    Clean,
    /// Holds a node newer than its NVM copy (lost on crash).
    Dirty,
}

struct Slot {
    state: SlotState,
    /// The resident node's offset (meaningless while `Empty`).
    offset: u64,
    node: SitNode,
    lru: u64,
}

impl Slot {
    fn holds(&self, offset: u64) -> bool {
        self.state != SlotState::Empty && self.offset == offset
    }
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            state: SlotState::Empty,
            offset: 0,
            node: SitNode::zero_general(),
            lru: 0,
        }
    }
}

/// A node evicted to make room.
#[derive(Clone, Debug)]
pub struct EvictedNode {
    /// Its metadata-region offset.
    pub offset: u64,
    /// The evicted contents.
    pub node: SitNode,
    /// Whether it was dirty (must be flushed through the secure write path).
    pub dirty: bool,
    /// The flat slot index it vacated.
    pub slot: u64,
}

/// Value-holding, true-LRU, set-associative metadata cache keyed by node
/// offset.
pub struct MetadataCache {
    cfg: MetaCacheConfig,
    /// Flat slot slab: slot `(set, way)` lives at index `set * ways + way`.
    slots: Vec<Slot>,
    sets: usize,
    ways: usize,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// Dirty resident nodes right now (maintained incrementally — the slab
    /// is never walked on the hot path).
    dirty_count: u64,
    /// Dirty-population distribution, sampled at each clean→dirty
    /// transition (how much state a crash at that instant would lose).
    dirty_occ_hist: Histogram,
    /// Sizes of dirty-node batches collected per flush/set-MAC pass.
    flush_batch_hist: Histogram,
}

impl MetadataCache {
    /// Builds an empty cache.
    pub fn new(cfg: MetaCacheConfig) -> Self {
        assert!(cfg.sets() >= 1, "metadata cache too small");
        let sets = cfg.sets() as usize;
        let ways = cfg.ways;
        MetadataCache {
            cfg,
            slots: (0..sets * ways).map(|_| Slot::default()).collect(),
            sets,
            ways,
            stamp: 0,
            hits: 0,
            misses: 0,
            dirty_count: 0,
            dirty_occ_hist: Histogram::new(),
            flush_batch_hist: Histogram::new(),
        }
    }

    fn set_of(&self, offset: u64) -> usize {
        (offset % self.sets as u64) as usize
    }

    /// Flat slot index of `(set, way)`.
    fn flat(&self, set: usize, way: usize) -> u64 {
        (set * self.ways + way) as u64
    }

    /// The slot at `(set, way)`.
    #[inline]
    fn slot(&self, set: usize, way: usize) -> &Slot {
        &self.slots[set * self.ways + way]
    }

    /// The way of `set` holding `offset`, if resident.
    #[inline]
    fn way_of(&self, set: usize, offset: u64) -> Option<usize> {
        (0..self.ways).find(|&w| self.slot(set, w).holds(offset))
    }

    /// Looks up the node at `offset`, updating LRU and hit/miss counters.
    pub fn lookup(&mut self, offset: u64) -> Option<&mut SitNode> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(offset);
        match self.way_of(set, offset) {
            Some(way) => {
                self.hits += 1;
                let s = &mut self.slots[set * self.ways + way];
                s.lru = stamp;
                Some(&mut s.node)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Copy-out read: like [`Self::lookup`] but returns the node by value,
    /// which keeps engine code free of long-lived borrows.
    pub fn read(&mut self, offset: u64) -> Option<SitNode> {
        self.lookup(offset).map(|n| *n)
    }

    /// Copy-in write of a resident node's contents (no hit/miss accounting;
    /// pairs with [`Self::read`]). Returns `false` if the node is absent.
    pub fn write(&mut self, offset: u64, node: SitNode) -> bool {
        let set = self.set_of(offset);
        match self.way_of(set, offset) {
            Some(way) => {
                self.slots[set * self.ways + way].node = node;
                true
            }
            None => false,
        }
    }

    /// The set index `offset` maps to (STAR's set-MACs are per cache set).
    pub fn set_index(&self, offset: u64) -> usize {
        self.set_of(offset)
    }

    /// All resident nodes of one set as `(offset, node, dirty)`, in way
    /// order (STAR sorts these by address before MACing).
    pub fn set_nodes(&self, set: usize) -> Vec<(u64, SitNode, bool)> {
        (0..self.ways)
            .map(|w| self.slot(set, w))
            .filter(|s| s.state != SlotState::Empty)
            .map(|s| (s.offset, s.node, s.state == SlotState::Dirty))
            .collect()
    }

    /// Appends the *dirty* resident nodes of one set to `out` as
    /// `(offset, node)`, in way order — the allocation-free form of
    /// [`Self::set_nodes`] for STAR's per-write set-MAC update, where the
    /// engine reuses one scratch vector across calls.
    pub fn dirty_set_nodes_into(&mut self, set: usize, out: &mut Vec<(u64, SitNode)>) {
        let before = out.len();
        for w in 0..self.ways {
            let s = self.slot(set, w);
            if s.state == SlotState::Dirty {
                out.push((s.offset, s.node));
            }
        }
        self.flush_batch_hist.record((out.len() - before) as u64);
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Peeks without LRU/stat side effects.
    pub fn peek(&self, offset: u64) -> Option<&SitNode> {
        let set = self.set_of(offset);
        self.way_of(set, offset)
            .map(|w| &self.slots[set * self.ways + w].node)
    }

    /// Whether `offset` is resident.
    pub fn contains(&self, offset: u64) -> bool {
        self.way_of(self.set_of(offset), offset).is_some()
    }

    /// Whether `offset` is resident and dirty.
    pub fn is_dirty(&self, offset: u64) -> bool {
        let set = self.set_of(offset);
        self.way_of(set, offset)
            .is_some_and(|w| self.slot(set, w).state == SlotState::Dirty)
    }

    /// Marks a resident node dirty. Returns `(slot, was_clean)`; panics if
    /// the node is absent (engine bug).
    pub fn mark_dirty(&mut self, offset: u64) -> (u64, bool) {
        let set = self.set_of(offset);
        let way = self
            .way_of(set, offset)
            .unwrap_or_else(|| panic!("mark_dirty on non-resident node offset {offset}"));
        let s = &mut self.slots[set * self.ways + way];
        let was_clean = s.state == SlotState::Clean;
        s.state = SlotState::Dirty;
        if was_clean {
            self.dirty_count += 1;
            self.dirty_occ_hist.record(self.dirty_count);
        }
        (self.flat(set, way), was_clean)
    }

    /// Clears the dirty bit (after a flush that kept the node resident).
    pub fn mark_clean(&mut self, offset: u64) {
        let set = self.set_of(offset);
        if let Some(way) = self.way_of(set, offset) {
            let s = &mut self.slots[set * self.ways + way];
            if s.state == SlotState::Dirty {
                s.state = SlotState::Clean;
                self.dirty_count -= 1;
            }
        }
    }

    /// Installs `node` at `offset`, evicting the LRU way if the set is full.
    /// The caller handles the eviction through the secure flush path.
    pub fn install(&mut self, offset: u64, node: SitNode, dirty: bool) -> Option<EvictedNode> {
        self.install_pinned(offset, node, dirty, &[])
    }

    /// Reports what [`Self::install_pinned`] would evict for `offset` right
    /// now, without evicting: `None` if a free way exists, otherwise the
    /// victim's `(offset, dirty)`. The engine uses this to flush dirty
    /// victims *in place* (still resident, still visible to nested fetches)
    /// before the actual install.
    pub fn probe_victim(&self, offset: u64, pinned: &[u64]) -> Option<(u64, bool)> {
        let set = self.set_of(offset);
        let ways = (0..self.ways).map(|w| self.slot(set, w));
        if ways.clone().any(|s| s.state == SlotState::Empty) {
            return None;
        }
        ways.filter(|s| !pinned.contains(&s.offset))
            .min_by_key(|s| s.lru)
            .map(|s| (s.offset, s.state == SlotState::Dirty))
    }

    /// Like [`Self::install`], but never evicts a way holding one of the
    /// `pinned` offsets. The secure engine pins the ancestor chain it is
    /// operating on so recursive evictions cannot displace in-flight nodes.
    ///
    /// Panics if every way of the set is pinned — with ≥ 8 ways and tree
    /// heights ≤ 9 this needs a pathological set collision the shipped
    /// configurations cannot produce.
    pub fn install_pinned(
        &mut self,
        offset: u64,
        node: SitNode,
        dirty: bool,
        pinned: &[u64],
    ) -> Option<EvictedNode> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(offset);
        assert!(
            !self.contains(offset),
            "install over resident node {offset} (duplicate would desync counters)"
        );
        // Pick an empty way, else the LRU way among resident non-pinned
        // ones.
        let way = (0..self.ways)
            .find(|&w| self.slot(set, w).state == SlotState::Empty)
            .or_else(|| {
                (0..self.ways)
                    .filter(|&w| !pinned.contains(&self.slot(set, w).offset))
                    .min_by_key(|&w| self.slot(set, w).lru)
            })
            .expect("metadata cache set fully pinned: associativity exhausted");
        let flat = self.flat(set, way);
        let s = &mut self.slots[flat as usize];
        let evicted = (s.state != SlotState::Empty).then_some(EvictedNode {
            offset: s.offset,
            node: s.node,
            dirty: s.state == SlotState::Dirty,
            slot: flat,
        });
        if s.state == SlotState::Dirty {
            self.dirty_count -= 1;
        }
        *s = Slot {
            state: if dirty {
                SlotState::Dirty
            } else {
                SlotState::Clean
            },
            offset,
            node,
            lru: stamp,
        };
        if dirty {
            self.dirty_count += 1;
            self.dirty_occ_hist.record(self.dirty_count);
        }
        evicted
    }

    /// Installs `node` at a *specific* flat slot index. Recovery uses this
    /// to put a node back into the slot the durable per-slot state (Steins'
    /// offset records, ASIT's shadow tags) says it occupied, so the rebuilt
    /// per-slot regions are byte-identical to the pre-crash ones and a
    /// re-run of recovery is idempotent.
    ///
    /// Panics if `slot` is not in `offset`'s set, is already occupied, or
    /// `offset` is already resident elsewhere — recovery installs into a
    /// fresh cache, so any of these is a recovery bug.
    pub fn install_at(&mut self, slot: u64, offset: u64, node: SitNode, dirty: bool) {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(offset);
        assert_eq!(
            (slot as usize) / self.ways,
            set,
            "slot {slot} is not in offset {offset}'s set"
        );
        assert!(
            !self.contains(offset),
            "install_at over resident node {offset}"
        );
        let s = &mut self.slots[slot as usize];
        assert!(
            s.state == SlotState::Empty,
            "install_at into occupied slot {slot} (holds offset {})",
            s.offset
        );
        *s = Slot {
            state: if dirty {
                SlotState::Dirty
            } else {
                SlotState::Clean
            },
            offset,
            node,
            lru: stamp,
        };
        if dirty {
            self.dirty_count += 1;
            self.dirty_occ_hist.record(self.dirty_count);
        }
    }

    /// The flat slot index currently holding `offset`.
    pub fn slot_of(&self, offset: u64) -> Option<u64> {
        let set = self.set_of(offset);
        self.way_of(set, offset).map(|w| self.flat(set, w))
    }

    /// All dirty resident nodes as `(slot, offset, node)` — the state a
    /// crash destroys.
    pub fn dirty_nodes(&self) -> Vec<(u64, u64, SitNode)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == SlotState::Dirty)
            .map(|(flat, s)| (flat as u64, s.offset, s.node))
            .collect()
    }

    /// All resident nodes as `(slot, offset, node, dirty)`.
    pub fn resident_nodes(&self) -> Vec<(u64, u64, SitNode, bool)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state != SlotState::Empty)
            .map(|(flat, s)| (flat as u64, s.offset, s.node, s.state == SlotState::Dirty))
            .collect()
    }

    /// Crash: every resident line vanishes.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = Slot::default();
        }
        self.dirty_count = 0;
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Dirty resident nodes right now.
    pub fn dirty_count(&self) -> u64 {
        self.dirty_count
    }

    /// Exports hit/miss counters, the current dirty population, and the
    /// dirty-occupancy / flush-batch distributions under `meta.cache.`.
    pub fn export_metrics(&self, reg: &mut MetricRegistry) {
        reg.counter_add("meta.cache.hits", self.hits);
        reg.counter_add("meta.cache.misses", self.misses);
        reg.gauge_set("meta.cache.dirty_nodes", self.dirty_count as f64);
        reg.insert_hist("meta.cache.dirty_occupancy", &self.dirty_occ_hist);
        reg.insert_hist("meta.cache.flush_batch_nodes", &self.flush_batch_hist);
    }

    /// Geometry.
    pub fn config(&self) -> &MetaCacheConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MetadataCache {
        // 2 sets × 2 ways.
        MetadataCache::new(MetaCacheConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
        })
    }

    #[test]
    fn install_at_pins_slot_and_accounts_dirty() {
        let mut c = tiny();
        // Offsets 0 and 2 map to set 0 (2 sets); pin them to specific ways.
        c.install_at(1, 2, SitNode::zero_general(), true);
        c.install_at(0, 0, SitNode::zero_general(), false);
        assert_eq!(c.slot_of(2), Some(1));
        assert_eq!(c.slot_of(0), Some(0));
        assert_eq!(c.dirty_count(), 1);
        let dirty = c.dirty_nodes();
        assert_eq!(dirty.len(), 1);
        assert_eq!((dirty[0].0, dirty[0].1), (1, 2));
    }

    #[test]
    #[should_panic(expected = "not in offset")]
    fn install_at_rejects_wrong_set() {
        let mut c = tiny();
        // Offset 1 maps to set 1 (slots 2..4); slot 0 is in set 0.
        c.install_at(0, 1, SitNode::zero_general(), false);
    }

    #[test]
    #[should_panic(expected = "install_at into occupied slot")]
    fn install_at_rejects_occupied_slot() {
        let mut c = tiny();
        c.install_at(0, 0, SitNode::zero_general(), false);
        c.install_at(0, 2, SitNode::zero_general(), false);
    }

    #[test]
    fn table1_geometry() {
        let c = MetaCacheConfig::table1();
        assert_eq!(c.slots(), 4096);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn split_divides_capacity_with_one_set_floor() {
        let c = MetaCacheConfig::table1();
        assert_eq!(c.split(4).capacity_bytes, 64 << 10);
        assert_eq!(c.split(4).ways, c.ways);
        // A tiny cache split many ways still has one full set per shard.
        let tiny = MetaCacheConfig {
            capacity_bytes: 16 * 64,
            ways: 8,
        };
        assert_eq!(tiny.split(8).sets(), 1);
    }

    #[test]
    fn install_lookup_roundtrip() {
        let mut c = tiny();
        let mut node = SitNode::zero_general();
        node.hmac = 77;
        assert!(c.install(4, node, false).is_none());
        assert_eq!(c.lookup(4).map(|n| n.hmac), Some(77));
        assert!(c.lookup(6).is_none());
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn mark_dirty_reports_first_transition() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), false);
        let (slot, was_clean) = c.mark_dirty(0);
        assert!(was_clean);
        let (slot2, was_clean2) = c.mark_dirty(0);
        assert_eq!(slot, slot2);
        assert!(!was_clean2, "second marking is not a transition");
        assert!(c.is_dirty(0));
    }

    #[test]
    fn lru_eviction_returns_victim_contents() {
        let mut c = tiny();
        let mut n0 = SitNode::zero_general();
        n0.hmac = 10;
        // Offsets 0,2,4 share set 0 (sets=2).
        c.install(0, n0, true);
        c.install(2, SitNode::zero_general(), false);
        c.lookup(2); // 0 becomes LRU
        let ev = c
            .install(4, SitNode::zero_general(), false)
            .expect("evicts");
        assert_eq!(ev.offset, 0);
        assert!(ev.dirty);
        assert_eq!(ev.node.hmac, 10);
        assert!(!c.contains(0));
    }

    #[test]
    fn dirty_nodes_enumeration_and_clear() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(1, SitNode::zero_general(), false);
        c.install(2, SitNode::zero_general(), true);
        let dirty = c.dirty_nodes();
        let offsets: Vec<u64> = dirty.iter().map(|(_, o, _)| *o).collect();
        assert_eq!(offsets.len(), 2);
        assert!(offsets.contains(&0) && offsets.contains(&2));
        c.clear();
        assert!(c.dirty_nodes().is_empty());
        assert!(!c.contains(0));
    }

    #[test]
    fn slot_indices_are_stable_coordinates() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), false);
        let slot = c.slot_of(0).unwrap();
        let (slot2, _) = c.mark_dirty(0);
        assert_eq!(slot, slot2);
        assert!(slot < c.config().slots());
    }

    #[test]
    fn in_place_mutation_via_lookup() {
        let mut c = tiny();
        c.install(8, SitNode::zero_general(), false);
        c.lookup(8).unwrap().counters.as_general_mut().set(3, 99);
        assert_eq!(c.peek(8).unwrap().counters.as_general().get(3), 99);
    }

    #[test]
    fn flat_slot_indices_match_set_ways_layout() {
        let mut c = tiny(); // 2 sets × 2 ways → slots 0..4
        c.install(0, SitNode::zero_general(), false); // set 0, way 0
        c.install(2, SitNode::zero_general(), false); // set 0, way 1
        c.install(1, SitNode::zero_general(), false); // set 1, way 0
        assert_eq!(c.slot_of(0), Some(0));
        assert_eq!(c.slot_of(2), Some(1));
        assert_eq!(c.slot_of(1), Some(2));
    }

    #[test]
    fn dirty_set_nodes_into_matches_set_nodes_filter() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(2, SitNode::zero_general(), false);
        c.install(1, SitNode::zero_general(), true);
        let mut out = Vec::new();
        c.dirty_set_nodes_into(0, &mut out);
        let expect: Vec<(u64, SitNode)> = c
            .set_nodes(0)
            .into_iter()
            .filter(|(_, _, d)| *d)
            .map(|(o, n, _)| (o, n))
            .collect();
        assert_eq!(out, expect);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 0);
        // Appends without clearing: caller owns the lifecycle.
        c.dirty_set_nodes_into(1, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    fn mark_clean_decrements_dirty_count_once() {
        let mut c = tiny();
        c.install(0, SitNode::zero_general(), true);
        c.install(2, SitNode::zero_general(), false);
        assert_eq!(c.dirty_count(), 1);
        c.mark_clean(0);
        assert_eq!(c.dirty_count(), 0);
        assert!(!c.is_dirty(0));
        assert!(c.contains(0), "cleaning keeps the node resident");
        // Not a transition: cleaning a clean or absent node changes nothing.
        c.mark_clean(0);
        c.mark_clean(2);
        c.mark_clean(4);
        assert_eq!(c.dirty_count(), 0);
        let (_, was_clean) = c.mark_dirty(0);
        assert!(was_clean, "a cleaned node transitions to dirty again");
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    #[should_panic(expected = "mark_dirty on non-resident")]
    fn mark_dirty_requires_residency() {
        tiny().mark_dirty(5);
    }
}
