//! Dense, allocation-free per-job storage for the scheduler hot path.
//!
//! Engine job ids are indices into the instance (`JobId(i)` for the i-th
//! job), so a scheduler's per-job state wants a dense vector, not a
//! `HashMap`: no hashing on lookups, no rehash allocations on the event
//! path, and iteration in id order for determinism. Two containers:
//!
//! * [`JobSlab`] — `JobId`-indexed slots holding the per-job record. Slots
//!   are reused after removal; the vector grows monotonically to the
//!   highest id seen and never shrinks, so a warmed-up scheduler performs
//!   zero allocations per event. Ids are unique per simulation run (the
//!   engine never recycles them within an instance), which is the
//!   generational guarantee a free-list slab would otherwise have to carry
//!   per slot.
//! * [`DenseU32Map`] — a scratch `JobId → u32` map with O(1) set/get and
//!   O(touched) [`clear`](DenseU32Map::clear), for per-call indices such as
//!   ready counts and allocation-slot positions;
//! * [`AliveIndex`] — the alive set of a priority scheduler, ordered by a
//!   key fixed at arrival with arrival sequence as the tie-break: O(log n)
//!   insert and remove, in-order iteration.

use dagsched_core::JobId;
use dagsched_engine::ViewDelta;
use std::collections::BTreeMap;

/// Dense `JobId`-keyed storage (see module docs).
#[derive(Debug, Clone)]
pub struct JobSlab<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for JobSlab<T> {
    fn default() -> Self {
        JobSlab::new()
    }
}

impl<T> JobSlab<T> {
    /// An empty slab.
    pub fn new() -> JobSlab<T> {
        JobSlab {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drop every live entry, keeping the slot storage for reuse.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.live = 0;
    }

    /// Insert `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: JobId, value: T) -> Option<T> {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Shared access to the entry under `id`.
    pub fn get(&self, id: JobId) -> Option<&T> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to the entry under `id`.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Remove and return the entry under `id`.
    pub fn remove(&mut self, id: JobId) -> Option<T> {
        let old = self.slots.get_mut(id.index()).and_then(|s| s.take());
        if old.is_some() {
            self.live -= 1;
        }
        old
    }

    /// Iterate live `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (JobId(i as u32), v)))
    }
}

/// Scratch `JobId → u32` map with O(touched) clearing (see module docs).
///
/// Values are stored as `v + 1` so 0 means "absent"; `u32::MAX` is therefore
/// not storable, which no caller needs (ready counts and slot positions are
/// bounded by `m` and the allocation length).
#[derive(Debug, Clone, Default)]
pub struct DenseU32Map {
    vals: Vec<u32>,
    touched: Vec<u32>,
}

impl DenseU32Map {
    /// An empty map.
    pub fn new() -> DenseU32Map {
        DenseU32Map::default()
    }

    /// Remove every entry; O(entries set since the last clear).
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.vals[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// Map `id` to `v`, overwriting any previous value.
    pub fn set(&mut self, id: JobId, v: u32) {
        debug_assert!(v < u32::MAX, "value encoding reserves u32::MAX");
        let i = id.index();
        if i >= self.vals.len() {
            self.vals.resize(i + 1, 0);
        }
        if self.vals[i] == 0 {
            self.touched.push(i as u32);
        }
        self.vals[i] = v + 1;
    }

    /// The value under `id`, if set since the last clear.
    pub fn get(&self, id: JobId) -> Option<u32> {
        match self.vals.get(id.index()) {
            Some(&raw) if raw != 0 => Some(raw - 1),
            _ => None,
        }
    }

    /// Unmap `id` (no-op if absent). The touched list keeps the stale
    /// entry — [`clear`](DenseU32Map::clear) zeroing an already-zero slot
    /// is harmless, and a later re-`set` of the same id just records it
    /// again. Growth stays bounded for the schedulers' persistent luts
    /// because the engine never recycles job ids within a run, so each id
    /// transitions absent→present O(1) times.
    pub fn remove(&mut self, id: JobId) {
        if let Some(v) = self.vals.get_mut(id.index()) {
            *v = 0;
        }
    }

    /// Patch a *persistent* ready-count lut with one step's view changes,
    /// in the delta contract's apply order (admitted → ready_changed →
    /// removed) so a job admitted and expired within the same step nets out
    /// to absent. After this the lut's content equals a fresh rebuild from
    /// the tick view — which is exactly what the `view_delta_differential`
    /// suite pins.
    pub fn apply_view_delta(&mut self, delta: &ViewDelta) {
        for &(id, r) in &delta.admitted {
            self.set(id, r);
        }
        for &(id, r) in &delta.ready_changed {
            self.set(id, r);
        }
        for &id in &delta.removed {
            self.remove(id);
        }
    }
}

/// `x` as an integer whose signed order is [`f64::total_cmp`]'s order: the
/// same bit transform `total_cmp` applies before its integer comparison.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Alive jobs ordered by `(key, seq)`: `key` is an `f64` fixed at arrival
/// and compared under [`f64::total_cmp`], `seq` the insertion sequence.
///
/// Iteration yields exactly the order a stable sort by key of the
/// insertion-ordered list would give, since among equal keys the earlier
/// insertion has the smaller `seq`. Insert and remove are O(log n): the
/// order lives in a [`BTreeMap`], and a dense `JobId → (key, seq)` side
/// table turns removal into a lookup instead of a scan. Removing an absent
/// id is a no-op. Ids are unique among live entries (the engine never
/// announces an alive job twice); inserting a live id replaces its entry.
#[derive(Debug, Clone)]
pub struct AliveIndex<V> {
    order: BTreeMap<(i64, u64), (JobId, V)>,
    keys: JobSlab<(i64, u64)>,
    seq: u64,
}

impl<V> Default for AliveIndex<V> {
    fn default() -> Self {
        AliveIndex::new()
    }
}

impl<V> AliveIndex<V> {
    /// An empty index.
    pub fn new() -> AliveIndex<V> {
        AliveIndex {
            order: BTreeMap::new(),
            keys: JobSlab::new(),
            seq: 0,
        }
    }

    /// The sequence number the next [`insert`](AliveIndex::insert) assigns
    /// (insertions so far since construction or the last clear).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Add `id` with priority `key` and payload `value`, after every live
    /// entry of an equal key.
    pub fn insert(&mut self, id: JobId, key: f64, value: V) {
        let k = (total_order_key(key), self.seq);
        self.seq += 1;
        if let Some(old) = self.keys.insert(id, k) {
            self.order.remove(&old);
        }
        self.order.insert(k, (id, value));
    }

    /// Remove `id`, returning its payload; `None` (and no change) if absent.
    pub fn remove(&mut self, id: JobId) -> Option<V> {
        let k = self.keys.remove(id)?;
        self.order.remove(&k).map(|(_, v)| v)
    }

    /// Live entries in `(key, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &V)> + '_ {
        self.order.values().map(|(id, v)| (*id, v))
    }

    /// Live ids in `(key, seq)` order.
    pub fn ids(&self) -> impl Iterator<Item = JobId> + '_ {
        self.order.values().map(|(id, _)| *id)
    }

    /// Drop every entry and restart the sequence at 0.
    pub fn clear(&mut self) {
        self.order.clear();
        self.keys.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_roundtrip_and_reuse() {
        let mut s: JobSlab<&str> = JobSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(JobId(3), "a"), None);
        assert_eq!(s.insert(JobId(0), "b"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(JobId(3)), Some(&"a"));
        assert_eq!(s.get(JobId(7)), None);
        assert_eq!(s.insert(JobId(3), "c"), Some("a"), "replace keeps len");
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(JobId(3)), Some("c"));
        assert_eq!(s.remove(JobId(3)), None, "double remove is a no-op");
        assert_eq!(s.len(), 1);
        let all: Vec<_> = s.iter().collect();
        assert_eq!(all, vec![(JobId(0), &"b")]);
    }

    #[test]
    fn slab_get_mut_updates_in_place() {
        let mut s: JobSlab<u32> = JobSlab::new();
        s.insert(JobId(1), 10);
        *s.get_mut(JobId(1)).unwrap() += 5;
        assert_eq!(s.get(JobId(1)), Some(&15));
        assert_eq!(s.get_mut(JobId(9)), None);
    }

    #[test]
    fn dense_map_set_get_clear() {
        let mut m = DenseU32Map::new();
        assert_eq!(m.get(JobId(0)), None);
        m.set(JobId(4), 0);
        m.set(JobId(1), 7);
        assert_eq!(m.get(JobId(4)), Some(0), "zero values are present");
        assert_eq!(m.get(JobId(1)), Some(7));
        m.set(JobId(1), 9);
        assert_eq!(m.get(JobId(1)), Some(9), "overwrite");
        m.clear();
        assert_eq!(m.get(JobId(4)), None);
        assert_eq!(m.get(JobId(1)), None);
        // Reuse after clear.
        m.set(JobId(4), 2);
        assert_eq!(m.get(JobId(4)), Some(2));
    }

    #[test]
    fn dense_map_remove_then_reset_and_clear() {
        let mut m = DenseU32Map::new();
        m.set(JobId(2), 5);
        m.set(JobId(6), 1);
        m.remove(JobId(2));
        assert_eq!(m.get(JobId(2)), None, "removed entry is absent");
        assert_eq!(m.get(JobId(6)), Some(1), "others untouched");
        m.remove(JobId(2)); // double remove is a no-op
        m.remove(JobId(99)); // out-of-range remove is a no-op
        m.set(JobId(2), 8);
        assert_eq!(m.get(JobId(2)), Some(8), "re-set after remove");
        m.clear();
        assert_eq!(m.get(JobId(2)), None);
        assert_eq!(m.get(JobId(6)), None);
    }

    #[test]
    fn apply_view_delta_matches_a_fresh_rebuild() {
        let mut m = DenseU32Map::new();
        m.set(JobId(0), 3);
        m.set(JobId(1), 1);
        let mut d = ViewDelta::default();
        d.admitted.push((JobId(2), 2));
        d.admitted.push((JobId(3), 1)); // admitted, then expired same step
        d.ready_changed.push((JobId(0), 4));
        d.removed.push(JobId(1));
        d.removed.push(JobId(3));
        m.apply_view_delta(&d);
        assert_eq!(m.get(JobId(0)), Some(4));
        assert_eq!(m.get(JobId(1)), None);
        assert_eq!(m.get(JobId(2)), Some(2));
        assert_eq!(
            m.get(JobId(3)),
            None,
            "same-step admit+expire nets to absent"
        );
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn alive_index_orders_by_key_then_insertion() {
        let mut ix: AliveIndex<u32> = AliveIndex::new();
        ix.insert(JobId(7), 2.0, 70);
        ix.insert(JobId(3), 1.0, 30);
        ix.insert(JobId(5), 2.0, 50);
        ix.insert(JobId(1), 0.0, 10);
        ix.insert(JobId(2), -0.0, 20);
        assert_eq!(ix.next_seq(), 5);
        let ids: Vec<u32> = ix.ids().map(|id| id.0).collect();
        assert_eq!(ids, vec![2, 1, 3, 7, 5], "-0.0 before 0.0, ties by seq");
        assert_eq!(ix.remove(JobId(7)), Some(70));
        assert_eq!(ix.remove(JobId(7)), None, "double remove is a no-op");
        assert_eq!(ix.remove(JobId(99)), None, "absent id is a no-op");
        let rest: Vec<(u32, u32)> = ix.iter().map(|(id, v)| (id.0, *v)).collect();
        assert_eq!(rest, vec![(2, 20), (1, 10), (3, 30), (5, 50)]);
        ix.clear();
        assert_eq!(ix.ids().count(), 0);
        assert_eq!(ix.next_seq(), 0, "clear restarts the sequence");
    }

    mod properties {
        use super::*;
        use dagsched_core::Rng64;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The index iterates exactly like the insertion-ordered list
            /// stable-sorted by key under `total_cmp` — what the sorted
            /// `Vec` + `retain` it replaced maintained — across random
            /// insert/remove interleavings with heavy key ties, both signed
            /// zeros, re-inserted ids and removals of absent ids.
            #[test]
            fn alive_index_iterates_like_a_stable_sort(seed in 0u64..10_000, ops in 1usize..300) {
                const KEYS: [f64; 7] = [-0.0, 0.0, 1.0, -1.0, 2.5, f64::INFINITY, 1e-300];
                let mut rng = Rng64::seed_from(seed);
                let mut ix: AliveIndex<u64> = AliveIndex::new();
                // (key, seq, id) in insertion order.
                let mut list: Vec<(f64, u64, JobId)> = Vec::new();
                let mut ids_used = 0u32;
                for _ in 0..ops {
                    if list.is_empty() || rng.gen_range(3) < 2 {
                        let key = KEYS[rng.gen_range(KEYS.len() as u64) as usize];
                        // Mostly fresh ids; sometimes one removed earlier.
                        let reuse = JobId(rng.gen_range(ids_used as u64 + 1) as u32);
                        let id = if reuse.0 < ids_used && list.iter().all(|e| e.2 != reuse) {
                            reuse
                        } else {
                            ids_used += 1;
                            JobId(ids_used - 1)
                        };
                        let seq = ix.next_seq();
                        ix.insert(id, key, seq);
                        list.push((key, seq, id));
                    } else {
                        let id = JobId(rng.gen_range(ids_used as u64 + 2) as u32);
                        let expect = list.iter().find(|e| e.2 == id).map(|e| e.1);
                        list.retain(|e| e.2 != id);
                        prop_assert_eq!(ix.remove(id), expect);
                    }
                    let mut sorted = list.clone();
                    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
                    let want: Vec<(JobId, u64)> = sorted.iter().map(|e| (e.2, e.1)).collect();
                    let got: Vec<(JobId, u64)> = ix.iter().map(|(id, v)| (id, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
