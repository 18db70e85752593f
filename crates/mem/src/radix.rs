//! A sparse two-level radix map keyed by page number.
//!
//! Real page tables are radix trees; we model the same shape with a sparse
//! directory of fixed 512-entry leaves. Compared to a flat `HashMap`, this
//! keeps densely populated ranges (the common case for large allocations)
//! cache-friendly and iteration over a VPN range cheap, which matters
//! because the simulator translates millions of pages per experiment.

/// Number of low key bits covered by one leaf.
pub const LEAF_BITS: u32 = 9;
/// Slots per leaf (`1 << LEAF_BITS`).
pub const LEAF_LEN: usize = 1 << LEAF_BITS;
const LEAF_MASK: u64 = gh_units::widen(LEAF_LEN) - 1;

/// Directory index of the leaf holding `key`.
pub fn leaf_index(key: u64) -> u64 {
    key >> LEAF_BITS
}

/// First key of the leaf holding `key`.
pub fn leaf_base(key: u64) -> u64 {
    key & !LEAF_MASK
}

/// Sparse map from `u64` keys to `T`, organized as 512-entry leaves.
#[derive(Debug, Clone)]
pub struct RadixTable<T> {
    #[expect(clippy::disallowed_types, reason = "keyed lookup only; never iterated")]
    dir: std::collections::HashMap<u64, Box<[Option<T>; 512]>, crate::IntHash>,
    len: usize,
}

impl<T> Default for RadixTable<T> {
    fn default() -> Self {
        Self {
            dir: Default::default(),
            len: 0,
        }
    }
}

impl<T> RadixTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn split(key: u64) -> (u64, usize) {
        (key >> LEAF_BITS, (key & LEAF_MASK) as usize)
    }

    /// Returns the value at `key`, if present.
    pub fn get(&self, key: u64) -> Option<&T> {
        let (hi, lo) = Self::split(key);
        self.dir.get(&hi).and_then(|leaf| leaf[lo].as_ref())
    }

    /// Returns a mutable reference to the value at `key`, if present.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let (hi, lo) = Self::split(key);
        self.dir.get_mut(&hi).and_then(|leaf| leaf[lo].as_mut())
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let (hi, lo) = Self::split(key);
        let leaf = self
            .dir
            .entry(hi)
            .or_insert_with(|| Box::new([const { None }; 512]));
        let old = leaf[lo].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let (hi, lo) = Self::split(key);
        let leaf = self.dir.get_mut(&hi)?;
        let old = leaf[lo].take();
        if old.is_some() {
            self.len -= 1;
            if leaf.iter().all(|e| e.is_none()) {
                self.dir.remove(&hi);
            }
        }
        old
    }

    /// Borrows the leaf at directory index `idx` (see [`leaf_index`]), if
    /// allocated. The slot for key `k` is `leaf[(k & LEAF_MASK)]`.
    pub fn leaf(&self, idx: u64) -> Option<&[Option<T>; LEAF_LEN]> {
        self.dir.get(&idx).map(|b| &**b)
    }

    /// Mutably borrows the leaf at directory index `idx`, if allocated.
    pub fn leaf_mut(&mut self, idx: u64) -> Option<&mut [Option<T>; LEAF_LEN]> {
        self.dir.get_mut(&idx).map(|b| &mut **b)
    }

    /// Iterates over present entries in `[lo, hi)` in ascending key order.
    ///
    /// Walks leaf-by-leaf — one directory probe per 512 keys instead of one
    /// per key — so dense leaves stream out of a contiguous array and leaves
    /// absent from the directory are skipped in O(1).
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let first = lo >> LEAF_BITS;
        let last = if lo >= hi {
            first
        } else {
            ((hi - 1) >> LEAF_BITS) + 1
        };
        (first..last).flat_map(move |idx| {
            let base = idx << LEAF_BITS;
            let s = lo.max(base) - base;
            let e = hi.min(base + gh_units::widen(LEAF_LEN)) - base;
            self.dir.get(&idx).into_iter().flat_map(move |leaf| {
                leaf[s as usize..e as usize]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, v)| {
                        v.as_ref().map(|v| (base + s + gh_units::widen(i), v))
                    })
            })
        })
    }

    /// Applies `f` to every present entry in `[lo, hi)` with mutable access.
    /// Leaf-wise like [`RadixTable::range`].
    pub fn for_each_in_range_mut(&mut self, lo: u64, hi: u64, mut f: impl FnMut(u64, &mut T)) {
        let mut k = lo;
        while k < hi {
            let idx = k >> LEAF_BITS;
            let base = idx << LEAF_BITS;
            let end = hi.min(base + gh_units::widen(LEAF_LEN));
            if let Some(leaf) = self.dir.get_mut(&idx) {
                for i in (k - base)..(end - base) {
                    if let Some(v) = leaf[i as usize].as_mut() {
                        f(base + i, v);
                    }
                }
            }
            k = end;
        }
    }

    /// Removes every entry in `[lo, hi)`, handing each to `f` in
    /// ascending key order. A fully covered leaf is dropped whole; a
    /// partly covered one is checked for emptiness once, after its
    /// entries are taken.
    pub fn drain_range(&mut self, lo: u64, hi: u64, mut f: impl FnMut(u64, T)) {
        let mut k = lo;
        while k < hi {
            let idx = k >> LEAF_BITS;
            let base = idx << LEAF_BITS;
            let end = hi.min(base + gh_units::widen(LEAF_LEN));
            if k == base && end == base + gh_units::widen(LEAF_LEN) {
                if let Some(leaf) = self.dir.remove(&idx) {
                    for (i, v) in (*leaf).into_iter().enumerate() {
                        if let Some(v) = v {
                            self.len -= 1;
                            f(base + gh_units::widen(i), v);
                        }
                    }
                }
            } else if let Some(leaf) = self.dir.get_mut(&idx) {
                for i in (k - base)..(end - base) {
                    if let Some(v) = leaf[i as usize].take() {
                        self.len -= 1;
                        f(base + i, v);
                    }
                }
                if leaf.iter().all(|e| e.is_none()) {
                    self.dir.remove(&idx);
                }
            }
            k = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = RadixTable::new();
        assert!(t.insert(42, "a").is_none());
        assert_eq!(t.get(42), Some(&"a"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = RadixTable::new();
        t.insert(7, 1);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.get(7), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_clears_and_shrinks_leaf() {
        let mut t = RadixTable::new();
        t.insert(1000, ());
        assert_eq!(t.remove(1000), Some(()));
        assert!(t.is_empty());
        assert!(t.dir.is_empty(), "empty leaf should be reclaimed");
    }

    #[test]
    fn keys_crossing_leaf_boundary() {
        let mut t = RadixTable::new();
        t.insert(511, 'a');
        t.insert(512, 'b');
        assert_eq!(t.get(511), Some(&'a'));
        assert_eq!(t.get(512), Some(&'b'));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn range_iterates_in_order() {
        let mut t = RadixTable::new();
        for k in [5u64, 100, 600, 601, 2000] {
            t.insert(k, k * 2);
        }
        let got: Vec<_> = t.range(100, 2000).map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(100, 200), (600, 1200), (601, 1202)]);
    }

    #[test]
    fn drain_range_hands_out_entries_in_order() {
        let mut t = RadixTable::new();
        for k in 0..100u64 {
            t.insert(k, k * 2);
        }
        let mut got = Vec::new();
        t.drain_range(10, 20, |k, v| got.push((k, v)));
        assert_eq!(got, (10..20).map(|k| (k, k * 2)).collect::<Vec<_>>());
        assert_eq!(t.len(), 90);
        assert!(t.get(15).is_none());
        assert!(t.get(20).is_some());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = RadixTable::new();
        t.insert(3, 10);
        *t.get_mut(3).unwrap() += 5;
        assert_eq!(t.get(3), Some(&15));
    }

    #[test]
    fn for_each_in_range_mut_applies() {
        let mut t = RadixTable::new();
        for k in 0..10u64 {
            t.insert(k, 0u32);
        }
        t.for_each_in_range_mut(2, 8, |_, v| *v += 1);
        assert_eq!(t.get(1), Some(&0));
        assert_eq!(t.get(5), Some(&1));
        assert_eq!(t.get(8), Some(&0));
    }

    #[test]
    fn range_matches_per_key_probing() {
        let mut t = RadixTable::new();
        let keys = [0u64, 3, 511, 512, 513, 1023, 1024, 5000];
        for &k in &keys {
            t.insert(k, k);
        }
        for (lo, hi) in [(0, 6000), (1, 513), (512, 512), (513, 512), (511, 1025)] {
            let fast: Vec<_> = t.range(lo, hi).map(|(k, &v)| (k, v)).collect();
            let slow: Vec<_> = (lo..hi.max(lo))
                .filter_map(|k| t.get(k).map(|&v| (k, v)))
                .collect();
            assert_eq!(fast, slow, "range({lo},{hi})");
        }
    }

    #[test]
    fn drain_range_drops_emptied_leaves() {
        let mut t = RadixTable::new();
        for k in 0..1536u64 {
            t.insert(k, ());
        }
        t.insert(5000, ());
        // [512, 1024) covers leaf 1 exactly; [200, 512) and [1024, 1100)
        // are partial; [4900, 5100) empties leaf 9 without covering it.
        let mut n = 0;
        t.drain_range(200, 1100, |_, ()| n += 1);
        t.drain_range(4900, 5100, |_, ()| n += 1);
        assert_eq!(n, 901);
        assert_eq!(t.len(), 1536 - 900);
        assert_eq!(t.dir.len(), 2, "leaves 0 and 2 remain");
        assert!(t.get(199).is_some());
        assert!(t.get(200).is_none());
        assert!(t.get(700).is_none());
        assert!(t.get(1099).is_none());
        assert!(t.get(1100).is_some());
    }

    #[test]
    fn leaf_accessor_exposes_slots() {
        let mut t = RadixTable::new();
        t.insert(513, 7u32);
        assert!(t.leaf(0).is_none());
        let leaf = t.leaf(leaf_index(513)).unwrap();
        assert_eq!(leaf[1], Some(7));
        assert_eq!(leaf[0], None);
    }

    #[test]
    fn large_sparse_key_space() {
        let mut t = RadixTable::new();
        let keys = [0u64, u32::MAX as u64, u64::MAX >> 10];
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(&i));
        }
    }
}
