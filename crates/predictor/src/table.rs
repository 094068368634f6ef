//! Prediction-table storage with configurable geometry: one tagged-slot
//! vector indexed by PC (infinite tables, small PCs) or by its low bits
//! (direct-mapped tables), with a hash-map fallback for huge PCs.

use std::fmt;

use fetchvp_metrics::FxHashMap;

/// The size/shape of a prediction table.
///
/// The paper's §3 limit study assumes *infinite* tables ("both the prediction
/// table and the set of saturated counters are assumed to be infinite");
/// finite direct-mapped geometries are provided for sensitivity studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TableGeometry {
    /// One entry per static PC, never evicted.
    #[default]
    Infinite,
    /// `1 << index_bits` direct-mapped, tagged entries. A tag mismatch
    /// evicts the resident entry.
    DirectMapped {
        /// log2 of the number of entries.
        index_bits: u8,
    },
}

impl TableGeometry {
    /// Number of entries, or `None` for an infinite table.
    pub fn entries(&self) -> Option<usize> {
        match *self {
            TableGeometry::Infinite => None,
            TableGeometry::DirectMapped { index_bits } => Some(1usize << index_bits),
        }
    }
}

impl fmt::Display for TableGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TableGeometry::Infinite => f.write_str("infinite"),
            TableGeometry::DirectMapped { index_bits } => {
                write!(f, "{}-entry direct-mapped", 1u64 << index_bits)
            }
        }
    }
}

/// Infinite tables keep PCs below this bound in a vector indexed directly
/// by PC; every suite program's PCs are small instruction indices, so the
/// hot lookup/commit path never hashes. PCs at or above it (imported or
/// crafted traces) live in a hash map instead, so a stray huge PC cannot
/// grow the vector.
pub const DENSE_PCS: u64 = 1 << 16;

/// PC-indexed storage for predictor entries.
///
/// `PredTable` abstracts over the [`TableGeometry`]. Both geometries keep
/// tagged slots in one vector: a direct-mapped table indexes it by the
/// PC's low bits and evicts on tag mismatch; an infinite table indexes it
/// by the PC itself (growing it on demand) for PCs below [`DENSE_PCS`], and
/// falls back to a hash map keyed by PC above that.
///
/// # Example
///
/// ```
/// use fetchvp_predictor::table::{PredTable, TableGeometry};
///
/// let mut t: PredTable<u32> = PredTable::new(TableGeometry::DirectMapped { index_bits: 1 });
/// *t.entry_mut(0) = 10;
/// *t.entry_mut(2) = 20; // same set as PC 0 -> evicts it
/// assert_eq!(t.probe(0), None);
/// assert_eq!(t.probe(2), Some(&20));
/// ```
#[derive(Debug, Clone)]
pub struct PredTable<E> {
    geometry: TableGeometry,
    /// `(tag, entry)` slots: PC-indexed (infinite) or set-indexed (finite).
    slots: Vec<Option<(u64, E)>>,
    /// Infinite-table entries for PCs at or above [`DENSE_PCS`].
    sparse: FxHashMap<u64, E>,
}

impl<E> PredTable<E> {
    /// Creates an empty table with the given geometry.
    pub fn new(geometry: TableGeometry) -> PredTable<E> {
        let mut slots = Vec::new();
        slots.resize_with(geometry.entries().unwrap_or(0), || None);
        PredTable { geometry, slots, sparse: FxHashMap::default() }
    }

    /// The table's geometry.
    pub fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    /// The slot `pc` maps to, or `None` when it lives in the sparse map.
    #[inline]
    fn slot_of(&self, pc: u64) -> Option<usize> {
        match self.geometry {
            TableGeometry::Infinite => (pc < DENSE_PCS).then_some(pc as usize),
            TableGeometry::DirectMapped { .. } => Some(pc as usize & (self.slots.len() - 1)),
        }
    }

    /// Looks up the entry for `pc` without allocating.
    ///
    /// Returns `None` on a miss (never-seen PC, or tag mismatch in a finite
    /// table).
    #[inline]
    pub fn probe(&self, pc: u64) -> Option<&E> {
        match self.slot_of(pc) {
            Some(i) => match self.slots.get(i) {
                Some(Some((tag, e))) if *tag == pc => Some(e),
                _ => None,
            },
            None => self.sparse.get(&pc),
        }
    }

    /// [`probe`](PredTable::probe) for update: the resident entry for `pc`,
    /// or `None` on a miss. Never allocates or evicts.
    #[inline]
    pub fn get_mut(&mut self, pc: u64) -> Option<&mut E> {
        match self.slot_of(pc) {
            Some(i) => match self.slots.get_mut(i) {
                Some(Some((tag, e))) if *tag == pc => Some(e),
                _ => None,
            },
            None => self.sparse.get_mut(&pc),
        }
    }

    /// Returns the entry for `pc`, allocating (or evicting, for a finite
    /// table) one made by `fresh` on a miss.
    #[inline]
    pub fn entry_or_insert_with(&mut self, pc: u64, fresh: impl FnOnce() -> E) -> &mut E {
        let Some(i) = self.slot_of(pc) else {
            return self.sparse.entry(pc).or_insert_with(fresh);
        };
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let slot = &mut self.slots[i];
        if !matches!(slot, Some((tag, _)) if *tag == pc) {
            *slot = Some((pc, fresh()));
        }
        &mut slot.as_mut().expect("just filled").1
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count() + self.sparse.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Default> PredTable<E> {
    /// Returns the entry for `pc`, allocating (or evicting, for a finite
    /// table) a default entry on a miss.
    pub fn entry_mut(&mut self, pc: u64) -> &mut E {
        self.entry_or_insert_with(pc, E::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_table_never_evicts() {
        let mut t: PredTable<u64> = PredTable::new(TableGeometry::Infinite);
        for pc in 0..1000u64 {
            *t.entry_mut(pc) = pc;
        }
        assert_eq!(t.len(), 1000);
        for pc in 0..1000u64 {
            assert_eq!(t.probe(pc), Some(&pc));
        }
    }

    #[test]
    fn probe_miss_returns_none_without_alloc() {
        let t: PredTable<u64> = PredTable::new(TableGeometry::Infinite);
        assert_eq!(t.probe(42), None);
        assert!(t.is_empty());
    }

    #[test]
    fn direct_mapped_eviction_on_tag_mismatch() {
        let mut t: PredTable<u32> = PredTable::new(TableGeometry::DirectMapped { index_bits: 2 });
        *t.entry_mut(1) = 11;
        assert_eq!(t.probe(1), Some(&11));
        *t.entry_mut(5) = 55; // 5 & 3 == 1: conflicts with PC 1
        assert_eq!(t.probe(1), None);
        assert_eq!(t.probe(5), Some(&55));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn direct_mapped_rehit_preserves_entry() {
        let mut t: PredTable<u32> = PredTable::new(TableGeometry::DirectMapped { index_bits: 2 });
        *t.entry_mut(6) = 9;
        assert_eq!(*t.entry_mut(6), 9);
    }

    #[test]
    fn small_pcs_index_the_dense_vector_directly() {
        let mut t: PredTable<u64> = PredTable::new(TableGeometry::Infinite);
        *t.entry_mut(40) = 4;
        assert_eq!(t.slots.len(), 41, "the vector grows to the highest PC seen");
        assert!(t.sparse.is_empty());
        assert_eq!(t.probe(40), Some(&4));
        assert_eq!(t.probe(39), None);
        assert_eq!(t.get_mut(7), None, "a miss does not allocate");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pcs_at_and_above_the_bound_use_the_hash_map() {
        let mut t: PredTable<u64> = PredTable::new(TableGeometry::Infinite);
        let big = [DENSE_PCS, 1 << 40, u64::MAX];
        for (k, &pc) in big.iter().enumerate() {
            assert_eq!(t.probe(pc), None);
            assert_eq!(t.get_mut(pc), None);
            *t.entry_or_insert_with(pc, || k as u64) += 100;
        }
        assert!(t.slots.is_empty(), "huge PCs must never grow the dense vector");
        assert_eq!(t.sparse.len(), 3);
        assert_eq!(t.len(), 3);
        for (k, &pc) in big.iter().enumerate() {
            assert_eq!(t.probe(pc), Some(&(100 + k as u64)));
            *t.get_mut(pc).unwrap() += 1;
            assert_eq!(*t.entry_mut(pc), 101 + k as u64, "a hit keeps the entry");
        }
        // Dense and sparse entries coexist without aliasing.
        *t.entry_mut(DENSE_PCS - 1) = 7;
        assert_eq!(t.slots.len() as u64, DENSE_PCS);
        assert_eq!(t.probe(DENSE_PCS), Some(&101));
        assert_eq!(t.probe(DENSE_PCS - 1), Some(&7));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn entry_or_insert_with_only_builds_on_a_miss() {
        let mut t: PredTable<u32> = PredTable::new(TableGeometry::DirectMapped { index_bits: 2 });
        *t.entry_or_insert_with(1, || 5) += 1;
        assert_eq!(*t.entry_or_insert_with(1, || unreachable!("hit")), 6);
        assert_eq!(*t.entry_or_insert_with(5, || 9), 9, "tag mismatch evicts");
        assert_eq!(t.probe(1), None);
    }

    #[test]
    fn geometry_entry_counts() {
        assert_eq!(TableGeometry::Infinite.entries(), None);
        assert_eq!(TableGeometry::DirectMapped { index_bits: 10 }.entries(), Some(1024));
    }

    #[test]
    fn geometry_display() {
        assert_eq!(TableGeometry::Infinite.to_string(), "infinite");
        assert_eq!(
            TableGeometry::DirectMapped { index_bits: 3 }.to_string(),
            "8-entry direct-mapped"
        );
    }
}
