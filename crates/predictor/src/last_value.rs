//! Last-value prediction.

use crate::counter::{ConfidenceConfig, SaturatingCounter};
use crate::table::{PredTable, TableGeometry};
use crate::{PredictorStats, ValuePredictor};

#[derive(Debug, Clone)]
struct Entry {
    last: u64,
    seen: bool,
    counter: SaturatingCounter,
}

impl Entry {
    fn fresh(confidence: &ConfidenceConfig) -> Entry {
        Entry { last: 0, seen: false, counter: confidence.new_counter() }
    }
}

/// The last-value predictor of Lipasti & Shen (paper references \[13\], \[14\]).
///
/// Each table entry holds the most recent value produced by the instruction;
/// the prediction for the next instance is that same value. A per-entry
/// saturating counter (the classification unit) gates whether the prediction
/// is used.
///
/// # Example
///
/// ```
/// use fetchvp_predictor::{ConfidenceConfig, LastValuePredictor, TableGeometry, ValuePredictor};
///
/// let mut p = LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::paper());
/// for _ in 0..3 {
///     let predicted = p.lookup(0x10);
///     p.commit(0x10, 7, predicted); // constant value: perfectly last-value predictable
/// }
/// assert_eq!(p.lookup(0x10), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    table: PredTable<Entry>,
    confidence: ConfidenceConfig,
    stats: PredictorStats,
}

impl LastValuePredictor {
    /// Creates a predictor with the given table geometry and classification
    /// configuration.
    pub fn new(geometry: TableGeometry, confidence: ConfidenceConfig) -> LastValuePredictor {
        LastValuePredictor {
            table: PredTable::new(geometry),
            confidence,
            stats: PredictorStats::default(),
        }
    }

    /// An infinite-table predictor with the paper's 2-bit classification.
    pub fn infinite() -> LastValuePredictor {
        LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::paper())
    }
}

impl ValuePredictor for LastValuePredictor {
    fn name(&self) -> &str {
        "last-value"
    }

    fn lookup(&mut self, pc: u64) -> Option<u64> {
        let predict_at = self.confidence.predict_at;
        let prediction = match self.table.probe(pc) {
            Some(e) if e.seen && e.counter.at_least(predict_at) => Some(e.last),
            _ => None,
        };
        self.stats.record_lookup(prediction.is_some());
        prediction
    }

    fn commit(&mut self, pc: u64, actual: u64, predicted: Option<u64>) {
        self.stats.record_commit(actual, predicted);
        let confidence = self.confidence;
        let e = self.table.entry_or_insert_with(pc, || Entry::fresh(&confidence));
        if e.seen {
            // Train the classifier on what the table would have predicted,
            // whether or not the prediction was confident enough to issue.
            if e.last == actual {
                e.counter.increment();
            } else {
                e.counter.decrement();
            }
        }
        e.last = actual;
        e.seen = true;
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut LastValuePredictor, pc: u64, values: &[u64]) {
        for &v in values {
            let predicted = p.lookup(pc);
            p.commit(pc, v, predicted);
        }
    }

    #[test]
    fn cold_lookup_is_none() {
        let mut p = LastValuePredictor::infinite();
        assert_eq!(p.lookup(1), None);
    }

    #[test]
    fn constant_sequence_becomes_predictable_after_confidence_builds() {
        let mut p = LastValuePredictor::infinite();
        train(&mut p, 1, &[9, 9]); // first commit seeds, second raises counter to 1
        assert_eq!(p.lookup(1), None); // counter 1 < predict_at 2
        train(&mut p, 1, &[9]);
        assert_eq!(p.lookup(1), Some(9)); // counter reached 2
    }

    #[test]
    fn changing_values_lower_confidence() {
        let mut p = LastValuePredictor::infinite();
        train(&mut p, 1, &[1, 1, 1, 1]); // confident now
        assert!(p.lookup(1).is_some());
        train(&mut p, 1, &[2, 3, 4]); // three wrong in a row
        assert_eq!(p.lookup(1), None);
    }

    #[test]
    fn always_predict_config_predicts_after_first_commit() {
        let mut p =
            LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
        train(&mut p, 7, &[42]);
        assert_eq!(p.lookup(7), Some(42));
    }

    #[test]
    fn entries_are_independent_per_pc() {
        let mut p =
            LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
        train(&mut p, 1, &[10]);
        train(&mut p, 2, &[20]);
        assert_eq!(p.lookup(1), Some(10));
        assert_eq!(p.lookup(2), Some(20));
    }

    #[test]
    fn stats_track_correctness() {
        let mut p =
            LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
        train(&mut p, 1, &[5, 5, 6]);
        let s = p.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.predictions, 2); // instances 2 and 3
        assert_eq!(s.correct, 1); // 5 predicted, 5 seen
        assert_eq!(s.incorrect, 1); // 5 predicted, 6 seen
        assert_eq!(s.unpredicted, 1); // cold first instance
    }

    #[test]
    fn finite_table_eviction_forgets() {
        let mut p = LastValuePredictor::new(
            TableGeometry::DirectMapped { index_bits: 1 },
            ConfidenceConfig::always_predict(),
        );
        train(&mut p, 0, &[11]);
        train(&mut p, 2, &[22]); // evicts pc 0 (same set)
        assert_eq!(p.lookup(0), None);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(LastValuePredictor::infinite().name(), "last-value");
    }
}
