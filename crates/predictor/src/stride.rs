//! Stride value prediction with speculative update.

use crate::counter::{ConfidenceConfig, SaturatingCounter};
use crate::table::{PredTable, TableGeometry};
use crate::{PredictorStats, ValuePredictor};

/// Stride-update policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StrideKind {
    /// The stride is re-learned from every pair of consecutive committed
    /// values (the scheme of paper references \[7\], \[8\]).
    #[default]
    Simple,
    /// The stride is replaced only after the *same new* delta has been
    /// observed twice in a row (the classic "2-delta" refinement), which
    /// protects an established stride from one-off disturbances.
    TwoDelta,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Most recent committed value.
    committed_last: u64,
    /// Value state advanced speculatively at lookup time (§3.1: "the value
    /// predictor is updated speculatively after the lookup").
    spec_last: u64,
    /// Current stride (delta between consecutive values).
    stride: i64,
    /// Candidate stride for the 2-delta policy.
    pending_stride: i64,
    /// 0 = never committed, 1 = one value seen (stride unknown, treated as 0).
    seen: bool,
    counter: SaturatingCounter,
}

impl Entry {
    fn fresh(confidence: &ConfidenceConfig) -> Entry {
        Entry {
            committed_last: 0,
            spec_last: 0,
            stride: 0,
            pending_stride: 0,
            seen: false,
            counter: confidence.new_counter(),
        }
    }
}

/// The stride value predictor of Gabbay & Mendelson (\[7\], \[8\]).
///
/// Each entry holds the last value and the delta between the two most recent
/// values; the prediction is `last + stride`. Lookups *speculatively* advance
/// the value state, so N in-flight instances of the same PC receive the
/// sequence `X, X+Δ, …, X+(N−1)Δ` — exactly the "values trace" the §4 value
/// distributor must produce for merged requests. A wrong prediction is
/// repaired at commit time.
///
/// # Example
///
/// ```
/// use fetchvp_predictor::{ConfidenceConfig, StridePredictor, TableGeometry, ValuePredictor};
///
/// let mut p = StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
/// let mut preds = Vec::new();
/// for k in 0..5u64 {
///     preds.push(p.lookup(9));
///     p.commit(9, 100 + 4 * k, preds[k as usize]);
/// }
/// // After two commits the stride (4) is known and predictions are exact.
/// assert_eq!(preds[2], Some(108));
/// assert_eq!(preds[4], Some(116));
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    table: PredTable<Entry>,
    confidence: ConfidenceConfig,
    kind: StrideKind,
    stats: PredictorStats,
}

impl StridePredictor {
    /// Creates a simple-stride predictor with the given geometry and
    /// classification configuration.
    pub fn new(geometry: TableGeometry, confidence: ConfidenceConfig) -> StridePredictor {
        StridePredictor::with_kind(geometry, confidence, StrideKind::Simple)
    }

    /// Creates a predictor with an explicit [`StrideKind`].
    pub fn with_kind(
        geometry: TableGeometry,
        confidence: ConfidenceConfig,
        kind: StrideKind,
    ) -> StridePredictor {
        StridePredictor {
            table: PredTable::new(geometry),
            confidence,
            kind,
            stats: PredictorStats::default(),
        }
    }

    /// The §3 configuration: infinite table, 2-bit saturating-counter
    /// classification.
    pub fn infinite() -> StridePredictor {
        StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::paper())
    }

    /// The stride-update policy in use.
    pub fn kind(&self) -> StrideKind {
        self.kind
    }
}

impl ValuePredictor for StridePredictor {
    fn name(&self) -> &str {
        match self.kind {
            StrideKind::Simple => "stride",
            StrideKind::TwoDelta => "stride-2delta",
        }
    }

    fn lookup(&mut self, pc: u64) -> Option<u64> {
        let predict_at = self.confidence.predict_at;
        let prediction = match self.table.get_mut(pc) {
            Some(e) if e.seen && e.counter.at_least(predict_at) => {
                // Speculative update: the next in-flight instance of this PC
                // is predicted relative to this one.
                e.spec_last = e.spec_last.wrapping_add(e.stride as u64);
                Some(e.spec_last)
            }
            _ => None,
        };
        self.stats.record_lookup(prediction.is_some());
        prediction
    }

    fn commit(&mut self, pc: u64, actual: u64, predicted: Option<u64>) {
        self.stats.record_commit(actual, predicted);
        let (kind, confidence) = (self.kind, self.confidence);
        let e = self.table.entry_or_insert_with(pc, || Entry::fresh(&confidence));
        if e.seen {
            // Train the classifier on the *committed-state* prediction so
            // that confidence reflects the entry's inherent predictability.
            let would_predict = e.committed_last.wrapping_add(e.stride as u64);
            if would_predict == actual {
                e.counter.increment();
            } else {
                e.counter.decrement();
            }
            let new_stride = actual.wrapping_sub(e.committed_last) as i64;
            match kind {
                StrideKind::Simple => e.stride = new_stride,
                StrideKind::TwoDelta => {
                    if new_stride == e.stride {
                        // Established stride confirmed; forget any candidate.
                        e.pending_stride = e.stride;
                    } else if new_stride == e.pending_stride {
                        e.stride = new_stride;
                    } else {
                        e.pending_stride = new_stride;
                    }
                }
            }
        }
        e.committed_last = actual;
        e.seen = true;
        // Repair the speculative state unless the prediction was correct (in
        // which case spec_last may legitimately run ahead of commit).
        if predicted != Some(actual) {
            e.spec_last = actual;
        }
    }

    fn stats(&self) -> PredictorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_testutil::for_cases;

    fn always() -> StridePredictor {
        StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict())
    }

    fn run(p: &mut StridePredictor, pc: u64, values: &[u64]) -> Vec<Option<u64>> {
        values
            .iter()
            .map(|&v| {
                let predicted = p.lookup(pc);
                p.commit(pc, v, predicted);
                predicted
            })
            .collect()
    }

    #[test]
    fn affine_sequence_is_exact_after_two_values() {
        let mut p = always();
        let preds = run(&mut p, 1, &[10, 13, 16, 19, 22]);
        assert_eq!(preds[2..], [Some(16), Some(19), Some(22)]);
    }

    #[test]
    fn constant_sequence_predicts_with_zero_stride() {
        let mut p = always();
        let preds = run(&mut p, 1, &[5, 5, 5]);
        assert_eq!(preds[1..], [Some(5), Some(5)]);
    }

    #[test]
    fn negative_strides_work() {
        let mut p = always();
        let preds = run(&mut p, 1, &[100, 90, 80, 70]);
        assert_eq!(preds[2..], [Some(80), Some(70)]);
    }

    #[test]
    fn speculative_burst_expands_the_stride_sequence() {
        let mut p = always();
        run(&mut p, 1, &[10, 13]); // stride 3 learned; committed_last 13
                                   // Three in-flight instances fetched in one cycle (the §4 merge case):
        let burst: Vec<_> = (0..3).map(|_| p.lookup(1)).collect();
        assert_eq!(burst, [Some(16), Some(19), Some(22)]);
        // Commits arrive later, all correct -> state stays coherent.
        for (k, pred) in burst.into_iter().enumerate() {
            p.commit(1, 16 + 3 * k as u64, pred);
        }
        assert_eq!(p.lookup(1), Some(25));
    }

    #[test]
    fn misprediction_repairs_speculative_state() {
        let mut p = always();
        run(&mut p, 1, &[10, 13]);
        let wrong = p.lookup(1); // predicts 16, spec_last now 16
        assert_eq!(wrong, Some(16));
        p.commit(1, 50, wrong); // actual diverges
                                // Committed state resyncs: last = 50, stride = 50-13 = 37.
        assert_eq!(p.lookup(1), Some(87));
    }

    #[test]
    fn classifier_blocks_noisy_entries() {
        let mut p = StridePredictor::infinite();
        // Alternating garbage never builds confidence under the 2-bit scheme.
        let preds = run(&mut p, 1, &[3, 17, 1, 90, 4, 2, 55, 8]);
        assert!(preds.iter().all(Option::is_none));
    }

    #[test]
    fn classifier_admits_strided_entries() {
        let mut p = StridePredictor::infinite();
        let preds = run(&mut p, 1, &[0, 8, 16, 24, 32, 40]);
        // First two commits build history; counter reaches 2 after two
        // correct would-be predictions (instances 3 and 4).
        assert_eq!(preds[4..], [Some(32), Some(40)]);
    }

    #[test]
    fn two_delta_resists_one_off_disturbance() {
        let mut simple = always();
        let mut twodelta = StridePredictor::with_kind(
            TableGeometry::Infinite,
            ConfidenceConfig::always_predict(),
            StrideKind::TwoDelta,
        );
        // Stable stride 10 with two one-off glitches (77 and 99), returning
        // to the old line after each. The simple policy re-learns a bogus
        // stride from every glitch pair; 2-delta keeps stride 10 throughout.
        let seq = [0u64, 10, 20, 30, 77, 40, 50, 99, 60, 70];
        run(&mut simple, 1, &seq);
        run(&mut twodelta, 1, &seq);
        assert_eq!(twodelta.lookup(1), Some(80));
        let s2 = twodelta.stats();
        let s1 = simple.stats();
        assert!(s2.correct > s1.correct, "2-delta should survive the glitch better");
    }

    #[test]
    fn stats_cover_all_commits() {
        let mut p = StridePredictor::infinite();
        run(&mut p, 1, &[1, 2, 3, 4]);
        let s = p.stats();
        assert_eq!(s.correct + s.incorrect + s.unpredicted, 4);
    }

    #[test]
    fn names_differ_by_kind() {
        assert_eq!(always().name(), "stride");
        let td = StridePredictor::with_kind(
            TableGeometry::Infinite,
            ConfidenceConfig::paper(),
            StrideKind::TwoDelta,
        );
        assert_eq!(td.name(), "stride-2delta");
    }

    /// After warm-up, a stride predictor is exact on any affine sequence.
    #[test]
    fn exact_on_affine_sequences() {
        for_cases(64, |case, rng| {
            let start = rng.next_u64();
            let stride = rng.range_i64(-1000, 1000);
            let len = rng.range_usize(3, 40);
            let mut p = always();
            let values: Vec<u64> = (0..len as u64)
                .map(|k| start.wrapping_add((stride as u64).wrapping_mul(k)))
                .collect();
            let preds = run(&mut p, 0, &values);
            for (k, pred) in preds.iter().enumerate().skip(2) {
                assert_eq!(*pred, Some(values[k]), "case {case}, index {k}");
            }
        });
    }

    /// Speculative bursts agree with sequential lookup/commit on affine data.
    #[test]
    fn burst_matches_sequential() {
        for_cases(64, |case, rng| {
            let start = rng.next_u64();
            let stride = rng.range_i64(-100, 100);
            let n = rng.range_usize(1, 8);
            let mut p = always();
            run(&mut p, 0, &[start, start.wrapping_add(stride as u64)]);
            let burst: Vec<_> = (0..n).map(|_| p.lookup(0)).collect();
            for (k, pred) in burst.iter().enumerate() {
                let expect = start.wrapping_add((stride as u64).wrapping_mul(k as u64 + 2));
                assert_eq!(*pred, Some(expect), "case {case}, slot {k}");
            }
        });
    }
}
