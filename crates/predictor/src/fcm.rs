//! Finite-context-method (FCM) value prediction.
//!
//! The paper's related-work section cites Sazeides & Smith's *"The
//! Predictability of Data Values"* (reference \[22\]), which introduced
//! context-based prediction: instead of extrapolating arithmetic patterns
//! like the stride predictor, an FCM predictor remembers which value
//! followed each recent *history of values* and replays it when the history
//! recurs. It captures repeating non-arithmetic sequences (e.g. pointers
//! cycling through a structure) that defeat both last-value and stride
//! prediction.

use crate::counter::{ConfidenceConfig, SaturatingCounter};
use crate::table::{PredTable, TableGeometry};
use crate::{PredictorStats, ValuePredictor};

/// The context order: how many recent values form the first-level history.
pub const ORDER: usize = 4;

/// A finite window of the last [`ORDER`] values, oldest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct History {
    values: [u64; ORDER],
    len: usize,
}

impl History {
    fn push(&mut self, value: u64) {
        self.values.rotate_left(1);
        self.values[ORDER - 1] = value;
        self.len = (self.len + 1).min(ORDER);
    }

    /// An order-preserving hash of the window.
    fn hash(&self) -> u64 {
        let mut h = self.len as u64;
        for &v in &self.values {
            h = h.rotate_left(13) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        h
    }
}

#[derive(Debug, Clone)]
struct Entry {
    /// Committed history (the last `ORDER` retired values).
    committed: History,
    /// Speculative history, advanced at lookup time.
    spec: History,
    seen: bool,
    counter: SaturatingCounter,
}

impl Entry {
    fn fresh(confidence: &ConfidenceConfig) -> Entry {
        Entry {
            committed: History::default(),
            spec: History::default(),
            seen: false,
            counter: confidence.new_counter(),
        }
    }
}

/// A two-level finite-context-method value predictor (reference \[22\]).
///
/// The first level holds, per static instruction, a hash of its last few
/// outcome values (the *context*); the second level maps `(pc, context)` to
/// the value that followed that context last time. Like the other
/// predictors in this crate it updates its context *speculatively* at
/// lookup time so several in-flight instances of one PC chain their
/// predictions, and repairs the context when a prediction turns out wrong.
///
/// # Example
///
/// ```
/// use fetchvp_predictor::{ConfidenceConfig, FcmPredictor, ValuePredictor};
///
/// // A repeating, non-arithmetic value sequence — stride prediction fails
/// // here, FCM learns it after one period.
/// let mut p = FcmPredictor::with_confidence(ConfidenceConfig::always_predict());
/// let mut correct = 0;
/// for k in 0..18 {
///     let v = [7u64, 100, 3][k % 3]; // period-3, non-arithmetic
///     let predicted = p.lookup(0x40);
///     p.commit(0x40, v, predicted);
///     correct += (predicted == Some(v)) as u32;
/// }
/// assert!(correct >= 10, "{correct} correct");
/// ```
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    l1: PredTable<Entry>,
    /// Second level: `(pc, context)` hash → next value. Shared across PCs,
    /// as in the original proposal's global value prediction table.
    /// Fx-hashed: probed twice per value-producing instruction.
    l2: fetchvp_metrics::FxHashMap<u64, u64>,
    confidence: ConfidenceConfig,
    stats: PredictorStats,
}

impl FcmPredictor {
    /// Creates an FCM predictor with infinite first-level geometry and the
    /// given classification configuration.
    pub fn with_confidence(confidence: ConfidenceConfig) -> FcmPredictor {
        FcmPredictor::new(TableGeometry::Infinite, confidence)
    }

    /// Creates an FCM predictor with the given first-level geometry.
    pub fn new(geometry: TableGeometry, confidence: ConfidenceConfig) -> FcmPredictor {
        FcmPredictor {
            l1: PredTable::new(geometry),
            l2: fetchvp_metrics::FxHashMap::default(),
            confidence,
            stats: PredictorStats::default(),
        }
    }

    /// The paper-style configuration: infinite tables, 2-bit classification.
    pub fn infinite() -> FcmPredictor {
        FcmPredictor::with_confidence(ConfidenceConfig::paper())
    }

    fn l2_key(pc: u64, ctx: u64) -> u64 {
        ctx.rotate_left(13) ^ pc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl ValuePredictor for FcmPredictor {
    fn name(&self) -> &str {
        "fcm"
    }

    fn lookup(&mut self, pc: u64) -> Option<u64> {
        let predict_at = self.confidence.predict_at;
        let prediction = match self.l1.get_mut(pc) {
            Some(e) if e.seen && e.counter.at_least(predict_at) => {
                let v = self.l2.get(&Self::l2_key(pc, e.spec.hash())).copied();
                if let Some(v) = v {
                    // Speculative update: push the predicted value into the
                    // history so the next in-flight instance predicts from
                    // the extended context.
                    e.spec.push(v);
                }
                v
            }
            _ => None,
        };
        self.stats.record_lookup(prediction.is_some());
        prediction
    }

    fn commit(&mut self, pc: u64, actual: u64, predicted: Option<u64>) {
        self.stats.record_commit(actual, predicted);
        let confidence = self.confidence;
        let e = self.l1.entry_or_insert_with(pc, || Entry::fresh(&confidence));
        if e.seen {
            // Train the second level: the committed context is followed by
            // `actual`.
            let would_predict = self.l2.insert(Self::l2_key(pc, e.committed.hash()), actual);
            if would_predict == Some(actual) {
                e.counter.increment();
            } else {
                e.counter.decrement();
            }
        }
        e.committed.push(actual);
        e.seen = true;
        if predicted != Some(actual) {
            e.spec = e.committed;
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

    fn always() -> FcmPredictor {
        FcmPredictor::with_confidence(ConfidenceConfig::always_predict())
    }

    fn run(p: &mut FcmPredictor, pc: u64, values: &[u64]) -> Vec<Option<u64>> {
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
    fn repeating_pattern_is_learned_after_one_period() {
        let mut p = always();
        let pattern = [5u64, 9, 2, 11];
        let stream: Vec<u64> = pattern.iter().cycle().take(24).copied().collect();
        let preds = run(&mut p, 1, &stream);
        // Warm-up is one ORDER-deep context plus one full period; every
        // prediction after that hits.
        let warmup = ORDER + pattern.len();
        let tail_correct =
            preds.iter().zip(&stream).skip(warmup).filter(|(p, v)| **p == Some(**v)).count();
        assert_eq!(tail_correct, 24 - warmup, "{preds:?}");
    }

    #[test]
    fn stride_sequences_are_not_fcm_friendly() {
        // Every context is new, so FCM never finds the next value: this is
        // exactly the complementary behaviour to the stride predictor.
        let mut p = always();
        let stream: Vec<u64> = (0..50).map(|k| 1000 + 17 * k).collect();
        let preds = run(&mut p, 1, &stream);
        assert!(preds.iter().all(|pr| pr.is_none() || *pr != Some(0)), "sanity");
        let correct = preds.iter().zip(&stream).filter(|(p, v)| **p == Some(**v)).count();
        assert_eq!(correct, 0);
    }

    #[test]
    fn classifier_gates_low_confidence_entries() {
        let mut p = FcmPredictor::infinite();
        // Random-looking values: counters never reach the threshold.
        let preds = run(&mut p, 1, &[3, 92, 17, 4, 88, 41, 7, 66]);
        assert!(preds.iter().all(Option::is_none));
    }

    #[test]
    fn contexts_are_per_pc() {
        let mut p = always();
        run(&mut p, 1, &[7, 8, 7, 8, 7, 8]);
        // PC 2 shares the L2 table but not the L1 context; cold PC predicts
        // nothing.
        assert_eq!(p.lookup(2), None);
    }

    #[test]
    fn speculative_context_chains_in_flight_instances() {
        let mut p = always();
        let pattern = [4u64, 6, 4, 6];
        let stream: Vec<u64> = pattern.iter().cycle().take(20).copied().collect();
        run(&mut p, 1, &stream);
        // Two back-to-back lookups (no commit between): the second chains
        // on the first's prediction.
        let a = p.lookup(1);
        let b = p.lookup(1);
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b, "period-2 pattern must alternate: {a:?} then {b:?}");
    }

    #[test]
    fn misprediction_repairs_the_speculative_context() {
        let mut p = always();
        let stream: Vec<u64> = [9u64, 5].iter().cycle().take(16).copied().collect();
        run(&mut p, 1, &stream);
        let wrong = p.lookup(1); // speculates the next pattern element
        p.commit(1, 777, wrong); // pattern broken
                                 // The context resynchronizes to the committed history.
        let after = p.lookup(1);
        // 777's context was never seen: no prediction (or at least no crash).
        assert!(after.is_none());
    }

    #[test]
    fn stats_cover_all_commits() {
        let mut p = FcmPredictor::infinite();
        run(&mut p, 1, &[1, 2, 1, 2, 1, 2]);
        let s = p.stats();
        assert_eq!(s.correct + s.incorrect + s.unpredicted, 6);
        assert_eq!(s.lookups, 6);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(FcmPredictor::infinite().name(), "fcm");
    }

    /// Any periodic sequence is eventually predicted perfectly.
    #[test]
    fn periodic_sequences_converge() {
        for_cases(48, |case, rng| {
            // Patterns with repeated elements can alias; the convergence
            // guarantee needs distinct elements, so draw from disjoint
            // value ranges.
            let len = rng.range_usize(2, 6);
            let pattern: Vec<u64> = (0..len).map(|k| 1000 * k as u64 + rng.below(1000)).collect();
            let reps = rng.range_usize(4, 10);
            let mut p = always();
            let stream: Vec<u64> =
                pattern.iter().cycle().take(ORDER + pattern.len() * reps).copied().collect();
            let preds = run(&mut p, 0, &stream);
            let warmup = ORDER + pattern.len();
            for (k, pred) in preds.iter().enumerate().skip(warmup) {
                assert_eq!(*pred, Some(stream[k]), "case {case}, index {k}");
            }
        });
    }
}
