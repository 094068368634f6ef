//! Value-prediction configuration shared by both machine models, and the
//! order-only value stream that serves every non-banked pipeline.

use fetchvp_predictor::{
    ConfidenceConfig, FcmPredictor, HybridPredictor, LastValuePredictor, PredictorStats,
    StrideKind, StridePredictor, TableGeometry, ValuePredictor,
};
use fetchvp_trace::{Slot, TraceView};

use crate::sched::VpDisposition;

/// Which concrete value predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Last-value prediction (\[13\], \[14\]).
    LastValue {
        /// Prediction-table geometry.
        geometry: TableGeometry,
        /// Classification configuration.
        confidence: ConfidenceConfig,
    },
    /// Stride prediction (\[7\], \[8\]) — the paper's workhorse.
    Stride {
        /// Prediction-table geometry.
        geometry: TableGeometry,
        /// Classification configuration.
        confidence: ConfidenceConfig,
        /// Stride-update policy.
        kind: StrideKind,
    },
    /// The §4.2 hybrid (large last-value table + small stride table).
    Hybrid,
    /// The finite-context-method predictor of reference \[22\].
    Fcm {
        /// Classification configuration.
        confidence: ConfidenceConfig,
    },
}

impl PredictorKind {
    /// Instantiates the predictor.
    pub fn build(&self) -> Box<dyn ValuePredictor> {
        match *self {
            PredictorKind::LastValue { geometry, confidence } => {
                Box::new(LastValuePredictor::new(geometry, confidence))
            }
            PredictorKind::Stride { geometry, confidence, kind } => {
                Box::new(StridePredictor::with_kind(geometry, confidence, kind))
            }
            PredictorKind::Hybrid => Box::new(HybridPredictor::paper()),
            PredictorKind::Fcm { confidence } => {
                Box::new(FcmPredictor::with_confidence(confidence))
            }
        }
    }
}

/// The machine's value-prediction mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VpConfig {
    /// Value prediction disabled (the baseline of every figure).
    None,
    /// An oracle predictor with 100% accuracy, used for the §3.3 worked
    /// example (Table 3.2) and for isolating fetch effects from accuracy.
    Perfect,
    /// A real predictor.
    Predictor(PredictorKind),
}

impl VpConfig {
    /// The §3 configuration: infinite stride prediction table with 2-bit
    /// saturating-counter classification.
    pub fn stride_infinite() -> VpConfig {
        VpConfig::Predictor(PredictorKind::Stride {
            geometry: TableGeometry::Infinite,
            confidence: ConfidenceConfig::paper(),
            kind: StrideKind::Simple,
        })
    }

    /// Whether any form of value prediction is active.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, VpConfig::None)
    }
}

/// How an issued prediction (or none) fared against the actual value.
pub(crate) fn outcome(predicted: Option<u64>, actual: u64) -> VpDisposition {
    match predicted {
        None => VpDisposition::None,
        Some(v) if v == actual => VpDisposition::Correct,
        Some(_) => VpDisposition::Wrong,
    }
}

/// The order-only value path of one [`VpConfig`]: every value producer
/// looks up and commits in trace order, so dispositions are independent of
/// machine timing and pipelines of the same `VpConfig` can share them.
pub(crate) struct ValueStream {
    pub(crate) config: VpConfig,
    predictor: Option<Box<dyn ValuePredictor>>,
    /// Dispositions of the slots of the last [`fill`](ValueStream::fill).
    pub(crate) column: Vec<VpDisposition>,
}

impl ValueStream {
    pub(crate) fn new(config: VpConfig) -> ValueStream {
        let predictor =
            if let VpConfig::Predictor(kind) = config { Some(kind.build()) } else { None };
        ValueStream { config, predictor, column: Vec::new() }
    }

    /// The disposition of `rec`'s result; slots arrive in trace order.
    #[inline]
    pub(crate) fn disposition(&mut self, rec: Slot<'_>) -> VpDisposition {
        if !rec.produces_value() {
            return VpDisposition::None;
        }
        match &mut self.predictor {
            Some(p) => {
                let predicted = p.lookup(rec.pc());
                p.commit(rec.pc(), rec.result(), predicted);
                outcome(predicted, rec.result())
            }
            None if self.config == VpConfig::Perfect => VpDisposition::Correct,
            None => VpDisposition::None,
        }
    }

    /// Replaces the column with the dispositions of slots `start..end`.
    pub(crate) fn fill(&mut self, view: TraceView<'_>, start: usize, end: usize) {
        self.column.clear();
        for rec in view.slots_in(start..end) {
            let d = self.disposition(rec);
            self.column.push(d);
        }
    }

    /// The predictor's statistics (`None` without a real predictor).
    pub(crate) fn stats(&self) -> Option<PredictorStats> {
        self.predictor.as_ref().map(|p| p.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_infinite_builds_a_stride_predictor() {
        match VpConfig::stride_infinite() {
            VpConfig::Predictor(kind) => assert_eq!(kind.build().name(), "stride"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_kinds_build() {
        let kinds = [
            PredictorKind::LastValue {
                geometry: TableGeometry::Infinite,
                confidence: ConfidenceConfig::paper(),
            },
            PredictorKind::Stride {
                geometry: TableGeometry::Infinite,
                confidence: ConfidenceConfig::paper(),
                kind: StrideKind::TwoDelta,
            },
            PredictorKind::Hybrid,
            PredictorKind::Fcm { confidence: ConfidenceConfig::paper() },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.build().name().to_owned()).collect();
        assert_eq!(names, ["last-value", "stride-2delta", "hybrid", "fcm"]);
    }

    #[test]
    fn enablement() {
        assert!(!VpConfig::None.is_enabled());
        assert!(VpConfig::Perfect.is_enabled());
        assert!(VpConfig::stride_infinite().is_enabled());
    }
}
