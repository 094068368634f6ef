//! The §4 banked prediction front-end: trace addresses buffer, address
//! router and value distributor.

use std::fmt;

use fetchvp_metrics::{MetricsSink, Registry};

use crate::{PredictorStats, ValuePredictor};

/// Geometry of the highly-interleaved prediction table front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankedConfig {
    /// Number of single-ported banks; must be a power of two. The bank of a
    /// PC is selected by its low-order bits ("forming a modulo operation",
    /// §4.2).
    pub banks: u32,
}

impl BankedConfig {
    /// Creates a configuration with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not a power of two.
    pub fn new(banks: u32) -> BankedConfig {
        assert!(banks.is_power_of_two(), "bank count must be a power of two, got {banks}");
        BankedConfig { banks }
    }

    fn bank_of(&self, pc: u64) -> u32 {
        (pc & (self.banks as u64 - 1)) as u32
    }
}

impl Default for BankedConfig {
    fn default() -> BankedConfig {
        BankedConfig::new(16)
    }
}

/// Why a fetch-group slot did or did not receive a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotGrant {
    /// The slot's PC won (or was alone in) its bank and accessed the table.
    Granted,
    /// The slot carries the same PC as an earlier granted slot; the router
    /// merged the accesses and the value distributor expanded the sequence.
    Merged,
    /// A *different* PC in the same bank was granted first; this slot's
    /// access was denied and its prediction valid-bit is off.
    DeniedConflict,
}

/// Per-slot outcome of one fetch group passing through the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOutcome {
    /// The slot's PC.
    pub pc: u64,
    /// The bank the PC maps to.
    pub bank: u32,
    /// How the router disposed of the slot.
    pub grant: SlotGrant,
    /// The predicted value delivered by the value distributor, if any.
    /// `None` either because the access was denied or because the
    /// classification counter withheld the prediction.
    pub prediction: Option<u64>,
}

/// Aggregate front-end statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankedStats {
    /// Fetch groups processed.
    pub groups: u64,
    /// Total slots presented to the router.
    pub slots: u64,
    /// Slots granted direct table access.
    pub granted: u64,
    /// Slots served by merging with an earlier same-PC access.
    pub merged: u64,
    /// Slots denied by a bank conflict.
    pub denied: u64,
}

impl BankedStats {
    /// Fraction of slots denied by bank conflicts.
    pub fn denial_rate(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.denied as f64 / self.slots as f64
        }
    }
}

impl MetricsSink for BankedStats {
    fn export_metrics(&self, reg: &mut Registry, prefix: &str) {
        reg.counter(prefix, "groups", self.groups);
        reg.counter(prefix, "slots", self.slots);
        reg.counter(prefix, "granted", self.granted);
        reg.counter(prefix, "merged", self.merged);
        reg.counter(prefix, "bank_conflicts", self.denied);
        reg.gauge(prefix, "denial_rate", self.denial_rate());
    }
}

impl fmt::Display for BankedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "groups {}, slots {}, granted {}, merged {}, denied {} ({:.2}%)",
            self.groups,
            self.slots,
            self.granted,
            self.merged,
            self.denied,
            100.0 * self.denial_rate()
        )
    }
}

/// The §4 hardware proposal wrapped around any [`ValuePredictor`].
///
/// Each cycle, the addresses of the instructions in the fetched trace are
/// written to the *trace addresses buffer* and presented to the *address
/// router*, which resolves bank conflicts:
///
/// 1. **Different PCs, same bank** — only the earliest instruction in trace
///    order is granted; later ones are denied and marked invalid.
/// 2. **Same PC appearing multiple times** (e.g. several iterations of a
///    loop inside one trace-cache line) — the accesses are *merged* into a
///    single table access; the *value distributor* then expands the
///    returned `(last, stride)` pair into the sequence `X, X+Δ, X+2Δ, …` and
///    assigns one element to each copy.
///
/// The expansion is realized by the wrapped predictor's speculative-update
/// semantics: one [`ValuePredictor::lookup`] per merged copy yields exactly
/// the distributor's sequence (and a last-value inner predictor naturally
/// replicates the same value).
///
/// # Example
///
/// ```
/// use fetchvp_predictor::{
///     BankedConfig, BankedFrontEnd, ConfidenceConfig, StridePredictor, TableGeometry,
///     ValuePredictor,
/// };
/// use fetchvp_predictor::banked::SlotGrant;
///
/// let inner = StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
/// let mut fe = BankedFrontEnd::new(BankedConfig::new(4), inner);
/// // Train PC 8 on stride 2 (values 0, 2).
/// for v in [0u64, 2] {
///     let p = fe.inner_mut().lookup(8);
///     fe.inner_mut().commit(8, v, p);
/// }
/// // A trace containing three copies of PC 8 (three loop iterations):
/// let out = fe.predict_group(&[8, 8, 8]);
/// assert_eq!(out[0].grant, SlotGrant::Granted);
/// assert_eq!(out[1].grant, SlotGrant::Merged);
/// assert_eq!(out[0].prediction, Some(4));
/// assert_eq!(out[1].prediction, Some(6));
/// assert_eq!(out[2].prediction, Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct BankedFrontEnd<P> {
    config: BankedConfig,
    inner: P,
    stats: BankedStats,
    /// Router scratch: the PC granted in each bank for the group being
    /// routed, reset per group instead of reallocated.
    winner: Vec<Option<u64>>,
}

impl<P: ValuePredictor> BankedFrontEnd<P> {
    /// Wraps `inner` behind a banked front-end with the given geometry.
    pub fn new(config: BankedConfig, inner: P) -> BankedFrontEnd<P> {
        let winner = vec![None; config.banks as usize];
        BankedFrontEnd { config, inner, stats: BankedStats::default(), winner }
    }

    /// The front-end geometry.
    pub fn config(&self) -> BankedConfig {
        self.config
    }

    /// Access to the wrapped predictor (e.g. for training).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// A view of the wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the front-end, returning the wrapped predictor.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Accumulated router statistics.
    pub fn banked_stats(&self) -> BankedStats {
        self.stats
    }

    /// Routes one fetch group (the PCs of the value-producing instructions
    /// fetched this cycle, in trace order) through the router, the table
    /// banks and the value distributor.
    ///
    /// Returns one [`SlotOutcome`] per input slot, in the same order.
    pub fn predict_group(&mut self, pcs: &[u64]) -> Vec<SlotOutcome> {
        let mut out = Vec::with_capacity(pcs.len());
        self.predict_group_into(pcs, &mut out);
        out
    }

    /// [`predict_group`](BankedFrontEnd::predict_group) into a
    /// caller-owned buffer: `out` is cleared, then receives one
    /// [`SlotOutcome`] per input slot. Reusing one buffer across groups
    /// keeps the per-group path allocation-free.
    pub fn predict_group_into(&mut self, pcs: &[u64], out: &mut Vec<SlotOutcome>) {
        self.stats.groups += 1;
        self.stats.slots += pcs.len() as u64;

        // The address router: per bank, the earliest PC in trace order wins;
        // later slots with the *same* PC merge onto the winner, others are
        // denied. `winner[bank]` is the granted PC for this cycle.
        self.winner.fill(None);
        out.clear();
        for &pc in pcs {
            let bank = self.config.bank_of(pc);
            let grant = match self.winner[bank as usize] {
                None => {
                    self.winner[bank as usize] = Some(pc);
                    SlotGrant::Granted
                }
                Some(w) if w == pc => SlotGrant::Merged,
                Some(_) => SlotGrant::DeniedConflict,
            };
            // The value distributor: granted/merged slots draw consecutive
            // speculative lookups from the (single) table access; denied
            // slots get no prediction and leave predictor state untouched.
            let prediction = match grant {
                SlotGrant::Granted | SlotGrant::Merged => self.inner.lookup(pc),
                SlotGrant::DeniedConflict => None,
            };
            match grant {
                SlotGrant::Granted => self.stats.granted += 1,
                SlotGrant::Merged => self.stats.merged += 1,
                SlotGrant::DeniedConflict => self.stats.denied += 1,
            }
            out.push(SlotOutcome { pc, bank, grant, prediction });
        }
    }

    /// Commits one dynamic instance's actual value (delegates to the wrapped
    /// predictor). `predicted` must be the `prediction` field of the slot's
    /// [`SlotOutcome`].
    pub fn commit(&mut self, pc: u64, actual: u64, predicted: Option<u64>) {
        self.inner.commit(pc, actual, predicted);
    }

    /// The wrapped predictor's statistics.
    pub fn predictor_stats(&self) -> PredictorStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::ConfidenceConfig;
    use crate::last_value::LastValuePredictor;
    use crate::stride::StridePredictor;
    use crate::table::TableGeometry;
    use fetchvp_testutil::for_cases;

    fn stride_fe(banks: u32) -> BankedFrontEnd<StridePredictor> {
        let inner =
            StridePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
        BankedFrontEnd::new(BankedConfig::new(banks), inner)
    }

    fn train(fe: &mut BankedFrontEnd<StridePredictor>, pc: u64, values: &[u64]) {
        for &v in values {
            let p = fe.inner_mut().lookup(pc);
            fe.inner_mut().commit(pc, v, p);
        }
    }

    #[test]
    fn distinct_banks_all_granted() {
        let mut fe = stride_fe(4);
        let out = fe.predict_group(&[0, 1, 2, 3]);
        assert!(out.iter().all(|s| s.grant == SlotGrant::Granted));
        assert_eq!(fe.banked_stats().denied, 0);
    }

    #[test]
    fn different_pcs_same_bank_conflict_grants_earliest() {
        let mut fe = stride_fe(4);
        // PCs 1 and 5 both map to bank 1.
        let out = fe.predict_group(&[1, 5]);
        assert_eq!(out[0].grant, SlotGrant::Granted);
        assert_eq!(out[1].grant, SlotGrant::DeniedConflict);
        assert_eq!(out[1].prediction, None);
        assert_eq!(fe.banked_stats().denied, 1);
    }

    #[test]
    fn same_pc_copies_are_merged_with_stride_expansion() {
        let mut fe = stride_fe(4);
        train(&mut fe, 8, &[100, 107]); // stride 7
        let out = fe.predict_group(&[8, 8, 8]);
        assert_eq!(out[0].prediction, Some(114));
        assert_eq!(out[1].prediction, Some(121));
        assert_eq!(out[2].prediction, Some(128));
        assert_eq!(out[1].grant, SlotGrant::Merged);
        assert_eq!(fe.banked_stats().merged, 2);
    }

    #[test]
    fn last_value_inner_replicates_same_value_to_merged_copies() {
        let inner =
            LastValuePredictor::new(TableGeometry::Infinite, ConfidenceConfig::always_predict());
        let mut fe = BankedFrontEnd::new(BankedConfig::new(4), inner);
        let p = fe.inner_mut().lookup(4);
        fe.inner_mut().commit(4, 55, p);
        let out = fe.predict_group(&[4, 4, 4]);
        assert!(out.iter().all(|s| s.prediction == Some(55)));
    }

    #[test]
    fn denied_slot_does_not_perturb_predictor_state() {
        let mut fe = stride_fe(4);
        train(&mut fe, 8, &[0, 3]); // stride 3; next prediction 6
                                    // PC 12 maps to bank 0 like PC 8; 8 wins, 12 denied.
        let out = fe.predict_group(&[8, 12]);
        assert_eq!(out[0].prediction, Some(6));
        assert_eq!(out[1].prediction, None);
        // The denied access consumed no lookup for PC 12: a later private
        // lookup still sees a cold entry.
        assert_eq!(fe.inner_mut().lookup(12), None);
    }

    #[test]
    fn mixed_group_loop_body_example_from_figure_4_2() {
        // Three iterations of a loop body {A, i++, C, Branch} fetched at
        // once: copies of every PC appear three times. With enough banks
        // there are no cross-PC conflicts, and the "i++" instruction gets
        // the sequence X, X+delta, X+2*delta.
        let mut fe = stride_fe(16);
        train(&mut fe, 1, &[40, 41]); // the i++ instruction, stride 1
        let group = [0u64, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3];
        let out = fe.predict_group(&group);
        let i_preds: Vec<_> = out.iter().filter(|s| s.pc == 1).map(|s| s.prediction).collect();
        assert_eq!(i_preds, [Some(42), Some(43), Some(44)]);
    }

    #[test]
    fn stats_accumulate_across_groups() {
        let mut fe = stride_fe(2);
        fe.predict_group(&[0, 1]);
        fe.predict_group(&[0, 2, 4]); // 2 and 4 conflict with 0 in bank 0
        let s = fe.banked_stats();
        assert_eq!(s.groups, 2);
        assert_eq!(s.slots, 5);
        assert_eq!(s.granted, 3);
        assert_eq!(s.denied, 2);
        assert!(s.denial_rate() > 0.0);
    }

    #[test]
    fn predict_group_into_reuses_the_buffer_and_matches_predict_group() {
        let groups: [&[u64]; 4] = [&[8, 8, 12, 1], &[5, 1, 9], &[], &[8, 4, 8, 0, 12]];
        let (mut a, mut b) = (stride_fe(4), stride_fe(4));
        let mut out =
            vec![SlotOutcome { pc: 99, bank: 0, grant: SlotGrant::Merged, prediction: None }];
        for (k, pcs) in groups.iter().enumerate() {
            let expected = a.predict_group(pcs);
            b.predict_group_into(pcs, &mut out);
            assert_eq!(out, expected, "group {k}");
            for (&pc, slot) in pcs.iter().zip(&expected) {
                let actual = 10 * pc + k as u64;
                a.commit(pc, actual, slot.prediction);
                b.commit(pc, actual, slot.prediction);
            }
        }
        assert_eq!(a.banked_stats(), b.banked_stats());
        assert_eq!(a.predictor_stats(), b.predictor_stats());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_banks_panics() {
        BankedConfig::new(3);
    }

    #[test]
    fn display_stats() {
        let fe = stride_fe(2);
        assert!(fe.banked_stats().to_string().contains("groups 0"));
    }

    /// Router invariants: every slot gets exactly one disposition; at most
    /// one PC is granted per bank; merges always follow a granted slot with
    /// the same PC.
    #[test]
    fn router_dispositions_are_consistent() {
        for_cases(64, |case, rng| {
            let pcs = rng.vec_with(1, 24, |r| r.below(64));
            let mut fe = stride_fe(8);
            let out = fe.predict_group(&pcs);
            assert_eq!(out.len(), pcs.len(), "case {case}");
            let mut granted_per_bank = std::collections::HashMap::new();
            for s in &out {
                match s.grant {
                    SlotGrant::Granted => {
                        assert!(
                            granted_per_bank.insert(s.bank, s.pc).is_none(),
                            "case {case}: two grants in bank {}",
                            s.bank
                        );
                    }
                    SlotGrant::Merged => {
                        assert_eq!(granted_per_bank.get(&s.bank), Some(&s.pc), "case {case}");
                    }
                    SlotGrant::DeniedConflict => {
                        let w = granted_per_bank.get(&s.bank);
                        assert!(w.is_some() && *w.unwrap() != s.pc, "case {case}");
                        assert_eq!(s.prediction, None, "case {case}");
                    }
                }
            }
            let s = fe.banked_stats();
            assert_eq!(s.granted + s.merged + s.denied, pcs.len() as u64, "case {case}");
        });
    }
}
