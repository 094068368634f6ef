//! Figure 5.2 — value-prediction speedup on the realistic machine with the
//! 2-level PAp BTB, sweeping taken branches per cycle.
//!
//! Paper shape: ≈3% average at 1 taken branch/cycle rising to ≈20% at 4 —
//! roughly 30% lower than the ideal-BTB numbers of Figure 5.1, showing that
//! "any small improvement in the BTB accuracy can considerably affect the
//! performance gain of value prediction".

use fetchvp_core::BtbKind;

use crate::fig5_1::{taken_sweep, TakenSweepResult};
use crate::sweep::Sweep;

/// Runs the experiment on a [`Sweep`].
pub fn run_with(sweep: &Sweep) -> TakenSweepResult {
    taken_sweep(
        sweep,
        BtbKind::two_level_paper(),
        "Figure 5.2 — value-prediction speedup vs taken branches/cycle (2-level BTB)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig5_1;
    use crate::ExperimentConfig;

    #[test]
    fn real_btb_speedups_do_not_exceed_ideal_by_much() {
        let sweep = Sweep::serial(&ExperimentConfig::quick());
        let ideal = fig5_1::run_with(&sweep);
        let real = run_with(&sweep);
        let (ia, ra) = (ideal.averages(), real.averages());
        // At the high-bandwidth end the realistic BTB must lose part of the
        // gain (the paper reports ≈30% lower at n=4).
        let last = ia.len() - 1;
        assert!(
            ra[last] <= ia[last] + 0.05,
            "2-level BTB average {:.2} exceeds ideal {:.2}",
            ra[last],
            ia[last]
        );
    }

    #[test]
    fn speedup_still_grows_with_bandwidth() {
        let r = run_with(&Sweep::serial(&ExperimentConfig::quick()));
        let avg = r.averages();
        assert!(*avg.last().unwrap() >= avg[0], "{avg:?}");
    }
}
