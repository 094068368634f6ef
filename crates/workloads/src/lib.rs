//! Synthetic SPECint95-like benchmark programs.
//!
//! The paper traces the 8 SPECint95 integer benchmarks with Sun's Shade
//! tracer. Those binaries and traces are not reproducible here, so this
//! crate provides **synthetic stand-ins**: one program per benchmark whose
//! *trace-level statistics* — dynamic-instruction-distance (DID)
//! distribution, value predictability, taken-branch density and basic-block
//! size — are tuned to the per-benchmark characteristics the paper reports
//! (see `DESIGN.md` §2 for the substitution argument):
//!
//! | benchmark | modelled kernel | key property (paper) |
//! |---|---|---|
//! | `go` | board scan + pseudo-random move evaluation | branchy, low predictability |
//! | `m88ksim` | processor simulator dispatch loop | ~40% predictable deps with DID ≥ 4 |
//! | `gcc` | IR pass over pointer-linked nodes | moderate, large footprint |
//! | `compress` | adaptive LZ hashing loop | low predictability |
//! | `li` | recursive list interpreter | call/return heavy |
//! | `ijpeg` | blocked DCT-style arithmetic | regular, high ILP |
//! | `perl` | anagram/string hashing | mixed |
//! | `vortex` | OO database transactions | >55% predictable deps with DID ≥ 4 |
//! | `mgrid` | multigrid stencil relaxation (SPECfp95, extended suite) | appears on the paper's Figure 5.3 axis |
//!
//! All workloads run as endless outer loops: drive them with
//! [`fetchvp_trace::trace_program`] and an instruction budget, exactly as
//! the paper caps each Shade trace at 100M instructions.
//!
//! # Example
//!
//! ```
//! use fetchvp_trace::trace_program;
//! use fetchvp_workloads::{suite, WorkloadParams};
//!
//! let workloads = suite(&WorkloadParams::default());
//! assert_eq!(workloads.len(), 8);
//! let trace = trace_program(workloads[1].program(), 10_000); // m88ksim
//! assert_eq!(trace.len(), 10_000);
//! ```

mod compress;
pub mod family;
mod gcc;
mod go;
mod ijpeg;
mod li;
mod perl;
pub mod rng;
mod vortex;

mod m88ksim;
mod mgrid;

use fetchvp_isa::Program;

pub use family::{families, family_by_name, FamilyPoint, Knobs, WorkloadFamily};

/// Scaling and seeding parameters shared by all workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadParams {
    /// Seed for the deterministic data generators (input text, boards,
    /// permutations). Two equal seeds produce identical programs.
    pub seed: u64,
    /// Data-size multiplier (tables, input lengths). `1` keeps every
    /// workload's data small enough for fast unit tests.
    pub scale: u32,
}

impl Default for WorkloadParams {
    fn default() -> WorkloadParams {
        WorkloadParams { seed: 0x5EED_1998, scale: 1 }
    }
}

/// A named benchmark program with its SPECint95 counterpart's description
/// (the paper's Table 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    program: Program,
}

impl Workload {
    /// The benchmark's (SPEC) name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The paper's Table 3.1 description of the benchmark being modelled.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The synthetic program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Builds the extended suite: the 8 integer benchmarks plus `mgrid`, the
/// SPECfp stencil kernel that appears on the axis of the paper's
/// Figure 5.3.
pub fn extended_suite(params: &WorkloadParams) -> Vec<Workload> {
    families().iter().map(|family| legacy(family, params)).collect()
}

/// Builds the full 8-benchmark suite in the paper's order.
pub fn suite(params: &WorkloadParams) -> Vec<Workload> {
    let integer = families().into_iter().filter(|family| family.name() != "mgrid");
    integer.map(|family| legacy(&family, params)).collect()
}

/// Builds one workload by name.
///
/// Returns `None` for an unknown name. Valid names are the SPECint95 ones —
/// `go`, `m88ksim`, `gcc`, `compress`, `li`, `ijpeg`, `perl`, `vortex` —
/// plus `mgrid` (see [`extended_suite`]).
pub fn by_name(name: &str, params: &WorkloadParams) -> Option<Workload> {
    family_by_name(name).map(|family| legacy(&family, params))
}

/// A family's legacy benchmark: the family at all-zero knobs.
fn legacy(family: &WorkloadFamily, params: &WorkloadParams) -> Workload {
    Workload {
        name: family.name(),
        description: family.description(),
        program: family.program(params, &Knobs::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_trace::trace_program;

    #[test]
    fn suite_has_eight_benchmarks_in_paper_order() {
        let names: Vec<_> = suite(&WorkloadParams::default()).iter().map(|w| w.name()).collect();
        assert_eq!(names, ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"]);
    }

    #[test]
    fn extended_suite_appends_mgrid() {
        let all = extended_suite(&WorkloadParams::default());
        assert_eq!(all.len(), 9);
        assert_eq!(all.last().unwrap().name(), "mgrid");
    }

    #[test]
    fn by_name_finds_each_benchmark() {
        let p = WorkloadParams::default();
        for name in ["go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "mgrid"] {
            assert_eq!(by_name(name, &p).expect("known name").name(), name);
        }
        assert!(by_name("nonesuch", &p).is_none());
    }

    #[test]
    fn workloads_are_deterministic() {
        let p = WorkloadParams::default();
        let a = suite(&p);
        let b = suite(&p);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.program(), wb.program());
        }
    }

    #[test]
    fn different_seeds_change_data_but_not_structure() {
        let a = suite(&WorkloadParams { seed: 1, scale: 1 });
        let b = suite(&WorkloadParams { seed: 2, scale: 1 });
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.program().len(), wb.program().len(), "{}", wa.name());
        }
    }

    #[test]
    fn every_workload_sustains_a_long_trace() {
        for w in suite(&WorkloadParams::default()) {
            let trace = trace_program(w.program(), 50_000);
            assert_eq!(trace.len(), 50_000, "{} halted early", w.name());
        }
    }

    #[test]
    fn every_workload_touches_all_instruction_classes_needed() {
        for w in suite(&WorkloadParams::default()) {
            let stats = trace_program(w.program(), 50_000).stats();
            assert!(stats.control > 0, "{} has no control flow", w.name());
            assert!(stats.value_producing > 0, "{} produces no values", w.name());
            assert!(
                stats.taken_control_rate() > 0.01,
                "{} has implausibly few taken branches",
                w.name()
            );
        }
    }
}
