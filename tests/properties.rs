//! Cross-crate property tests: randomized programs and schedules must
//! uphold the architectural invariants of every layer.

use std::fs::File;
use std::io::BufWriter;

use fetchvp_core::sched::{Scheduler, VpDisposition};
use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
use fetchvp_isa::{AluOp, Cond, Instr, Program, ProgramBuilder, Reg};
use fetchvp_testutil::{for_cases, Rng};
use fetchvp_trace::{trace_program, Trace};
use fetchvp_tracestore::{StoreWriter, TraceStore};

/// A random straight-line program over a handful of registers, closed with
/// a counted loop so it produces a trace of meaningful length.
fn random_program(rng: &mut Rng) -> Program {
    let body = rng.vec_with(1, 40, |rng| {
        let op = *rng.pick(&AluOp::ALL);
        let reg = |rng: &mut Rng| Reg::new(rng.range_u64(1, 8) as u8).expect("in range");
        let (dst, a, b) = (reg(rng), reg(rng), reg(rng));
        let imm = rng.range_i64(-16, 16);
        if imm % 2 == 0 {
            Instr::Alu { op, dst, a, b }
        } else {
            Instr::AluImm { op, dst, a, imm }
        }
    });
    let iters = rng.range_i64(2, 50);
    let mut b = ProgramBuilder::new("random");
    b.load_imm(Reg::R9, iters);
    let head = b.bind_label("head");
    for i in body {
        b.push(i);
    }
    b.alu_imm(AluOp::Sub, Reg::R9, Reg::R9, 1);
    b.branch(Cond::Ne, Reg::R9, Reg::R0, head);
    b.halt();
    b.build().expect("random program assembles")
}

/// The executor is deterministic and the trace is well-formed.
#[test]
fn traces_are_well_formed() {
    for_cases(48, |case, rng| {
        let program = random_program(rng);
        let a = trace_program(&program, 3_000);
        let b = trace_program(&program, 3_000);
        assert_eq!(a, b, "case {case}");
        for (i, rec) in a.iter().enumerate() {
            assert_eq!(rec.seq, i as u64, "case {case}");
            assert!(program.get(rec.pc).is_some(), "case {case}");
        }
        // Consecutive records follow the recorded control flow.
        for i in 1..a.len() {
            assert_eq!(a.slot(i - 1).next_pc(), a.slot(i).pc(), "case {case}");
        }
    });
}

/// Trace serialization (a chunked store) round-trips bit-exactly at any
/// chunk size.
#[test]
fn trace_io_round_trips() {
    let dir = std::env::temp_dir().join(format!("fetchvp-properties-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for_cases(48, |case, rng| {
        let program = random_program(rng);
        let t = trace_program(&program, 1_000);
        for chunk_len in [1, 97, t.len()] {
            let path = dir.join(format!("case-{case}-{chunk_len}.fvps"));
            let out = BufWriter::new(File::create(&path).expect("create store"));
            let mut w = StoreWriter::new(out, t.name(), chunk_len as u64).expect("header");
            for start in (0..t.len()).step_by(chunk_len) {
                w.write_chunk(t.view(), start..(start + chunk_len).min(t.len())).expect("chunk");
            }
            w.finish(t.outcome(), t.columns().instr_table()).expect("footer");
            let loaded = TraceStore::open(&path).and_then(|s| s.to_trace()).expect("read back");
            assert_eq!(t, loaded, "case {case}, chunk_len {chunk_len}");
        }
    });
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// The scheduler respects dataflow: a consumer never executes before an
/// unpredicted producer completes, and stage times are well-ordered.
#[test]
fn scheduler_respects_dataflow() {
    for_cases(48, |case, rng| {
        let program = random_program(rng);
        let fetch_rate = rng.range_usize(1, 40);
        let trace = trace_program(&program, 2_000);
        let mut sched = Scheduler::new(40, Some(fetch_rate));
        let mut last_write: [Option<u64>; 32] = [None; 32]; // complete times
        for rec in trace.view().slots() {
            let t = sched.schedule(rec, (rec.index() / fetch_rate) as u64, VpDisposition::None);
            assert!(t.dispatch < t.execute, "case {case}");
            assert_eq!(t.complete, t.execute + 1, "case {case}");
            for src in rec.srcs().into_iter().flatten() {
                if let Some(ready) = last_write[src.index()] {
                    assert!(
                        t.execute >= ready,
                        "case {case}: consumer at {} executed before producer completed at {}",
                        t.execute,
                        ready
                    );
                }
            }
            if let Some(dst) = rec.dst() {
                last_write[dst.index()] = Some(t.complete);
            }
        }
    });
}

/// Machine-level orderings hold on arbitrary programs: perfect VP is never
/// slower than no VP, and more fetch bandwidth never hurts.
#[test]
fn machine_orderings_hold() {
    for_cases(48, |case, rng| {
        let program = random_program(rng);
        let trace = trace_program(&program, 2_000);
        let cycles = |fetch_rate, vp| {
            IdealMachine::new(IdealConfig { fetch_rate, vp, ..IdealConfig::default() })
                .run(&trace)
                .cycles
        };
        assert!(cycles(16, VpConfig::Perfect) <= cycles(16, VpConfig::None), "case {case}");
        assert!(cycles(32, VpConfig::None) <= cycles(8, VpConfig::None), "case {case}");
        assert!(cycles(32, VpConfig::Perfect) <= cycles(8, VpConfig::Perfect), "case {case}");
    });
}

/// The dependence census agrees between the DFG analyzer and the machine,
/// for any program.
#[test]
fn dep_counts_agree() {
    for_cases(48, |case, rng| {
        let program = random_program(rng);
        let trace = trace_program(&program, 2_000);
        let machine = IdealMachine::new(IdealConfig {
            fetch_rate: 8,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        })
        .run(&trace);
        let dfg = fetchvp_dfg::analyze(&trace);
        assert_eq!(machine.deps.total, dfg.arcs, "case {case}");
    });
}

/// Non-random regression: an empty-bodied loop exercises the degenerate
/// paths of every property above.
#[test]
fn tight_loop_degenerate_case() {
    let mut b = ProgramBuilder::new("tight");
    b.load_imm(Reg::R9, 100);
    let head = b.bind_label("head");
    b.alu_imm(AluOp::Sub, Reg::R9, Reg::R9, 1);
    b.branch(Cond::Ne, Reg::R9, Reg::R0, head);
    b.halt();
    let program = b.build().unwrap();
    let trace: Trace = trace_program(&program, 10_000);
    assert_eq!(trace.len(), 1 + 100 * 2);
}

/// The columnar trace representation round-trips exactly: rebuilding
/// `TraceColumns` from the record iterator and reading every slot back
/// reproduces the original records — accessors included — on all nine
/// workloads of the extended suite.
#[test]
fn trace_columns_round_trip_records() {
    use fetchvp_trace::{DynInstr, TraceColumns};
    use fetchvp_workloads::{extended_suite, WorkloadParams};

    for workload in extended_suite(&WorkloadParams::default()) {
        let trace = trace_program(workload.program(), 4_000);
        let records: Vec<DynInstr> = trace.iter().collect();
        let cols = TraceColumns::from_records(&records);
        assert_eq!(cols.len(), records.len(), "{}", workload.name());
        for (i, rec) in records.iter().enumerate() {
            let slot = cols.slot(i);
            assert_eq!(slot.to_record(), *rec, "{} slot {i}", workload.name());
            assert_eq!(slot.dst(), rec.dst(), "{} slot {i}", workload.name());
            assert_eq!(slot.srcs(), rec.srcs(), "{} slot {i}", workload.name());
            assert_eq!(slot.is_control(), rec.is_control(), "{} slot {i}", workload.name());
            assert_eq!(slot.is_cond_branch(), rec.is_cond_branch(), "{} slot {i}", workload.name());
            assert_eq!(slot.produces_value(), rec.produces_value(), "{} slot {i}", workload.name());
        }
        // The view iterator agrees with per-index access.
        for (i, slot) in cols.view().slots().enumerate() {
            assert_eq!(slot.index(), i, "{}", workload.name());
            assert_eq!(slot.to_record(), records[i], "{}", workload.name());
        }
    }
}
