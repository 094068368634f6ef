//! Differential test for the batch simulation kernel: every machine
//! configuration run through [`fetchvp_core::run_batch`] alongside others
//! must produce counters byte-identical to the same configuration run
//! alone through its serial machine — on all nine workloads of the
//! extended suite, at `--jobs 1` and `--jobs 8`.
//!
//! The comparison surface is the deterministic metrics JSON of each
//! [`MachineResult`]: any divergence in cycles, predictor counters,
//! front-end statistics or usefulness attribution changes the bytes.

use fetchvp_core::{
    run_batch, BtbKind, FrontEnd, IdealConfig, IdealMachine, MachineConfig, MachineResult,
    PredictorKind, RealisticConfig, RealisticMachine, VpConfig,
};
use fetchvp_experiments::{ExperimentConfig, Sweep};
use fetchvp_fetch::{BacConfig, TraceCacheConfig};
use fetchvp_predictor::{BankedConfig, ConfidenceConfig, StrideKind, TableGeometry};
use fetchvp_trace::Trace;
use fetchvp_tracestore::TraceSource;

/// A config set spanning every pipeline variant the kernel batches: ideal
/// front-ends at two widths, and realistic ones over the conventional,
/// banked-table, branch-address-cache and trace-cache paths.
fn spanning_configs() -> Vec<MachineConfig> {
    let btb = BtbKind::two_level_paper();
    vec![
        MachineConfig::Ideal(IdealConfig { fetch_rate: 4, ..IdealConfig::default() }),
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: 40,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        }),
        MachineConfig::Realistic(
            RealisticConfig::paper(
                FrontEnd::Conventional { width: 40, max_taken: Some(4), btb },
                VpConfig::stride_infinite(),
            )
            .with_banked(BankedConfig::default()),
        ),
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::BranchAddressCache { config: BacConfig::classic(), btb },
            VpConfig::stride_infinite(),
        )),
        MachineConfig::Realistic(RealisticConfig::paper(
            FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb },
            VpConfig::None,
        )),
    ]
}

/// The serial reference: each config alone on its own machine, no
/// batching anywhere in the cell.
fn serial_metrics(cfg: &ExperimentConfig, configs: &[MachineConfig]) -> Vec<(String, Vec<String>)> {
    Sweep::serial(cfg)
        .cells_extended(configs, |_, source, c| match *c {
            MachineConfig::Ideal(ic) => {
                IdealMachine::new(ic).run(resident(source)).metrics().to_json()
            }
            MachineConfig::Realistic(rc) => {
                RealisticMachine::new(rc).run(resident(source)).metrics().to_json()
            }
        })
        .into_iter()
        .map(|(name, cells)| (name.to_string(), cells.iter().map(|j| j.to_json()).collect()))
        .collect()
}

#[test]
fn batch_counters_match_serial_bytes_on_every_workload_and_job_count() {
    let cfg = ExperimentConfig { trace_len: 8_000, ..ExperimentConfig::default() };
    let configs = spanning_configs();
    let reference = serial_metrics(&cfg, &configs);
    assert_eq!(reference.len(), 9, "the extended suite has nine workloads");

    for jobs in [1usize, 8] {
        let batched: Vec<(String, Vec<String>)> = Sweep::with_jobs(&cfg, jobs)
            .machines_extended(&configs)
            .into_iter()
            .map(|(name, results)| {
                (
                    name.to_string(),
                    results.iter().map(|r| r.metrics().to_json().to_json()).collect(),
                )
            })
            .collect();
        assert_eq!(batched.len(), reference.len());
        for ((ref_name, ref_cells), (name, cells)) in reference.iter().zip(&batched) {
            assert_eq!(ref_name, name, "jobs={jobs}: workload order changed");
            assert_eq!(ref_cells.len(), cells.len(), "{name}: result count");
            for (i, (a, b)) in ref_cells.iter().zip(cells).enumerate() {
                assert_eq!(
                    a, b,
                    "jobs={jobs}, workload={name}, config #{i}: batch metrics diverged from serial"
                );
            }
        }
    }
}

#[test]
fn batching_is_insensitive_to_companions() {
    // A config's result must not depend on what it is batched with: run
    // the same config in two different batch mixes and compare bytes.
    let cfg = ExperimentConfig { trace_len: 8_000, ..ExperimentConfig::default() };
    let probe = MachineConfig::Ideal(IdealConfig {
        fetch_rate: 16,
        vp: VpConfig::stride_infinite(),
        ..IdealConfig::default()
    });
    let mut mix_a = vec![probe];
    mix_a.extend(spanning_configs());
    let mix_b = vec![probe; 3];

    let sweep = Sweep::serial(&cfg);
    let a: Vec<String> = sweep
        .machines(&mix_a)
        .into_iter()
        .map(|(_, r)| r[0].metrics().to_json().to_json())
        .collect();
    let b: Vec<String> = sweep
        .machines(&mix_b)
        .into_iter()
        .map(|(_, r)| r[2].metrics().to_json().to_json())
        .collect();
    assert_eq!(a, b, "companion configs leaked into the probe's counters");
}

/// Every value-prediction mode a value stream can serve.
fn stream_modes() -> Vec<VpConfig> {
    let paper = ConfidenceConfig::paper();
    let stride = |geometry, kind| {
        VpConfig::Predictor(PredictorKind::Stride { geometry, confidence: paper, kind })
    };
    vec![
        stride(TableGeometry::Infinite, StrideKind::Simple),
        stride(TableGeometry::Infinite, StrideKind::TwoDelta),
        VpConfig::Predictor(PredictorKind::LastValue {
            geometry: TableGeometry::Infinite,
            confidence: paper,
        }),
        VpConfig::Predictor(PredictorKind::Hybrid),
        VpConfig::Predictor(PredictorKind::Fcm { confidence: paper }),
        stride(TableGeometry::DirectMapped { index_bits: 4 }, StrideKind::Simple),
        VpConfig::Perfect,
        VpConfig::None,
    ]
}

/// The whole in-memory trace the serial machines walk (every length in
/// this file is within the in-memory limit).
fn resident(source: &TraceSource) -> &Trace {
    source.resident().expect("resident within the in-memory limit")
}

fn serial_run(config: &MachineConfig, trace: &Trace) -> MachineResult {
    match *config {
        MachineConfig::Ideal(ic) => IdealMachine::new(ic).run(trace),
        MachineConfig::Realistic(rc) => RealisticMachine::new(rc).run(trace),
    }
}

#[test]
fn shared_value_streams_match_serial_bytes_in_one_spanning_batch() {
    // One batch (no chunking) in which every value stream serves two ideal
    // and two non-banked realistic pipelines, plus banked pipelines whose
    // `VpConfig` equals a stream's — they must keep a private front-end.
    let conv = FrontEnd::Conventional { width: 40, max_taken: Some(2), btb: BtbKind::Perfect };
    let tc = FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::Perfect };
    let mut configs: Vec<MachineConfig> = stream_modes()
        .into_iter()
        .flat_map(|vp| {
            [
                MachineConfig::Ideal(IdealConfig { fetch_rate: 4, vp, ..IdealConfig::default() }),
                MachineConfig::Realistic(RealisticConfig::paper(conv, vp)),
                MachineConfig::Ideal(IdealConfig { fetch_rate: 32, vp, ..IdealConfig::default() }),
                MachineConfig::Realistic(RealisticConfig::paper(tc, vp)),
            ]
        })
        .collect();
    let banked = RealisticConfig::paper(tc, VpConfig::stride_infinite());
    configs.push(MachineConfig::Realistic(banked.with_banked(BankedConfig::new(2))));
    configs.push(MachineConfig::Realistic(banked.with_banked(BankedConfig::default())));

    let cfg = ExperimentConfig { trace_len: 6_000, ..ExperimentConfig::default() };
    let per_workload = Sweep::serial(&cfg).cells_extended(&[()], |w, source, _| {
        let trace = resident(source);
        let batch = run_batch(trace, &configs);
        for (i, (config, batched)) in configs.iter().zip(&batch).enumerate() {
            let serial = serial_run(config, trace).metrics().to_json().to_json();
            let batched_json = batched.metrics().to_json().to_json();
            assert_eq!(serial, batched_json, "{}: config #{i} {config:?} diverged", w.name());
        }
        // Pipelines of one stream report the stream's statistics.
        for group in batch[..configs.len() - 2].chunks(4) {
            assert!(group.iter().all(|r| r.vp_stats == group[0].vp_stats));
        }
        let n = batch.len();
        (batch[0].vp_stats, batch[n - 2].vp_stats, batch[n - 2].banked_stats)
    });
    assert_eq!(per_workload.len(), 9);
    // The 2-bank front-end denies lookups somewhere, so a banked pipeline
    // that wrongly joined the stride stream would have shown up above; make
    // sure the suite actually exercises that difference.
    let diverged = per_workload.iter().any(|(_, cells)| {
        let (stream, banked, router) = cells[0];
        router.expect("banked stats").denied > 0 && stream != banked
    });
    assert!(diverged, "no workload separated the banked path from the shared stream");
}
