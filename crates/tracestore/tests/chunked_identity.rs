//! The central acceptance property: chunked out-of-core replay is
//! *byte-identical* to the in-memory batch path — same `MachineResult`s,
//! same metrics JSON — at 1M instructions, across five configurations
//! spanning the paper's machine space; and a resident and a stored
//! [`TraceSource`] of one trace walk the same windows to the same results.

mod common;

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use common::Scratch;
use fetchvp_core::{
    run_batch, BatchRunner, BtbKind, FrontEnd, IdealConfig, MachineConfig, RealisticConfig,
    VpConfig,
};
use fetchvp_fetch::TraceCacheConfig;
use fetchvp_predictor::BankedConfig;
use fetchvp_trace::{trace_program, StatsAccum};
use fetchvp_tracestore::{
    run_batch_source, run_batch_store, stream_store_stats, write_store, TraceSource, TraceStore,
};
use fetchvp_workloads::{by_name, WorkloadParams};

/// Five configurations spanning the machine space: ideal with and without
/// value prediction, conventional fetch, trace cache, and the banked
/// predictor front-end.
fn spanning_configs() -> Vec<MachineConfig> {
    let conv = FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::Perfect };
    let tc =
        FrontEnd::TraceCache { config: TraceCacheConfig::paper(), btb: BtbKind::two_level_paper() };
    vec![
        MachineConfig::Ideal(IdealConfig { fetch_rate: 16, ..IdealConfig::default() }),
        MachineConfig::Ideal(IdealConfig {
            fetch_rate: 16,
            vp: VpConfig::stride_infinite(),
            ..IdealConfig::default()
        }),
        MachineConfig::Realistic(RealisticConfig::paper(conv, VpConfig::None)),
        MachineConfig::Realistic(RealisticConfig::paper(tc, VpConfig::stride_infinite())),
        MachineConfig::Realistic(
            RealisticConfig::paper(tc, VpConfig::stride_infinite())
                .with_banked(BankedConfig::new(2)),
        ),
    ]
}

#[test]
fn chunked_replay_metrics_json_is_byte_identical_at_1m() {
    let scratch = Scratch::new("identity");
    let params = WorkloadParams::default();
    let w = by_name("m88ksim", &params).expect("m88ksim in suite");
    let trace = trace_program(w.program(), 1_000_000);
    assert_eq!(trace.len(), 1_000_000);

    // Small chunks force many boundary crossings (and many lookahead
    // windows) without changing the result.
    let path = scratch.file("m88ksim-1m.fvps");
    write_store(&trace, 1 << 16, BufWriter::new(File::create(&path).unwrap())).unwrap();
    let store = TraceStore::open(&path).unwrap();
    assert_eq!(store.chunks().len(), 1_000_000usize.div_ceil(1 << 16));

    let configs = spanning_configs();
    let in_memory = run_batch(&trace, &configs);
    let chunked = run_batch_store(&store, &configs).unwrap();
    assert_eq!(in_memory.len(), chunked.len());
    for (cfg, (mem, ooc)) in configs.iter().zip(in_memory.iter().zip(&chunked)) {
        assert_eq!(mem, ooc, "results diverge for {cfg:?}");
        let mem_json = mem.metrics().to_json().to_json();
        let ooc_json = ooc.metrics().to_json().to_json();
        assert_eq!(mem_json, ooc_json, "metrics JSON diverges for {cfg:?}");
    }
}

#[test]
fn chunked_replay_is_identical_at_degenerate_chunk_sizes() {
    // One-instruction chunks maximize window churn; a single whole-trace
    // chunk exercises the no-lookahead-needed path; the resident source is
    // one whole-trace window.
    let scratch = Scratch::new("identity-degenerate");
    let params = WorkloadParams::default();
    let w = by_name("compress", &params).expect("compress in suite");
    let trace = Arc::new(trace_program(w.program(), 3_000));
    let configs = spanning_configs();
    let lookahead = BatchRunner::new(&configs).lookahead();
    assert!(lookahead > 0, "the realistic configs fetch ahead");
    let in_memory = run_batch(&trace, &configs);
    let stats = trace.stats();
    let mut sources = vec![("resident".to_string(), TraceSource::Resident(Arc::clone(&trace)))];
    for chunk_len in [1usize, 97, trace.len()] {
        let path = scratch.file(&format!("compress-{chunk_len}.fvps"));
        write_store(&trace, chunk_len, BufWriter::new(File::create(&path).unwrap())).unwrap();
        let store = TraceStore::open(&path).unwrap();
        let chunked = run_batch_store(&store, &configs).unwrap();
        assert_eq!(in_memory, chunked, "diverged at chunk_len={chunk_len}");
        assert_eq!(stream_store_stats(&store).unwrap(), stats, "chunk_len={chunk_len}");
        sources.push((format!("chunk_len={chunk_len}"), TraceSource::Stored(Arc::new(store))));
    }
    for (tag, source) in &sources {
        // The windows tile 0..len exactly once, in order, and each view
        // starts at its window and reaches min(end + lookahead, len).
        let mut windows = 0;
        let mut next = 0;
        source
            .walk(lookahead, |view, range, store_chunk| {
                assert_eq!(store_chunk, windows, "{tag}: windows come in chunk order");
                assert_eq!(range.start, next, "{tag}: window {windows} leaves a gap");
                assert!(range.end > range.start, "{tag}: empty window {windows}");
                assert_eq!(view.base(), range.start, "{tag}: view {windows} starts elsewhere");
                let reach = (range.end + lookahead).min(trace.len());
                assert!(view.len() >= reach, "{tag}: view {windows} stops short of {reach}");
                windows += 1;
                next = range.end;
            })
            .unwrap();
        assert_eq!(next, trace.len(), "{tag}: windows stop short of the trace");
        let chunks = match source {
            TraceSource::Resident(_) => 1,
            TraceSource::Stored(store) => store.chunks().len(),
        };
        assert_eq!(windows, chunks, "{tag}: one window per on-disk chunk");
        assert_eq!(run_batch_source(source, &configs, None).unwrap(), in_memory, "{tag}");
        let mut accum = StatsAccum::new();
        source.for_each_slot(|slot| accum.push(slot)).unwrap();
        assert_eq!(accum.finish(), stats, "{tag}");
    }
}
