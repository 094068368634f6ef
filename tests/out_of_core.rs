//! Disk-backed sweeps: the content-addressed trace cache generates each
//! store once and a warm cache regenerates nothing, and crossing the
//! in-memory trace-length bound without a trace directory — or with a
//! runner that needs whole resident traces — is an explicit panic, not an
//! OOM. (That walking stored sources leaves every output byte-identical is
//! the windowed axis of `tests/golden_identity.rs`.)

use std::path::PathBuf;
use std::sync::Arc;

use fetchvp_experiments::{
    bench, breakdown, fig3_1, fig3_3, ExperimentConfig, Sweep, MAX_IN_MEMORY_TRACE_LEN,
};
use fetchvp_tracestore::{stream_store_stats, TraceDir, TraceStore};

/// A unique scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fetchvp-ooc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn small_config() -> ExperimentConfig {
    ExperimentConfig { trace_len: 2000, ..ExperimentConfig::default() }
}

#[test]
fn disk_backed_sweeps_generate_once_and_stay_warm() {
    let cfg = small_config();
    let root = scratch("fig31");

    // Cold disk cache: every trace generated to disk once.
    let cold_dir = Arc::new(TraceDir::new(&root));
    let cold_sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&cold_dir)), 1);
    fig3_1::run_with(&cold_sweep);
    assert_eq!(cold_sweep.cache().generated(), 8, "one store per suite workload");
    let counters = cold_dir.counters();
    assert!(counters.misses > 0 && counters.hits == 0, "cold cache generates: {counters:?}");
    assert!(counters.bytes > 0);

    // Warm cache, fresh process state: zero generation, all hits.
    let warm_dir = Arc::new(TraceDir::new(&root));
    let warm_sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&warm_dir)), 1);
    fig3_1::run_with(&warm_sweep);
    assert_eq!(warm_sweep.cache().generated(), 0, "warm cache must not regenerate");
    let counters = warm_dir.counters();
    assert_eq!(counters.misses, 0, "{counters:?}");
    assert!(counters.hits > 0, "{counters:?}");
    assert_eq!(counters.bytes, 0, "no bytes written when warm");

    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
fn per_workload_stores_cover_the_full_trace() {
    let cfg = small_config();
    let root = scratch("stores");
    let dir = Arc::new(TraceDir::new(&root));
    let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::clone(&dir)), 1);
    // The one cell driver hands every cell its workload's source; with a
    // trace directory, each is generated through the workload's store.
    let resident = sweep.cells_extended(&[()], |workload, source, ()| {
        assert_eq!(source.len(), cfg.trace_len);
        let trace = source.resident().expect("sources within the bound are resident");
        assert_eq!(trace.name(), workload.name());
        trace.stats()
    });
    assert_eq!(resident.len(), sweep.cache().workloads(true).len());
    for (index, (name, stats)) in resident.into_iter().enumerate() {
        let store = TraceStore::open(dir.path_for(&sweep.cache().key(index))).expect("stored");
        assert_eq!(store.name(), name);
        assert_eq!(store.len(), cfg.trace_len);
        // Stats streamed from the store equal those of the trace the
        // cell walked.
        assert_eq!(stream_store_stats(&store).expect("streamed stats"), stats[0], "{name}");
    }
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
fn bench_reports_trace_cache_counters_only_when_disk_backed() {
    let cfg = small_config();
    let in_memory = bench::run_with(&Sweep::with_jobs(&cfg, 1), true);
    assert!(in_memory.trace_cache.is_none(), "no counters without a trace dir");
    // (`trace_cache` still appears deeper in the JSON as a *machine*
    // label — only the top-level counter section must be absent.)
    assert!(in_memory.to_json().get("trace_cache").is_none());

    let root = scratch("bench");
    let sweep = Sweep::with_trace_dir(&cfg, Some(Arc::new(TraceDir::new(&root))), 1);
    let report = bench::run_with(&sweep, true);
    let counters = report.trace_cache.expect("disk-backed bench reports counters");
    assert!(counters.misses > 0);
    let json = report.to_json();
    assert_eq!(
        json.get_path("trace_cache.misses").and_then(fetchvp_metrics::Json::as_u64),
        Some(counters.misses),
        "report JSON carries the counters"
    );
    std::fs::remove_dir_all(&root).expect("remove scratch dir");
}

#[test]
#[should_panic(expected = "exceeds the in-memory limit")]
fn materializing_an_out_of_core_trace_panics_with_the_limit() {
    let cfg =
        ExperimentConfig { trace_len: MAX_IN_MEMORY_TRACE_LEN + 1, ..ExperimentConfig::default() };
    // The assert fires before any generation, so this is instant.
    Sweep::with_jobs(&cfg, 1).cache().trace(0);
}

#[test]
#[should_panic(expected = "limit of 8000000 instructions, and this runner needs whole resident")]
fn resident_only_runner_over_the_bound_fails_naming_the_bound() {
    let cfg =
        ExperimentConfig { trace_len: MAX_IN_MEMORY_TRACE_LEN + 1, ..ExperimentConfig::default() };
    // Even with a trace directory: the event-machine oracle needs whole
    // traces in memory. The check fires before any generation, so this
    // is instant and leaves the directory uncreated.
    let dir = Arc::new(TraceDir::new(scratch("resident-only")));
    breakdown::run_with(&Sweep::with_trace_dir(&cfg, Some(dir), 1));
}

#[test]
#[should_panic(expected = "--trace-dir")]
fn out_of_core_replay_without_a_trace_dir_panics_with_the_fix() {
    let cfg =
        ExperimentConfig { trace_len: MAX_IN_MEMORY_TRACE_LEN + 1, ..ExperimentConfig::default() };
    fig3_3::run_with(&Sweep::with_jobs(&cfg, 1));
}
