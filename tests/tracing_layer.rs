//! Integration tests for the observability layer: the event ring, the
//! `FETCHVP_LOG` filter, the Chrome-trace exporter (via the `trace-viz`
//! runner), determinism across job counts, and the usefulness-attribution
//! identity over the whole benchmark suite.

use fetchvp_core::{IdealConfig, IdealMachine, VpConfig};
use fetchvp_experiments::{traceviz, ExperimentConfig, Sweep};
use fetchvp_metrics::Json;
use fetchvp_tracing::{Event, EventSink, Filter, Lane, Level, Ring};

fn quick() -> ExperimentConfig {
    ExperimentConfig { trace_len: 3_000, ..ExperimentConfig::default() }
}

#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let mut ring = Ring::new(4);
    for ts in 0..10u64 {
        ring.record(Event::instant(Lane::Fetch, ts, "tick", ts, 0));
    }
    assert_eq!(ring.dropped(), 6);
    let kept: Vec<u64> = ring.drain().iter().map(|e| e.ts).collect();
    assert_eq!(kept, [6, 7, 8, 9], "ring must keep the newest events in order");
}

#[test]
fn log_filter_grammar() {
    let f = Filter::parse("warn,server=debug,scheduler=off");
    assert!(f.enabled("anything", Level::Warn));
    assert!(!f.enabled("anything", Level::Info));
    assert!(f.enabled("server.http", Level::Debug));
    assert!(!f.enabled("server.http", Level::Trace));
    // `server` must not prefix-match `serverless`-style targets...
    assert!(!f.enabled("serverless", Level::Debug));
    // ...and an `off` directive silences even errors for its target.
    assert!(!f.enabled("scheduler", Level::Error));
    assert!(!Filter::parse("off").enabled("anything", Level::Error));
}

#[test]
fn trace_viz_emits_valid_chrome_trace_json() {
    let viz =
        traceviz::run_with(&Sweep::serial(&quick()), "compress", None).expect("known workload");
    let doc = Json::parse(&viz.json).expect("output must be valid JSON");
    let Some(Json::Array(events)) = doc.get("traceEvents") else {
        panic!("missing traceEvents array");
    };
    assert!(!events.is_empty());

    // Every event carries the mandatory trace-event fields, and within one
    // thread (lane) the timestamps are monotonically non-decreasing.
    let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut phases = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        phases.insert(ph.to_string());
        if ph == "M" {
            continue; // metadata records have no timestamp
        }
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid field");
        let ts = ev.get("ts").and_then(Json::as_u64).expect("ts field");
        let prev = last_ts.insert(tid, ts).unwrap_or(0);
        assert!(ts >= prev, "tid {tid}: ts {ts} went backwards from {prev}");
    }
    for required in ["M", "X", "i", "C"] {
        assert!(phases.contains(required), "no `{required}` events in {phases:?}");
    }
}

#[test]
fn trace_viz_output_is_identical_across_job_counts() {
    let cfg = quick();
    let viz1 = traceviz::run_with(&Sweep::with_jobs(&cfg, 1), "ijpeg", Some((0, 1_000)))
        .expect("jobs=1 run");
    let viz8 = traceviz::run_with(&Sweep::with_jobs(&cfg, 8), "ijpeg", Some((0, 1_000)))
        .expect("jobs=8 run");
    assert_eq!(viz1.json, viz8.json, "trace-viz JSON must be byte-identical across --jobs");
    assert_eq!(viz1.dropped, viz8.dropped);
}

#[test]
fn usefulness_identity_holds_on_every_workload() {
    // The attribution invariant: every correct prediction is classified
    // exactly once, so useful + useless == predictor.correct — on all nine
    // workloads, at both fetch extremes.
    let sweep = Sweep::serial(&quick());
    for (index, workload) in sweep.cache().workloads(true).iter().enumerate() {
        let trace = sweep.cache().trace(index);
        for fetch_rate in [4, 40] {
            let r = IdealMachine::new(IdealConfig {
                fetch_rate,
                vp: VpConfig::stride_infinite(),
                ..IdealConfig::default()
            })
            .run(&trace);
            let correct = r.vp_stats.as_ref().expect("vp enabled").correct;
            assert_eq!(
                r.usefulness.useful + r.usefulness.useless,
                correct,
                "{} @ fetch-{fetch_rate}: attribution must cover every correct prediction",
                workload.name()
            );
            let metrics = r.metrics();
            assert_eq!(metrics.get_counter("predictor.useful"), Some(r.usefulness.useful));
            assert_eq!(metrics.get_counter("predictor.useless"), Some(r.usefulness.useless));
        }
    }
}
