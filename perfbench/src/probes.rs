//! Layer probes: each times one layer's public entry point in a loop over
//! a workload's own trace, with the layer's fixed paper configuration, and
//! divides by a count of that layer's events.
//!
//! | probe | call | event |
//! |---|---|---|
//! | `trace.gen` | `trace_program` | instruction |
//! | `tracestore.encode` | `StoreWriter::write_chunk` + `finish` | instruction |
//! | `tracestore.decode` | `ChunkCursor::load_window`, every chunk | instruction |
//! | `fetch.conventional` | `FetchEngine::fetch`, width 40, n = 4, 2-level BTB | instruction |
//! | `fetch.trace_cache` | `FetchEngine::fetch`, paper trace cache, 2-level BTB | instruction |
//! | `predictor.stride` | `ValuePredictor::lookup` + `commit` | lookup |
//! | `predictor.banked` | `BankedFrontEnd::predict_group` + `commit`, 16 banks | fetch group |
//! | `core.sched` | `Scheduler::schedule`, fetch-16, stride dispositions | instruction |
//!
//! Every loop repeats until it has run for [`MIN_PROBE`], so short traces
//! still give a steady rate. The probes run only in the traced run. Their
//! sum is an estimate, never a decomposition: [`Layers::estimate_ns`]
//! prices a `run_batch` call from the probe rates, and the gap to the
//! call's real time is reported as `core.batch.residual_frac`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fetchvp_bpred::TwoLevelBtb;
use fetchvp_core::sched::{Scheduler, VpDisposition};
use fetchvp_core::{BatchRunner, FrontEnd, MachineConfig, MachineResult, ProgressSink, VpConfig};
use fetchvp_fetch::{ConventionalFetch, FetchEngine, TraceCacheConfig, TraceCacheFetch};
use fetchvp_predictor::{BankedConfig, ValuePredictor};
use fetchvp_trace::{trace_program, ExecOutcome, TraceView};
use fetchvp_tracestore::{StoreWriter, TraceStore};
use fetchvp_workloads::Workload;

use crate::report::Outcome;
use crate::spans::Tracer;

/// Minimum time each probe loop runs.
pub const MIN_PROBE: Duration = Duration::from_millis(30);

/// Runs `f` until [`MIN_PROBE`] has elapsed; returns nanoseconds per call.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < MIN_PROBE {
        f();
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// One benchmark trace the probes walk.
#[derive(Clone, Copy)]
pub struct ProbeInput<'a> {
    /// The benchmark (its program drives the generation probe).
    pub workload: &'a Workload,
    /// The trace, starting at logical index 0.
    pub view: TraceView<'a>,
    /// The interned instruction table `view`'s rows index into.
    pub table: &'a [fetchvp_isa::Instr],
    /// The benchmark's on-disk store, when the workload has one; other
    /// workloads encode `view` into a scratch store for the decode probe.
    pub store: Option<&'a TraceStore>,
}

/// One benchmark's probe rates (nanoseconds per event) and event counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rates {
    /// Instructions walked.
    pub instrs: u64,
    /// Value-producing instructions (stride lookups).
    pub producers: u64,
    /// Trace-cache fetch groups (banked-table accesses).
    pub tc_groups: u64,
    /// Conventional fetch groups.
    pub conv_groups: u64,
    /// Generation, per instruction.
    pub gen: f64,
    /// Encoding, per instruction.
    pub encode: f64,
    /// Encoded bytes per instruction.
    pub bytes: f64,
    /// Decoding, per instruction.
    pub decode: f64,
    /// Conventional fetch, per instruction.
    pub conv: f64,
    /// Trace-cache fetch, per instruction.
    pub tc: f64,
    /// Stride lookup + commit, per lookup.
    pub stride: f64,
    /// Banked front-end, per fetch group.
    pub banked: f64,
    /// Scheduler, per instruction.
    pub sched: f64,
    /// Conditional and unconditional control transfers predicted.
    pub bpred_predictions: u64,
    /// …of which correctly.
    pub bpred_correct: u64,
    /// Banked slots presented.
    pub banked_slots: u64,
    /// …of which denied by a bank conflict.
    pub banked_denied: u64,
}

/// Probe rates of every benchmark a run visited, plus the run-level
/// layer measurements.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Rates by benchmark name.
    pub rates: BTreeMap<String, Rates>,
}

fn stride_predictor() -> Box<dyn ValuePredictor> {
    match VpConfig::stride_infinite() {
        VpConfig::Predictor(kind) => kind.build(),
        _ => unreachable!("stride_infinite is a predictor configuration"),
    }
}

/// Walks `view` with `engine`, returning each group's length.
fn walk(engine: &mut dyn FetchEngine, view: TraceView<'_>) -> Vec<u32> {
    let mut lens = Vec::new();
    let mut pos = 0;
    while pos < view.len() {
        let len = engine.fetch(view, pos, 40).len.max(1);
        lens.push(len as u32);
        pos += len;
    }
    lens
}

/// Encodes `view` as a store into `out`, in `chunk`-instruction chunks.
fn encode<W: io::Write>(
    input: &ProbeInput<'_>,
    chunk: usize,
    out: W,
) -> io::Result<fetchvp_tracestore::StoreSummary> {
    let mut writer = StoreWriter::new(out, input.workload.name(), chunk as u64)?;
    let mut start = 0;
    while start < input.view.len() {
        let end = (start + chunk).min(input.view.len());
        writer.write_chunk(input.view, start..end)?;
        start = end;
    }
    writer.finish(ExecOutcome::LimitReached, input.table)
}

/// Stride lookup + commit over every value producer of `view`, in order,
/// returning each slot's disposition.
fn stride_dispositions(view: TraceView<'_>) -> Vec<VpDisposition> {
    let mut predictor = stride_predictor();
    view.slots()
        .map(|s| {
            if !s.produces_value() {
                return VpDisposition::None;
            }
            let predicted = predictor.lookup(s.pc());
            predictor.commit(s.pc(), s.result(), predicted);
            match predicted {
                None => VpDisposition::None,
                Some(v) if v == s.result() => VpDisposition::Correct,
                Some(_) => VpDisposition::Wrong,
            }
        })
        .collect()
}

/// Decodes every chunk of `store` once, window by window.
fn decode_all(store: &TraceStore) -> io::Result<u64> {
    let mut cursor = store.cursor()?;
    let mut rows = 0;
    for (k, meta) in store.chunks().iter().enumerate() {
        cursor.load_window(k, meta.start + meta.len as u64)?;
        rows += meta.len as u64;
        black_box(cursor.view().len());
    }
    Ok(rows)
}

/// Nanoseconds per instruction to decode every chunk of the benchmark's
/// store, encoding `view` to a scratch store first when there is none.
fn decode_rate(input: &ProbeInput<'_>, chunk: usize, scratch: &Path, out: &mut Outcome) -> f64 {
    let name = input.workload.name();
    let timed = |store: &TraceStore| -> io::Result<f64> {
        let mut rows = 0;
        let mut result = Ok(());
        let ns = per_call(|| match decode_all(store) {
            Ok(n) => rows = n,
            Err(e) => result = Err(e),
        });
        result.map(|()| ns / rows.max(1) as f64)
    };
    let rate = match input.store {
        Some(store) => timed(store),
        None => (|| {
            let path = scratch.join(format!("probe-{name}.fvps"));
            encode(input, chunk, BufWriter::new(std::fs::File::create(&path)?))?;
            let rate = timed(&TraceStore::open(&path)?);
            std::fs::remove_file(&path)?;
            rate
        })(),
    };
    out.check(rate.is_ok(), || format!("probe: decoding {name}: {rate:?}"));
    rate.unwrap_or(0.0)
}

impl Layers {
    /// Runs every probe over one benchmark, each inside its own span.
    /// Failures (I/O on the scratch store) count against `out`.
    pub fn probe(
        &mut self,
        input: ProbeInput<'_>,
        scratch: &Path,
        tracer: &Tracer,
        out: &mut Outcome,
    ) {
        let view = input.view;
        let name = input.workload.name();
        let n = view.len() as u64;
        let mut r = Rates {
            instrs: n,
            producers: view.slots().filter(|s| s.produces_value()).count() as u64,
            ..Rates::default()
        };

        r.gen = tracer.span("probe.trace.gen", name, || {
            per_call(|| {
                black_box(trace_program(input.workload.program(), n));
            })
        }) / n as f64;

        let chunk = fetchvp_tracestore::DEFAULT_CHUNK_LEN.min(view.len().max(1));
        let encoded = tracer.span("probe.tracestore.encode", name, || {
            let mut bytes = 0;
            let ns = per_call(|| match encode(&input, chunk, io::sink()) {
                Ok(summary) => bytes = summary.bytes,
                Err(_) => bytes = 0,
            });
            (ns, bytes)
        });
        r.encode = encoded.0 / n as f64;
        r.bytes = encoded.1 as f64 / n as f64;
        out.check(encoded.1 > 0, || format!("probe: encoding {name} failed"));

        r.decode = tracer
            .span("probe.tracestore.decode", name, || decode_rate(&input, chunk, scratch, out));

        let conv_lens = tracer.span("probe.fetch.conventional", name, || {
            let mut lens = Vec::new();
            let mut stats = None;
            let ns = per_call(|| {
                let mut engine = ConventionalFetch::new(40, Some(4), TwoLevelBtb::paper());
                lens = walk(&mut engine, view);
                stats = Some(engine.bpred_stats());
            });
            let stats = stats.unwrap_or_default();
            r.bpred_predictions = stats.predictions;
            r.bpred_correct = stats.correct;
            r.conv = ns / n as f64;
            lens
        });
        r.conv_groups = conv_lens.len() as u64;

        let tc_lens = tracer.span("probe.fetch.trace_cache", name, || {
            let mut lens = Vec::new();
            r.tc = per_call(|| {
                let mut engine =
                    TraceCacheFetch::new(TraceCacheConfig::paper(), TwoLevelBtb::paper());
                lens = walk(&mut engine, view);
            }) / n as f64;
            lens
        });
        r.tc_groups = tc_lens.len() as u64;

        // Like the pipeline, the stride probe turns each prediction into a
        // disposition; the scheduler probe is fed them.
        let dispositions = tracer.span("probe.predictor.stride", name, || {
            let mut dispositions = Vec::new();
            r.stride =
                per_call(|| dispositions = stride_dispositions(view)) / r.producers.max(1) as f64;
            dispositions
        });

        tracer.span("probe.predictor.banked", name, || {
            let mut stats = Default::default();
            r.banked = per_call(|| {
                let mut fe = fetchvp_predictor::BankedFrontEnd::new(
                    BankedConfig::new(fetchvp_experiments::fig5_3::BANKS),
                    stride_predictor(),
                );
                let mut pcs = Vec::new();
                let mut start = 0usize;
                for &len in &tc_lens {
                    let group = start..start + len as usize;
                    pcs.clear();
                    pcs.extend(
                        view.slots_in(group.clone()).filter(|s| s.produces_value()).map(|s| s.pc()),
                    );
                    let outcomes = fe.predict_group(&pcs);
                    let producers = view.slots_in(group).filter(|s| s.produces_value());
                    for (s, o) in producers.zip(&outcomes) {
                        fe.commit(s.pc(), s.result(), o.prediction);
                    }
                    start += len as usize;
                }
                stats = fe.banked_stats();
            }) / r.tc_groups.max(1) as f64;
            r.banked_slots = stats.slots;
            r.banked_denied = stats.denied;
        });

        r.sched = tracer.span("probe.core.sched", name, || {
            per_call(|| {
                let mut sched = Scheduler::new(40, Some(16));
                for (s, &d) in view.slots().zip(&dispositions) {
                    black_box(sched.schedule(s, (s.index() / 16) as u64, d));
                }
                sched.finish();
                black_box(sched.stats());
            }) / n as f64
        });

        self.rates.insert(name.to_string(), r);
    }

    /// The probe-priced cost of one `run_batch` (or, with `decode`,
    /// `run_batch_store`) call over `instrs` instructions of `bench`, in
    /// nanoseconds: per configuration, the fetch engine it uses, its value
    /// path and the scheduler.
    pub fn estimate_ns(
        &self,
        bench: &str,
        configs: &[MachineConfig],
        instrs: u64,
        decode: bool,
    ) -> f64 {
        let Some(r) = self.rates.get(bench) else { return 0.0 };
        let n = instrs as f64;
        let scale = n / r.instrs.max(1) as f64;
        let lookups = r.producers as f64 * scale;
        let groups = r.tc_groups as f64 * scale;
        let mut ns = if decode { r.decode * n } else { 0.0 };
        for config in configs {
            ns += r.sched * n;
            let (vp, fetch, banked) = match config {
                MachineConfig::Ideal(c) => (c.vp, 0.0, false),
                MachineConfig::Realistic(c) => {
                    let fetch = match c.front_end {
                        FrontEnd::TraceCache { .. } => r.tc * n,
                        _ => r.conv * n,
                    };
                    (c.vp, fetch, c.banked.is_some())
                }
            };
            ns += fetch;
            if let VpConfig::Predictor(_) = vp {
                ns += if banked { r.banked * groups } else { r.stride * lookups };
            }
        }
        ns
    }

    /// The per-layer metrics the probes determine, as sums of time over
    /// sums of events across every probed benchmark.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: &dyn Fn(&Rates) -> f64| self.rates.values().map(f).sum::<f64>();
        let instrs = sum(&|r| r.instrs as f64).max(1.0);
        let weighted = |f: &dyn Fn(&Rates) -> f64| sum(&|r| f(r) * r.instrs as f64) / instrs;
        let lookups = sum(&|r| r.producers as f64).max(1.0);
        let groups = sum(&|r| r.tc_groups as f64).max(1.0);
        vec![
            ("trace.gen_ns_per_instr", weighted(&|r| r.gen)),
            ("tracestore.encode_ns_per_instr", weighted(&|r| r.encode)),
            ("tracestore.bytes_per_instr", weighted(&|r| r.bytes)),
            ("tracestore.decode_ns_per_instr", weighted(&|r| r.decode)),
            ("fetch.conventional_ns_per_instr", weighted(&|r| r.conv)),
            ("fetch.trace_cache_ns_per_instr", weighted(&|r| r.tc)),
            ("fetch.instrs_per_group", instrs / sum(&|r| r.conv_groups as f64).max(1.0)),
            (
                "bpred.accuracy",
                sum(&|r| r.bpred_correct as f64) / sum(&|r| r.bpred_predictions as f64).max(1.0),
            ),
            ("predictor.stride_ns_per_lookup", sum(&|r| r.stride * r.producers as f64) / lookups),
            ("predictor.banked_ns_per_group", sum(&|r| r.banked * r.tc_groups as f64) / groups),
            (
                "predictor.banked.denial_rate",
                sum(&|r| r.banked_denied as f64) / sum(&|r| r.banked_slots as f64).max(1.0),
            ),
            ("core.sched_ns_per_instr", weighted(&|r| r.sched)),
        ]
    }
}

/// Time spent per result exporting `MachineResult::metrics` and rendering
/// it as JSON, microseconds.
pub fn export_us_per_result(results: &[MachineResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    per_call(|| {
        for r in results {
            black_box(r.metrics().to_json().to_json());
        }
    }) / 1e3
        / results.len() as f64
}

/// Counts progress callbacks; stands in for a real observer.
#[derive(Default)]
struct Counting(AtomicU64);

impl ProgressSink for Counting {
    fn retired(&self, retired: u64) {
        self.0.fetch_add(retired & 1, Ordering::Relaxed);
    }
}

/// The cost of observing a batch: `BatchRunner::feed_with_progress` with
/// a counting sink against plain `feed`, over the same view and configs,
/// as a fraction of the plain time (best of three each, interleaved).
/// Also checks that the observer changes no result.
pub fn progress_overhead_frac(
    view: TraceView<'_>,
    configs: &[MachineConfig],
    out: &mut Outcome,
) -> f64 {
    let run = |observe: bool| {
        let sink = Counting::default();
        let start = Instant::now();
        let mut runner = BatchRunner::new(configs);
        runner.feed_with_progress(
            view,
            0,
            view.len(),
            observe.then_some(&sink as &dyn ProgressSink),
        );
        let results = runner.finish();
        (start.elapsed().as_secs_f64(), results)
    };
    let (mut plain, mut observed) = (f64::INFINITY, f64::INFINITY);
    let mut same = true;
    for _ in 0..3 {
        let (t, a) = run(false);
        plain = plain.min(t);
        let (t, b) = run(true);
        observed = observed.min(t);
        same &= a == b;
    }
    out.check(same, || "tracing: a progress observer changed batch results".to_string());
    (observed - plain) / plain
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_core::{IdealConfig, RealisticConfig};
    use fetchvp_workloads::{suite, WorkloadParams};

    #[test]
    fn probes_cover_every_layer_on_a_tiny_trace() {
        let w = suite(&WorkloadParams::default()).swap_remove(1);
        let trace = trace_program(w.program(), 5_000);
        let input = ProbeInput {
            workload: &w,
            view: trace.view(),
            table: trace.columns().instr_table(),
            store: None,
        };
        let scratch = std::env::temp_dir().join(format!("perfbench-probe-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let tracer = Tracer::new(Instant::now(), 0, 1);
        let mut layers = Layers::default();
        let mut out = Outcome::default();
        layers.probe(input, &scratch, &tracer, &mut out);
        std::fs::remove_dir_all(&scratch).unwrap();
        assert!(out.correct(), "{:?}", out.problems);
        for (name, value) in layers.metrics() {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
        assert_eq!(tracer.into_spans().len(), 8, "one span per probe");

        let configs = [
            MachineConfig::Ideal(IdealConfig {
                vp: VpConfig::stride_infinite(),
                ..Default::default()
            }),
            MachineConfig::Realistic(RealisticConfig::paper(
                FrontEnd::TraceCache {
                    config: TraceCacheConfig::paper(),
                    btb: fetchvp_core::BtbKind::Perfect,
                },
                VpConfig::stride_infinite(),
            )),
        ];
        let one = layers.estimate_ns(w.name(), &configs[..1], 5_000, false);
        let both = layers.estimate_ns(w.name(), &configs, 5_000, false);
        assert!(one > 0.0 && both > one);
        assert!(layers.estimate_ns(w.name(), &configs, 5_000, true) > both);
        assert_eq!(layers.estimate_ns("no-such-benchmark", &configs, 5_000, false), 0.0);

        let results = fetchvp_core::run_batch(&trace, &configs);
        assert!(export_us_per_result(&results) > 0.0);
        assert!(progress_overhead_frac(trace.view(), &configs, &mut out).is_finite());
        assert!(out.correct());
    }
}
