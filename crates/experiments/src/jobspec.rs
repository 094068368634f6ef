//! The job-spec → sweep adapter behind `fetchvp serve`.
//!
//! A *job spec* is the JSON document a client `POST`s to the daemon's
//! `/run` endpoint: which experiment to execute and under which
//! [`ExperimentConfig`]. This module owns the full boundary contract —
//! strict validation (unknown fields and out-of-range values are errors,
//! not warnings, because the input is untrusted), resource limits
//! ([`MAX_TRACE_LEN`], [`MAX_JOBS`]) so a single request cannot pin the
//! daemon, and deterministic execution through the same [`Sweep`] runner
//! the CLI uses, so a served result is byte-identical to an in-process
//! run of the same spec (`tests/golden_identity.rs` asserts this).
//!
//! # Schema
//!
//! ```json
//! {
//!   "experiment": "bench",   // required; `bench` or a served registry entry
//!   "trace_len": 60000,      // optional; 1..=MAX_TRACE_LEN, default 60000
//!                            // (up to MAX_TRACE_LEN_OOC when the daemon has
//!                            //  a trace directory, except `breakdown`)
//!   "seed": 1998,            // optional; workload data seed
//!   "jobs": 1                // optional; 1..=MAX_JOBS sweep workers, default 1
//! }
//! ```
//!
//! `"bench"` runs the standard [`mod@bench`] suite and returns the full report
//! document; every other experiment name is a [`registry`] entry marked
//! [`served`](crate::registry::Experiment::served): its runner's table
//! comes back as `{"experiment", "csv"}`.

use fetchvp_metrics::{Json, Registry};

use crate::{bench, registry, ExperimentConfig, Sweep};

/// Upper bound on a served job's `trace_len` when the job holds its traces
/// in memory.
///
/// The default CLI configuration traces 1M instructions per benchmark;
/// 5M bounds a single request at a few suite-seconds of simulation while
/// still covering every configuration the committed experiments use.
pub const MAX_TRACE_LEN: u64 = 5_000_000;

/// Upper bound on a served job's `trace_len` when the server runs with a
/// trace directory and the experiment does not need whole resident traces
/// ([`registry::Experiment::resident`]) — the paper's 100M-instruction
/// scale.
pub const MAX_TRACE_LEN_OOC: u64 = 100_000_000;

/// Default `trace_len` when the spec omits it — the `--quick` bench
/// configuration, sized for interactive latency.
pub const DEFAULT_TRACE_LEN: u64 = 60_000;

/// Upper bound on a served job's inner sweep workers.
pub const MAX_JOBS: usize = 64;

/// The experiment names a job spec may request: `bench`, then every
/// served registry entry.
fn served_names() -> impl Iterator<Item = &'static str> {
    std::iter::once("bench").chain(registry::ENTRIES.iter().filter(|e| e.served).map(|e| e.name))
}

/// Why a run of `experiment` cannot exceed the in-memory `bound`, for the
/// CLI's and the daemon's error messages (the caller prefixes the
/// offending length): a `resident` one — it needs whole traces in memory —
/// never can, any other needs a trace directory.
pub fn over_bound_reason(experiment: &str, resident: bool, bound: u64) -> String {
    let why = if resident {
        format!("`{experiment}` needs whole resident traces")
    } else {
        "longer runs replay from disk and need a trace directory: pass --trace-dir DIR (or set \
         FETCHVP_TRACE_DIR)"
            .to_string()
    };
    format!("exceeds the in-memory limit of {bound} instructions; {why}")
}

/// A validated request to run one experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Experiment name: `bench` or a served [`registry`] entry.
    pub experiment: String,
    /// Dynamic instructions traced per benchmark.
    pub trace_len: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Worker threads for the inner sweep (1 = serial, the determinism
    /// oracle).
    pub jobs: usize,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            experiment: "bench".to_string(),
            trace_len: DEFAULT_TRACE_LEN,
            seed: fetchvp_workloads::WorkloadParams::default().seed,
            jobs: 1,
        }
    }
}

/// What a finished job hands back to the server.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The result document returned by `GET /jobs/<id>`.
    pub result: Json,
    /// Simulator counters to merge into the daemon's live registry
    /// (`trace.*`, `sched.*`, `predictor.*`, … namespaces).
    pub metrics: Registry,
}

impl JobSpec {
    /// Validates a parsed JSON document into a spec.
    ///
    /// Strict by design: the input crosses a network boundary, so unknown
    /// fields, wrong types, unknown experiment names and out-of-range
    /// values are all rejected with a message naming the offending field.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        JobSpec::from_json_with_limits(doc, false)
    }

    /// [`JobSpec::from_json`] with the server's capabilities made
    /// explicit: when `ooc_available` (the daemon has a trace directory),
    /// every experiment but the resident-only ones
    /// ([`registry::Experiment::resident`]) may request up to
    /// [`MAX_TRACE_LEN_OOC`] instructions. The error messages distinguish
    /// "too big for memory" ([`over_bound_reason`]) from a plainly invalid
    /// value.
    pub fn from_json_with_limits(doc: &Json, ooc_available: bool) -> Result<JobSpec, String> {
        let pairs = doc.as_object().ok_or("job spec must be a JSON object")?;
        let mut spec = JobSpec::default();
        let mut experiment = None;
        let mut trace_len = None;
        for (key, value) in pairs {
            match key.as_str() {
                "experiment" => {
                    let name =
                        value.as_str().ok_or("field `experiment` must be a string")?.to_string();
                    if !served_names().any(|served| served == name) {
                        let valid: Vec<_> = served_names().collect();
                        return Err(format!(
                            "unknown experiment `{name}` (valid: {})",
                            valid.join(", ")
                        ));
                    }
                    experiment = Some(name);
                }
                "trace_len" => {
                    trace_len = Some(
                        value.as_u64().ok_or("field `trace_len` must be an unsigned integer")?,
                    );
                }
                "seed" => {
                    spec.seed = value.as_u64().ok_or("field `seed` must be an unsigned integer")?;
                }
                "jobs" => {
                    let n = value.as_u64().ok_or("field `jobs` must be an unsigned integer")?;
                    if n == 0 || n > MAX_JOBS as u64 {
                        return Err(format!("field `jobs` must be in 1..={MAX_JOBS}, got {n}"));
                    }
                    spec.jobs = n as usize;
                }
                other => return Err(format!("unknown field `{other}` in job spec")),
            }
        }
        // `trace_len` is validated after the whole document is parsed: its
        // cap depends on which experiment was requested.
        spec.experiment = experiment.ok_or("job spec is missing the `experiment` field")?;
        if let Some(n) = trace_len {
            if n == 0 || n > MAX_TRACE_LEN_OOC {
                return Err(format!(
                    "field `trace_len` must be in 1..={MAX_TRACE_LEN_OOC}, got {n}"
                ));
            }
            let resident = registry::find(&spec.experiment).is_some_and(|e| e.resident);
            if n > MAX_TRACE_LEN && (!ooc_available || resident) {
                let why = over_bound_reason(&spec.experiment, resident, MAX_TRACE_LEN);
                return Err(format!("field `trace_len` {n} {why}"));
            }
            spec.trace_len = n;
        }
        Ok(spec)
    }

    /// The spec as a JSON document (inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("trace_len".to_string(), Json::UInt(self.trace_len)),
            ("seed".to_string(), Json::UInt(self.seed)),
            ("jobs".to_string(), Json::UInt(self.jobs as u64)),
        ])
    }

    /// The canonical text of the spec: the JSON rendering of
    /// [`JobSpec::to_json`], whose field order is fixed (`experiment`,
    /// `trace_len`, `seed`, `jobs`) and whose optional fields are always
    /// materialized with their defaults. Two requests that differ only in
    /// JSON formatting — whitespace, field order, an omitted default —
    /// canonicalize to the same text.
    pub fn canonical(&self) -> String {
        self.to_json().to_json()
    }

    /// FNV-1a hash of [`JobSpec::canonical`] — the content address of this
    /// spec's result. The server's result cache and its consistent-hash
    /// ring both key off this value, so every process in a fleet agrees on
    /// which member owns a spec and whether its result is already known.
    pub fn canonical_hash(&self) -> u64 {
        fetchvp_tracestore::fnv1a(self.canonical().as_bytes())
    }

    /// Whether this spec's result document is a pure function of the spec
    /// (and therefore cacheable). Table and figure experiments are fully
    /// deterministic; `bench` reports embed wall-clock measurements, so
    /// replaying a stored bench report would serve stale timings.
    pub fn deterministic_result(&self) -> bool {
        self.experiment != "bench"
    }

    /// The experiment configuration this spec runs under. Specs with equal
    /// configs can share one trace cache, which is what keeps the daemon's
    /// traces warm across requests.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig { trace_len: self.trace_len, ..ExperimentConfig::default() };
        cfg.workloads.seed = self.seed;
        cfg
    }

    /// Whether this spec is at or below the `--quick` bench size.
    pub fn is_quick(&self) -> bool {
        self.trace_len <= ExperimentConfig::quick().trace_len
    }

    /// Executes the spec on a [`Sweep`] (which must have been built from
    /// [`JobSpec::config`] — the server's sweep pool guarantees this).
    ///
    /// The result document is deterministic for a given spec, except for
    /// the wall-clock fields of a bench report; its counter sections are
    /// byte-identical to an in-process run.
    pub fn run(&self, sweep: &Sweep) -> JobOutcome {
        if self.experiment == "bench" {
            let report = bench::run_with(sweep, self.is_quick());
            let mut metrics = Registry::new();
            for workload in &report.workloads {
                metrics.merge(&workload.registry);
            }
            return JobOutcome { result: report.to_json(), metrics };
        }
        let entry = registry::find(&self.experiment)
            .unwrap_or_else(|| panic!("experiment `{}` is not registered", self.experiment));
        let result = Json::object([
            ("experiment".to_string(), Json::Str(self.experiment.clone())),
            ("csv".to_string(), Json::Str((entry.run)(sweep).to_csv())),
        ]);
        JobOutcome { result, metrics: Registry::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_spec(text: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&Json::parse(text).map_err(|e| e.to_string())?)
    }

    #[test]
    fn minimal_spec_uses_defaults() {
        let spec = parse_spec(r#"{"experiment": "bench"}"#).unwrap();
        assert_eq!(spec.experiment, "bench");
        assert_eq!(spec.trace_len, DEFAULT_TRACE_LEN);
        assert_eq!(spec.jobs, 1);
        assert!(spec.is_quick());
    }

    #[test]
    fn full_spec_round_trips() {
        let text = r#"{"experiment": "fig3-1", "trace_len": 2000, "seed": 7, "jobs": 2}"#;
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.config().trace_len, 2000);
        assert_eq!(spec.config().workloads.seed, 7);
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn invalid_specs_are_rejected_with_field_names() {
        for (text, needle) in [
            (r#"[]"#, "object"),
            (r#"{}"#, "experiment"),
            (r#"{"experiment": "fig9-9"}"#, "unknown experiment"),
            (r#"{"experiment": 3}"#, "`experiment`"),
            (r#"{"experiment": "bench", "trace_len": 0}"#, "`trace_len`"),
            (r#"{"experiment": "bench", "trace_len": 99999999999}"#, "`trace_len`"),
            (r#"{"experiment": "bench", "jobs": 0}"#, "`jobs`"),
            (r#"{"experiment": "bench", "jobs": 1000}"#, "`jobs`"),
            (r#"{"experiment": "bench", "seed": -1}"#, "`seed`"),
            (r#"{"experiment": "bench", "wat": 1}"#, "unknown field `wat`"),
        ] {
            let err = parse_spec(text).expect_err(text);
            assert!(err.contains(needle), "{text}: error `{err}` should mention {needle}");
        }
    }

    #[test]
    fn canonical_hash_ignores_formatting_but_not_fields() {
        let spec = parse_spec(r#"{"experiment": "table3-1", "trace_len": 1000}"#).unwrap();
        // Same spec, noisy formatting + explicit defaults (the default
        // seed is 0x5EED_1998 = 1592596888) + reordered keys.
        let noisy = parse_spec(
            r#"{ "seed": 1592596888, "trace_len": 1000,
                 "experiment": "table3-1", "jobs": 1 }"#,
        )
        .unwrap();
        assert_eq!(spec.canonical(), noisy.canonical());
        assert_eq!(spec.canonical_hash(), noisy.canonical_hash());
        // Any canonical field changing must change the hash.
        for other in [
            JobSpec { trace_len: 1001, ..spec.clone() },
            JobSpec { seed: spec.seed + 1, ..spec.clone() },
            JobSpec { jobs: 2, ..spec.clone() },
            JobSpec { experiment: "accuracy".to_string(), ..spec.clone() },
        ] {
            assert_ne!(spec.canonical_hash(), other.canonical_hash(), "{other:?}");
        }
    }

    #[test]
    fn bench_results_are_not_cacheable() {
        assert!(!JobSpec::default().deterministic_result(), "bench has wall-clock fields");
        let table = JobSpec { experiment: "table3-1".to_string(), ..JobSpec::default() };
        assert!(table.deterministic_result());
    }

    #[test]
    fn out_of_core_lengths_need_a_capable_experiment_and_a_trace_dir() {
        let parse =
            |text: &str, ooc| JobSpec::from_json_with_limits(&Json::parse(text).unwrap(), ooc);

        // Figures, tables and ablations alike: admitted at paper scale with
        // a trace dir, rejected without one with the fix named.
        for experiment in ["fig3-1", "fig3-3", "table3-1", "accuracy", "ablation-fetch", "bench"] {
            let text = format!(r#"{{"experiment": "{experiment}", "trace_len": 20000000}}"#);
            assert_eq!(parse(&text, true).unwrap().trace_len, 20_000_000, "{experiment}");
            let err = parse(&text, false).unwrap_err();
            assert!(err.contains("trace directory"), "{experiment}: {err}");
            assert!(err.contains("--trace-dir"), "{experiment}: {err}");
        }
        let text = format!(r#"{{"experiment": "fig3-3", "trace_len": {MAX_TRACE_LEN_OOC}}}"#);
        assert_eq!(parse(&text, true).unwrap().trace_len, MAX_TRACE_LEN_OOC);

        // The event-machine oracle needs whole traces in memory: rejected
        // even with a trace dir, and the error says why.
        let text = r#"{"experiment": "breakdown", "trace_len": 20000000}"#;
        let err = parse(text, true).unwrap_err();
        assert!(err.contains("whole resident traces"), "error should blame breakdown: {err}");
        assert!(err.contains(&MAX_TRACE_LEN.to_string()), "error should name the bound: {err}");

        // Beyond even the OOC cap: plain range error.
        let text = format!(r#"{{"experiment": "fig3-1", "trace_len": {}}}"#, MAX_TRACE_LEN_OOC + 1);
        let err = parse(&text, true).unwrap_err();
        assert!(err.contains(&MAX_TRACE_LEN_OOC.to_string()), "error should name the cap: {err}");

        // Field order must not matter: trace_len before experiment.
        let big = MAX_TRACE_LEN + 1;
        let text = format!(r#"{{"trace_len": {big}, "experiment": "fig5-2"}}"#);
        assert_eq!(parse(&text, true).unwrap().trace_len, big);
        let text = format!(r#"{{"trace_len": {big}, "experiment": "breakdown"}}"#);
        assert!(parse(&text, true).is_err());
    }

    #[test]
    fn bench_outcome_matches_direct_run_and_exports_metrics() {
        let spec = parse_spec(r#"{"experiment": "bench", "trace_len": 2000, "seed": 3}"#).unwrap();
        let sweep = Sweep::with_jobs(&spec.config(), 1);
        let outcome = spec.run(&sweep);
        let direct = bench::run_with(&Sweep::with_jobs(&spec.config(), 1), spec.is_quick());
        for w in &direct.workloads {
            let served = outcome
                .result
                .get_path("workloads")
                .and_then(|s| s.get(w.name))
                .and_then(|s| s.get("counters"))
                .expect("served counters");
            assert_eq!(
                served.to_json(),
                w.registry.counters_json().to_json(),
                "{}: served counters differ from direct run",
                w.name
            );
        }
        for namespace in ["trace", "sched", "predictor", "machine"] {
            assert!(
                outcome.metrics.namespaces().contains(&namespace),
                "outcome metrics missing `{namespace}.*`"
            );
        }
    }

    #[test]
    fn table_experiments_return_csv() {
        let spec = parse_spec(r#"{"experiment": "table3-1", "trace_len": 1000}"#).unwrap();
        let sweep = Sweep::with_jobs(&spec.config(), 1);
        let outcome = spec.run(&sweep);
        let csv = outcome.result.get("csv").and_then(Json::as_str).expect("csv field");
        assert!(csv.lines().count() > 1, "csv should have header + rows:\n{csv}");
        assert!(outcome.metrics.is_empty());
    }
}
