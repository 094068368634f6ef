//! Cycle-accurate pipeline witness: runs one workload on the realistic
//! machine with the event sink attached and renders the captured stream as
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The machine configuration mirrors the bench suite's `conv4_banked` cell
//! — conventional fetch (width 40, up to 4 taken branches) behind the
//! two-level BTB, stride value prediction through the banked table — so
//! every event class appears: fetch/dispatch/issue/writeback spans per
//! instruction, prediction-outcome instants, bank-conflict instants from
//! the address router, and a derived window-occupancy counter track.
//!
//! The run is single-threaded and fully deterministic: the same workload
//! and trace length produce byte-identical JSON regardless of `--jobs`.

use fetchvp_core::{BtbKind, FrontEnd, MachineResult, RealisticConfig, RealisticMachine, VpConfig};
use fetchvp_predictor::BankedConfig;
use fetchvp_tracing::chrome::chrome_trace;
use fetchvp_tracing::{Event, EventKind, EventSink, Lane, Ring};
use std::collections::BTreeMap;

use crate::sweep::Sweep;

/// Ring capacity for the witness run: large enough to hold every event of a
/// quick-config trace; longer runs keep the most recent window (the ring
/// drops oldest and counts the drops).
pub const RING_CAPACITY: usize = 1 << 20;

/// A rendered pipeline witness.
#[derive(Debug, Clone)]
pub struct TraceViz {
    /// The workload that was simulated.
    pub workload: String,
    /// Chrome trace-event JSON (an object with a `traceEvents` array).
    pub json: String,
    /// Events that made it into the export.
    pub events: usize,
    /// Events dropped by the ring (oldest-first) because the run outgrew
    /// [`RING_CAPACITY`].
    pub dropped: u64,
    /// The simulation result (same numbers an untraced run produces).
    pub result: MachineResult,
}

/// An [`EventSink`] that keeps only events overlapping a cycle window,
/// backed by a drop-oldest [`Ring`].
struct WindowSink {
    ring: Ring,
    cycles: Option<(u64, u64)>,
}

impl EventSink for WindowSink {
    fn record(&mut self, ev: Event) {
        if let Some((first, last)) = self.cycles {
            if ev.ts + ev.dur < first || ev.ts > last {
                return;
            }
        }
        self.ring.push(ev);
    }
}

/// The witnessed machine: the bench suite's `conv4_banked` configuration.
fn machine_config() -> RealisticConfig {
    RealisticConfig::paper(
        FrontEnd::Conventional { width: 40, max_taken: Some(4), btb: BtbKind::two_level_paper() },
        VpConfig::stride_infinite(),
    )
    .with_banked(BankedConfig::default())
}

/// Runs the witness against an existing [`Sweep`]'s trace cache.
///
/// `workload` must name a benchmark of the extended suite; `cycles`
/// restricts the export to events overlapping `first..=last`. Errors (with
/// the list of known names) when the workload is unknown.
pub fn run_with(
    sweep: &Sweep,
    workload: &str,
    cycles: Option<(u64, u64)>,
) -> Result<TraceViz, String> {
    let cache = sweep.cache();
    let names: Vec<&str> = cache.workloads(true).iter().map(|w| w.name()).collect();
    let Some(index) = names.iter().position(|n| *n == workload) else {
        return Err(format!(
            "unknown workload `{workload}` (expected one of: {})",
            names.join(", ")
        ));
    };
    let trace = cache.trace(index);
    let mut sink = WindowSink { ring: Ring::new(RING_CAPACITY), cycles };
    let result = RealisticMachine::new(machine_config()).run_traced(&trace, Some(&mut sink));
    let dropped = sink.ring.dropped();
    let mut events = sink.ring.drain();
    append_window_occupancy(&mut events);
    let json = chrome_trace(&events, workload).to_json();
    Ok(TraceViz { workload: workload.to_string(), json, events: events.len(), dropped, result })
}

/// Derives a window-occupancy counter track from the captured spans: an
/// instruction occupies the window from its dispatch cycle until its
/// writeback cycle. Only instructions whose dispatch *and* writeback both
/// survived the ring/window filter contribute, so the counter never goes
/// negative.
fn append_window_occupancy(events: &mut Vec<Event>) {
    let mut spans: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
    for ev in events.iter() {
        if ev.kind != EventKind::Span {
            continue;
        }
        match ev.lane {
            Lane::Dispatch => spans.entry(ev.seq).or_default().0 = Some(ev.ts),
            Lane::Writeback => spans.entry(ev.seq).or_default().1 = Some(ev.ts),
            _ => {}
        }
    }
    let mut delta: BTreeMap<u64, i64> = BTreeMap::new();
    for (dispatch, writeback) in spans.into_values() {
        if let (Some(d), Some(w)) = (dispatch, writeback) {
            *delta.entry(d).or_insert(0) += 1;
            *delta.entry(w).or_insert(0) -= 1;
        }
    }
    let mut occupancy = 0i64;
    for (cycle, change) in delta {
        occupancy += change;
        events.push(Event::counter(
            Lane::Window,
            cycle,
            "window_occupancy",
            occupancy.max(0) as u64,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use fetchvp_metrics::Json;

    fn quick() -> Sweep {
        Sweep::serial(&ExperimentConfig { trace_len: 3_000, ..ExperimentConfig::default() })
    }

    #[test]
    fn unknown_workload_is_a_clear_error() {
        let err = run_with(&quick(), "no-such-bench", None).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
        assert!(err.contains("gcc"), "{err}");
    }

    #[test]
    fn produces_valid_chrome_trace_json() {
        let viz = run_with(&quick(), "gcc", None).unwrap();
        assert_eq!(viz.dropped, 0);
        assert!(viz.events > 0);
        let parsed = Json::parse(&viz.json).expect("trace-viz output must parse");
        let Some(Json::Array(events)) = parsed.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        // Metadata for process + every lane, plus the pipeline events.
        assert!(events.len() > viz.events);
        // Untraced run produces the same simulation numbers.
        let sweep = quick();
        let index = sweep.cache().workloads(true).iter().position(|w| w.name() == "gcc").unwrap();
        let plain = RealisticMachine::new(machine_config()).run(&sweep.cache().trace(index));
        assert_eq!(plain.cycles, viz.result.cycles);
    }

    #[test]
    fn cycle_window_restricts_the_export() {
        let full = run_with(&quick(), "gcc", None).unwrap();
        let windowed = run_with(&quick(), "gcc", Some((10, 50))).unwrap();
        assert!(windowed.events < full.events);
        assert!(windowed.events > 0);
    }
}
