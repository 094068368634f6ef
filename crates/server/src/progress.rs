//! Per-job progress: the glue between the sweep layer's
//! [`SweepProgress`] observer and the server's live event stream.
//!
//! Every [`JobRecord`](crate::jobs::JobRecord) owns one [`JobProgress`]:
//! a running tally of the job's totals (instructions retired, cells
//! finished, lifecycle phase) plus a shared drop-oldest
//! [`ProgressRing`] of [`ProgressEvent`]s. The worker thread attaches
//! the `Arc<JobProgress>` to the pooled [`Sweep`] serving the job
//! (`Sweep::with_progress`); each `GET /jobs/<id>/events` connection
//! follows the ring with its own cursor; and
//! `GET /jobs/<id>` reads the tally as its `progress` snapshot.
//!
//! The tally mutex is held across the ring push, so the
//! `instructions_done` values readers see are **monotonically
//! non-decreasing in seq order** even when several sweep cells report
//! concurrently — the property the streaming e2e test asserts.
//!
//! [`Sweep`]: fetchvp_experiments::Sweep

use std::sync::Mutex;

use fetchvp_experiments::SweepProgress;
use fetchvp_metrics::Json;
use fetchvp_tracing::{ProgressBatch, ProgressEvent, ProgressRing};

/// The running totals of one job.
#[derive(Debug, Clone, Copy)]
struct Totals {
    phase: &'static str,
    instructions_done: u64,
    instructions_total: u64,
    cells_done: u64,
    cells_total: u64,
}

/// One job's progress state: totals plus the event ring feeding the
/// `GET /jobs/<id>/events` stream.
#[derive(Debug)]
pub struct JobProgress {
    job: u64,
    ring: ProgressRing,
    totals: Mutex<Totals>,
}

impl JobProgress {
    /// Fresh progress for job `job`, retaining at most `ring_capacity`
    /// events for slow stream readers.
    pub fn new(job: u64, ring_capacity: usize) -> JobProgress {
        JobProgress {
            job,
            ring: ProgressRing::new(ring_capacity),
            totals: Mutex::new(Totals {
                phase: "queued",
                instructions_done: 0,
                instructions_total: 0,
                cells_done: 0,
                cells_total: 0,
            }),
        }
    }

    /// The job id these events belong to.
    pub fn job(&self) -> u64 {
        self.job
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds an event from the current totals and pushes it. Must be
    /// called with the totals lock held so concurrent cells cannot
    /// publish out-of-order `instructions_done` values.
    fn push(
        &self,
        totals: &Totals,
        workload: &str,
        chunk: usize,
        store_chunk: usize,
        cell_completed: bool,
    ) {
        self.ring.push(ProgressEvent {
            seq: 0, // assigned by the ring
            job: self.job,
            phase: totals.phase,
            workload: workload.to_string(),
            chunk,
            store_chunk,
            instructions_done: totals.instructions_done,
            instructions_total: totals.instructions_total,
            cells_done: totals.cells_done,
            cells_total: totals.cells_total,
            cell_completed,
        });
    }

    /// Records a lifecycle transition (`"queued"`, `"running"`,
    /// `"done"`, `"failed"`) and publishes it as an event. Terminal
    /// phases are what tell a streamer to close: they are always the
    /// newest event, so the drop-oldest ring can never lose them.
    pub fn set_phase(&self, phase: &'static str) {
        let mut totals = self.lock();
        totals.phase = phase;
        self.push(&totals, "", 0, 0, false);
    }

    /// Whether the recorded phase is terminal (`"done"` / `"failed"`).
    pub fn is_terminal(&self) -> bool {
        matches!(self.lock().phase, "done" | "failed")
    }

    /// Events with `seq >= cursor` — the stream pump's read side.
    pub fn since(&self, cursor: u64) -> ProgressBatch {
        self.ring.since(cursor)
    }

    /// The `progress` object embedded in `GET /jobs/<id>` documents:
    /// instructions done/total, an integer percentage, cells done/total
    /// and the lifecycle phase.
    pub fn snapshot_json(&self) -> Json {
        let totals = self.lock();
        let percent = match totals.phase {
            "done" => 100,
            _ if totals.instructions_total == 0 => 0,
            _ => {
                (totals.instructions_done.min(totals.instructions_total) * 100)
                    / totals.instructions_total
            }
        };
        Json::object([
            ("phase".to_string(), Json::Str(totals.phase.to_string())),
            ("instructions_done".to_string(), Json::UInt(totals.instructions_done)),
            ("instructions_total".to_string(), Json::UInt(totals.instructions_total)),
            ("percent".to_string(), Json::UInt(percent)),
            ("cells_done".to_string(), Json::UInt(totals.cells_done)),
            ("cells_total".to_string(), Json::UInt(totals.cells_total)),
        ])
    }
}

impl SweepProgress for JobProgress {
    fn begin(&self, cells: u64, instructions_total: u64) {
        // Additive: a job that runs several machine sweeps (bench runs
        // one per fetch mechanism) accumulates their totals.
        let mut totals = self.lock();
        totals.cells_total += cells;
        totals.instructions_total += instructions_total;
        self.push(&totals, "", 0, 0, false);
    }

    fn retired(&self, workload: &'static str, chunk: usize, store_chunk: usize, delta: u64) {
        let mut totals = self.lock();
        totals.instructions_done += delta;
        self.push(&totals, workload, chunk, store_chunk, false);
    }

    fn cell_done(&self, workload: &'static str, chunk: usize) {
        let mut totals = self.lock();
        totals.cells_done += 1;
        self.push(&totals, workload, chunk, 0, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_sweep_events_share_one_monotone_stream() {
        let progress = JobProgress::new(7, 64);
        progress.set_phase("running");
        progress.begin(2, 2000);
        progress.retired("gcc", 0, 3, 800);
        progress.retired("go", 0, 0, 1200);
        progress.cell_done("gcc", 0);

        let batch = progress.since(0);
        assert_eq!(batch.dropped, 0);
        let done: Vec<u64> = batch.events.iter().map(|e| e.instructions_done).collect();
        assert_eq!(done, vec![0, 0, 800, 2000, 2000]);
        assert!(batch.events.iter().all(|e| e.job == 7));
        assert_eq!(batch.events[2].workload, "gcc");
        assert_eq!(batch.events[2].store_chunk, 3);
        assert!(batch.events[4].cell_completed);
        assert!(!progress.is_terminal());

        progress.set_phase("done");
        assert!(progress.is_terminal());
        let snapshot = progress.snapshot_json();
        assert_eq!(snapshot.get("percent").and_then(Json::as_u64), Some(100));
        assert_eq!(snapshot.get("phase").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn snapshot_percent_is_zero_safe_and_bounded() {
        let progress = JobProgress::new(1, 8);
        assert_eq!(progress.snapshot_json().get("percent").and_then(Json::as_u64), Some(0));
        progress.begin(1, 1000);
        progress.retired("gcc", 0, 0, 250);
        assert_eq!(progress.snapshot_json().get("percent").and_then(Json::as_u64), Some(25));
        // Over-reporting (lookahead windows) never exceeds 100.
        progress.retired("gcc", 0, 0, 2000);
        assert_eq!(progress.snapshot_json().get("percent").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn begins_accumulate_across_sweeps() {
        let progress = JobProgress::new(2, 8);
        progress.begin(4, 100);
        progress.begin(4, 100);
        let snapshot = progress.snapshot_json();
        assert_eq!(snapshot.get("cells_total").and_then(Json::as_u64), Some(8));
        assert_eq!(snapshot.get("instructions_total").and_then(Json::as_u64), Some(200));
    }
}
