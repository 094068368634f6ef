//! The job table: every submitted job's lifecycle and result.
//!
//! `POST /run` creates a [`JobRecord`] in [`JobStatus::Queued`], a pool
//! worker moves it through [`JobStatus::Running`] to [`JobStatus::Done`]
//! (or [`JobStatus::Failed`] — job panics are isolated with
//! `catch_unwind` and recorded here instead of killing the worker), and
//! `GET /jobs/<id>` serializes the record. Live records (queued or
//! running) are never evicted — the `202` contract — but terminal ones
//! are retained only up to [`MAX_TERMINAL_RECORDS`], oldest-completed
//! first, so a long-lived daemon's job table stays bounded no matter how
//! many jobs flow through it; a record evicted before its client polled
//! it answers `404`, and the client re-submits (repeats are then
//! result-cache hits).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fetchvp_experiments::JobSpec;
use fetchvp_metrics::Json;

use crate::progress::JobProgress;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the record holds the result document.
    Done,
    /// The runner errored or panicked; the record holds the message.
    Failed,
}

impl JobStatus {
    /// The status as the wire string (`"queued"`, `"running"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }
}

/// One job's full state.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The id handed back by `POST /run`.
    pub id: u64,
    /// The validated spec the job was created from.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub status: JobStatus,
    /// The result document, once [`JobStatus::Done`].
    pub result: Option<Json>,
    /// The failure message, once [`JobStatus::Failed`].
    pub error: Option<String>,
    /// Live progress: totals for the `progress` snapshot plus the event
    /// ring behind `GET /jobs/<id>/events`.
    pub progress: Arc<JobProgress>,
}

impl JobRecord {
    /// The `GET /jobs/<id>` document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("job".to_string(), Json::UInt(self.id)),
            ("status".to_string(), Json::Str(self.status.as_str().to_string())),
            ("spec".to_string(), self.spec.to_json()),
            ("progress".to_string(), self.progress.snapshot_json()),
        ];
        if let Some(result) = &self.result {
            pairs.push(("result".to_string(), result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_string(), Json::Str(error.clone())));
        }
        Json::object(pairs)
    }
}

/// How many terminal (done/failed) records a table retains by default
/// before the oldest-completed are evicted. Result documents are a few
/// KiB each, so the ceiling bounds the table at a few tens of MB while
/// still giving a polling client minutes of slack at any realistic
/// drain rate.
pub const MAX_TERMINAL_RECORDS: usize = 4096;

/// How many progress events each job's ring retains by default for
/// `GET /jobs/<id>/events` readers. A reader that falls further behind
/// loses the oldest events (and is told how many); the terminal event is
/// always the newest, so it is never lost.
pub const DEFAULT_PROGRESS_EVENTS: usize = 512;

/// The records plus the completion-order ring that bounds them.
#[derive(Debug)]
struct Records {
    by_id: HashMap<u64, JobRecord>,
    /// Terminal ids oldest-completed first — the eviction order.
    terminal: VecDeque<u64>,
}

/// Thread-safe id allocation and record storage.
///
/// In a fleet, job ids double as a routing tag: a table built with
/// [`JobTable::sharded`]`(stride, offset)` hands out `offset + k·stride`
/// (for `k = 1, 2, 3, …`), so `id % stride` recovers which member
/// created the record and `GET /jobs/<id>` can be proxied to its owner
/// without any shared id service. A standalone daemon uses stride 1,
/// offset 0 — the plain `1, 2, 3, …` sequence.
#[derive(Debug)]
pub struct JobTable {
    next_serial: AtomicU64,
    stride: u64,
    offset: u64,
    terminal_cap: usize,
    progress_capacity: usize,
    records: Mutex<Records>,
}

impl Default for JobTable {
    fn default() -> JobTable {
        JobTable::new()
    }
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> JobTable {
        JobTable::sharded(1, 0)
    }

    /// An empty table handing out ids `offset + k·stride`, for a fleet
    /// member at index `offset` of a `stride`-member fleet.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= stride` — the encoding would be ambiguous.
    pub fn sharded(stride: u64, offset: u64) -> JobTable {
        assert!(stride > 0 && offset < stride, "job-id shard offset must be < stride");
        JobTable {
            next_serial: AtomicU64::new(1),
            stride,
            offset,
            terminal_cap: MAX_TERMINAL_RECORDS,
            progress_capacity: DEFAULT_PROGRESS_EVENTS,
            records: Mutex::new(Records { by_id: HashMap::new(), terminal: VecDeque::new() }),
        }
    }

    /// Overrides how many terminal records are retained (clamped to at
    /// least 1) — eviction tuning, and how tests exercise it without
    /// completing [`MAX_TERMINAL_RECORDS`] jobs.
    pub fn with_terminal_cap(mut self, cap: usize) -> JobTable {
        self.terminal_cap = cap.max(1);
        self
    }

    /// Overrides how many progress events each job's ring retains
    /// (clamped to at least 1, so the terminal event always survives).
    pub fn with_progress_capacity(mut self, capacity: usize) -> JobTable {
        self.progress_capacity = capacity.max(1);
        self
    }

    /// The member index encoded in `id` for a `stride`-member fleet.
    pub fn owner_of(id: u64, stride: u64) -> u64 {
        if stride <= 1 {
            0
        } else {
            id % stride
        }
    }

    fn lock(&self) -> MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_id(&self) -> u64 {
        self.next_serial.fetch_add(1, Ordering::Relaxed) * self.stride + self.offset
    }

    /// Records `id` as terminal and evicts the oldest-completed records
    /// beyond the cap. Must run under the table lock.
    fn retire(&self, records: &mut Records, id: u64) {
        records.terminal.push_back(id);
        while records.terminal.len() > self.terminal_cap {
            if let Some(evicted) = records.terminal.pop_front() {
                records.by_id.remove(&evicted);
            }
        }
    }

    /// Allocates an id and inserts a [`JobStatus::Queued`] record. The
    /// record's progress ring opens with a `"queued"` lifecycle event.
    pub fn create(&self, spec: JobSpec) -> u64 {
        let id = self.next_id();
        let progress = Arc::new(JobProgress::new(id, self.progress_capacity));
        progress.set_phase("queued");
        let record =
            JobRecord { id, spec, status: JobStatus::Queued, result: None, error: None, progress };
        self.lock().by_id.insert(id, record);
        id
    }

    /// Removes a record — the rollback when the queue rejects the push
    /// that was supposed to follow [`JobTable::create`].
    pub fn remove(&self, id: u64) {
        self.lock().by_id.remove(&id);
    }

    /// Marks a job running and publishes the `"running"` event.
    pub fn set_running(&self, id: u64) {
        let progress = {
            let mut records = self.lock();
            let Some(record) = records.by_id.get_mut(&id) else { return };
            record.status = JobStatus::Running;
            Arc::clone(&record.progress)
        };
        progress.set_phase("running");
    }

    /// Marks a job done with its result document.
    ///
    /// The terminal `"done"` event is published only after the record
    /// itself is terminal, so a streamer that reacts to the event by
    /// polling `GET /jobs/<id>` always sees the finished record.
    pub fn finish(&self, id: u64, result: Json) {
        let progress = {
            let mut records = self.lock();
            let Some(record) = records.by_id.get_mut(&id) else { return };
            record.status = JobStatus::Done;
            record.result = Some(result);
            let progress = Arc::clone(&record.progress);
            self.retire(&mut records, id);
            progress
        };
        progress.set_phase("done");
    }

    /// Marks a job failed with a message (terminal event ordering as in
    /// [`JobTable::finish`]).
    pub fn fail(&self, id: u64, error: String) {
        let progress = {
            let mut records = self.lock();
            let Some(record) = records.by_id.get_mut(&id) else { return };
            record.status = JobStatus::Failed;
            record.error = Some(error);
            let progress = Arc::clone(&record.progress);
            self.retire(&mut records, id);
            progress
        };
        progress.set_phase("failed");
    }

    /// The job's progress handle — what the worker attaches to its sweep
    /// and event-stream connections read from. `None` for unknown (or
    /// evicted) ids.
    pub fn progress(&self, id: u64) -> Option<Arc<JobProgress>> {
        self.lock().by_id.get(&id).map(|record| Arc::clone(&record.progress))
    }

    /// The live (queued or running) jobs as `{job, status, progress}`
    /// documents sorted by id — the `live_jobs` section of a fleet
    /// member's `/fleet/metrics` report.
    pub fn live_json(&self) -> Json {
        let mut live: Vec<&JobRecord> = Vec::new();
        let records = self.lock();
        for record in records.by_id.values() {
            if !record.status.is_terminal() {
                live.push(record);
            }
        }
        live.sort_by_key(|record| record.id);
        Json::Array(
            live.into_iter()
                .map(|record| {
                    Json::object([
                        ("job".to_string(), Json::UInt(record.id)),
                        ("status".to_string(), Json::Str(record.status.as_str().to_string())),
                        ("progress".to_string(), record.progress.snapshot_json()),
                    ])
                })
                .collect(),
        )
    }

    /// The record's wire document, if the id exists.
    pub fn get_json(&self, id: u64) -> Option<Json> {
        self.lock().by_id.get(&id).map(JobRecord::to_json)
    }

    /// `(queued, running, done, failed)` record counts — the health
    /// endpoint's summary.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut counts = (0, 0, 0, 0);
        for record in self.lock().by_id.values() {
            match record.status {
                JobStatus::Queued => counts.0 += 1,
                JobStatus::Running => counts.1 += 1,
                JobStatus::Done => counts.2 += 1,
                JobStatus::Failed => counts.3 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec { trace_len: 1000, ..JobSpec::default() }
    }

    #[test]
    fn lifecycle_is_reflected_in_json() {
        let table = JobTable::new();
        let id = table.create(spec());
        assert_eq!(id, 1);
        let doc = table.get_json(id).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("queued"));
        table.set_running(id);
        table.finish(id, Json::UInt(42));
        let doc = table.get_json(id).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(doc.get("result").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get_path("spec.trace_len").and_then(Json::as_u64), Some(1000));
    }

    #[test]
    fn failures_record_the_message() {
        let table = JobTable::new();
        let id = table.create(spec());
        table.fail(id, "boom".to_string());
        let doc = table.get_json(id).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("boom"));
        assert_eq!(table.counts(), (0, 0, 0, 1));
    }

    #[test]
    fn sharded_ids_encode_their_owner() {
        let node0 = JobTable::sharded(3, 0);
        let node2 = JobTable::sharded(3, 2);
        assert_eq!((node0.create(spec()), node0.create(spec())), (3, 6));
        assert_eq!((node2.create(spec()), node2.create(spec())), (5, 8));
        for id in [3, 6] {
            assert_eq!(JobTable::owner_of(id, 3), 0);
        }
        for id in [5, 8] {
            assert_eq!(JobTable::owner_of(id, 3), 2);
        }
        // Standalone tables keep the historical 1, 2, 3, … sequence.
        let standalone = JobTable::new();
        assert_eq!((standalone.create(spec()), standalone.create(spec())), (1, 2));
        assert_eq!(JobTable::owner_of(7, 1), 0);
    }

    #[test]
    fn terminal_records_beyond_the_cap_are_evicted_oldest_first() {
        let table = JobTable::new().with_terminal_cap(2);
        let first = table.create(spec());
        table.finish(first, Json::UInt(1));
        let second = table.create(spec());
        table.fail(second, "boom".to_string());
        // A live record never counts against the terminal cap.
        let live = table.create(spec());
        let third = table.create(spec());
        table.finish(third, Json::UInt(3));
        assert!(table.get_json(first).is_none(), "oldest terminal record must be evicted");
        assert!(table.get_json(second).is_some());
        assert!(table.get_json(third).is_some());
        assert!(table.get_json(live).is_some(), "queued records are exempt from eviction");
        assert_eq!(table.counts(), (1, 0, 1, 1));
    }

    #[test]
    fn remove_rolls_back_a_rejected_submission() {
        let table = JobTable::new();
        let id = table.create(spec());
        table.remove(id);
        assert!(table.get_json(id).is_none());
        let next = table.create(spec());
        assert!(next > id, "ids are never reused, even after rollback");
    }
}
