//! Jobs: one [`Job`] per admitted submission, and the [`JobTable`] that
//! finds them.
//!
//! A job's phase, outcome, progress totals and bounded event log sit
//! behind its one mutex. Its `GET /jobs/<id>` document, `live_jobs` entry
//! and `GET /jobs/<id>/events` NDJSON lines are all rendered from that
//! state, so they always agree: the terminal event becomes visible with
//! the terminal document. A worker [starts](Job::start) the job, runs its
//! sweep with the job as the [`SweepProgress`] observer and
//! [finishes](JobTable::finish) it with the result or a caught panic.
//!
//! The log drops its *oldest* events when full; the terminal event is
//! always the newest, so it is never lost. Live jobs are never evicted —
//! the `202` contract — but only [`MAX_TERMINAL_RECORDS`] terminal ones
//! are retained, oldest-completed evicted first; an evicted id answers
//! `404`, and a re-submission is then a result-cache hit. Lock order: the
//! table's lock may be held while a job's is taken, never the reverse.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fetchvp_experiments::{JobSpec, SweepProgress};
use fetchvp_metrics::Json;

/// How many terminal (done/failed) jobs a table retains by default. Each
/// keeps its result document (a few KiB) and its event log (up to 53 KiB
/// at the default size), so a full table holds a few hundred MB and gives
/// a polling client minutes of slack.
pub const MAX_TERMINAL_RECORDS: usize = 4096;

/// How many progress events each job's log retains by default; a stream
/// reader that falls further behind loses the oldest (and is told so).
pub const DEFAULT_PROGRESS_EVENTS: usize = 512;

/// A job's lifecycle phase; a finished job holds its result or failure.
#[derive(Debug, Default)]
enum Phase {
    #[default]
    Queued,
    Running,
    Done(Json),
    Failed(String),
}

impl Phase {
    /// The phase as the wire string (`"queued"`, `"running"`, …).
    fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done(_) => "done",
            Phase::Failed(_) => "failed",
        }
    }
}

/// A job's running progress totals.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    instructions_done: u64,
    instructions_total: u64,
    cells_done: u64,
    cells_total: u64,
}

/// The sweep cell an event reports for; empty (the default) for
/// lifecycle and sweep-begin events.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    workload: &'static str,
    /// The cell's config chunk within its sweep.
    chunk: usize,
    /// The on-disk chunk of an out-of-core replay (0 for resident traces).
    store_chunk: usize,
    /// Whether the cell just crossed the finish line.
    completed: bool,
}

/// One logged progress event: the job's phase and totals as they stood
/// right after it, and the cell that reported it. `seq` counts up from 0
/// per job; a reader that sees a gap fell behind and lost events.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    seq: u64,
    job: u64,
    phase: &'static str,
    cell: Cell,
    totals: Totals,
}

impl Event {
    /// The event as one compact JSON line (no trailing newline) — the
    /// wire format of the `GET /jobs/<id>/events` NDJSON stream, keys in
    /// a fixed order. It parses with [`Json::parse`].
    pub fn to_line(&self) -> String {
        let Event { seq, job, phase, cell, totals } = *self;
        let Cell { workload, chunk, store_chunk, completed } = cell;
        let Totals { instructions_done, instructions_total, cells_done, cells_total } = totals;
        let workload = Json::Str(workload.to_string()).to_json();
        format!(
            "{{\"seq\": {seq}, \"job\": {job}, \"phase\": \"{phase}\", \"workload\": {workload}, \
             \"chunk\": {chunk}, \"store_chunk\": {store_chunk}, \
             \"instructions_done\": {instructions_done}, \
             \"instructions_total\": {instructions_total}, \"cells_done\": {cells_done}, \
             \"cells_total\": {cells_total}, \"cell_completed\": {completed}}}"
        )
    }

    /// Whether this is the job's terminal (`done`/`failed`) event.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase, "done" | "failed")
    }
}

/// Everything about a job that changes, under its one lock.
#[derive(Debug, Default)]
struct State {
    phase: Phase,
    totals: Totals,
    /// The newest events, oldest first.
    events: VecDeque<Event>,
    /// The seq the next logged event gets.
    next_seq: u64,
}

/// One admitted submission: its spec, lifecycle, outcome, progress and
/// event log (see the module docs).
#[derive(Debug)]
pub struct Job {
    /// The id handed back by `POST /run`.
    pub id: u64,
    /// The validated spec the job was created from.
    pub spec: JobSpec,
    /// How many events the log retains (at least 1).
    log_capacity: usize,
    state: Mutex<State>,
}

impl Job {
    /// A queued job whose log opens with the `"queued"` event.
    fn new(id: u64, spec: JobSpec, log_capacity: usize) -> Job {
        let job = Job { id, spec, log_capacity: log_capacity.max(1), state: Mutex::default() };
        job.record(&mut job.lock(), Cell::default());
        job
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logs an event carrying the current phase and totals, evicting the
    /// oldest when the log is full. Runs under the job's lock, which is
    /// what keeps the log monotone and the terminal event newest.
    fn record(&self, state: &mut State, cell: Cell) {
        let (seq, phase, totals) = (state.next_seq, state.phase.name(), state.totals);
        let event = Event { seq, job: self.id, phase, cell, totals };
        state.next_seq += 1;
        if state.events.len() == self.log_capacity {
            state.events.pop_front();
        }
        state.events.push_back(event);
    }

    /// Moves the job to `phase` and logs the transition.
    fn enter(&self, phase: Phase) {
        let mut state = self.lock();
        state.phase = phase;
        self.record(&mut state, Cell::default());
    }

    /// Marks the job running — a worker picked it up.
    pub fn start(&self) {
        self.enter(Phase::Running);
    }

    /// Appends the logged events with `seq >= *cursor` to `out`, oldest
    /// first, and moves the cursor past the newest. Returns how many
    /// events the cursor missed because the log dropped them first.
    pub fn read_log(&self, cursor: &mut u64, out: &mut Vec<Event>) -> u64 {
        let state = self.lock();
        let oldest = state.next_seq - state.events.len() as u64;
        let dropped = oldest.saturating_sub(*cursor);
        let skip = cursor.saturating_sub(oldest) as usize;
        out.extend(state.events.iter().skip(skip));
        *cursor = state.next_seq.max(*cursor);
        dropped
    }

    /// The `GET /jobs/<id>` document: `job, status, spec, progress` and
    /// then `result` or `error` once terminal.
    pub fn to_json(&self) -> Json {
        let spec = self.spec.to_json();
        let state = self.lock();
        let mut pairs = self.summary(&state);
        pairs.insert(2, ("spec".to_string(), spec));
        match &state.phase {
            Phase::Done(result) => pairs.push(("result".to_string(), result.clone())),
            Phase::Failed(error) => pairs.push(("error".to_string(), Json::Str(error.clone()))),
            Phase::Queued | Phase::Running => {}
        }
        Json::object(pairs)
    }

    /// The `{job, status, progress}` entry of a member's `live_jobs`, or
    /// `None` once the job is terminal.
    fn live_json(&self) -> Option<Json> {
        let state = self.lock();
        matches!(state.phase, Phase::Queued | Phase::Running)
            .then(|| Json::object(self.summary(&state)))
    }

    /// `job`, `status` and the `progress` object: the phase, instructions
    /// done/total, an integer percentage (100 once done, 0 while the
    /// total is unknown, never above 100) and cells done/total.
    fn summary(&self, state: &State) -> Vec<(String, Json)> {
        let (t, phase) = (state.totals, Json::Str(state.phase.name().to_string()));
        let percent = match state.phase {
            Phase::Done(_) => 100,
            _ if t.instructions_total == 0 => 0,
            _ => t.instructions_done.min(t.instructions_total) * 100 / t.instructions_total,
        };
        let progress = Json::object([
            ("phase".to_string(), phase.clone()),
            ("instructions_done".to_string(), Json::UInt(t.instructions_done)),
            ("instructions_total".to_string(), Json::UInt(t.instructions_total)),
            ("percent".to_string(), Json::UInt(percent)),
            ("cells_done".to_string(), Json::UInt(t.cells_done)),
            ("cells_total".to_string(), Json::UInt(t.cells_total)),
        ]);
        vec![
            ("job".to_string(), Json::UInt(self.id)),
            ("status".to_string(), phase),
            ("progress".to_string(), progress),
        ]
    }
}

impl SweepProgress for Job {
    fn begin(&self, cells: u64, instructions_total: u64) {
        // Additive: a job that runs several machine sweeps (bench runs
        // one per fetch mechanism) accumulates their totals.
        let mut state = self.lock();
        state.totals.cells_total += cells;
        state.totals.instructions_total += instructions_total;
        self.record(&mut state, Cell::default());
    }

    fn retired(&self, workload: &'static str, chunk: usize, store_chunk: usize, delta: u64) {
        let mut state = self.lock();
        state.totals.instructions_done += delta;
        self.record(&mut state, Cell { workload, chunk, store_chunk, completed: false });
    }

    fn cell_done(&self, workload: &'static str, chunk: usize) {
        let mut state = self.lock();
        state.totals.cells_done += 1;
        self.record(&mut state, Cell { workload, chunk, store_chunk: 0, completed: true });
    }
}

/// The jobs plus the completion-order ring that bounds them.
#[derive(Debug, Default)]
struct Records {
    by_id: HashMap<u64, Arc<Job>>,
    /// Terminal ids oldest-completed first — the eviction order.
    terminal: VecDeque<u64>,
}

/// Thread-safe id allocation and job storage.
///
/// In a fleet, job ids double as a routing tag: a table built with
/// [`JobTable::sharded`]`(stride, offset)` hands out `offset + k·stride`
/// (for `k = 1, 2, 3, …`), so `id % stride` recovers which member
/// created the job and `GET /jobs/<id>` can be proxied to its owner
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
            records: Mutex::default(),
        }
    }

    /// Overrides how many progress events each job's log retains
    /// (clamped to at least 1, so the terminal event always survives).
    pub fn with_progress_capacity(mut self, capacity: usize) -> JobTable {
        self.progress_capacity = capacity.max(1);
        self
    }

    /// The member index encoded in `id` for a `stride`-member fleet.
    pub fn owner_of(id: u64, stride: u64) -> u64 {
        id % stride.max(1)
    }

    fn lock(&self) -> MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocates an id and inserts a queued job for `spec`.
    pub fn create(&self, spec: JobSpec) -> Arc<Job> {
        let serial = self.next_serial.fetch_add(1, Ordering::Relaxed);
        let job =
            Arc::new(Job::new(serial * self.stride + self.offset, spec, self.progress_capacity));
        self.lock().by_id.insert(job.id, Arc::clone(&job));
        job
    }

    /// Removes a job — the rollback when the queue rejects the push that
    /// was supposed to follow [`JobTable::create`]. Its id is never
    /// handed out again.
    pub fn remove(&self, id: u64) {
        self.lock().by_id.remove(&id);
    }

    /// Ends `job` — `done` with its result document, or `failed` with a
    /// message — then evicts the oldest-completed jobs beyond the cap.
    pub fn finish(&self, job: &Job, outcome: Result<Json, String>) {
        job.enter(match outcome {
            Ok(result) => Phase::Done(result),
            Err(error) => Phase::Failed(error),
        });
        let mut records = self.lock();
        records.terminal.push_back(job.id);
        while records.terminal.len() > self.terminal_cap {
            if let Some(evicted) = records.terminal.pop_front() {
                records.by_id.remove(&evicted);
            }
        }
    }

    /// The job with this id; `None` for unknown (or evicted) ids.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.lock().by_id.get(&id).cloned()
    }

    /// The live (queued or running) jobs as `{job, status, progress}`
    /// documents sorted by id — the `live_jobs` section of a fleet
    /// member's `/fleet/metrics` report.
    pub fn live_json(&self) -> Json {
        let mut jobs: Vec<Arc<Job>> = self.lock().by_id.values().cloned().collect();
        jobs.sort_by_key(|job| job.id);
        Json::Array(jobs.iter().filter_map(|job| job.live_json()).collect())
    }

    /// `(queued, running, done, failed)` job counts — the health
    /// endpoint's summary.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut counts = (0, 0, 0, 0);
        for job in self.lock().by_id.values() {
            match job.lock().phase {
                Phase::Queued => counts.0 += 1,
                Phase::Running => counts.1 += 1,
                Phase::Done(_) => counts.2 += 1,
                Phase::Failed(_) => counts.3 += 1,
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

    /// The whole log as a fresh cursor reads it, and how many it missed.
    fn log(job: &Job) -> (Vec<Event>, u64) {
        let mut events = Vec::new();
        let dropped = job.read_log(&mut 0, &mut events);
        (events, dropped)
    }

    fn seqs(events: &[Event]) -> Vec<u64> {
        events.iter().map(|e| e.seq).collect()
    }

    /// The document and the newest logged event tell the same story.
    fn assert_document_matches_log(job: &Job, phase: &str) -> Json {
        let doc = job.to_json();
        let last = Json::parse(&log(job).0.last().expect("never empty").to_line()).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some(phase));
        assert_eq!(doc.get_path("progress.phase").and_then(Json::as_str), Some(phase));
        assert_eq!(last.get("phase").and_then(Json::as_str), Some(phase));
        for key in ["instructions_done", "instructions_total", "cells_done", "cells_total"] {
            assert_eq!(doc.get_path(&format!("progress.{key}")), last.get(key), "{key}");
        }
        doc
    }

    #[test]
    fn lifecycle_is_reflected_in_json() {
        let table = JobTable::new();
        let job = table.create(spec());
        assert_eq!(job.id, 1);
        assert_document_matches_log(&job, "queued");
        job.start();
        assert_document_matches_log(&job, "running");
        table.finish(&job, Ok(Json::UInt(42)));
        let doc = assert_document_matches_log(&table.get(1).unwrap(), "done");
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["job", "status", "spec", "progress", "result"]);
        assert_eq!(doc.get("result").and_then(Json::as_u64), Some(42));
        assert_eq!(doc.get_path("progress.percent").and_then(Json::as_u64), Some(100));
        assert_eq!(doc.get_path("spec.trace_len").and_then(Json::as_u64), Some(1000));
    }

    #[test]
    fn failures_record_the_message() {
        let table = JobTable::new();
        let job = table.create(spec());
        job.start();
        job.begin(1, 1000);
        table.finish(&job, Err("boom".to_string()));
        let doc = assert_document_matches_log(&job, "failed");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("boom"));
        assert!(doc.get("result").is_none());
        assert_eq!(table.counts(), (0, 0, 0, 1));
    }

    #[test]
    fn sharded_ids_encode_their_owner() {
        let node0 = JobTable::sharded(3, 0);
        let node2 = JobTable::sharded(3, 2);
        assert_eq!((node0.create(spec()).id, node0.create(spec()).id), (3, 6));
        assert_eq!((node2.create(spec()).id, node2.create(spec()).id), (5, 8));
        assert_eq!([3, 6, 5, 8].map(|id| JobTable::owner_of(id, 3)), [0, 0, 2, 2]);
        // Standalone tables keep the historical 1, 2, 3, … sequence.
        let standalone = JobTable::new();
        assert_eq!((standalone.create(spec()).id, standalone.create(spec()).id), (1, 2));
        assert_eq!(JobTable::owner_of(7, 1), 0);
    }

    #[test]
    fn terminal_records_beyond_the_cap_are_evicted_oldest_first() {
        let table = JobTable { terminal_cap: 2, ..JobTable::new() };
        let first = table.create(spec());
        table.finish(&first, Ok(Json::UInt(1)));
        let second = table.create(spec());
        table.finish(&second, Err("boom".to_string()));
        // A live job never counts against the terminal cap.
        let live = table.create(spec());
        let third = table.create(spec());
        table.finish(&third, Ok(Json::UInt(3)));
        assert!(table.get(first.id).is_none(), "oldest terminal job must be evicted");
        assert!(table.get(second.id).is_some());
        assert!(table.get(third.id).is_some());
        assert!(table.get(live.id).is_some(), "queued jobs are exempt from eviction");
        assert_eq!(table.counts(), (1, 0, 1, 1));
        let Json::Array(live_jobs) = table.live_json() else { panic!("an array") };
        assert_eq!((live_jobs.len(), live_jobs[0].get("job")), (1, Some(&Json::UInt(live.id))));
    }

    #[test]
    fn remove_rolls_back_a_rejected_submission() {
        let table = JobTable::new();
        let id = table.create(spec()).id;
        table.remove(id);
        assert!(table.get(id).is_none());
        assert!(table.create(spec()).id > id, "ids are never reused, even after rollback");
    }

    #[test]
    fn lifecycle_and_sweep_events_share_one_monotone_stream() {
        let job = Job::new(7, spec(), 64);
        job.start();
        job.begin(2, 2000);
        job.retired("gcc", 0, 3, 800);
        job.retired("go", 0, 0, 1200);
        job.cell_done("gcc", 0);
        let (events, dropped) = log(&job);
        assert_eq!(dropped, 0);
        let done: Vec<u64> = events.iter().map(|e| e.totals.instructions_done).collect();
        assert_eq!(done, vec![0, 0, 0, 800, 2000, 2000]);
        assert!(events.iter().all(|e| e.job == 7 && !e.is_terminal()));
        assert_eq!((events[3].cell.workload, events[3].cell.store_chunk), ("gcc", 3));
        assert!(events[5].cell.completed);

        job.enter(Phase::Done(Json::Null));
        assert!(log(&job).0.last().unwrap().is_terminal());
        assert_document_matches_log(&job, "done");
    }

    #[test]
    fn snapshot_percent_is_zero_safe_and_bounded() {
        let job = Job::new(1, spec(), 8);
        let percent = |job: &Job| job.to_json().get_path("progress.percent").and_then(Json::as_u64);
        assert_eq!(percent(&job), Some(0));
        job.begin(1, 1000);
        job.retired("gcc", 0, 0, 250);
        assert_eq!(percent(&job), Some(25));
        // Over-reporting (lookahead windows) never exceeds 100.
        job.retired("gcc", 0, 0, 2000);
        assert_eq!(percent(&job), Some(100));
    }

    #[test]
    fn begins_accumulate_across_sweeps() {
        let job = Job::new(2, spec(), 8);
        job.begin(4, 100);
        job.begin(4, 100);
        let doc = job.to_json();
        assert_eq!(doc.get_path("progress.cells_total").and_then(Json::as_u64), Some(8));
        assert_eq!(doc.get_path("progress.instructions_total").and_then(Json::as_u64), Some(200));
    }

    #[test]
    fn push_assigns_increasing_seqs_and_since_reads_them_back() {
        let job = Job::new(7, spec(), 8);
        (0..4).for_each(|_| job.retired("gcc", 0, 0, 1));
        let (mut cursor, mut events) = (0, Vec::new());
        assert_eq!(job.read_log(&mut cursor, &mut events), 0);
        assert_eq!((seqs(&events), cursor), (vec![0, 1, 2, 3, 4], 5));
        // A caught-up cursor reads nothing and keeps its position.
        events.clear();
        assert_eq!(job.read_log(&mut cursor, &mut events), 0);
        assert_eq!((seqs(&events), cursor), (vec![], 5));
    }

    #[test]
    fn overflow_drops_oldest_and_reports_the_gap() {
        let job = Job::new(1, spec(), 3);
        (0..9).for_each(|_| job.retired("gcc", 0, 0, 1));
        // Seqs 0..7 were evicted; a cursor at 0 lost exactly those.
        let (mut cursor, mut events) = (0, Vec::new());
        assert_eq!(job.read_log(&mut cursor, &mut events), 7);
        assert_eq!((seqs(&events), cursor), (vec![7, 8, 9], 10));
        // A cursor inside the retained window reads on from where it stood.
        events.clear();
        assert_eq!(job.read_log(&mut 9, &mut events), 0);
        assert_eq!(seqs(&events), [9]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let table = JobTable::new().with_progress_capacity(0);
        let job = table.create(spec());
        job.start();
        table.finish(&job, Ok(Json::Null));
        let (events, dropped) = log(&job);
        assert_eq!((seqs(&events), dropped), (vec![2], 2));
        assert!(events[0].is_terminal(), "the terminal event always survives");
    }

    #[test]
    fn event_line_is_one_parseable_line_with_the_fields_in_order() {
        let job = Job::new(9, spec(), 8);
        job.start();
        job.begin(16, 20_000_000);
        job.retired("gcc", 1, 2, 4096);
        let text = log(&job).0.last().unwrap().to_line();
        let expected = r#"{"seq": 3, "job": 9, "phase": "running", "workload": "gcc", "chunk": 1, "store_chunk": 2, "instructions_done": 4096, "instructions_total": 20000000, "cells_done": 0, "cells_total": 16, "cell_completed": false}"#;
        assert_eq!(text, expected);
        assert_eq!(Json::parse(&text).unwrap().get("workload").and_then(Json::as_str), Some("gcc"));
    }
}
