//! Observability for the fetchvp simulators: leveled env-filtered logging,
//! cycle-level pipeline event capture, and deterministic exporters.
//!
//! Three layers, all zero-dependency:
//!
//! - [`Level`] / [`Filter`] / [`log_with`] — a structured, leveled log API
//!   filtered by the `FETCHVP_LOG` environment variable (same grammar as
//!   `env_logger`-style specs: `info`, `off`, `server=debug,sched=trace`).
//!   Logging defaults to **off**; the message closure is only invoked when
//!   the (target, level) pair is enabled, so the disabled path performs no
//!   allocation and no formatting.
//! - [`Event`] / [`Ring`] / [`EventSink`] — a fixed-size, allocation-free
//!   pipeline event record plus a drop-oldest ring buffer. Each simulation
//!   run (and therefore each sweep worker thread) owns its own ring, so
//!   capture is lock-free by construction.
//! - [`chrome::chrome_trace`] and [`prom::render`] — deterministic
//!   exporters: Chrome trace-event JSON (loadable in Perfetto / `chrome://
//!   tracing`) and Prometheus text exposition over a
//!   [`fetchvp_metrics::Registry`].
//!
//! # Example
//!
//! ```
//! use fetchvp_tracing::{chrome, Event, EventSink, Lane, Ring};
//!
//! let mut ring = Ring::new(16);
//! ring.record(Event::span(Lane::Fetch, 0, 1, "instr", 0, 0x4000));
//! ring.record(Event::span(Lane::Dispatch, 1, 1, "instr", 0, 0x4000));
//! let json = chrome::chrome_trace(&ring.drain(), "example");
//! assert!(json.to_json().contains("traceEvents"));
//! ```

pub mod chrome;
pub mod prom;

mod filter;
mod witness;

pub use filter::{enabled, log_with, Filter, Level};
pub use witness::{Event, EventKind, EventSink, Lane, Ring};
