//! Chunked on-disk trace storage at the paper's 100M-instruction scale.
//!
//! The paper's methodology traces each SPECint95 benchmark once (100M
//! instructions through Shade) and then simulates many machine
//! configurations over the same trace. In-memory [`TraceColumns`] capped
//! our reproduction an order of magnitude below that, because the whole
//! stream had to fit on the heap. This crate removes the cap with three
//! pieces:
//!
//! 1. **A chunked, versioned file format** ([`StoreWriter`] /
//!    [`TraceStore`]): the structure-of-arrays columns are delta/varint
//!    encoded per chunk, static per-instruction facts are stored once in
//!    an interned instruction table, and a footer index records every
//!    chunk's byte offset, sequence range and checksum so chunks are
//!    independently seekable and verifiable. See the [format
//!    description](#file-format) below.
//! 2. **Streaming generation** ([`stream_program_to_store`]): the
//!    executor loop of `fetchvp_trace::trace_program` writing chunks to
//!    disk as it goes, so a 100M-instruction trace occupies one chunk of
//!    heap at a time.
//! 3. **One replay path** ([`TraceSource`]): a resident trace is one
//!    window, a store one chunk (plus a fetch-lookahead tail) at a time in
//!    a reusable re-based buffer; [`run_batch_source`] feeds the windows
//!    to [`fetchvp_core::BatchRunner`], byte-identical to the in-memory
//!    path, and analyses fold over their slots.
//!
//! On top sits a **content-addressed trace cache** ([`TraceDir`]): traces
//! keyed by a canonical hash of (workload, knobs, seed, trace length,
//! format version), generated at most once per key and shared by the
//! server's sweep pool, `fetchvp bench`, and the figure runners.
//!
//! # File format
//!
//! Little-endian throughout:
//!
//! ```text
//! header    magic "FVPS", version u32, name (u32 length + UTF-8 bytes),
//!           chunk target u64 (nominal instructions per chunk)
//! chunks    back-to-back encoded chunk payloads (below)
//! footer    outcome u8, total instructions u64,
//!           instruction table (u32 count + tagged encodings),
//!           chunk index (u32 count + per chunk: start seq u64, len u32,
//!           byte offset u64, byte length u64, checksum u64),
//!           footer checksum u64
//! trailer   footer byte length u64, magic "FVPE"
//! ```
//!
//! The footer lives at the *end* so generation is a single forward pass;
//! readers locate it through the fixed-size trailer. Each chunk payload
//! encodes its rows as consecutive columnar sections:
//!
//! ```text
//! row count u32
//! instruction-table indices   varint u32 per row
//! pcs                         zigzag varint delta from the previous pc
//! next pcs                    zigzag varint delta from pc + 1
//! dynamic flags               2 bits per row (taken, has-mem-addr)
//! results                     varint u64 per row
//! memory addresses            zigzag varint delta, only rows with one
//! ```
//!
//! Only the two *dynamic* flag bits are stored: everything else in a
//! [`TraceColumns`] flag byte, and the register columns, are static facts
//! of the interned instruction and are rebuilt at decode time through
//! [`TraceColumns::prepare`]. Decoded traces are exactly equal to what
//! the executor produced (see the round-trip property tests).
//!
//! # Example
//!
//! ```
//! use fetchvp_isa::{AluOp, ProgramBuilder, Reg};
//! use fetchvp_tracestore::{run_batch_store, stream_program_to_store, TraceStore};
//! use fetchvp_core::{run_batch, IdealConfig, MachineConfig};
//! use fetchvp_trace::trace_program;
//!
//! # fn main() -> std::io::Result<()> {
//! let mut b = ProgramBuilder::new("loop");
//! let head = b.bind_label("head");
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 3);
//! b.jump(head);
//! let program = b.build().unwrap();
//!
//! let dir = std::env::temp_dir().join("fetchvp-doctest");
//! std::fs::create_dir_all(&dir)?;
//! let path = dir.join("loop.fvps");
//!
//! // Stream 50k instructions to disk in 4k-instruction chunks…
//! let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
//! stream_program_to_store(&program, "loop", 50_000, 4096, file)?;
//!
//! // …and replay them chunk-by-chunk, byte-identical to in-memory.
//! let store = TraceStore::open(&path)?;
//! let configs = [MachineConfig::Ideal(IdealConfig::default())];
//! let chunked = run_batch_store(&store, &configs)?;
//! let in_memory = run_batch(&trace_program(&program, 50_000), &configs);
//! assert_eq!(chunked, in_memory);
//! # std::fs::remove_file(&path)?;
//! # Ok(())
//! # }
//! ```
//!
//! [`TraceColumns`]: fetchvp_trace::TraceColumns
//! [`TraceColumns::prepare`]: fetchvp_trace::TraceColumns::prepare
//! [`fetchvp_core::BatchRunner`]: fetchvp_core::BatchRunner

#![deny(missing_docs)]

pub mod cache;
mod format;
mod reader;
mod replay;
mod writer;

pub use cache::{CacheCounters, TraceDir, TraceKey};
pub use format::{fnv1a, ChunkMeta, DEFAULT_CHUNK_LEN, FORMAT_VERSION, MAGIC};
pub use reader::{ChunkCursor, TraceStore};
pub use replay::{
    run_batch_source, run_batch_store, run_batch_store_with_progress, stream_store_stats,
    ReplayProgress, TraceSource,
};
pub use writer::{stream_program_to_store, write_store, StoreSummary, StoreWriter};
