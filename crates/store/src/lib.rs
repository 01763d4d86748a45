//! Durability for the streaming engines: an append-only segment log, periodic
//! checkpoints, and byte-identical replay recovery.
//!
//! A [`MultiStreamingEngine`](pce_core::MultiStreamingEngine) keeps every
//! window edge, watermark and subscription in memory; a process restart drops
//! them all. This crate makes the streaming stack restartable without losing
//! or duplicating a single report:
//!
//! * [`SegmentLog`] appends every ingested batch to append-only *segments*
//!   using the versioned, CRC-checked binary encoding from
//!   [`pce_graph::io`], rotating to a fresh segment at a configurable size.
//! * [`Checkpoint`] captures, at segment boundaries (and on every
//!   subscription change), the stream position, watermark, compaction base
//!   and the full subscription registry — each query plus its lifetime cycle
//!   total.
//! * [`recover`] rebuilds a live engine from the newest usable checkpoint:
//!   it *hydrates* the sliding window by re-ingesting still-relevant logged
//!   batches with no subscriptions attached (a pure append/expiry pass),
//!   restores the registry, then *replays* the batches after the checkpoint
//!   through the full engine — regenerating the lost per-query reports. A
//!   torn tail record (a crash mid-append) is truncated, never a fatal error.
//!
//! Storage sits behind the narrow [`SegmentStore`] trait — the pijul
//! changestore layering — with [`MemoryStore`] for tests and [`FsStore`] for
//! production. [`DurableMultiStreamingEngine`] wires it together:
//! ingest = log-then-apply, checkpoint cadence configurable.
//!
//! ## Why replay is byte-identical
//!
//! The enumeration layer roots every cycle at its maximum `(timestamp, id)`
//! edge, so a cycle is reported exactly once, at the batch that closes it,
//! independent of thread count, granularity and fan-out strategy. Replaying
//! the same logged batches over the same restored registry therefore yields
//! per-query reports *byte-identical* to the uninterrupted run — the crash
//! sweep in `tests/durability.rs` proves this for every possible cut point
//! of the log, including mid-record torn writes, on both store backends.
//!
//! ```
//! use pce_store::{DurableConfig, DurableMultiStreamingEngine, MemoryStore, recover};
//! use pce_core::StreamingQuery;
//! use pce_graph::TemporalEdge;
//!
//! let cfg = DurableConfig::default();
//! let mut durable =
//!     DurableMultiStreamingEngine::create(MemoryStore::new(), 100, &cfg).unwrap();
//! let q = durable.subscribe(StreamingQuery::temporal(100)).unwrap();
//! durable.ingest(&[TemporalEdge::new(0, 1, 10), TemporalEdge::new(1, 2, 20)]).unwrap();
//! let report = durable.ingest(&[TemporalEdge::new(2, 0, 30)]).unwrap();
//! assert_eq!(report.report(q).unwrap().cycles_found, 1);
//!
//! // "Crash": drop the engine, keep the store. Recovery resurrects the
//! // registry (with its lifetime totals) and the window.
//! let store = durable.into_store();
//! let (recovered, info) = recover(store, &cfg).unwrap();
//! assert_eq!(recovered.engine().total_cycles(q), Some(1));
//! assert_eq!(info.replayed.len() as u64 + info.checkpoint_batches, 2);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod engine;
pub mod log;
pub mod recovery;

pub use backend::{FsStore, MemoryStore, SegmentStore};
pub use checkpoint::{Checkpoint, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC};
pub use engine::{DurableConfig, DurableMultiStreamingEngine};
pub use log::{LogScan, RecordMeta, SegmentLog, RECORD_HEADER_LEN};
pub use recovery::{recover, RecoveryReport};

use pce_core::StreamingError;
use pce_graph::io::IoError;

/// Errors produced by the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying IO failure of a store backend.
    Io(std::io::Error),
    /// A logged payload or checkpoint failed the binary codec's validation
    /// (bad magic, checksum mismatch, unsupported version, truncation).
    Codec(IoError),
    /// A segment holds data that cannot be trusted and is *not* the torn
    /// tail of the newest segment — e.g. a corrupt record in the middle of
    /// the log, or a gap in the segment sequence. Truncating here would
    /// silently drop acknowledged batches, so recovery refuses instead.
    Corrupt {
        /// The segment id.
        segment: u64,
        /// Byte offset of the first untrusted byte within the segment.
        offset: u64,
        /// What failed.
        detail: &'static str,
    },
    /// No checkpoint in the store is usable (none present, none decodes, or
    /// every candidate references batches beyond what the log holds).
    NoCheckpoint,
    /// [`SegmentLog::rollback_last`] was called with no rollback-able append:
    /// before any append, twice for the same append, or after the record's
    /// segment was sealed by a rotation or truncation.
    RollbackWithoutAppend,
    /// [`SegmentLog::append`] got a batch index other than the log's next
    /// one: the log holds a contiguous sequence.
    OutOfSequence {
        /// The index the log expected ([`SegmentLog::next_batch`]).
        expected: u64,
        /// The index the append carried.
        got: u64,
    },
    /// An earlier [`SegmentLog::append`] failed part-way and its partial
    /// record could not be cut off, so the log refuses further appends:
    /// one would land after the partial record and be lost with it as a
    /// torn tail on reopen. Reopening the log truncates the partial record.
    LogPoisoned {
        /// The segment holding the partial record.
        segment: u64,
        /// The segment's length before the failed append.
        offset: u64,
    },
    /// The wrapped streaming engine rejected an operation (invalid query,
    /// retention too small, out-of-order batch).
    Streaming(StreamingError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
            StoreError::Corrupt {
                segment,
                offset,
                detail,
            } => write!(f, "segment {segment} corrupt at byte {offset}: {detail}"),
            StoreError::NoCheckpoint => write!(f, "no usable checkpoint in store"),
            StoreError::RollbackWithoutAppend => {
                write!(f, "rollback_last without a rollback-able append")
            }
            StoreError::OutOfSequence { expected, got } => {
                write!(f, "log append of batch {got}, expected batch {expected}")
            }
            StoreError::LogPoisoned { segment, offset } => write!(
                f,
                "segment {segment} holds a partial record past byte {offset} that could not \
                 be removed; reopen the log"
            ),
            StoreError::Streaming(e) => write!(f, "streaming error during recovery: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<IoError> for StoreError {
    fn from(e: IoError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<StreamingError> for StoreError {
    fn from(e: StreamingError) -> Self {
        StoreError::Streaming(e)
    }
}
