//! The durable wrapper: log-then-apply ingest over a
//! [`MultiStreamingEngine`].

use crate::checkpoint::Checkpoint;
use crate::log::SegmentLog;
use crate::{SegmentStore, StoreError};
use pce_core::{
    FanOutStrategy, Granularity, MultiBatchReport, MultiStreamingEngine, QueryId, StreamingQuery,
};
use pce_graph::{TemporalEdge, Timestamp};

/// Configuration of a [`DurableMultiStreamingEngine`].
///
/// `segment_bytes` and `checkpoint_every_batches` are operational knobs and
/// may change between restarts; `threads` is a per-process choice. The
/// engine-behaviour fields (`granularity`, `strategy`) are captured in every
/// checkpoint, and [`recover`](crate::recover) restores *those* from the
/// checkpoint — a restarted engine replays with the configuration it
/// crashed with.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes (records are never split; a segment may overshoot by one
    /// record). A checkpoint is written at every rotation.
    pub segment_bytes: u64,
    /// Additionally checkpoint every N applied batches (`0` = only at
    /// segment rotations and subscription changes).
    pub checkpoint_every_batches: u64,
    /// Worker threads of the inner engine (`0` = one per core).
    pub threads: usize,
    /// Engine-wide shared-pass granularity.
    pub granularity: Granularity,
    /// Fan-out strategy.
    pub strategy: FanOutStrategy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            checkpoint_every_batches: 0,
            threads: 0,
            granularity: Granularity::CoarseGrained,
            strategy: FanOutStrategy::default(),
        }
    }
}

/// A [`MultiStreamingEngine`] whose stream and subscription registry survive
/// a process restart.
///
/// Every mutation goes through the store first:
///
/// * [`ingest`](Self::ingest) is **log-then-apply** — the batch is appended
///   to the segment log, then fed to the engine. If the engine rejects it
///   (e.g. out-of-order timestamps), the just-written record is rolled back
///   so the log only ever holds acknowledged batches.
/// * [`subscribe`](Self::subscribe)/[`unsubscribe`](Self::unsubscribe)
///   write a checkpoint immediately — the registry is small and must never
///   be lost, so registry changes are durable the moment they return.
/// * a [`Checkpoint`] is also written at every segment rotation and,
///   optionally, every [`checkpoint_every_batches`] applied batches.
///
/// After a crash, [`recover`](crate::recover) rebuilds an equivalent engine
/// from the newest usable checkpoint plus the log.
///
/// [`checkpoint_every_batches`]: DurableConfig::checkpoint_every_batches
#[derive(Debug)]
pub struct DurableMultiStreamingEngine<S: SegmentStore> {
    engine: MultiStreamingEngine,
    log: SegmentLog<S>,
    checkpoint_every_batches: u64,
    next_checkpoint_seq: u64,
    batches_since_checkpoint: u64,
    checkpoints_written: u64,
    segments_rotated: u64,
}

impl<S: SegmentStore> DurableMultiStreamingEngine<S> {
    /// Starts a durable engine on an **empty** store (a store with existing
    /// segments must go through [`recover`](crate::recover) instead — see
    /// [`SegmentLog::create`]). Writes checkpoint `0` immediately, so a
    /// store that has ever held a durable engine always has a checkpoint to
    /// recover from.
    pub fn create(store: S, retention: Timestamp, cfg: &DurableConfig) -> Result<Self, StoreError> {
        let log = SegmentLog::create(store, cfg.segment_bytes)?;
        let engine = MultiStreamingEngine::with_threads(retention, cfg.threads)?
            .with_granularity(cfg.granularity)
            .with_fan_out(cfg.strategy);
        let mut durable = Self {
            engine,
            log,
            checkpoint_every_batches: cfg.checkpoint_every_batches,
            next_checkpoint_seq: 0,
            batches_since_checkpoint: 0,
            checkpoints_written: 0,
            segments_rotated: 0,
        };
        durable.checkpoint_now()?;
        Ok(durable)
    }

    /// Reassembles a durable engine from recovered parts (crate-internal —
    /// the public entry point is [`recover`](crate::recover)).
    pub(crate) fn from_parts(
        engine: MultiStreamingEngine,
        log: SegmentLog<S>,
        next_checkpoint_seq: u64,
        cfg: &DurableConfig,
    ) -> Self {
        Self {
            engine,
            log,
            checkpoint_every_batches: cfg.checkpoint_every_batches,
            next_checkpoint_seq,
            batches_since_checkpoint: 0,
            checkpoints_written: 0,
            segments_rotated: 0,
        }
    }

    /// Registers a standing query (see
    /// [`MultiStreamingEngine::subscribe`]) and makes the registry change
    /// durable before returning.
    pub fn subscribe(&mut self, query: StreamingQuery) -> Result<QueryId, StoreError> {
        let id = self.engine.subscribe(query)?;
        self.checkpoint_now()?;
        Ok(id)
    }

    /// Removes a subscription and makes the registry change durable before
    /// returning. Returns `false` (without touching the store) when `id` was
    /// not subscribed.
    pub fn unsubscribe(&mut self, id: QueryId) -> Result<bool, StoreError> {
        if !self.engine.unsubscribe(id) {
            return Ok(false);
        }
        self.checkpoint_now()?;
        Ok(true)
    }

    /// Ingests one batch durably: the batch is appended to the segment log,
    /// then applied to the engine. Once this returns `Ok`, the batch — and
    /// every report it produced — survives a crash (recovery replays it
    /// byte-identically). A batch the engine rejects is rolled back from the
    /// log and the error returned; the store then holds exactly the
    /// acknowledged prefix of the stream.
    pub fn ingest(&mut self, batch: &[TemporalEdge]) -> Result<MultiBatchReport, StoreError> {
        let index = self.engine.batches();
        self.log.append(index, batch)?;
        let report = match self.engine.ingest(batch) {
            Ok(report) => report,
            Err(e) => {
                self.log.rollback_last()?;
                return Err(e.into());
            }
        };
        self.batches_since_checkpoint += 1;
        if self.log.should_rotate() {
            self.log.rotate();
            self.segments_rotated += 1;
            self.checkpoint_now()?;
        } else if self.checkpoint_every_batches > 0
            && self.batches_since_checkpoint >= self.checkpoint_every_batches
        {
            self.checkpoint_now()?;
        }
        Ok(report)
    }

    /// Writes a checkpoint of the current engine state immediately.
    pub fn checkpoint_now(&mut self) -> Result<(), StoreError> {
        let graph = self.engine.graph();
        let ckpt = Checkpoint {
            seq: self.next_checkpoint_seq,
            batches: self.engine.batches(),
            watermark: graph.watermark(),
            retention: graph.retention(),
            compaction_base: graph.watermark().saturating_sub(graph.retention()),
            granularity: self.engine.granularity(),
            strategy: self.engine.fan_out_strategy(),
            next_query_id: self.engine.next_query_id(),
            subscriptions: self.engine.subscription_snapshots(),
        };
        let bytes = ckpt.encode();
        self.log
            .store_mut()
            .write_checkpoint(self.next_checkpoint_seq, &bytes)?;
        self.next_checkpoint_seq += 1;
        self.checkpoints_written += 1;
        self.batches_since_checkpoint = 0;
        Ok(())
    }

    /// The wrapped engine (read-only: mutations must go through the durable
    /// wrapper so they reach the store).
    pub fn engine(&self) -> &MultiStreamingEngine {
        &self.engine
    }

    /// The segment log.
    pub fn log(&self) -> &SegmentLog<S> {
        &self.log
    }

    /// Checkpoints written by *this* instance (recovery resets the counter;
    /// sequence numbers keep ascending across restarts).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Segment rotations performed by this instance.
    pub fn segments_rotated(&self) -> u64 {
        self.segments_rotated
    }

    /// Consumes the wrapper, returning the store (how tests hand "the disk"
    /// to a recovery after a simulated crash).
    pub fn into_store(self) -> S {
        self.log.into_store()
    }
}
