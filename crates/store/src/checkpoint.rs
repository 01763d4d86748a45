//! Checkpoint encoding: the durable snapshot of a streaming engine's state.
//!
//! A checkpoint does **not** store the window's edges — those live in the
//! segment log. It stores everything else a restart needs:
//!
//! * the stream position (`batches` — how many log records were applied),
//! * the watermark and compaction base (so recovery knows which logged
//!   batches are fully expired and can be skipped during hydration),
//! * the engine configuration replay must reproduce (retention, granularity,
//!   fan-out strategy),
//! * the full subscription registry: each query, its stable id, its lifetime
//!   cycle total, plus the next id to issue (ids stay never-reused across
//!   restarts even when the highest id was unsubscribed before the crash).
//!   Since format v2 each record also carries the query's edge predicate
//!   (amount interval plus label filter), so restored portfolios rebuild the
//!   same predicate union and cohort profiles the live engine had. Format v4
//!   extends each record with the query's full [`CyclePredicate`]: the
//!   total-amount interval, the monotone-amounts flag, the position-pinned
//!   edge constraints, and the vertex filter — so restored portfolios prune
//!   and fan out exactly like the live engine did.
//!
//! The binary layout is hand-rolled like the batch encoding — magic
//! `b"PCEC"`, version, fixed-width LE fields, and a trailing CRC32 over
//! everything before it — so any torn or bit-flipped checkpoint decodes to a
//! typed error and recovery falls back to the previous one.

use pce_core::{
    CollectMode, CycleKind, CyclePredicate, EdgePredicate, FanOutStrategy, Granularity,
    LabelFilter, Position, QueryId, StreamingQuery, SubscriptionSnapshot, VertexFilter,
};
use pce_graph::io::{crc32, IoError};
use pce_graph::{Label, Timestamp, VertexId};

/// Magic prefix of every checkpoint blob: `b"PCEC"`.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"PCEC";

/// Current checkpoint format version. Version 4 appends each subscription's
/// extended [`CyclePredicate`] record — total-amount interval, monotone
/// flag, positional edge constraints, vertex filter — after its shard
/// count. Pre-v4 queries could only express per-edge constraints, so
/// earlier versions decode with every extended component restored pass-all
/// (exactly the predicate those queries ran with). Version 3 added a shard
/// count after the next-query-id field and one after each subscription's
/// predicate, from when the engine could partition its window's adjacency.
/// Reports never depended on it and the engine no longer shards, so the
/// encoder writes `1` in both and the decoder ignores the value (a zero
/// count, which no layout ever had, still reads as corruption). Version 2
/// appended each subscription's [`EdgePredicate`] (amount interval + label
/// filter) to its registry record; version-1 checkpoints decode with every
/// query given the pass-all predicate.
pub const CHECKPOINT_FORMAT_VERSION: u16 = 4;

/// The v3 checkpoint format: shard fields present, no extended-predicate
/// records.
pub const CHECKPOINT_FORMAT_V3: u16 = 3;

/// The v2 checkpoint format: predicates present, no shard fields.
pub const CHECKPOINT_FORMAT_V2: u16 = 2;

/// The original checkpoint format: identical through the registry header,
/// per-subscription records without predicate or shard fields.
pub const CHECKPOINT_FORMAT_V1: u16 = 1;

/// The durable snapshot of a [`MultiStreamingEngine`]'s replayable state.
/// See the [module docs](self) for what is (and is not) captured.
///
/// [`MultiStreamingEngine`]: pce_core::MultiStreamingEngine
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotone checkpoint sequence number (newest wins).
    pub seq: u64,
    /// Number of log batches applied when this checkpoint was taken; replay
    /// resumes at this batch index.
    pub batches: u64,
    /// The stream watermark at checkpoint time (`Timestamp::MIN` before any
    /// edge).
    pub watermark: Timestamp,
    /// The engine's retention span.
    pub retention: Timestamp,
    /// The window floor at checkpoint time (`watermark − retention`,
    /// saturating): logged batches wholly below it are fully expired and
    /// recovery's hydration pass skips them.
    pub compaction_base: Timestamp,
    /// The engine-wide shared-pass granularity.
    pub granularity: Granularity,
    /// The engine's fan-out strategy.
    pub strategy: FanOutStrategy,
    /// The id the engine would assign to its next subscription.
    pub next_query_id: u64,
    /// The live registry, in ascending-id order.
    pub subscriptions: Vec<SubscriptionSnapshot>,
}

fn granularity_byte(g: Granularity) -> u8 {
    match g {
        Granularity::Sequential => 0,
        Granularity::CoarseGrained => 1,
        Granularity::FineGrained => 2,
    }
}

fn granularity_from(b: u8, offset: usize) -> Result<Granularity, IoError> {
    match b {
        0 => Ok(Granularity::Sequential),
        1 => Ok(Granularity::CoarseGrained),
        2 => Ok(Granularity::FineGrained),
        _ => Err(IoError::Corrupt {
            offset,
            detail: "unknown granularity byte",
        }),
    }
}

fn encode_labels(buf: &mut Vec<u8>, set: &[Label]) {
    buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for label in set {
        buf.extend_from_slice(&label.to_le_bytes());
    }
}

fn decode_labels(cur: &mut Cursor<'_>) -> Result<Vec<Label>, IoError> {
    let count = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
    // Bound the count by the remaining bytes before allocating.
    let avail = cur.bytes.len().saturating_sub(4).saturating_sub(cur.offset);
    if count * 2 > avail {
        return Err(IoError::Truncated {
            needed: cur.offset + count * 2 + 4,
            have: cur.bytes.len(),
        });
    }
    let mut labels = Vec::with_capacity(count);
    for _ in 0..count {
        labels.push(cur.u16()?);
    }
    Ok(labels)
}

/// Encodes one [`EdgePredicate`]: amount hull first, then the label filter
/// as a tag byte; Allow/Deny carry a counted, ascending label list (Any
/// carries nothing). Shared between the per-edge predicate (v2 field) and
/// the v4 positional records.
fn encode_edge_predicate(buf: &mut Vec<u8>, pred: &EdgePredicate) {
    buf.extend_from_slice(&pred.amount_min().to_le_bytes());
    buf.extend_from_slice(&pred.amount_max().to_le_bytes());
    match pred.label_filter() {
        LabelFilter::Any => buf.push(0),
        LabelFilter::Allow(set) => {
            buf.push(1);
            encode_labels(buf, set);
        }
        LabelFilter::Deny(set) => {
            buf.push(2);
            encode_labels(buf, set);
        }
    }
}

fn decode_edge_predicate(cur: &mut Cursor<'_>) -> Result<EdgePredicate, IoError> {
    let amount_min = cur.u64()?;
    let amount_max = cur.u64()?;
    let filter = match cur.u8()? {
        0 => LabelFilter::Any,
        1 => LabelFilter::allow(decode_labels(cur)?),
        2 => LabelFilter::deny(decode_labels(cur)?),
        _ => {
            return Err(IoError::Corrupt {
                offset: cur.offset - 1,
                detail: "unknown label-filter tag",
            })
        }
    };
    Ok(EdgePredicate::pass_all()
        .min_amount(amount_min)
        .max_amount(amount_max)
        .labels(filter))
}

/// Encodes one positional-constraint list of a [`CyclePredicate`]: a counted
/// sequence of `(u32 position index, edge-predicate record)` pairs in
/// ascending index order.
fn encode_positions(buf: &mut Vec<u8>, positions: &[(u32, &EdgePredicate)]) {
    buf.extend_from_slice(&(positions.len() as u32).to_le_bytes());
    for (index, pred) in positions {
        buf.extend_from_slice(&index.to_le_bytes());
        encode_edge_predicate(buf, pred);
    }
}

fn decode_positions(cur: &mut Cursor<'_>) -> Result<Vec<(u32, EdgePredicate)>, IoError> {
    let count = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
    // Bound the count by the remaining bytes before allocating. The minimum
    // entry is the index plus an Any-filter edge predicate: 4 + 8 + 8 + 1.
    let avail = cur.bytes.len().saturating_sub(4).saturating_sub(cur.offset);
    if count * 21 > avail {
        return Err(IoError::Truncated {
            needed: cur.offset + count * 21 + 4,
            have: cur.bytes.len(),
        });
    }
    let mut positions = Vec::with_capacity(count);
    for _ in 0..count {
        let index = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        positions.push((index, decode_edge_predicate(cur)?));
    }
    Ok(positions)
}

fn encode_vertex_filter(buf: &mut Vec<u8>, filter: &VertexFilter) {
    let set: &[VertexId] = match filter {
        VertexFilter::Any => {
            buf.push(0);
            return;
        }
        VertexFilter::Allow(set) => {
            buf.push(1);
            set
        }
        VertexFilter::Deny(set) => {
            buf.push(2);
            set
        }
    };
    buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for vertex in set {
        buf.extend_from_slice(&vertex.to_le_bytes());
    }
}

fn decode_vertex_filter(cur: &mut Cursor<'_>) -> Result<VertexFilter, IoError> {
    let tag = cur.u8()?;
    if tag == 0 {
        return Ok(VertexFilter::Any);
    }
    if tag > 2 {
        return Err(IoError::Corrupt {
            offset: cur.offset - 1,
            detail: "unknown vertex-filter tag",
        });
    }
    let count = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
    // Bound the count by the remaining bytes before allocating.
    let avail = cur.bytes.len().saturating_sub(4).saturating_sub(cur.offset);
    if count * 4 > avail {
        return Err(IoError::Truncated {
            needed: cur.offset + count * 4 + 4,
            have: cur.bytes.len(),
        });
    }
    let mut vertices = Vec::with_capacity(count);
    for _ in 0..count {
        vertices.push(u32::from_le_bytes(cur.take(4)?.try_into().unwrap()));
    }
    Ok(match tag {
        1 => VertexFilter::allow(vertices),
        _ => VertexFilter::deny(vertices),
    })
}

/// Encodes the v4 extended-predicate record: the cycle-level components of a
/// [`CyclePredicate`] beyond the per-edge predicate (which v2 already
/// stores).
fn encode_extended_predicate(buf: &mut Vec<u8>, pred: &CyclePredicate) {
    buf.extend_from_slice(&pred.total_amount_min().to_le_bytes());
    buf.extend_from_slice(&pred.total_amount_max().to_le_bytes());
    buf.push(pred.requires_monotone() as u8);
    let mut from_start = Vec::new();
    let mut from_end = Vec::new();
    for (position, edge) in pred.positions() {
        match position {
            Position::FromStart(i) => from_start.push((i, edge)),
            Position::FromEnd(i) => from_end.push((i, edge)),
        }
    }
    encode_positions(buf, &from_start);
    encode_positions(buf, &from_end);
    encode_vertex_filter(buf, pred.vertex_filter());
}

/// Decodes the v4 extended-predicate record onto `base` (the cycle predicate
/// carrying the already-decoded per-edge predicate).
fn decode_extended_predicate(
    cur: &mut Cursor<'_>,
    base: CyclePredicate,
) -> Result<CyclePredicate, IoError> {
    let total_min = cur.u64()?;
    let total_max = cur.u64()?;
    let monotone = match cur.u8()? {
        0 => false,
        1 => true,
        _ => {
            return Err(IoError::Corrupt {
                offset: cur.offset - 1,
                detail: "unknown monotone-flag byte",
            })
        }
    };
    let mut pred = base
        .total_min(total_min)
        .total_max(total_max)
        .monotone_amounts(monotone);
    for (index, edge) in decode_positions(cur)? {
        pred = pred.at(Position::FromStart(index), edge);
    }
    for (index, edge) in decode_positions(cur)? {
        pred = pred.at(Position::FromEnd(index), edge);
    }
    Ok(pred.vertices(decode_vertex_filter(cur)?))
}

impl Checkpoint {
    /// Serialises the checkpoint (see the [module docs](self) for layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.subscriptions.len() * 40);
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.batches.to_le_bytes());
        buf.extend_from_slice(&self.watermark.to_le_bytes());
        buf.extend_from_slice(&self.retention.to_le_bytes());
        buf.extend_from_slice(&self.compaction_base.to_le_bytes());
        buf.push(granularity_byte(self.granularity));
        buf.push(match self.strategy {
            FanOutStrategy::Naive => 0,
            FanOutStrategy::Indexed => 1,
        });
        buf.extend_from_slice(&self.next_query_id.to_le_bytes());
        // v3: the engine's shard count, always 1 now (see
        // `CHECKPOINT_FORMAT_VERSION`).
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&(self.subscriptions.len() as u32).to_le_bytes());
        for sub in &self.subscriptions {
            let q = &sub.query;
            buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
            buf.push(match q.kind() {
                CycleKind::Simple => 0,
                CycleKind::Temporal => 1,
            });
            buf.push(granularity_byte(q.requested_granularity()));
            buf.extend_from_slice(&q.window_delta().to_le_bytes());
            let max_len = q.max_len_bound().map_or(u64::MAX, |n| n as u64);
            buf.extend_from_slice(&max_len.to_le_bytes());
            buf.push(q.includes_self_loops() as u8);
            buf.push(match q.collect_mode() {
                CollectMode::Count => 0,
                CollectMode::Collect => 1,
            });
            buf.extend_from_slice(&sub.total_cycles.to_le_bytes());
            // v2: the query's edge predicate. Amount hull first, then the
            // label filter as a tag byte; Allow/Deny carry a counted,
            // ascending label list (Any carries nothing).
            encode_edge_predicate(&mut buf, q.edge_predicate());
            // v3: the query's shard count, always 1 now.
            buf.extend_from_slice(&1u32.to_le_bytes());
            // v4: the extended cycle-predicate record (total interval,
            // monotone flag, positional constraints, vertex filter).
            encode_extended_predicate(&mut buf, q.extended_predicate());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserialises a checkpoint, rejecting any corruption (bad magic,
    /// unknown version or enum byte, truncation, trailing bytes, checksum
    /// mismatch) with a typed [`IoError`].
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, IoError> {
        let mut cur = Cursor { bytes, offset: 0 };
        let magic = cur.take(4)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(IoError::Corrupt {
                offset: 0,
                detail: "bad checkpoint magic",
            });
        }
        // Validate the CRC up front: every later structural error on a
        // checksum-valid blob is then a genuine format issue, not bit rot.
        if bytes.len() < 4 + 2 + 4 {
            return Err(IoError::Truncated {
                needed: 10,
                have: bytes.len(),
            });
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
        if crc32(&bytes[..body_len]) != stored {
            return Err(IoError::Corrupt {
                offset: body_len,
                detail: "checkpoint checksum mismatch",
            });
        }
        let version = u16::from_le_bytes(cur.take(2)?.try_into().unwrap());
        if !(CHECKPOINT_FORMAT_V1..=CHECKPOINT_FORMAT_VERSION).contains(&version) {
            return Err(IoError::UnsupportedVersion { version });
        }
        let with_predicates = version >= CHECKPOINT_FORMAT_V2;
        let with_shard_counts = version >= CHECKPOINT_FORMAT_V3;
        let with_extended = version >= CHECKPOINT_FORMAT_VERSION;
        let seq = cur.u64()?;
        let batches = cur.u64()?;
        let watermark = cur.i64()?;
        let retention = cur.i64()?;
        let compaction_base = cur.i64()?;
        let granularity = granularity_from(cur.u8()?, cur.offset - 1)?;
        let strategy = match cur.u8()? {
            0 => FanOutStrategy::Naive,
            1 => FanOutStrategy::Indexed,
            _ => {
                return Err(IoError::Corrupt {
                    offset: cur.offset - 1,
                    detail: "unknown fan-out strategy byte",
                })
            }
        };
        let next_query_id = cur.u64()?;
        if with_shard_counts {
            skip_shard_count(&mut cur)?;
        }
        let nsubs = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
        // Bound the count by the remaining bytes before allocating. v2+
        // records are variable-length (label lists), so use the minimum
        // record size: the v1 fixed fields, plus the amount hull and the
        // label-filter tag byte (v2+), plus the shard count (v3+), plus the
        // minimum extended record — total interval, monotone flag, two empty
        // position lists, Any vertex filter (v4+).
        let v1_sub = 8 + 1 + 1 + 8 + 8 + 1 + 1 + 8;
        let mut per_sub = v1_sub;
        if with_predicates {
            per_sub += 8 + 8 + 1;
        }
        if with_shard_counts {
            per_sub += 4;
        }
        if with_extended {
            per_sub += 8 + 8 + 1 + 4 + 4 + 1;
        }
        if bytes.len() - cur.offset < nsubs * per_sub {
            return Err(IoError::Truncated {
                needed: cur.offset + nsubs * per_sub + 4,
                have: bytes.len(),
            });
        }
        let mut subscriptions = Vec::with_capacity(nsubs);
        for _ in 0..nsubs {
            let id = QueryId::from_raw(cur.u64()?);
            let kind_byte = cur.u8()?;
            let granularity = granularity_from(cur.u8()?, cur.offset - 1)?;
            let delta = cur.i64()?;
            let max_len = cur.u64()?;
            let self_loops = cur.u8()? != 0;
            let collect = match cur.u8()? {
                0 => CollectMode::Count,
                1 => CollectMode::Collect,
                _ => {
                    return Err(IoError::Corrupt {
                        offset: cur.offset - 1,
                        detail: "unknown collect-mode byte",
                    })
                }
            };
            let total_cycles = cur.u64()?;
            let mut query = match kind_byte {
                0 => StreamingQuery::simple(delta),
                1 => StreamingQuery::temporal(delta),
                _ => {
                    return Err(IoError::Corrupt {
                        offset: cur.offset,
                        detail: "unknown cycle-kind byte",
                    })
                }
            };
            query = query.granularity(granularity).collect(collect);
            if max_len != u64::MAX {
                query = query.max_len(max_len as usize);
            }
            if self_loops {
                query = query.include_self_loops(true);
            }
            let edge_pred = if with_predicates {
                decode_edge_predicate(&mut cur)?
            } else {
                // v1 records carry no predicate: those queries predate the
                // attribute columns, so pass-all is exactly what they meant.
                EdgePredicate::pass_all()
            };
            if with_shard_counts {
                skip_shard_count(&mut cur)?;
            }
            if with_extended {
                let base = CyclePredicate::pass_all().edge(edge_pred);
                query = query.cycle_predicate(decode_extended_predicate(&mut cur, base)?);
            } else {
                // Pre-v4 queries could only express per-edge constraints, so
                // pass-all extended components are exactly what they ran
                // with.
                query = query.predicate(edge_pred);
            }
            subscriptions.push(SubscriptionSnapshot {
                id,
                query,
                total_cycles,
            });
        }
        if cur.offset != body_len {
            return Err(IoError::Corrupt {
                offset: cur.offset,
                detail: "trailing bytes in checkpoint",
            });
        }
        Ok(Checkpoint {
            seq,
            batches,
            watermark,
            retention,
            compaction_base,
            granularity,
            strategy,
            next_query_id,
            subscriptions,
        })
    }
}

/// Skips a v3 shard count: a u32 that must be at least 1 (a zero-shard
/// layout never existed, so it can only be corruption) and is otherwise
/// ignored, since reports never depended on it.
fn skip_shard_count(cur: &mut Cursor<'_>) -> Result<(), IoError> {
    let n = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    if n == 0 {
        return Err(IoError::Corrupt {
            offset: cur.offset - 4,
            detail: "zero shard count",
        });
    }
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        // The final 4 bytes are the CRC, not field data.
        let avail = self.bytes.len().saturating_sub(4);
        if self.offset + n > avail {
            return Err(IoError::Truncated {
                needed: self.offset + n + 4,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, IoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, IoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, IoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            seq: 7,
            batches: 42,
            watermark: 1_000,
            retention: 300,
            compaction_base: 700,
            granularity: Granularity::FineGrained,
            strategy: FanOutStrategy::Indexed,
            next_query_id: 9,
            subscriptions: vec![
                SubscriptionSnapshot {
                    id: QueryId::from_raw(1),
                    query: StreamingQuery::temporal(250).max_len(6).cycle_predicate(
                        CyclePredicate::pass_all()
                            .edge(
                                EdgePredicate::pass_all()
                                    .min_amount(100)
                                    .labels(LabelFilter::allow(vec![2, 7])),
                            )
                            .total_min(250)
                            .total_max(10_000)
                            .monotone_amounts(true)
                            .at(
                                Position::FromStart(0),
                                EdgePredicate::pass_all().min_amount(5),
                            )
                            .at(
                                Position::FromEnd(1),
                                EdgePredicate::pass_all().labels(LabelFilter::deny(vec![9])),
                            )
                            .vertices(VertexFilter::deny(vec![3, 8])),
                    ),
                    total_cycles: 17,
                },
                SubscriptionSnapshot {
                    id: QueryId::from_raw(4),
                    query: StreamingQuery::simple(300)
                        .include_self_loops(true)
                        .granularity(Granularity::Sequential)
                        .collect(CollectMode::Count),
                    total_cycles: 0,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let ckpt = sample();
        let bytes = ckpt.encode();
        assert_eq!(Checkpoint::decode(&bytes).unwrap(), ckpt);

        // Watermark sentinel (fresh stream) survives.
        let mut fresh = sample();
        fresh.watermark = Timestamp::MIN;
        fresh.subscriptions.clear();
        assert_eq!(Checkpoint::decode(&fresh.encode()).unwrap(), fresh);

        // Deny-list filters and bounded amount intervals survive too.
        let mut denied = sample();
        denied.subscriptions[1].query = StreamingQuery::simple(300).predicate(
            EdgePredicate::pass_all()
                .max_amount(5_000)
                .labels(LabelFilter::deny(vec![0, 3, 9])),
        );
        assert_eq!(Checkpoint::decode(&denied.encode()).unwrap(), denied);
    }

    /// Re-encodes a checkpoint in the v1 layout: same header, registry
    /// records without the trailing predicate fields. Mirrors what the
    /// encoder produced before the attribute columns existed.
    fn encode_v1(ckpt: &Checkpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_FORMAT_V1.to_le_bytes());
        buf.extend_from_slice(&ckpt.seq.to_le_bytes());
        buf.extend_from_slice(&ckpt.batches.to_le_bytes());
        buf.extend_from_slice(&ckpt.watermark.to_le_bytes());
        buf.extend_from_slice(&ckpt.retention.to_le_bytes());
        buf.extend_from_slice(&ckpt.compaction_base.to_le_bytes());
        buf.push(granularity_byte(ckpt.granularity));
        buf.push(match ckpt.strategy {
            FanOutStrategy::Naive => 0,
            FanOutStrategy::Indexed => 1,
        });
        buf.extend_from_slice(&ckpt.next_query_id.to_le_bytes());
        buf.extend_from_slice(&(ckpt.subscriptions.len() as u32).to_le_bytes());
        for sub in &ckpt.subscriptions {
            let q = &sub.query;
            buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
            buf.push(match q.kind() {
                CycleKind::Simple => 0,
                CycleKind::Temporal => 1,
            });
            buf.push(granularity_byte(q.requested_granularity()));
            buf.extend_from_slice(&q.window_delta().to_le_bytes());
            let max_len = q.max_len_bound().map_or(u64::MAX, |n| n as u64);
            buf.extend_from_slice(&max_len.to_le_bytes());
            buf.push(q.includes_self_loops() as u8);
            buf.push(match q.collect_mode() {
                CollectMode::Count => 0,
                CollectMode::Collect => 1,
            });
            buf.extend_from_slice(&sub.total_cycles.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Re-encodes a checkpoint in the v2 layout: predicates present, no
    /// shard fields. Mirrors what the encoder produced before sharding.
    fn encode_v2(ckpt: &Checkpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_FORMAT_V2.to_le_bytes());
        buf.extend_from_slice(&ckpt.seq.to_le_bytes());
        buf.extend_from_slice(&ckpt.batches.to_le_bytes());
        buf.extend_from_slice(&ckpt.watermark.to_le_bytes());
        buf.extend_from_slice(&ckpt.retention.to_le_bytes());
        buf.extend_from_slice(&ckpt.compaction_base.to_le_bytes());
        buf.push(granularity_byte(ckpt.granularity));
        buf.push(match ckpt.strategy {
            FanOutStrategy::Naive => 0,
            FanOutStrategy::Indexed => 1,
        });
        buf.extend_from_slice(&ckpt.next_query_id.to_le_bytes());
        buf.extend_from_slice(&(ckpt.subscriptions.len() as u32).to_le_bytes());
        for sub in &ckpt.subscriptions {
            let q = &sub.query;
            buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
            buf.push(match q.kind() {
                CycleKind::Simple => 0,
                CycleKind::Temporal => 1,
            });
            buf.push(granularity_byte(q.requested_granularity()));
            buf.extend_from_slice(&q.window_delta().to_le_bytes());
            let max_len = q.max_len_bound().map_or(u64::MAX, |n| n as u64);
            buf.extend_from_slice(&max_len.to_le_bytes());
            buf.push(q.includes_self_loops() as u8);
            buf.push(match q.collect_mode() {
                CollectMode::Count => 0,
                CollectMode::Collect => 1,
            });
            buf.extend_from_slice(&sub.total_cycles.to_le_bytes());
            let pred = q.edge_predicate();
            buf.extend_from_slice(&pred.amount_min().to_le_bytes());
            buf.extend_from_slice(&pred.amount_max().to_le_bytes());
            match pred.label_filter() {
                LabelFilter::Any => buf.push(0),
                LabelFilter::Allow(set) => {
                    buf.push(1);
                    encode_labels(&mut buf, set);
                }
                LabelFilter::Deny(set) => {
                    buf.push(2);
                    encode_labels(&mut buf, set);
                }
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Re-encodes a checkpoint in the v3 layout: predicates and shard fields
    /// present, no extended-predicate records. Mirrors what the encoder
    /// produced before the cycle-predicate algebra existed, for an engine
    /// sharded 4 ways and queries asking for 2 shards.
    fn encode_v3(ckpt: &Checkpoint) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&CHECKPOINT_FORMAT_V3.to_le_bytes());
        buf.extend_from_slice(&ckpt.seq.to_le_bytes());
        buf.extend_from_slice(&ckpt.batches.to_le_bytes());
        buf.extend_from_slice(&ckpt.watermark.to_le_bytes());
        buf.extend_from_slice(&ckpt.retention.to_le_bytes());
        buf.extend_from_slice(&ckpt.compaction_base.to_le_bytes());
        buf.push(granularity_byte(ckpt.granularity));
        buf.push(match ckpt.strategy {
            FanOutStrategy::Naive => 0,
            FanOutStrategy::Indexed => 1,
        });
        buf.extend_from_slice(&ckpt.next_query_id.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(&(ckpt.subscriptions.len() as u32).to_le_bytes());
        for sub in &ckpt.subscriptions {
            let q = &sub.query;
            buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
            buf.push(match q.kind() {
                CycleKind::Simple => 0,
                CycleKind::Temporal => 1,
            });
            buf.push(granularity_byte(q.requested_granularity()));
            buf.extend_from_slice(&q.window_delta().to_le_bytes());
            let max_len = q.max_len_bound().map_or(u64::MAX, |n| n as u64);
            buf.extend_from_slice(&max_len.to_le_bytes());
            buf.push(q.includes_self_loops() as u8);
            buf.push(match q.collect_mode() {
                CollectMode::Count => 0,
                CollectMode::Collect => 1,
            });
            buf.extend_from_slice(&sub.total_cycles.to_le_bytes());
            encode_edge_predicate(&mut buf, q.edge_predicate());
            buf.extend_from_slice(&2u32.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn v3_checkpoints_decode_with_pass_all_extended_predicates() {
        // A v3 checkpoint has no extended-predicate records; decoding must
        // succeed with every restored query keeping its edge predicate but
        // reporting pass-all extended components — exactly the constraints
        // those queries could express. Its shard counts are ignored.
        let mut expected = sample();
        for sub in &mut expected.subscriptions {
            let edge = sub.query.edge_predicate().clone();
            sub.query = sub.query.clone().predicate(edge);
        }
        let v3_bytes = encode_v3(&expected);
        let decoded = Checkpoint::decode(&v3_bytes).unwrap();
        assert_eq!(decoded, expected);
        for sub in &decoded.subscriptions {
            let pred = sub.query.extended_predicate();
            assert!(!pred.has_cycle_constraints());
            assert_eq!(*pred.vertex_filter(), VertexFilter::Any);
        }
        // The corruption guarantees hold for the legacy format too.
        for byte in 0..v3_bytes.len() {
            let mut bad = v3_bytes.clone();
            bad[byte] ^= 1;
            assert!(Checkpoint::decode(&bad).is_err(), "flip at {byte} decoded");
        }
        for len in 0..v3_bytes.len() {
            assert!(Checkpoint::decode(&v3_bytes[..len]).is_err());
        }
    }

    #[test]
    fn v2_checkpoints_decode_without_shard_fields() {
        // A v2 checkpoint has no shard fields; decoding must succeed with
        // every extended predicate component at pass-all (v2 queries could
        // only express per-edge constraints).
        let mut expected = sample();
        for sub in &mut expected.subscriptions {
            let edge = sub.query.edge_predicate().clone();
            sub.query = sub.query.clone().predicate(edge);
        }
        let v2_bytes = encode_v2(&expected);
        let decoded = Checkpoint::decode(&v2_bytes).unwrap();
        assert_eq!(decoded, expected);

        // The corruption guarantees hold for the legacy format too.
        for byte in 0..v2_bytes.len() {
            let mut bad = v2_bytes.clone();
            bad[byte] ^= 1;
            assert!(Checkpoint::decode(&bad).is_err(), "flip at {byte} decoded");
        }
        for len in 0..v2_bytes.len() {
            assert!(Checkpoint::decode(&v2_bytes[..len]).is_err());
        }
    }

    #[test]
    fn zero_shard_count_is_corrupt() {
        // A checksum-valid blob with a zero engine or per-query shard count
        // must be rejected: no layout ever had zero shards.
        let mut ckpt = sample();
        ckpt.subscriptions.truncate(1);
        ckpt.subscriptions[0].query = StreamingQuery::simple(300);
        let bytes = ckpt.encode();
        // Engine shard count sits right after next_query_id:
        // magic(4) + version(2) + 5×u64/i64(40) + 2 bytes + u64(8) = 56.
        let engine_at = 4 + 2 + 40 + 2 + 8;
        // The query's follows the engine's (4), the registry count (4), the
        // record's fixed fields (36) and its pass-all edge predicate (17).
        let query_at = engine_at + 4 + 4 + 36 + 17;
        for at in [engine_at, query_at] {
            let mut bad = bytes.clone();
            assert_eq!(bad[at..at + 4], 1u32.to_le_bytes(), "offset {at}");
            bad[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            let body_len = bad.len() - 4;
            let crc = crc32(&bad[..body_len]);
            bad[body_len..].copy_from_slice(&crc.to_le_bytes());
            match Checkpoint::decode(&bad) {
                Err(IoError::Corrupt { detail, .. }) => assert_eq!(detail, "zero shard count"),
                other => panic!("expected corrupt at {at}, got {other:?}"),
            }
        }
    }

    #[test]
    fn v1_checkpoints_decode_with_pass_all_predicates() {
        // A v1 checkpoint has no predicate fields; decoding must succeed and
        // give every restored query the pass-all predicate.
        let mut expected = sample();
        for sub in &mut expected.subscriptions {
            sub.query = sub.query.clone().predicate(EdgePredicate::pass_all());
        }
        let v1_bytes = encode_v1(&expected);
        let decoded = Checkpoint::decode(&v1_bytes).unwrap();
        assert_eq!(decoded, expected);
        for sub in &decoded.subscriptions {
            assert!(sub.query.edge_predicate().is_pass_all());
        }

        // The corruption guarantees hold for the legacy format too.
        for byte in 0..v1_bytes.len() {
            let mut bad = v1_bytes.clone();
            bad[byte] ^= 1;
            assert!(Checkpoint::decode(&bad).is_err(), "flip at {byte} decoded");
        }
        for len in 0..v1_bytes.len() {
            assert!(Checkpoint::decode(&v1_bytes[..len]).is_err());
        }
    }

    #[test]
    fn corruption_sweep() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&bad).is_err(),
                    "flip at {byte}.{bit} decoded"
                );
            }
        }
        for len in 0..bytes.len() {
            assert!(Checkpoint::decode(&bytes[..len]).is_err());
        }
        let mut padded = bytes.clone();
        padded.push(0xAB);
        assert!(Checkpoint::decode(&padded).is_err());
    }
}
