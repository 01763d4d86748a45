//! The append-only segment log.
//!
//! A log is a sequence of *segments* (dense ids `0, 1, …`), each an
//! append-only byte file in a [`SegmentStore`]. Every ingested batch becomes
//! one *record*:
//!
//! ```text
//! batch index   u64 LE        which ingest this was (0-based, contiguous)
//! payload len   u32 LE        byte length of the payload
//! payload       the self-checking batch encoding of pce_graph::io
//!               (magic, version, count, edges, CRC32)
//! ```
//!
//! The header carries no checksum of its own because every corruption is
//! still detected structurally: a flipped payload length misaligns the
//! payload slice, which then fails the payload's magic/CRC checks; a flipped
//! batch index breaks the contiguous-sequence check; a flipped payload byte
//! fails the CRC. On [`open`](SegmentLog::open), the first invalid record of
//! the **newest** segment is treated as a torn write — the segment is
//! physically truncated there and the scan succeeds — while an invalid
//! record anywhere else is a hard [`StoreError::Corrupt`]: truncating there
//! would silently drop acknowledged batches.

use crate::{SegmentStore, StoreError};
use pce_graph::io::{decode_batch, encode_batch};
use pce_graph::TemporalEdge;

/// Byte length of a record header: batch index (u64) + payload length (u32).
pub const RECORD_HEADER_LEN: u64 = 12;

/// Location and identity of one logged record, as discovered by a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// The 0-based batch index the record holds.
    pub batch: u64,
    /// The segment the record lives in.
    pub segment: u64,
    /// Byte offset of the record (its header) within the segment.
    pub offset: u64,
    /// Total record length in bytes (header + payload).
    pub len: u64,
}

/// What [`SegmentLog::open`] found in a store.
#[derive(Debug)]
pub struct LogScan {
    /// Every valid record, in batch order, with its decoded edges.
    pub batches: Vec<(RecordMeta, Vec<TemporalEdge>)>,
    /// Bytes dropped from the newest segment as a torn tail (0 for a clean
    /// shutdown).
    pub truncated_bytes: u64,
    /// Number of segments present after the scan.
    pub segments: u64,
}

/// An append-only, segment-rotating batch log over a [`SegmentStore`].
#[derive(Debug)]
pub struct SegmentLog<S: SegmentStore> {
    store: S,
    segment_bytes: u64,
    current_segment: u64,
    current_len: u64,
    total_bytes: u64,
    next_batch: u64,
    /// `(segment, length before the append)` of the most recent append, for
    /// [`rollback_last`](Self::rollback_last).
    last_append: Option<(u64, u64)>,
    /// `(segment, length before the append)` of a failed append whose
    /// partial record could not be removed; every later append refuses.
    poisoned: Option<(u64, u64)>,
}

impl<S: SegmentStore> SegmentLog<S> {
    /// Starts a fresh log on an empty store. Rotation happens once a segment
    /// reaches `segment_bytes` (at record granularity — records are never
    /// split across segments).
    ///
    /// Fails with [`StoreError::Corrupt`] when the store already holds
    /// segments: an existing log must go through [`open`](Self::open) (or
    /// full [`recover`](crate::recover)) so its contents are validated, not
    /// silently appended to.
    pub fn create(store: S, segment_bytes: u64) -> Result<Self, StoreError> {
        if let Some(&id) = store.segment_ids()?.first() {
            return Err(StoreError::Corrupt {
                segment: id,
                offset: 0,
                detail: "store already holds segments; open or recover it instead",
            });
        }
        Ok(Self {
            store,
            segment_bytes: segment_bytes.max(1),
            current_segment: 0,
            current_len: 0,
            total_bytes: 0,
            next_batch: 0,
            last_append: None,
            poisoned: None,
        })
    }

    /// Opens an existing log (an empty store yields an empty log), validating
    /// every record and truncating a torn tail in the newest segment. Returns
    /// the log positioned for further appends plus everything it holds.
    pub fn open(store: S, segment_bytes: u64) -> Result<(Self, LogScan), StoreError> {
        let mut store = store;
        let ids = store.segment_ids()?;
        for (expect, &id) in ids.iter().enumerate() {
            if id != expect as u64 {
                return Err(StoreError::Corrupt {
                    segment: id,
                    offset: 0,
                    detail: "gap in segment sequence",
                });
            }
        }
        let mut batches = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut total_bytes = 0u64;
        let mut current_len = 0u64;
        for &id in &ids {
            let bytes = store.read_segment(id)?;
            let is_last = id + 1 == ids.len() as u64;
            let expected = batches.len() as u64;
            match scan_segment(&bytes, id, expected, &mut batches) {
                Ok(()) => {
                    total_bytes += bytes.len() as u64;
                    current_len = bytes.len() as u64;
                }
                Err(bad_offset) if is_last => {
                    // Torn tail: drop everything from the first invalid
                    // record of the newest segment.
                    store.truncate_segment(id, bad_offset)?;
                    truncated_bytes = bytes.len() as u64 - bad_offset;
                    total_bytes += bad_offset;
                    current_len = bad_offset;
                }
                Err(bad_offset) => {
                    return Err(StoreError::Corrupt {
                        segment: id,
                        offset: bad_offset,
                        detail: "invalid record before the newest segment",
                    });
                }
            }
        }
        let log = Self {
            store,
            segment_bytes: segment_bytes.max(1),
            current_segment: ids.len().saturating_sub(1) as u64,
            current_len,
            total_bytes,
            next_batch: batches.len() as u64,
            last_append: None,
            poisoned: None,
        };
        let scan = LogScan {
            batches,
            truncated_bytes,
            segments: ids.len() as u64,
        };
        Ok((log, scan))
    }

    /// Appends one batch as a record. `batch_index` must equal
    /// [`next_batch`](Self::next_batch) — the log is a contiguous sequence —
    /// or the append fails with [`StoreError::OutOfSequence`].
    ///
    /// A failed write may leave part of the record behind. The segment is
    /// cut back to its length before the append, because the next record
    /// would otherwise land after the partial one, and reopening would drop
    /// it with the torn tail. If that cut fails too, the log is poisoned:
    /// this and every later append fail with [`StoreError::LogPoisoned`],
    /// and [`open`](Self::open) (which truncates the torn tail) is the way
    /// back.
    pub fn append(&mut self, batch_index: u64, edges: &[TemporalEdge]) -> Result<(), StoreError> {
        if let Some((segment, offset)) = self.poisoned {
            return Err(StoreError::LogPoisoned { segment, offset });
        }
        if batch_index != self.next_batch {
            return Err(StoreError::OutOfSequence {
                expected: self.next_batch,
                got: batch_index,
            });
        }
        let payload = encode_batch(edges);
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        record.extend_from_slice(&batch_index.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&payload);
        let prev_len = self.current_len;
        let segment = self.current_segment;
        if let Err(e) = self.store.append_segment(segment, &record) {
            let undone = if prev_len == 0 {
                // The segment may not exist yet; removing it is idempotent.
                self.store.remove_segment(segment)
            } else {
                self.store.truncate_segment(segment, prev_len)
            };
            if undone.is_err() {
                self.poisoned = Some((segment, prev_len));
            }
            return Err(e);
        }
        self.current_len += record.len() as u64;
        self.total_bytes += record.len() as u64;
        self.next_batch += 1;
        self.last_append = Some((segment, prev_len));
        Ok(())
    }

    /// Undoes the most recent [`append`](Self::append) — the log-then-apply
    /// ingest path calls this when the engine rejects the batch after it was
    /// logged, so an unacknowledged batch never survives in the log.
    ///
    /// Exactly one rollback is available per append: calling this twice in a
    /// row, before any append, or after a [`rotate`](Self::rotate) /
    /// [`truncate_from`](Self::truncate_from) (both of which seal the
    /// record's segment) fails with [`StoreError::RollbackWithoutAppend`]
    /// and leaves the log untouched.
    pub fn rollback_last(&mut self) -> Result<(), StoreError> {
        let (segment, prev_len) = self
            .last_append
            .take()
            .ok_or(StoreError::RollbackWithoutAppend)?;
        self.store.truncate_segment(segment, prev_len)?;
        self.total_bytes -= self.current_len - prev_len;
        self.current_len = prev_len;
        self.next_batch -= 1;
        Ok(())
    }

    /// Whether the current segment has reached the rotation threshold.
    pub fn should_rotate(&self) -> bool {
        self.current_len >= self.segment_bytes && self.current_len > 0
    }

    /// Closes the current segment; the next append opens the next one. The
    /// durable engine checkpoints at exactly these boundaries.
    pub fn rotate(&mut self) {
        self.current_segment += 1;
        self.current_len = 0;
        self.last_append = None;
    }

    /// Drops `meta`'s record and every record after it (used by recovery when
    /// a logged batch turns out to be unacknowledged — the engine rejects it
    /// on replay). Returns the number of bytes removed.
    pub fn truncate_from(&mut self, meta: RecordMeta) -> Result<u64, StoreError> {
        let mut dropped = 0u64;
        let mut seg = self.current_segment;
        while seg > meta.segment {
            dropped += self.store.read_segment(seg)?.len() as u64;
            self.store.remove_segment(seg)?;
            seg -= 1;
        }
        let seg_len = if self.current_segment == meta.segment {
            self.current_len
        } else {
            self.store.read_segment(meta.segment)?.len() as u64
        };
        dropped += seg_len - meta.offset;
        self.store.truncate_segment(meta.segment, meta.offset)?;
        self.current_segment = meta.segment;
        self.current_len = meta.offset;
        self.total_bytes -= dropped;
        self.next_batch = meta.batch;
        self.last_append = None;
        Ok(dropped)
    }

    /// The batch index the next [`append`](Self::append) must carry.
    pub fn next_batch(&self) -> u64 {
        self.next_batch
    }

    /// The id of the segment currently being appended to.
    pub fn current_segment(&self) -> u64 {
        self.current_segment
    }

    /// Total live bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Read-only access to the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store (checkpoint writes go through
    /// here — checkpoints live beside the segments).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the log, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }
}

/// Parses one segment's records into `batches`. Returns `Err(offset)` of the
/// first invalid record (the caller decides whether that offset is a torn
/// tail or hard corruption).
fn scan_segment(
    bytes: &[u8],
    segment: u64,
    mut expected_batch: u64,
    batches: &mut Vec<(RecordMeta, Vec<TemporalEdge>)>,
) -> Result<(), u64> {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let start = offset as u64;
        if bytes.len() - offset < RECORD_HEADER_LEN as usize {
            return Err(start);
        }
        let batch = u64::from_le_bytes(bytes[offset..offset + 8].try_into().unwrap());
        let plen = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let body = offset + RECORD_HEADER_LEN as usize;
        if bytes.len() - body < plen {
            return Err(start);
        }
        let Ok(edges) = decode_batch(&bytes[body..body + plen]) else {
            return Err(start);
        };
        if batch != expected_batch {
            return Err(start);
        }
        batches.push((
            RecordMeta {
                batch,
                segment,
                offset: start,
                len: RECORD_HEADER_LEN + plen as u64,
            },
            edges,
        ));
        expected_batch += 1;
        offset = body + plen;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    fn e(src: u32, dst: u32, ts: i64) -> TemporalEdge {
        TemporalEdge::new(src, dst, ts)
    }

    #[test]
    fn append_scan_roundtrip_with_rotation() {
        let mut log = SegmentLog::create(MemoryStore::new(), 64).unwrap();
        let batches: Vec<Vec<TemporalEdge>> = (0..6)
            .map(|i| (0..3).map(|j| e(j, j + 1, (i * 3 + j) as i64)).collect())
            .collect();
        for (i, b) in batches.iter().enumerate() {
            log.append(i as u64, b).unwrap();
            if log.should_rotate() {
                log.rotate();
            }
        }
        assert!(log.current_segment() > 0, "64-byte threshold must rotate");

        let (log2, scan) = SegmentLog::open(log.into_store(), 64).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.batches.len(), 6);
        for (i, (meta, edges)) in scan.batches.iter().enumerate() {
            assert_eq!(meta.batch, i as u64);
            assert_eq!(edges, &batches[i]);
        }
        assert_eq!(log2.next_batch(), 6);
    }

    #[test]
    fn torn_tail_truncates_and_midlog_corruption_is_fatal() {
        let mut log = SegmentLog::create(MemoryStore::new(), u64::MAX).unwrap();
        for i in 0..3u64 {
            log.append(i, &[e(0, 1, i as i64)]).unwrap();
        }
        let store = log.into_store();
        let full = store.read_segment(0).unwrap();

        // Every proper prefix recovers: complete records survive, the torn
        // remainder is dropped.
        let record_len = full.len() / 3;
        for cut in 0..full.len() {
            let mut cut_store = MemoryStore::new();
            cut_store.append_segment(0, &full[..cut]).unwrap();
            let (_, scan) = SegmentLog::open(cut_store, u64::MAX).unwrap();
            assert_eq!(scan.batches.len(), cut / record_len, "cut at {cut}");
            assert_eq!(scan.truncated_bytes as usize, cut % record_len);
        }

        // The same damage in a non-newest segment refuses to recover.
        let mut two_seg = MemoryStore::new();
        two_seg.append_segment(0, &full[..record_len + 5]).unwrap();
        two_seg.append_segment(1, &full[record_len..]).unwrap();
        match SegmentLog::open(two_seg, u64::MAX) {
            Err(StoreError::Corrupt { segment: 0, .. }) => {}
            other => panic!("expected corrupt segment 0, got {other:?}"),
        }
    }

    #[test]
    fn rollback_removes_the_last_record() {
        let mut log = SegmentLog::create(MemoryStore::new(), u64::MAX).unwrap();
        log.append(0, &[e(0, 1, 1)]).unwrap();
        let bytes_after_first = log.total_bytes();
        log.append(1, &[e(1, 2, 2), e(2, 0, 3)]).unwrap();
        log.rollback_last().unwrap();
        assert_eq!(log.total_bytes(), bytes_after_first);
        assert_eq!(log.next_batch(), 1);
        log.append(1, &[e(1, 0, 2)]).unwrap();
        let (_, scan) = SegmentLog::open(log.into_store(), u64::MAX).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.batches[1].1, vec![e(1, 0, 2)]);
    }

    #[test]
    fn rollback_without_append_errors_instead_of_panicking() {
        // Regression: both calls below used to hit
        // `.expect("rollback_last without a preceding append")`.
        let mut log = SegmentLog::create(MemoryStore::new(), u64::MAX).unwrap();

        // Before any append.
        assert!(matches!(
            log.rollback_last(),
            Err(StoreError::RollbackWithoutAppend)
        ));

        // Double rollback: the first succeeds, the second errors and leaves
        // the log state untouched.
        log.append(0, &[e(0, 1, 1)]).unwrap();
        log.rollback_last().unwrap();
        let bytes = log.total_bytes();
        assert!(matches!(
            log.rollback_last(),
            Err(StoreError::RollbackWithoutAppend)
        ));
        assert_eq!(log.total_bytes(), bytes);
        assert_eq!(log.next_batch(), 0);

        // A rotation seals the segment: the pre-rotation append is no longer
        // rollback-able.
        log.append(0, &[e(0, 1, 1)]).unwrap();
        log.rotate();
        assert!(matches!(
            log.rollback_last(),
            Err(StoreError::RollbackWithoutAppend)
        ));
        assert_eq!(log.next_batch(), 1);
    }

    /// A [`MemoryStore`] whose appends, while `tear_appends` is set, write
    /// half their bytes and then fail, and whose truncations and removals
    /// fail while `fail_undo` is set.
    #[derive(Default)]
    struct TearingStore {
        inner: MemoryStore,
        tear_appends: bool,
        fail_undo: bool,
    }

    fn injected(failure: &str) -> StoreError {
        StoreError::Io(std::io::Error::other(format!("injected {failure}")))
    }

    impl SegmentStore for TearingStore {
        fn segment_ids(&self) -> Result<Vec<u64>, StoreError> {
            self.inner.segment_ids()
        }

        fn read_segment(&self, id: u64) -> Result<Vec<u8>, StoreError> {
            self.inner.read_segment(id)
        }

        fn append_segment(&mut self, id: u64, bytes: &[u8]) -> Result<(), StoreError> {
            if !self.tear_appends {
                return self.inner.append_segment(id, bytes);
            }
            self.inner.append_segment(id, &bytes[..bytes.len() / 2])?;
            Err(injected("short write"))
        }

        fn truncate_segment(&mut self, id: u64, len: u64) -> Result<(), StoreError> {
            if self.fail_undo {
                return Err(injected("undo failure"));
            }
            self.inner.truncate_segment(id, len)
        }

        fn remove_segment(&mut self, id: u64) -> Result<(), StoreError> {
            if self.fail_undo {
                return Err(injected("undo failure"));
            }
            self.inner.remove_segment(id)
        }

        fn checkpoint_seqs(&self) -> Result<Vec<u64>, StoreError> {
            self.inner.checkpoint_seqs()
        }

        fn read_checkpoint(&self, seq: u64) -> Result<Vec<u8>, StoreError> {
            self.inner.read_checkpoint(seq)
        }

        fn write_checkpoint(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
            self.inner.write_checkpoint(seq, bytes)
        }
    }

    #[test]
    fn failed_append_does_not_cost_a_later_record() {
        // Regression: the half-written record stayed on disk, the retry
        // landed after it, and reopening dropped the retry — an
        // acknowledged batch — as part of the torn tail.
        for first_in_segment in [false, true] {
            let mut log = SegmentLog::create(TearingStore::default(), u64::MAX).unwrap();
            if !first_in_segment {
                log.append(0, &[e(0, 1, 1)]).unwrap();
            }
            let index = log.next_batch();
            let bytes = log.total_bytes();
            log.store_mut().tear_appends = true;
            assert!(matches!(
                log.append(index, &[e(1, 2, 2)]),
                Err(StoreError::Io(_))
            ));
            assert_eq!(log.next_batch(), index, "a failed append logs nothing");
            assert_eq!(log.total_bytes(), bytes);
            log.store_mut().tear_appends = false;
            log.append(index, &[e(1, 0, 3)]).unwrap();

            let (log, scan) = SegmentLog::open(log.into_store(), u64::MAX).unwrap();
            assert_eq!(
                scan.truncated_bytes, 0,
                "first_in_segment {first_in_segment}"
            );
            assert_eq!(scan.batches.len() as u64, index + 1);
            assert_eq!(scan.batches[index as usize].1, vec![e(1, 0, 3)]);
            assert_eq!(log.next_batch(), index + 1);
        }
    }

    #[test]
    fn failed_undo_poisons_the_log_until_reopened() {
        let mut log = SegmentLog::create(TearingStore::default(), u64::MAX).unwrap();
        log.append(0, &[e(0, 1, 1)]).unwrap();
        let bytes = log.total_bytes();
        log.store_mut().tear_appends = true;
        log.store_mut().fail_undo = true;
        assert!(log.append(1, &[e(1, 2, 2)]).is_err());
        log.store_mut().tear_appends = false;
        log.store_mut().fail_undo = false;
        // The partial record is still there, so no append may follow it.
        for _ in 0..2 {
            match log.append(1, &[e(1, 0, 3)]) {
                Err(StoreError::LogPoisoned { segment, offset }) => {
                    assert_eq!((segment, offset), (0, bytes));
                }
                other => panic!("expected a poisoned log, got {other:?}"),
            }
        }
        // Reopening cuts the partial record as a torn tail and the log
        // continues from the acknowledged prefix.
        let (mut log, scan) = SegmentLog::open(log.into_store(), u64::MAX).unwrap();
        assert_eq!(scan.batches.len(), 1);
        assert!(scan.truncated_bytes > 0);
        log.append(1, &[e(1, 0, 3)]).unwrap();
        let (_, scan) = SegmentLog::open(log.into_store(), u64::MAX).unwrap();
        assert_eq!(scan.batches.len(), 2);
        assert_eq!(scan.batches[1].1, vec![e(1, 0, 3)]);
    }

    #[test]
    fn out_of_sequence_append_is_a_typed_error() {
        let mut log = SegmentLog::create(MemoryStore::new(), u64::MAX).unwrap();
        log.append(0, &[e(0, 1, 1)]).unwrap();
        for got in [0, 2] {
            match log.append(got, &[e(1, 2, 2)]) {
                Err(StoreError::OutOfSequence {
                    expected: 1,
                    got: g,
                }) => assert_eq!(g, got),
                other => panic!("expected out-of-sequence, got {other:?}"),
            }
        }
        assert_eq!(log.next_batch(), 1);
        let (_, scan) = SegmentLog::open(log.into_store(), u64::MAX).unwrap();
        assert_eq!(scan.batches.len(), 1);
    }

    #[test]
    fn truncate_from_drops_suffix_across_segments() {
        let mut log = SegmentLog::create(MemoryStore::new(), 1).unwrap();
        // threshold 1 byte → every record rotates: one record per segment.
        for i in 0..4u64 {
            log.append(i, &[e(0, 1, i as i64)]).unwrap();
            if log.should_rotate() {
                log.rotate();
            }
        }
        let (mut log, scan) = SegmentLog::open(log.into_store(), 1).unwrap();
        assert_eq!(scan.segments, 4);
        let target = scan.batches[1].0;
        log.truncate_from(target).unwrap();
        assert_eq!(log.next_batch(), 1);
        let (_, rescan) = SegmentLog::open(log.into_store(), 1).unwrap();
        assert_eq!(rescan.batches.len(), 1);
        assert_eq!(rescan.batches[0].0.batch, 0);
    }
}
