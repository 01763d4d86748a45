//! Crash-recovery equivalence: the durability layer must make a restart
//! invisible in the per-query reports.
//!
//! The sweep runs a seeded multi-subscription stream (attributed edges,
//! predicate-bearing subscriptions, mid-stream subscription churn, segment
//! rotations and cadence checkpoints) through a
//! [`DurableMultiStreamingEngine`], then simulates a crash at **every byte**
//! of the segment log — every record boundary and every mid-record torn
//! write — recovers, finishes the stream, and asserts that the replayed +
//! continued per-query reports are byte-identical to the uninterrupted run,
//! and that the final registry (ids, queries, lifetime totals) and window
//! match exactly. Both store backends are swept.
//!
//! The crash model: a cut at byte `c` keeps the prefix `[0, c)` of the log's
//! global append order (segments in id order) and exactly the checkpoints
//! written while the log was ≤ `c` bytes — the states a real crash can leave
//! behind under append-then-checkpoint write ordering.
//!
//! The base seed comes from `PCE_SWEEP_SEED` (CI passes one per run and
//! echoes it), so any red run replays locally.

use parallel_cycle_enumeration::core::testing::{random_temporal_stream, StreamSpec};
use parallel_cycle_enumeration::prelude::*;

const RETENTION: i64 = 40;

fn sweep_seed() -> u64 {
    std::env::var("PCE_SWEEP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000)
}

fn sweep_stream(seed: u64, batch_edges: usize) -> Vec<Vec<TemporalEdge>> {
    random_temporal_stream(
        seed,
        &StreamSpec {
            num_vertices: 18,
            num_edges: 100,
            batch_edges,
            duplicate_ts: 0.15,
            burstiness: 0.1,
            out_of_order: true,
        },
    )
}

/// Deterministically attributes the sweep stream (same mixing as the
/// streaming sweep): amounts roughly uniform in `0..100_000`, labels in
/// `0..8`, derived from each edge's endpoints and timestamp — so the
/// predicate-bearing subscriptions below have attributes to filter on and
/// every crash cut replays the identical attributed stream.
fn attribute_stream(batches: &[Vec<TemporalEdge>]) -> Vec<Vec<TemporalEdge>> {
    batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|e| {
                    let mix = u64::from(e.src) * 31 + u64::from(e.dst) * 7 + (e.ts as u64) * 13 + 5;
                    TemporalEdge::with_attrs(
                        e.src,
                        e.dst,
                        e.ts,
                        (mix * 997) % 100_000,
                        ((mix >> 3) % 8) as u16,
                    )
                })
                .collect()
        })
        .collect()
}

fn sort_canonical(cycles: &[StreamCycle]) -> Vec<StreamCycle> {
    let mut canon: Vec<StreamCycle> = cycles.iter().map(StreamCycle::canonicalize).collect();
    canon.sort_by(|a, b| a.edges.cmp(&b.edges));
    canon
}

/// The deterministic projection of one batch's multi-query report: per query
/// (in subscription order) its id, count, and canonicalised cycles. Replay
/// equivalence means these are byte-identical; wall-clock fields and graph
/// lifetime counters are explicitly not part of the contract.
type Projection = Vec<(u64, u64, Vec<StreamCycle>)>;

fn project(report: &MultiBatchReport) -> Projection {
    report
        .reports
        .iter()
        .map(|r| {
            assert_eq!(r.batch, report.batch);
            (r.query.as_u64(), r.cycles_found, sort_canonical(&r.cycles))
        })
        .collect()
}

/// One step of the reference run, with the log size after it — the "crash
/// clock" deciding whether the op happened before a given cut.
enum Op {
    Subscribe { query: StreamingQuery, id: QueryId },
    Ingest { batch: usize },
}

struct OpRecord {
    op: Op,
    log_bytes_after: u64,
}

/// Everything the sweep compares against, captured from one uninterrupted
/// durable run.
struct Reference {
    batches: Vec<Vec<TemporalEdge>>,
    ops: Vec<OpRecord>,
    /// Projection of the reference report of batch `k`.
    reports: Vec<Projection>,
    /// `(seq, log bytes when written)` for every checkpoint.
    checkpoint_bytes: Vec<(u64, u64)>,
    /// Global byte offsets where a record ends (record boundaries).
    record_ends: Vec<u64>,
    store: MemoryStore,
    final_snaps: Vec<SubscriptionSnapshot>,
    final_live_edges: Vec<TemporalEdge>,
    final_watermark: i64,
}

fn reference_run(cfg: &DurableConfig) -> Reference {
    let batches = attribute_stream(&sweep_stream(sweep_seed(), 12));
    let mut engine = DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, cfg)
        .expect("create durable engine");

    let mut ops = Vec::new();
    let mut reports = Vec::new();
    let mut checkpoint_bytes: Vec<(u64, u64)> = vec![(0, 0)];
    let mut record_ends = Vec::new();
    let mut seen_ckpts = 1usize;

    let record_new_checkpoints = |engine: &DurableMultiStreamingEngine<MemoryStore>,
                                  seen: &mut usize,
                                  out: &mut Vec<(u64, u64)>| {
        let seqs = engine.log().store().checkpoint_seqs().unwrap();
        for &seq in &seqs[*seen..] {
            out.push((seq, engine.log().total_bytes()));
        }
        *seen = seqs.len();
    };

    let subscribe = |engine: &mut DurableMultiStreamingEngine<MemoryStore>,
                     ops: &mut Vec<OpRecord>,
                     seen: &mut usize,
                     ckpts: &mut Vec<(u64, u64)>,
                     query: StreamingQuery| {
        let id = engine.subscribe(query.clone()).expect("subscribe");
        record_new_checkpoints(engine, seen, ckpts);
        ops.push(OpRecord {
            op: Op::Subscribe { query, id },
            log_bytes_after: engine.log().total_bytes(),
        });
    };

    subscribe(
        &mut engine,
        &mut ops,
        &mut seen_ckpts,
        &mut checkpoint_bytes,
        StreamingQuery::temporal(RETENTION),
    );
    subscribe(
        &mut engine,
        &mut ops,
        &mut seen_ckpts,
        &mut checkpoint_bytes,
        // A predicate-bearing subscription in the sweep itself: its amount
        // floor and label deny-list must survive every crash cut (format v2
        // serialises them), or the recovered reports diverge.
        StreamingQuery::simple(25).max_len(5).predicate(
            EdgePredicate::pass_all()
                .min_amount(20_000)
                .labels(LabelFilter::deny(vec![0])),
        ),
    );

    for (k, batch) in batches.iter().enumerate() {
        if k == 3 {
            // Mid-stream churn: a registry checkpoint between rotations —
            // this late subscription carries a full extended-predicate
            // profile (total floor + vertex deny-list), so every crash cut
            // also proves the v4 checkpoint fields replay exactly.
            subscribe(
                &mut engine,
                &mut ops,
                &mut seen_ckpts,
                &mut checkpoint_bytes,
                StreamingQuery::temporal(15)
                    .collect(CollectMode::Count)
                    .cycle_predicate(
                        CyclePredicate::pass_all()
                            .edge(EdgePredicate::pass_all().min_amount(50_000))
                            .total_min(120_000)
                            .vertices(VertexFilter::deny(vec![17])),
                    ),
            );
        }
        let report = engine.ingest(batch).expect("in-order ingest");
        assert_eq!(report.batch, k as u64);
        record_new_checkpoints(&engine, &mut seen_ckpts, &mut checkpoint_bytes);
        record_ends.push(engine.log().total_bytes());
        reports.push(project(&report));
        ops.push(OpRecord {
            op: Op::Ingest { batch: k },
            log_bytes_after: engine.log().total_bytes(),
        });
    }

    assert!(
        engine.segments_rotated() > 0,
        "sweep must exercise segment rotation (shrink segment_bytes)"
    );
    assert!(
        engine.checkpoints_written() > 4,
        "sweep must exercise churn + rotation + cadence checkpoints"
    );

    let final_snaps = engine.engine().subscription_snapshots();
    let final_live_edges = engine.engine().graph().live_edges().to_vec();
    let final_watermark = engine.engine().graph().watermark();
    Reference {
        batches,
        ops,
        reports,
        checkpoint_bytes,
        record_ends,
        store: engine.into_store(),
        final_snaps,
        final_live_edges,
        final_watermark,
    }
}

/// Builds the store a crash at byte `cut` leaves behind, into `empty`.
fn cut_store<S: SegmentStore>(reference: &Reference, cut: u64, empty: &mut S) {
    let mut consumed = 0u64;
    for id in reference.store.segment_ids().unwrap() {
        let bytes = reference.store.read_segment(id).unwrap();
        if consumed >= cut {
            break;
        }
        let keep = ((cut - consumed) as usize).min(bytes.len());
        empty.append_segment(id, &bytes[..keep]).unwrap();
        consumed += bytes.len() as u64;
    }
    for &(seq, at) in &reference.checkpoint_bytes {
        if at <= cut {
            let bytes = reference.store.read_checkpoint(seq).unwrap();
            empty.write_checkpoint(seq, &bytes).unwrap();
        }
    }
}

/// Recovers from `store`, finishes the stream, and asserts byte-identical
/// reports and final state. Returns the recovery info for sweep-level
/// coverage assertions.
fn recover_and_finish<S: SegmentStore>(
    reference: &Reference,
    cut: u64,
    store: S,
    cfg: &DurableConfig,
) -> RecoveryReport {
    let (mut engine, info) = recover(store, cfg).expect("recovery must always succeed");

    // How many batches the cut log fully holds, and where its last intact
    // record boundary lies.
    let full_batches = reference
        .record_ends
        .iter()
        .filter(|&&end| end <= cut)
        .count() as u64;
    let last_boundary = reference
        .record_ends
        .iter()
        .copied()
        .filter(|&end| end <= cut)
        .max()
        .unwrap_or(0);

    assert_eq!(
        info.truncated_bytes,
        cut - last_boundary,
        "cut {cut}: torn tail is everything past the last record boundary"
    );
    assert_eq!(info.dropped_batches, 0, "cut {cut}");
    assert!(info.checkpoint_batches <= full_batches, "cut {cut}");
    assert_eq!(
        info.replayed.len() as u64,
        full_batches - info.checkpoint_batches,
        "cut {cut}: replay covers checkpoint → end of intact log"
    );
    for replayed in &info.replayed {
        assert_eq!(
            project(replayed),
            reference.reports[replayed.batch as usize],
            "cut {cut}: replayed batch {} diverged (seed {})",
            replayed.batch,
            sweep_seed()
        );
    }

    // Finish the stream: redo every op the crash wiped out, in order.
    for op in &reference.ops {
        match &op.op {
            Op::Subscribe { query, id } => {
                if op.log_bytes_after <= cut {
                    assert!(
                        engine.engine().subscriptions().any(|(sid, _)| sid == *id),
                        "cut {cut}: durable subscription {id} missing after recovery"
                    );
                } else {
                    let redone = engine.subscribe(query.clone()).expect("re-subscribe");
                    assert_eq!(
                        redone, *id,
                        "cut {cut}: persisted next-id must reproduce the original id"
                    );
                }
            }
            Op::Ingest { batch } => {
                if (*batch as u64) < full_batches {
                    continue;
                }
                let report = engine
                    .ingest(&reference.batches[*batch])
                    .expect("continued ingest");
                assert_eq!(report.batch, *batch as u64, "cut {cut}");
                assert_eq!(
                    project(&report),
                    reference.reports[*batch],
                    "cut {cut}: continued batch {batch} diverged (seed {})",
                    sweep_seed()
                );
            }
        }
    }

    assert_eq!(
        engine.engine().subscription_snapshots(),
        reference.final_snaps,
        "cut {cut}: final registry (ids, queries, lifetime totals)"
    );
    assert_eq!(
        engine.engine().graph().live_edges(),
        &reference.final_live_edges[..],
        "cut {cut}: final window contents"
    );
    assert_eq!(
        engine.engine().graph().watermark(),
        reference.final_watermark,
        "cut {cut}"
    );
    info
}

fn sweep_cfg() -> DurableConfig {
    DurableConfig {
        // Small segments force rotations mid-sweep; a cadence checkpoint
        // every 3 batches lands checkpoints away from rotation boundaries.
        segment_bytes: 256,
        checkpoint_every_batches: 3,
        threads: 1,
        ..DurableConfig::default()
    }
}

/// Every byte of the log is a crash point — MemoryStore backend.
#[test]
fn crash_sweep_every_cut_point_memory() {
    let cfg = sweep_cfg();
    let reference = reference_run(&cfg);
    let total = reference.store.log_bytes();
    let mut torn_cuts = 0u64;
    let mut mid_checkpoint_coverage = false;
    for cut in 0..=total {
        let mut store = MemoryStore::new();
        cut_store(&reference, cut, &mut store);
        let info = recover_and_finish(&reference, cut, store, &cfg);
        if info.truncated_bytes > 0 {
            torn_cuts += 1;
        }
        if info.checkpoint_seq > 0 && info.checkpoint_batches > 0 {
            mid_checkpoint_coverage = true;
        }
    }
    assert!(torn_cuts > 0, "sweep must include torn-tail cuts");
    assert!(
        mid_checkpoint_coverage,
        "sweep must recover from mid-stream checkpoints, not only checkpoint 0"
    );
}

/// The same sweep over the filesystem backend — every record boundary and
/// every mid-record torn write (plus the empty store), against real files,
/// truncations and renames.
#[test]
fn crash_sweep_record_boundaries_and_torn_writes_fs() {
    let cfg = sweep_cfg();
    let reference = reference_run(&cfg);
    let base = std::env::temp_dir().join(format!(
        "pce_durability_sweep_{}_{}",
        std::process::id(),
        sweep_seed()
    ));
    std::fs::remove_dir_all(&base).ok();

    let mut cuts: Vec<u64> = vec![0];
    let mut prev = 0u64;
    for &end in &reference.record_ends {
        // A torn write inside the record (past its header) and the clean
        // boundary after it.
        cuts.push(prev + (end - prev) / 2);
        cuts.push(end.saturating_sub(1));
        cuts.push(end);
        prev = end;
    }
    for (i, &cut) in cuts.iter().enumerate() {
        let dir = base.join(format!("cut-{i}"));
        let mut store = FsStore::open(&dir).expect("fs store");
        cut_store(&reference, cut, &mut store);
        recover_and_finish(&reference, cut, store, &cfg);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The uninterrupted durable engine must itself be invisible relative to a
/// plain in-memory engine: logging is an implementation detail of ingest.
#[test]
fn durable_ingest_matches_plain_engine() {
    let cfg = sweep_cfg();
    let batches = attribute_stream(&sweep_stream(sweep_seed() ^ 0xD0_D0, 9));
    let mut plain = MultiStreamingEngine::with_threads(RETENTION, 1).unwrap();
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let queries = [
        StreamingQuery::temporal(RETENTION),
        StreamingQuery::simple(20)
            .predicate(EdgePredicate::pass_all().labels(LabelFilter::allow(vec![1, 2, 5]))),
    ];
    for q in &queries {
        let a = plain.subscribe(q.clone()).unwrap();
        let b = durable.subscribe(q.clone()).unwrap();
        assert_eq!(a, b);
    }
    for batch in &batches {
        let a = plain.ingest(batch).unwrap();
        let b = durable.ingest(batch).unwrap();
        assert_eq!(project(&a), project(&b));
    }
    assert_eq!(
        plain.subscription_snapshots(),
        durable.engine().subscription_snapshots()
    );
}

/// A rejected batch (out-of-order) must leave the log exactly as it was:
/// log-then-apply rolls the record back, and recovery of that store replays
/// only acknowledged batches.
#[test]
fn rejected_batch_is_rolled_back_from_the_log() {
    let cfg = sweep_cfg();
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let q = durable
        .subscribe(StreamingQuery::temporal(RETENTION))
        .unwrap();
    durable
        .ingest(&[TemporalEdge::new(0, 1, 100), TemporalEdge::new(1, 2, 110)])
        .unwrap();
    let bytes_before = durable.log().total_bytes();
    let err = durable
        .ingest(&[TemporalEdge::new(2, 0, 50)])
        .expect_err("below watermark");
    assert!(matches!(
        err,
        StoreError::Streaming(StreamingError::Stream(_))
    ));
    assert_eq!(durable.log().total_bytes(), bytes_before);

    // The ring still closes afterwards, and survives recovery.
    let report = durable.ingest(&[TemporalEdge::new(2, 0, 120)]).unwrap();
    assert_eq!(report.report(q).unwrap().cycles_found, 1);
    let (recovered, info) = recover(durable.into_store(), &cfg).unwrap();
    assert_eq!(info.dropped_batches, 0);
    assert_eq!(recovered.engine().total_cycles(q), Some(1));
    assert_eq!(recovered.engine().batches(), 2);
}

/// Re-encodes a checkpoint in the **v1** on-disk format: identical through
/// the registry header, per-subscription records without the trailing
/// predicate fields. Only meaningful for pass-all registries (v1 could not
/// express anything else).
fn encode_v1(ck: &Checkpoint) -> Vec<u8> {
    use parallel_cycle_enumeration::graph::io::crc32;
    let mut buf = Vec::new();
    buf.extend_from_slice(b"PCEC");
    buf.extend_from_slice(&1u16.to_le_bytes());
    buf.extend_from_slice(&ck.seq.to_le_bytes());
    buf.extend_from_slice(&ck.batches.to_le_bytes());
    buf.extend_from_slice(&ck.watermark.to_le_bytes());
    buf.extend_from_slice(&ck.retention.to_le_bytes());
    buf.extend_from_slice(&ck.compaction_base.to_le_bytes());
    buf.push(match ck.granularity {
        Granularity::Sequential => 0,
        Granularity::CoarseGrained => 1,
        Granularity::FineGrained => 2,
    });
    buf.push(match ck.strategy {
        FanOutStrategy::Naive => 0,
        FanOutStrategy::Indexed => 1,
    });
    buf.extend_from_slice(&ck.next_query_id.to_le_bytes());
    buf.extend_from_slice(&(ck.subscriptions.len() as u32).to_le_bytes());
    for sub in &ck.subscriptions {
        let q = &sub.query;
        assert!(
            q.edge_predicate().is_pass_all(),
            "v1 cannot express a non-trivial predicate"
        );
        buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
        buf.push(match q.kind() {
            CycleKind::Simple => 0,
            CycleKind::Temporal => 1,
        });
        buf.push(match q.requested_granularity() {
            Granularity::Sequential => 0,
            Granularity::CoarseGrained => 1,
            Granularity::FineGrained => 2,
        });
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

/// Re-encodes a checkpoint in the **v2** on-disk format: v1 plus the
/// per-subscription predicate fields, but no shard layout anywhere — neither
/// the engine-level field nor the per-query one existed before v3.
fn encode_v2(ck: &Checkpoint) -> Vec<u8> {
    use parallel_cycle_enumeration::graph::io::crc32;
    let mut buf = Vec::new();
    buf.extend_from_slice(b"PCEC");
    buf.extend_from_slice(&2u16.to_le_bytes());
    buf.extend_from_slice(&ck.seq.to_le_bytes());
    buf.extend_from_slice(&ck.batches.to_le_bytes());
    buf.extend_from_slice(&ck.watermark.to_le_bytes());
    buf.extend_from_slice(&ck.retention.to_le_bytes());
    buf.extend_from_slice(&ck.compaction_base.to_le_bytes());
    buf.push(match ck.granularity {
        Granularity::Sequential => 0,
        Granularity::CoarseGrained => 1,
        Granularity::FineGrained => 2,
    });
    buf.push(match ck.strategy {
        FanOutStrategy::Naive => 0,
        FanOutStrategy::Indexed => 1,
    });
    buf.extend_from_slice(&ck.next_query_id.to_le_bytes());
    buf.extend_from_slice(&(ck.subscriptions.len() as u32).to_le_bytes());
    for sub in &ck.subscriptions {
        let q = &sub.query;
        buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
        buf.push(match q.kind() {
            CycleKind::Simple => 0,
            CycleKind::Temporal => 1,
        });
        buf.push(match q.requested_granularity() {
            Granularity::Sequential => 0,
            Granularity::CoarseGrained => 1,
            Granularity::FineGrained => 2,
        });
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
        let labels = |buf: &mut Vec<u8>, set: &[u16]| {
            buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for label in set {
                buf.extend_from_slice(&label.to_le_bytes());
            }
        };
        match pred.label_filter() {
            LabelFilter::Any => buf.push(0),
            LabelFilter::Allow(set) => {
                buf.push(1);
                labels(&mut buf, set);
            }
            LabelFilter::Deny(set) => {
                buf.push(2);
                labels(&mut buf, set);
            }
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A store whose newest checkpoint predates the v3 shard fields (v2:
/// predicate fields, no shard counts) must recover the registry it
/// described, keep serving byte-identical reports, and roundtrip through the
/// **next** crash in the current format.
#[test]
fn v2_checkpoint_store_recovers_as_single_shard() {
    let cfg = DurableConfig {
        // No cadence checkpoints: the hand-planted v2 checkpoint must be the
        // newest one recovery sees.
        checkpoint_every_batches: u64::MAX,
        threads: 1,
        ..DurableConfig::default()
    };
    let batches = attribute_stream(&sweep_stream(sweep_seed() ^ 0x02F0, 10));
    let split = batches.len() / 2;

    // The pre-upgrade run, shadowed by a plain in-memory twin for the
    // reference reports. Predicate-bearing subscriptions: v2 holds them.
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let mut plain = MultiStreamingEngine::with_threads(RETENTION, 1).unwrap();
    for q in [
        StreamingQuery::temporal(RETENTION),
        StreamingQuery::simple(25).max_len(5).predicate(
            EdgePredicate::pass_all()
                .min_amount(20_000)
                .labels(LabelFilter::deny(vec![0])),
        ),
    ] {
        let a = durable.subscribe(q.clone()).unwrap();
        let b = plain.subscribe(q).unwrap();
        assert_eq!(a, b);
    }
    for batch in &batches[..split] {
        let a = durable.ingest(batch).unwrap();
        let b = plain.ingest(batch).unwrap();
        assert_eq!(project(&a), project(&b));
    }
    durable.checkpoint_now().unwrap();

    // Downgrade the newest checkpoint to the v2 format, one sequence number
    // ahead so recovery must pick it.
    let seq = *durable
        .log()
        .store()
        .checkpoint_seqs()
        .unwrap()
        .last()
        .unwrap();
    let mut store = durable.into_store();
    let mut ck = Checkpoint::decode(&store.read_checkpoint(seq).unwrap()).unwrap();
    ck.seq += 1;
    store.write_checkpoint(ck.seq, &encode_v2(&ck)).unwrap();

    // Recovery: the stream continues byte-identically, predicates intact.
    let (mut recovered, info) = recover(store, &cfg).unwrap();
    assert_eq!(info.checkpoint_seq, ck.seq, "the v2 checkpoint is newest");
    assert_eq!(info.dropped_batches, 0);
    assert_eq!(
        recovered.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "the upgraded registry matches the uninterrupted twin"
    );
    for batch in &batches[split..] {
        let x = recovered.ingest(batch).unwrap();
        let y = plain.ingest(batch).unwrap();
        assert_eq!(project(&x), project(&y));
    }

    // … and survives the *next* crash via the current format.
    recovered.checkpoint_now().unwrap();
    let expected = recovered.engine().subscription_snapshots();
    let (after, _) = recover(recovered.into_store(), &cfg).unwrap();
    assert_eq!(
        after.engine().subscription_snapshots(),
        expected,
        "the registry roundtrips through the post-upgrade checkpoint"
    );
}

/// A store whose newest checkpoint was written by the previous release (v1:
/// no predicate fields) must recover with every query given the pass-all
/// predicate, keep serving byte-identical reports, accept predicate-bearing
/// subscriptions after the upgrade, and roundtrip them through the **next**
/// crash in the current format.
#[test]
fn v1_checkpoint_store_upgrades_through_recovery() {
    let cfg = DurableConfig {
        // No cadence checkpoints: the hand-planted v1 checkpoint must be the
        // newest one recovery sees.
        checkpoint_every_batches: u64::MAX,
        threads: 1,
        ..DurableConfig::default()
    };
    let batches = attribute_stream(&sweep_stream(sweep_seed() ^ 0x0171, 10));
    let split = batches.len() / 2;

    // The pre-upgrade run: pass-all subscriptions only (all v1 could hold),
    // shadowed by a plain in-memory twin for the reference reports.
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let mut plain = MultiStreamingEngine::with_threads(RETENTION, 1).unwrap();
    for q in [
        StreamingQuery::temporal(RETENTION),
        StreamingQuery::simple(25).max_len(5),
    ] {
        let a = durable.subscribe(q.clone()).unwrap();
        let b = plain.subscribe(q).unwrap();
        assert_eq!(a, b);
    }
    for batch in &batches[..split] {
        let a = durable.ingest(batch).unwrap();
        let b = plain.ingest(batch).unwrap();
        assert_eq!(project(&a), project(&b));
    }
    durable.checkpoint_now().unwrap();

    // Downgrade the newest checkpoint to the v1 format, as if the file had
    // been written before the upgrade: re-encode the decoded checkpoint
    // without its predicate fields, one sequence number ahead so recovery
    // must pick it.
    let seq = *durable
        .log()
        .store()
        .checkpoint_seqs()
        .unwrap()
        .last()
        .unwrap();
    let mut store = durable.into_store();
    let mut ck = Checkpoint::decode(&store.read_checkpoint(seq).unwrap()).unwrap();
    ck.seq += 1;
    store.write_checkpoint(ck.seq, &encode_v1(&ck)).unwrap();

    // Recovery: every restored query carries the pass-all predicate — which
    // is exactly what those v1 queries meant — and the stream continues
    // byte-identically.
    let (mut recovered, info) = recover(store, &cfg).unwrap();
    assert_eq!(info.checkpoint_seq, ck.seq, "the v1 checkpoint is newest");
    assert_eq!(info.dropped_batches, 0);
    for (_, q) in recovered.engine().subscriptions() {
        assert!(
            q.edge_predicate().is_pass_all(),
            "v1 records decode to pass-all predicates"
        );
    }
    assert_eq!(
        recovered.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "the upgraded registry matches the uninterrupted twin"
    );

    // Post-upgrade, a predicate-bearing subscription joins both engines …
    let pred = EdgePredicate::pass_all()
        .min_amount(30_000)
        .labels(LabelFilter::deny(vec![0, 7]));
    let a = recovered
        .subscribe(StreamingQuery::temporal(20).predicate(pred.clone()))
        .unwrap();
    let b = plain
        .subscribe(StreamingQuery::temporal(20).predicate(pred))
        .unwrap();
    assert_eq!(a, b, "persisted next-id survives the v1 upgrade");
    for batch in &batches[split..] {
        let x = recovered.ingest(batch).unwrap();
        let y = plain.ingest(batch).unwrap();
        assert_eq!(project(&x), project(&y));
    }

    // … and survives the *next* crash via the current format.
    recovered.checkpoint_now().unwrap();
    let expected = recovered.engine().subscription_snapshots();
    let (after, _) = recover(recovered.into_store(), &cfg).unwrap();
    assert_eq!(
        after.engine().subscription_snapshots(),
        expected,
        "predicates roundtrip through the post-upgrade checkpoint"
    );
}

/// A store written by an engine that sharded its window: a real v4
/// checkpoint whose engine shard count reads 4 and every query's reads 2.
/// Shard counts never changed a report, so recovery must ignore them and
/// finish the stream byte-identically to the uninterrupted plain twin.
#[test]
fn sharded_v4_checkpoint_store_recovers_byte_identically() {
    use parallel_cycle_enumeration::graph::io::crc32;
    let cfg = DurableConfig {
        // No cadence checkpoints: the patched checkpoint must be the newest
        // one recovery sees.
        checkpoint_every_batches: u64::MAX,
        threads: 2,
        ..DurableConfig::default()
    };
    let batches = attribute_stream(&sweep_stream(sweep_seed() ^ 0x54A4, 10));
    let split = batches.len() / 2;

    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let mut plain = MultiStreamingEngine::with_threads(RETENTION, 1).unwrap();
    for q in [
        StreamingQuery::temporal(RETENTION),
        StreamingQuery::simple(25).max_len(5).predicate(
            EdgePredicate::pass_all()
                .min_amount(20_000)
                .labels(LabelFilter::deny(vec![0])),
        ),
        StreamingQuery::temporal(20).granularity(Granularity::FineGrained),
    ] {
        let a = durable.subscribe(q.clone()).unwrap();
        let b = plain.subscribe(q).unwrap();
        assert_eq!(a, b);
    }
    for batch in &batches[..split] {
        let a = durable.ingest(batch).unwrap();
        let b = plain.ingest(batch).unwrap();
        assert_eq!(project(&a), project(&b));
    }
    durable.checkpoint_now().unwrap();

    // Patch the newest checkpoint's shard counts and re-CRC it, one
    // sequence number ahead so recovery must pick it.
    let seq = *durable
        .log()
        .store()
        .checkpoint_seqs()
        .unwrap()
        .last()
        .unwrap();
    let mut store = durable.into_store();
    let mut ck = Checkpoint::decode(&store.read_checkpoint(seq).unwrap()).unwrap();
    ck.seq += 1;
    let mut bytes = ck.encode();
    // Record `i` ends where the encoding of the first `i + 1` records ends
    // (less the CRC). Every record here has a pass-all extended predicate
    // (26 bytes), and its shard count comes right before it.
    let body_len = |subs: usize| {
        let mut head = ck.clone();
        head.subscriptions.truncate(subs);
        head.encode().len() - 4
    };
    // The engine's count follows magic(4), version(2), five u64/i64 fields
    // (40), the granularity and strategy bytes (2) and next_query_id (8).
    let mut patches = vec![(4 + 2 + 40 + 2 + 8, 4u32)];
    for i in 0..ck.subscriptions.len() {
        assert!(!ck.subscriptions[i]
            .query
            .extended_predicate()
            .has_cycle_constraints());
        patches.push((body_len(i + 1) - 26 - 4, 2));
    }
    for (at, shards) in patches {
        assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes(), "offset {at}");
        bytes[at..at + 4].copy_from_slice(&shards.to_le_bytes());
    }
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(Checkpoint::decode(&bytes).unwrap(), ck);
    store.write_checkpoint(ck.seq, &bytes).unwrap();

    let (mut recovered, info) = recover(store, &cfg).unwrap();
    assert_eq!(
        info.checkpoint_seq, ck.seq,
        "the patched checkpoint is newest"
    );
    assert_eq!(info.dropped_batches, 0);
    assert_eq!(
        recovered.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "the recovered registry matches the uninterrupted twin"
    );
    for batch in &batches[split..] {
        let x = recovered.ingest(batch).unwrap();
        let y = plain.ingest(batch).unwrap();
        assert_eq!(project(&x), project(&y));
    }
}

/// Re-encodes a checkpoint in the **v3** on-disk format: predicate and shard
/// fields present, no extended-predicate records — the layout the encoder
/// produced before the cycle-predicate algebra existed, here for an engine
/// sharded 4 ways and queries asking for 2 shards. Only meaningful for
/// registries whose extended components are pass-all (all v3 could express).
fn encode_v3(ck: &Checkpoint) -> Vec<u8> {
    use parallel_cycle_enumeration::graph::io::crc32;
    let mut buf = Vec::new();
    buf.extend_from_slice(b"PCEC");
    buf.extend_from_slice(&3u16.to_le_bytes());
    buf.extend_from_slice(&ck.seq.to_le_bytes());
    buf.extend_from_slice(&ck.batches.to_le_bytes());
    buf.extend_from_slice(&ck.watermark.to_le_bytes());
    buf.extend_from_slice(&ck.retention.to_le_bytes());
    buf.extend_from_slice(&ck.compaction_base.to_le_bytes());
    buf.push(match ck.granularity {
        Granularity::Sequential => 0,
        Granularity::CoarseGrained => 1,
        Granularity::FineGrained => 2,
    });
    buf.push(match ck.strategy {
        FanOutStrategy::Naive => 0,
        FanOutStrategy::Indexed => 1,
    });
    buf.extend_from_slice(&ck.next_query_id.to_le_bytes());
    buf.extend_from_slice(&4u32.to_le_bytes());
    buf.extend_from_slice(&(ck.subscriptions.len() as u32).to_le_bytes());
    for sub in &ck.subscriptions {
        let q = &sub.query;
        let ext = q.extended_predicate();
        assert!(
            !ext.has_cycle_constraints() && *ext.vertex_filter() == VertexFilter::Any,
            "v3 cannot express extended cycle constraints"
        );
        buf.extend_from_slice(&sub.id.as_u64().to_le_bytes());
        buf.push(match q.kind() {
            CycleKind::Simple => 0,
            CycleKind::Temporal => 1,
        });
        buf.push(match q.requested_granularity() {
            Granularity::Sequential => 0,
            Granularity::CoarseGrained => 1,
            Granularity::FineGrained => 2,
        });
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
        let labels = |buf: &mut Vec<u8>, set: &[u16]| {
            buf.extend_from_slice(&(set.len() as u32).to_le_bytes());
            for label in set {
                buf.extend_from_slice(&label.to_le_bytes());
            }
        };
        match pred.label_filter() {
            LabelFilter::Any => buf.push(0),
            LabelFilter::Allow(set) => {
                buf.push(1);
                labels(&mut buf, set);
            }
            LabelFilter::Deny(set) => {
                buf.push(2);
                labels(&mut buf, set);
            }
        }
        buf.extend_from_slice(&2u32.to_le_bytes());
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// A store whose newest checkpoint predates the cycle-predicate algebra (v3:
/// edge predicates and shard fields, no extended records) must recover with
/// every query's extended components pass-all — exactly the constraints
/// those queries could express — keep serving byte-identical reports, accept
/// a subscription with aggregate/positional/vertex constraints after the
/// upgrade, and roundtrip it through the **next** crash in the current (v4)
/// format.
#[test]
fn v3_checkpoint_store_upgrades_through_recovery() {
    let cfg = DurableConfig {
        // No cadence checkpoints: the hand-planted v3 checkpoint must be the
        // newest one recovery sees.
        checkpoint_every_batches: u64::MAX,
        threads: 1,
        ..DurableConfig::default()
    };
    let batches = attribute_stream(&sweep_stream(sweep_seed() ^ 0x03F4, 10));
    let split = batches.len() / 2;

    // The pre-upgrade run: edge-predicate subscriptions only (all v3 could
    // hold), shadowed by a plain in-memory twin for the reference reports.
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    let mut plain = MultiStreamingEngine::with_threads(RETENTION, 1).unwrap();
    for q in [
        StreamingQuery::temporal(RETENTION),
        StreamingQuery::simple(25).max_len(5).predicate(
            EdgePredicate::pass_all()
                .min_amount(20_000)
                .labels(LabelFilter::deny(vec![0])),
        ),
    ] {
        let a = durable.subscribe(q.clone()).unwrap();
        let b = plain.subscribe(q).unwrap();
        assert_eq!(a, b);
    }
    for batch in &batches[..split] {
        let a = durable.ingest(batch).unwrap();
        let b = plain.ingest(batch).unwrap();
        assert_eq!(project(&a), project(&b));
    }
    durable.checkpoint_now().unwrap();

    // Downgrade the newest checkpoint to the v3 format, one sequence number
    // ahead so recovery must pick it.
    let seq = *durable
        .log()
        .store()
        .checkpoint_seqs()
        .unwrap()
        .last()
        .unwrap();
    let mut store = durable.into_store();
    let mut ck = Checkpoint::decode(&store.read_checkpoint(seq).unwrap()).unwrap();
    ck.seq += 1;
    store.write_checkpoint(ck.seq, &encode_v3(&ck)).unwrap();

    // Recovery: no extended records in the checkpoint means pass-all
    // extended components — the edge predicates themselves survive — and
    // the stream continues byte-identically.
    let (mut recovered, info) = recover(store, &cfg).unwrap();
    assert_eq!(info.checkpoint_seq, ck.seq, "the v3 checkpoint is newest");
    assert_eq!(info.dropped_batches, 0);
    for (_, q) in recovered.engine().subscriptions() {
        let ext = q.extended_predicate();
        assert!(
            !ext.has_cycle_constraints(),
            "v3 records decode with pass-all aggregate/positional components"
        );
        assert_eq!(*ext.vertex_filter(), VertexFilter::Any);
    }
    assert_eq!(
        recovered.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "the upgraded registry matches the uninterrupted twin"
    );

    // Post-upgrade, a subscription with the full extended algebra joins both
    // engines …
    let cp = CyclePredicate::pass_all()
        .edge(EdgePredicate::pass_all().min_amount(10_000))
        .total_min(60_000)
        .monotone_amounts(true)
        .at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(20_000),
        )
        .vertices(VertexFilter::deny(vec![3]));
    let a = recovered
        .subscribe(StreamingQuery::temporal(20).cycle_predicate(cp.clone()))
        .unwrap();
    let b = plain
        .subscribe(StreamingQuery::temporal(20).cycle_predicate(cp.clone()))
        .unwrap();
    assert_eq!(a, b, "persisted next-id survives the v3 upgrade");
    for batch in &batches[split..] {
        let x = recovered.ingest(batch).unwrap();
        let y = plain.ingest(batch).unwrap();
        assert_eq!(project(&x), project(&y));
    }

    // … and survives the *next* crash via the current (v4) format, extended
    // components intact.
    recovered.checkpoint_now().unwrap();
    let expected = recovered.engine().subscription_snapshots();
    let (after, _) = recover(recovered.into_store(), &cfg).unwrap();
    assert_eq!(
        after.engine().subscription_snapshots(),
        expected,
        "extended predicates roundtrip through the post-upgrade checkpoint"
    );
    let restored = after
        .engine()
        .subscriptions()
        .find(|(id, _)| *id == a)
        .map(|(_, q)| q.extended_predicate().clone())
        .expect("extended subscription survives recovery");
    assert_eq!(restored, cp, "v4 records carry the full extended predicate");
}

/// Every single-bit flip and every truncation of a real v4 checkpoint (one
/// whose registry carries aggregate, positional, and vertex constraints)
/// must decode to a typed error — never a panic, never a silent
/// misinterpretation.
#[test]
fn v4_checkpoint_corruption_is_typed_never_panics() {
    let cfg = DurableConfig {
        checkpoint_every_batches: u64::MAX,
        threads: 1,
        ..DurableConfig::default()
    };
    let mut durable =
        DurableMultiStreamingEngine::create(MemoryStore::new(), RETENTION, &cfg).unwrap();
    durable
        .subscribe(
            StreamingQuery::temporal(RETENTION).cycle_predicate(
                CyclePredicate::pass_all()
                    .edge(EdgePredicate::pass_all().labels(LabelFilter::allow(vec![1, 4])))
                    .total_min(5_000)
                    .total_max(250_000)
                    .monotone_amounts(true)
                    .at(
                        Position::FromStart(0),
                        EdgePredicate::pass_all().min_amount(100),
                    )
                    .at(
                        Position::FromEnd(1),
                        EdgePredicate::pass_all().labels(LabelFilter::deny(vec![6])),
                    )
                    .vertices(VertexFilter::allow(vec![0, 1, 2, 3, 4, 5])),
            ),
        )
        .unwrap();
    durable
        .ingest(&[
            TemporalEdge::with_attrs(0, 1, 10, 6_000, 1),
            TemporalEdge::with_attrs(1, 2, 20, 7_000, 4),
        ])
        .unwrap();
    durable.checkpoint_now().unwrap();

    let store = durable.into_store();
    let seq = *store.checkpoint_seqs().unwrap().last().unwrap();
    let bytes = store.read_checkpoint(seq).unwrap();
    assert_eq!(
        Checkpoint::decode(&bytes).unwrap().subscriptions.len(),
        1,
        "the pristine blob decodes"
    );
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
        assert!(
            Checkpoint::decode(&bytes[..len]).is_err(),
            "truncation to {len} decoded"
        );
    }
    let mut padded = bytes.clone();
    padded.push(0x5A);
    assert!(
        Checkpoint::decode(&padded).is_err(),
        "trailing byte decoded"
    );
}
