//! Shared differential-test support: the brute-force oracles and seeded-case
//! generators every correctness test in the workspace compares against.
//!
//! The repo's central invariant is that *every* enumerator — any algorithm,
//! any granularity, any thread count, one-shot or delta — reports exactly the
//! same cycle set. Before this module existed, each test site carried its own
//! private brute-force oracle (a DFS in `seq::temporal`'s tests, the
//! Tiernan-as-baseline idiom in the equivalence suite, hand-rolled seeded
//! case generators in `tests/`). Now there is **one oracle per cycle kind**,
//! used everywhere:
//!
//! * [`oracle_simple`] — Tiernan's brute-force search through the production
//!   entry point (itself validated against an independent path-extension
//!   search in this module's tests);
//! * [`oracle_temporal`] — an independent, pruning-free path-extension DFS
//!   that shares no code with the enumerators under test.
//!
//! Both return **canonicalised, sorted** cycle vectors ([`canonicalized`]),
//! so two result sets are equal iff they are byte-identical as `Vec<Cycle>`.
//!
//! This module is visible to the crate's own unit tests unconditionally
//! (`cfg(test)`) and to integration tests / downstream differential
//! harnesses through the `testing` cargo feature; production builds exclude
//! it (and its `rand` dependency) entirely.

use crate::cycle::{CollectingSink, Cycle, CycleSink};
use crate::options::SimpleCycleOptions;
use crate::seq::tiernan::tiernan_simple;
use parking_lot::Mutex;
use pce_graph::{
    CyclePredicate, EdgeId, GraphBuilder, TemporalEdge, TemporalGraph, Timestamp, VertexId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Canonicalises and sorts a cycle collection: the deterministic form every
/// differential comparison in the workspace uses (equal iff byte-identical).
pub fn canonicalized(cycles: impl IntoIterator<Item = Cycle>) -> Vec<Cycle> {
    let mut canon: Vec<Cycle> = cycles.into_iter().map(|c| c.canonicalize()).collect();
    canon.sort_by(|a, b| a.edges.cmp(&b.edges));
    canon
}

/// The simple-cycle oracle: Tiernan's brute-force enumeration (no blocking,
/// no pruning beyond the window), canonicalised. This is the
/// Tiernan-as-baseline idiom the equivalence tests always used, packaged as
/// the one shared reference.
pub fn oracle_simple(graph: &TemporalGraph, opts: &SimpleCycleOptions) -> Vec<Cycle> {
    let sink = CollectingSink::new();
    tiernan_simple(graph, opts, &sink);
    sink.canonical_cycles()
}

/// The temporal-cycle oracle: a pruning-free path-extension DFS (strictly
/// increasing timestamps, window anchored at each root edge) that shares no
/// code with the enumerators under test. Canonicalised.
pub fn oracle_temporal(graph: &TemporalGraph, delta: Timestamp) -> Vec<Cycle> {
    let mut result = Vec::new();
    for (root, e0) in graph.edge_ids() {
        if e0.src == e0.dst {
            continue;
        }
        let t_end = e0.ts.saturating_add(delta);
        let mut stack = vec![(vec![e0.src, e0.dst], vec![root], e0.ts)];
        while let Some((path, edges, arrival)) = stack.pop() {
            let last = *path.last().expect("paths are never empty");
            for &entry in graph.out_edges(last) {
                if entry.ts <= arrival || entry.ts > t_end {
                    continue;
                }
                if entry.neighbor == e0.src {
                    let mut cedges = edges.clone();
                    cedges.push(entry.edge);
                    result.push(Cycle::new(path.clone(), cedges));
                } else if !path.contains(&entry.neighbor) {
                    let mut npath = path.clone();
                    let mut nedges = edges.clone();
                    npath.push(entry.neighbor);
                    nedges.push(entry.edge);
                    stack.push((npath, nedges, entry.ts));
                }
            }
        }
    }
    canonicalized(result)
}

/// Post-filters oracle cycles through the **exact** predicate semantics: the
/// zero-pruning differential baseline for every predicate class (per-edge,
/// aggregate, positional, vertex-set). Feed it the output of
/// [`oracle_simple`] or [`oracle_temporal`] — or any cycle set in any
/// rotation — and compare the survivors against a pushdown-enabled
/// enumeration of the same query.
///
/// Positional constraints are defined over *reported* order (path edges in
/// traversal order, the maximum edge last), while oracle cycles arrive
/// canonicalised (rotated to their minimum edge id). Edge ids refine
/// timestamp order, so the maximum edge id **is** the maximum `(ts, id)`
/// edge every delta search roots at; each cycle is re-rotated so that edge
/// comes last before [`CyclePredicate::accepts_cycle`] runs. The result is
/// canonicalised again, ready for byte-identical comparison.
pub fn oracle_with_predicates(
    graph: &TemporalGraph,
    cycles: impl IntoIterator<Item = Cycle>,
    predicate: &CyclePredicate,
) -> Vec<Cycle> {
    let survivors = cycles.into_iter().filter(|c| {
        let k = c.edges.len();
        let root = (0..k)
            .max_by_key(|&i| c.edges[i])
            .expect("cycles have edges");
        // Rotate so the maximum (root) edge is last: index `root` moves to
        // position k-1, i.e. everything shifts left by root+1.
        let shift = (root + 1) % k;
        let edges: Vec<TemporalEdge> = (0..k)
            .map(|i| graph.edge(c.edges[(shift + i) % k]))
            .collect();
        let vertices: Vec<_> = (0..k).map(|i| c.vertices[(shift + i) % k]).collect();
        predicate.accepts_cycle(&edges, &vertices)
    });
    canonicalized(survivors)
}

/// A counting sink that hands the core to thieves: until a second thread
/// has pushed a cycle, each push naps briefly (within a time budget). The
/// pushing owner holds its search across the nap, but it yields the core,
/// so an idle worker is scheduled and queues for a split even on a loaded
/// test executor; once a thief pushes, the naps stop. A barrier cannot force
/// this interleaving: the owner holds its search's lock while it pushes, so
/// a thief can split only between pushes. Steal tests of the fine-grained
/// drivers run through it, so they neither flake nor need a search long
/// enough to crowd out the tests running beside them.
#[derive(Debug)]
pub struct SpreadGate {
    count: AtomicU64,
    first: Mutex<Option<std::thread::ThreadId>>,
    spread: AtomicBool,
    deadline: Instant,
}

impl SpreadGate {
    /// A gate that naps for at most 20 s in total.
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            first: Mutex::new(None),
            spread: AtomicBool::new(false),
            deadline: Instant::now() + Duration::from_secs(20),
        }
    }
}

impl Default for SpreadGate {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleSink for SpreadGate {
    fn push(&self, _: &[VertexId], _: &[EdgeId]) -> ControlFlow<()> {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !self.spread.load(Ordering::Relaxed) {
            let me = std::thread::current().id();
            if *self.first.lock().get_or_insert(me) != me {
                self.spread.store(true, Ordering::Relaxed);
            } else if Instant::now() < self.deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// Builds a temporal multigraph from raw `(src, dst, ts)` triples, wrapping
/// endpoints into `0..n`. The shape every seeded sweep uses to construct its
/// cases.
pub fn graph_from_edges(n: u32, edges: &[(u32, u32, i64)]) -> TemporalGraph {
    let mut builder = GraphBuilder::with_vertices(n as usize);
    for &(s, d, t) in edges {
        builder.push_edge(s % n, d % n, t);
    }
    builder.build()
}

/// One deterministically generated random differential-test case: a sparse
/// temporal multigraph plus a window size that exercises it. `seed` fully
/// determines the case, so a failing seed printed in an assertion message (or
/// a CI log) reproduces the exact graph.
pub fn random_case(
    seed: u64,
    max_vertices: u32,
    max_edges: usize,
    time_span: i64,
) -> (TemporalGraph, Timestamp) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..max_vertices);
    let num_edges = rng.gen_range(1..max_edges);
    let edges: Vec<(u32, u32, i64)> = (0..num_edges)
        .map(|_| {
            (
                rng.gen_range(0..max_vertices),
                rng.gen_range(0..max_vertices),
                rng.gen_range(0..time_span),
            )
        })
        .collect();
    let delta = rng.gen_range(5..(time_span * 2 / 3).max(6));
    (graph_from_edges(n, &edges), delta)
}

/// Shape of one seeded random temporal edge stream (see
/// [`random_temporal_stream`]): knobs for the stream pathologies the
/// streaming harness must stay correct under.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Endpoints are drawn from `0..num_vertices`.
    pub num_vertices: u32,
    /// Total edges across all batches.
    pub num_edges: usize,
    /// Edges per batch (the last batch may be shorter). Must be >= 1.
    pub batch_edges: usize,
    /// Probability that an edge reuses the previous edge's timestamp
    /// (duplicate timestamps, within and across batches).
    pub duplicate_ts: f64,
    /// Probability that the timestamp takes a large jump (`10×` the normal
    /// step) instead of a small one — bursts of activity separated by quiet
    /// gaps, which is what makes batches straddle window expiry.
    pub burstiness: f64,
    /// Shuffle each batch's edges out of timestamp order before returning
    /// it (the ingest API allows any order *within* a batch; streams stay
    /// non-decreasing *across* batches by construction).
    pub out_of_order: bool,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            num_vertices: 18,
            num_edges: 100,
            batch_edges: 9,
            duplicate_ts: 0.15,
            burstiness: 0.1,
            out_of_order: true,
        }
    }
}

/// Generates a deterministic random temporal edge stream, already cut into
/// ingest batches: timestamps are non-decreasing across batches (the stream
/// contract), with controllable duplicate timestamps, burstiness (large time
/// jumps) and within-batch out-of-orderness. `seed` fully determines the
/// stream, so a failing seed printed in an assertion message (or echoed by
/// CI) reproduces the exact batches.
pub fn random_temporal_stream(seed: u64, spec: &StreamSpec) -> Vec<Vec<TemporalEdge>> {
    assert!(spec.batch_edges >= 1, "batches must be non-empty");
    assert!(spec.num_vertices >= 2, "need at least two endpoints");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts: Timestamp = 0;
    let mut edges = Vec::with_capacity(spec.num_edges);
    for _ in 0..spec.num_edges {
        if !edges.is_empty() && !rng.gen_bool(spec.duplicate_ts) {
            let step = if rng.gen_bool(spec.burstiness) { 10 } else { 1 };
            ts += rng.gen_range(1..=3i64) * step;
        }
        edges.push(TemporalEdge::new(
            rng.gen_range(0..spec.num_vertices),
            rng.gen_range(0..spec.num_vertices),
            ts,
        ));
    }
    edges
        .chunks(spec.batch_edges)
        .map(|batch| {
            let mut batch = batch.to_vec();
            if spec.out_of_order {
                // Fisher-Yates with the seeded generator: the batch arrives
                // in arbitrary order, as the ingest API permits.
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.gen_range(0..=i));
                }
            }
            batch
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::johnson::johnson_simple;

    /// Independent path-extension search for simple cycles, used to validate
    /// the Tiernan-backed [`oracle_simple`] itself (rooted at each minimum
    /// edge, window anchored there, no blocking).
    fn path_extension_simple(graph: &TemporalGraph, delta: Timestamp) -> Vec<Cycle> {
        let mut result = Vec::new();
        for (root, e0) in graph.edge_ids() {
            if e0.src == e0.dst {
                continue;
            }
            let t_end = e0.ts.saturating_add(delta);
            let mut stack = vec![(vec![e0.src, e0.dst], vec![root])];
            while let Some((path, edges)) = stack.pop() {
                let last = *path.last().expect("non-empty");
                for &entry in graph.out_edges(last) {
                    if entry.edge <= root || entry.ts > t_end {
                        continue;
                    }
                    if entry.neighbor == e0.src {
                        let mut cedges = edges.clone();
                        cedges.push(entry.edge);
                        result.push(Cycle::new(path.clone(), cedges));
                    } else if !path.contains(&entry.neighbor) {
                        let mut npath = path.clone();
                        let mut nedges = edges.clone();
                        npath.push(entry.neighbor);
                        nedges.push(entry.edge);
                        stack.push((npath, nedges));
                    }
                }
            }
        }
        canonicalized(result)
    }

    #[test]
    fn simple_oracle_matches_independent_search_and_johnson() {
        for seed in 0..6 {
            let (graph, delta) = random_case(10_000 + seed, 12, 60, 40);
            let opts = SimpleCycleOptions::with_window(delta);
            let oracle = oracle_simple(&graph, &opts);
            assert_eq!(
                oracle,
                path_extension_simple(&graph, delta),
                "seed {seed} (oracle vs independent search)"
            );
            let sink = CollectingSink::new();
            johnson_simple(&graph, &opts, &sink);
            assert_eq!(oracle, sink.canonical_cycles(), "seed {seed} (vs Johnson)");
        }
    }

    #[test]
    fn temporal_oracle_finds_known_cycles() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 5)
            .add_edge(2, 0, 2) // non-increasing return: not temporal
            .build();
        let cycles = oracle_temporal(&g, 100);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].is_temporal(&g));
        // The window constraint is honoured.
        assert!(oracle_temporal(&g, 3).is_empty());
    }

    #[test]
    fn random_cases_are_deterministic_per_seed() {
        let (a, da) = random_case(77, 14, 70, 60);
        let (b, db) = random_case(77, 14, 70, 60);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(da, db);
        let (c, _) = random_case(78, 14, 70, 60);
        assert!(a.edges() != c.edges() || a.num_vertices() != c.num_vertices());
    }

    #[test]
    fn random_temporal_stream_is_deterministic_and_in_stream_order() {
        let spec = StreamSpec::default();
        let a = random_temporal_stream(42, &spec);
        let b = random_temporal_stream(42, &spec);
        assert_eq!(a, b, "equal seeds give equal streams");
        assert!(random_temporal_stream(43, &spec) != a, "seeds diverge");
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), spec.num_edges);
        assert!(a[..a.len() - 1].iter().all(|b| b.len() == spec.batch_edges));
        // Non-decreasing across batches: every batch's minimum timestamp is
        // at or above the previous batch's maximum (the ingest contract).
        let mut watermark = Timestamp::MIN;
        for batch in &a {
            let lo = batch.iter().map(|e| e.ts).min().unwrap();
            let hi = batch.iter().map(|e| e.ts).max().unwrap();
            assert!(lo >= watermark, "stream order violated");
            watermark = watermark.max(hi);
        }
        // The knobs do what they say: duplicates exist, and at least one
        // batch is internally out of timestamp order.
        let flat: Vec<Timestamp> = a.iter().flatten().map(|e| e.ts).collect();
        assert!(
            flat.windows(2).any(|w| w[0] == w[1]),
            "duplicate timestamps"
        );
        assert!(
            a.iter().any(|b| b.windows(2).any(|w| w[0].ts > w[1].ts)),
            "within-batch out-of-orderness"
        );
        // Bursts leave large gaps somewhere in the stream.
        assert!(flat.windows(2).any(|w| w[1] - w[0] >= 10), "bursty jumps");

        // The in-order variant keeps every batch sorted.
        let ordered = random_temporal_stream(
            42,
            &StreamSpec {
                out_of_order: false,
                ..spec
            },
        );
        assert!(ordered
            .iter()
            .all(|b| b.windows(2).all(|w| w[0].ts <= w[1].ts)));
    }

    #[test]
    fn predicate_oracle_filters_each_predicate_class() {
        use pce_graph::{EdgePredicate, LabelFilter, Position, VertexFilter};
        // Two triangles sharing the closing max edge 2→0 (amount 7):
        //   A: 0→1→2→0, amounts 5,6,7 (total 18), labels 1,1,9
        //   B: 0→3→2→0, amounts 4,5,7 (total 16), labels 2,2,9
        let mut b = GraphBuilder::new();
        for &(s, d, t, a, l) in &[
            (0u32, 1u32, 1i64, 5u64, 1u16),
            (1, 2, 2, 6, 1),
            (0, 3, 1, 4, 2),
            (3, 2, 2, 5, 2),
            (2, 0, 3, 7, 9),
        ] {
            b.push_attr_edge(TemporalEdge::with_attrs(s, d, t, a, l));
        }
        let g = b.build();
        let all = oracle_simple(&g, &SimpleCycleOptions::with_window(100));
        assert_eq!(all.len(), 2);

        let keep = |p: CyclePredicate| oracle_with_predicates(&g, all.clone(), &p);
        assert_eq!(keep(CyclePredicate::pass_all()), all);
        assert_eq!(keep(CyclePredicate::pass_all().total_max(17)).len(), 1);
        assert_eq!(keep(CyclePredicate::pass_all().total_min(17)).len(), 1);
        assert_eq!(
            keep(CyclePredicate::pass_all().monotone_amounts(true)).len(),
            2,
            "both triangles have strictly increasing amounts in reported order"
        );
        assert_eq!(
            keep(CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![3]))).len(),
            1
        );
        assert_eq!(
            keep(CyclePredicate::pass_all().at(
                Position::FromStart(0),
                EdgePredicate::pass_all().labels(LabelFilter::allow(vec![2])),
            ))
            .len(),
            1,
            "only B's first path edge carries label 2"
        );
        assert_eq!(
            keep(CyclePredicate::pass_all().at(
                Position::FromEnd(0),
                EdgePredicate::pass_all().min_amount(7),
            ))
            .len(),
            2,
            "the shared closing max edge (amount 7) satisfies both"
        );
        assert!(keep(CyclePredicate::pass_all().at(
            Position::FromEnd(0),
            EdgePredicate::pass_all().min_amount(8)
        ))
        .is_empty());
    }

    #[test]
    fn canonicalized_is_order_invariant() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .build();
        let a = Cycle::new(vec![0, 1], vec![0, 1]);
        let b = Cycle::new(vec![1, 0], vec![1, 0]);
        assert_eq!(canonicalized([a.clone(), b.clone()]), canonicalized([b, a]));
        let _ = g;
    }
}
