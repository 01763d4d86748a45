//! Incremental (delta) enumeration: cycles **closed** by newly arrived edges.
//!
//! The batch-rooted dual of the one-shot enumerators in [`crate::seq`] /
//! [`crate::par`]. Those root every cycle at its *minimum* edge in
//! `(timestamp, id)` order and sweep all edges; here a cycle is rooted at its
//! *maximum* edge — the edge whose arrival completes it. Because the maximum
//! edge of a cycle is unique and belongs to exactly one ingest batch,
//! enumerating only the roots of the newest batch reports every cycle exactly
//! once over the lifetime of a stream: no duplicates across batches, nothing
//! missed.
//!
//! The search rooted at `e = u → w` (timestamp `t0`) therefore runs
//! *backwards in stream order*: it enumerates simple paths `w → … → u` over
//! edges strictly earlier than `e` in `(timestamp, id)` order, reusing the
//! same per-root machinery as the forward enumerators —
//! [`CycleUnionWorkspace`] pruning via the mirrored
//! [`compute_simple_before`](CycleUnionWorkspace::compute_simple_before) /
//! [`compute_temporal_before`](CycleUnionWorkspace::compute_temporal_before)
//! passes (including the latest-departure closing-time bound for temporal
//! cycles).
//!
//! Three drivers are provided per cycle kind, mirroring the one-shot
//! granularities:
//!
//! * **sequential** ([`delta_simple`] / [`delta_temporal`]) — one thread
//!   sweeps the batch's roots;
//! * **coarse-grained** ([`delta_simple_parallel`] /
//!   [`delta_temporal_parallel`]) — one dynamically scheduled task per root
//!   (§4): work efficient, but a batch whose cycles all hang off one hot root
//!   collapses to a single worker;
//! * **fine-grained** ([`delta_simple_fine`] / [`delta_temporal_fine`]) —
//!   the paper's copy-on-steal (§5) applied to the backward search: each
//!   closing root's search runs on an explicit frame stack registered in a
//!   [`StealLoop`]; the owner claims branches from its deepest frame (the
//!   sequential order, with no per-call allocation) while idle workers split
//!   the shallowest frame's next branch off and copy the path prefix only
//!   then, so even a single-root burst engages all workers. The per-root
//!   pruning state is snapshot into a shared `UnionView` once and read-only
//!   thereafter, and with no blocked set a steal needs no unblock pass.
//!
//! Everything here is generic over [`GraphView`], so the same code serves the
//! immutable [`TemporalGraph`](pce_graph::TemporalGraph) and the streaming
//! [`SlidingWindowGraph`](pce_graph::stream::SlidingWindowGraph).
//!
//! # One pass, many queries
//!
//! Because the search rooted at an edge enumerates a *superset* of every
//! narrower query's results — a cycle that fits a window δ′ ≤ δ, a length
//! bound L′ ≤ L, or the temporal definition is also found by the simple
//! search at (δ, L) rooted at the same maximum edge — a single delta pass at
//! the loosest constraints can serve many standing queries at once, with
//! per-cycle re-checking instead of per-query re-searching. That is exactly
//! what [`MultiStreamingEngine`](crate::streaming::MultiStreamingEngine)
//! does: one union/pruning pass and one search per root at the widest
//! subscribed window, fanned out through per-query filters. The fan-out
//! itself is constraint-indexed (see
//! [`SubscriptionIndex`](crate::streaming::SubscriptionIndex)): because
//! acceptance is *monotone* in the window and length constraints, the
//! subscriptions sort into a frontier each candidate's time-span can
//! binary-search, so the per-cycle re-check costs `O(distinct constraint
//! profiles)` rather than `O(subscriptions)`.
//!
//! # Predicate pushdown
//!
//! Every driver takes a [`CyclePredicate`] whose components are evaluated as
//! early as soundness allows:
//!
//! * the **per-edge** part (amount interval + label filter) is evaluated
//!   *during* traversal: a rejected edge is skipped by the union passes and
//!   by path extension alike, so it never enters scratch state or spawns
//!   work;
//! * the **vertex filter** prunes the same way — a denied vertex is skipped
//!   by the union passes, by path extension, and by root preparation (both
//!   root endpoints are cycle vertices);
//! * the **aggregate** constraints prune via monotone partial bounds: edge
//!   amounts are non-negative, so a partial path whose running total (root
//!   edge included) already exceeds `total_amount_max` can never complete a
//!   satisfying cycle, and under strict amount monotonicity a hop that fails
//!   to escalate past the previous one — or that reaches the closing root's
//!   amount — cuts the branch. The non-monotone parts (the total *minimum*,
//!   which later hops could still reach) are re-checked exactly when a cycle
//!   closes;
//! * **positional** constraints are checked the moment their position is
//!   determined: `FromStart(k)` when the path holds exactly `k` edges (the
//!   prefix is fixed, so the index is final) and `FromEnd(0)` at root
//!   preparation (the root *is* the last reported edge); the remaining
//!   `FromEnd` positions are only decidable — and are checked — at close.
//!
//! Each pruned branch is recorded in the deterministic work counters
//! (`aggregate_prunes`, `positional_prunes`, `vertex_prunes` — see
//! [`crate::metrics::WorkSnapshot`]), which the differential sweeps compare
//! against post-filtered runs. Since a subscription requires its whole
//! predicate on every reported cycle, the streaming engine pushes the *union
//! hull* of its subscriptions' predicates into this shared pass (see
//! [`crate::streaming`]) and re-checks exact per-subscription predicates at
//! fan-out. Pass [`CyclePredicate::pass_all`] for unfiltered enumeration —
//! that case is detected once per root and adds no per-edge work.
//!
//! # The `floor` parameter
//!
//! Every entry point takes a `floor` timestamp: roots below it are skipped
//! and edges below it are never admissible. Pass `Timestamp::MIN` for no
//! floor — what the streaming engine does, since its `delta <= retention`
//! invariant already guarantees every edge a closing root can need is still
//! stored (making reports independent of batch boundaries). A caller with
//! weaker guarantees (say, retention shorter than its query window) can pass
//! an explicit floor to keep results deterministic with respect to what has
//! been physically dropped.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, ShardStats, WorkMetrics};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::seq::{timed_run, RootScratch};
use crate::union::{UnionQuery, UnionView};
use crate::util::FxHashSet;
use crate::{Algorithm, Granularity};
use parking_lot::Mutex;
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{
    AdjEntry, Amount, CyclePredicate, EdgeId, GraphView, Position, ShardSpec, TemporalEdge,
    TimeWindow, Timestamp, VertexFilter, VertexId,
};
use pce_sched::{DynamicCounter, StealLoop, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Predicate-derived pushdown flags, computed once per run (or per root) and
/// copied into the search state — the sequential [`DeltaSearch`] and the
/// fine-grained [`FineDeltaShared`] cache the same set, so both granularities
/// take identical per-edge fast paths.
#[derive(Clone, Copy)]
struct Pushdown {
    /// `predicate.edge_predicate().is_pass_all()` — skips the attribute
    /// lookup on the unfiltered hot path.
    pred_all: bool,
    /// Does any pushed-down check need the edge record at all?
    attrs_needed: bool,
    /// `predicate.has_cycle_constraints()` — gates the exact whole-cycle
    /// re-check at close time.
    cycle_check: bool,
    /// Is there a finite total-amount ceiling to prune on?
    check_total: bool,
    /// `predicate.requires_monotone()`.
    monotone: bool,
    /// Any `FromStart` positional constraints to check on the fixed prefix?
    has_from_start: bool,
    /// `*predicate.vertex_filter() == VertexFilter::Any`.
    vf_any: bool,
}

impl Pushdown {
    fn of(predicate: &CyclePredicate) -> Self {
        let pred_all = predicate.edge_predicate().is_pass_all();
        let check_total = predicate.total_amount_max() != Amount::MAX;
        let monotone = predicate.requires_monotone();
        let has_from_start = predicate
            .positions()
            .any(|(p, _)| matches!(p, Position::FromStart(_)));
        Self {
            pred_all,
            attrs_needed: !pred_all || check_total || monotone || has_from_start,
            cycle_check: predicate.has_cycle_constraints(),
            check_total,
            monotone,
            has_from_start,
            vf_any: *predicate.vertex_filter() == VertexFilter::Any,
        }
    }
}

/// Root-edge admission shared by every per-root driver: the pushed-down
/// predicate parts decidable from the root edge alone. The root is part of
/// every cycle it closes, so it must satisfy the per-edge predicate, the
/// vertex filter on both endpoints, any constraint pinned at `FromEnd(0)`
/// (the root *is* the last reported edge), and leave room under the
/// total-amount ceiling. Records the matching prune counter and returns
/// `false` when the root can close nothing.
fn admit_root(
    e: &TemporalEdge,
    predicate: &CyclePredicate,
    metrics: &WorkMetrics,
    worker: usize,
) -> bool {
    let edge_pred = predicate.edge_predicate();
    if !edge_pred.is_pass_all() && !edge_pred.accepts(e) {
        return false;
    }
    let vf = predicate.vertex_filter();
    if *vf != VertexFilter::Any && (!vf.accepts(e.src) || !vf.accepts(e.dst)) {
        metrics.vertex_prune(worker);
        return false;
    }
    if let Some(p) = predicate.from_end_at(0) {
        if !p.accepts(e) {
            metrics.positional_prune(worker);
            return false;
        }
    }
    if e.amount > predicate.total_amount_max() {
        metrics.aggregate_prune(worker);
        return false;
    }
    true
}

/// Per-edge admission shared verbatim by the sequential search and the
/// fine-grained frame-stack expansion: evaluates the pushed-down predicate parts
/// decidable from the candidate edge and the fixed path prefix — the
/// per-edge attribute predicate, the monotone aggregate bounds (running
/// total vs. ceiling, strict amount escalation below the root's amount), and
/// the `FromStart(prefix_len)` positional constraint (the prefix is fixed,
/// so the candidate's index is final). Returns the running total and amount
/// the extended path would carry, or `None` when the branch is pruned (with
/// the matching counter recorded). `last_amount` is meaningful iff
/// `prefix_len > 0`.
#[inline]
#[allow(clippy::too_many_arguments)] // the mirrored per-edge hot path
fn admit_edge<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    push: Pushdown,
    id: EdgeId,
    prefix_len: usize,
    root_amount: Amount,
    sum: Amount,
    last_amount: Amount,
    metrics: &WorkMetrics,
    worker: usize,
) -> Option<(Amount, Amount)> {
    if !push.attrs_needed {
        return Some((sum, 0));
    }
    let e = graph.edge(id);
    if !push.pred_all && !predicate.edge_predicate().accepts(&e) {
        return None;
    }
    if push.monotone && (e.amount >= root_amount || (prefix_len > 0 && e.amount <= last_amount)) {
        // Amounts must strictly escalate along the reported order and the
        // closing root edge is the largest of all, so a non-escalating hop —
        // or one at/above the root's amount — can never be completed.
        metrics.aggregate_prune(worker);
        return None;
    }
    let sum = sum.saturating_add(e.amount);
    if push.check_total && sum > predicate.total_amount_max() {
        // Amounts are non-negative: a partial total above the ceiling stays
        // above it.
        metrics.aggregate_prune(worker);
        return None;
    }
    if push.has_from_start {
        if let Some(p) = predicate.from_start_at(prefix_len as u32) {
            if !p.accepts(&e) {
                metrics.positional_prune(worker);
                return None;
            }
        }
    }
    Some((sum, e.amount))
}

/// The exact [`CyclePredicate::accepts_cycle_edges`] re-check at close time,
/// over the assembled edge-id buffer. Vertex membership is already enforced
/// during expansion, so only the edge-sequence parts are re-checked — this is
/// where the non-monotone constraints (total minimum, `FromEnd(i >= 1)`
/// positions) are decided.
fn cycle_accepted<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    edge_buf: &mut Vec<TemporalEdge>,
    path_edges: &[EdgeId],
) -> bool {
    edge_buf.clear();
    edge_buf.extend(path_edges.iter().map(|&id| graph.edge(id)));
    predicate.accepts_cycle_edges(edge_buf)
}

/// Records one root's union pass in the deterministic work counters: the
/// union's size and the edges the pass examined.
fn record_union(metrics: &WorkMetrics, worker: usize, union: &CycleUnionWorkspace) {
    metrics.union_members(worker, union.union_size() as u64);
    metrics.union_edge_scans(worker, union.edge_scans());
}

/// Shared state of one max-rooted backwards search.
struct DeltaSearch<'a, G: ?Sized, S> {
    graph: &'a G,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    worker: usize,
    union: &'a CycleUnionWorkspace,
    /// The root (maximum) edge id; path edges must be strictly below it.
    root: EdgeId,
    /// The root's tail `u` — reaching it closes a cycle.
    target: VertexId,
    max_len: Option<usize>,
    /// Whole-cycle predicate pushed into this search.
    predicate: &'a CyclePredicate,
    /// Cached pushdown flags (see [`Pushdown`]).
    push: Pushdown,
    /// Amount of the root edge — under monotonicity every path edge must
    /// stay strictly below it.
    root_amount: Amount,
    /// Running saturating total of the root and all path edges.
    sum: Amount,
    /// Amount of the last path edge (meaningful iff `path_edges` is
    /// non-empty).
    last_amount: Amount,
    // Path state, borrowed from the worker's `RootScratch` so a root costs
    // no allocation once the buffers have grown.
    path: &'a mut Vec<VertexId>,
    path_edges: &'a mut Vec<EdgeId>,
    on_path: &'a mut FxHashSet<VertexId>,
    /// Scratch for the close-time whole-cycle re-check.
    edge_buf: &'a mut Vec<TemporalEdge>,
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> DeltaSearch<'a, G, S> {
    /// The search rooted at `e = u → w` (edge id `root`), with its path
    /// reset to the single vertex `w` in `scratch`'s buffers — the union
    /// pass must already have run into `scratch.union`.
    #[allow(clippy::too_many_arguments)] // the per-root driver signature
    fn new(
        graph: &'a G,
        sink: &'a HaltingSink<'a, S>,
        metrics: &'a WorkMetrics,
        worker: usize,
        scratch: &'a mut RootScratch,
        root: EdgeId,
        e: &TemporalEdge,
        max_len: Option<usize>,
        predicate: &'a CyclePredicate,
    ) -> Self {
        let RootScratch {
            union,
            path,
            path_edges,
            on_path,
            edge_buf,
        } = scratch;
        path.clear();
        path.push(e.dst);
        path_edges.clear();
        on_path.clear();
        on_path.insert(e.src);
        on_path.insert(e.dst);
        Self {
            graph,
            sink,
            metrics,
            worker,
            union,
            root,
            target: e.src,
            max_len,
            predicate,
            push: Pushdown::of(predicate),
            root_amount: e.amount,
            sum: e.amount,
            last_amount: 0,
            path,
            path_edges,
            on_path,
            edge_buf,
        }
    }

    #[inline]
    fn len_ok(&self, len: usize) -> bool {
        self.max_len.map(|m| len <= m).unwrap_or(true)
    }

    /// Emits the cycle `path ∪ {entry, root}` where `entry` steps onto the
    /// target — after the exact whole-cycle re-check when the predicate
    /// carries cycle-level constraints.
    fn close(&mut self, entry_edge: EdgeId) {
        self.path.push(self.target);
        self.path_edges.push(entry_edge);
        self.path_edges.push(self.root);
        if !self.push.cycle_check
            || cycle_accepted(self.graph, self.predicate, self.edge_buf, self.path_edges)
        {
            self.sink.push(self.path, self.path_edges);
        }
        self.path_edges.pop();
        self.path_edges.pop();
        self.path.pop();
    }

    /// Simple-cycle extension: every admissible earlier edge inside `window`
    /// may continue the path.
    fn extend_simple(&mut self, v: VertexId, window: TimeWindow) {
        self.metrics.recursive_call(self.worker);
        for &entry in self.graph.out_edges_in_window(v, window) {
            if self.sink.stopped() {
                return;
            }
            self.metrics.edge_visit(self.worker);
            if entry.edge >= self.root {
                continue;
            }
            let Some((sum, amount)) = admit_edge(
                self.graph,
                self.predicate,
                self.push,
                entry.edge,
                self.path_edges.len(),
                self.root_amount,
                self.sum,
                self.last_amount,
                self.metrics,
                self.worker,
            ) else {
                continue;
            };
            let w = entry.neighbor;
            if w == self.target {
                if self.len_ok(self.path_edges.len() + 2) {
                    self.close(entry.edge);
                }
                continue;
            }
            if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
                self.metrics.vertex_prune(self.worker);
                continue;
            }
            if self.on_path.contains(&w)
                || !self.union.in_union(w)
                || !self.len_ok(self.path_edges.len() + 3)
            {
                continue;
            }
            self.path.push(w);
            self.path_edges.push(entry.edge);
            self.on_path.insert(w);
            let (prev_sum, prev_last) = (self.sum, self.last_amount);
            self.sum = sum;
            self.last_amount = amount;
            self.extend_simple(w, window);
            self.sum = prev_sum;
            self.last_amount = prev_last;
            self.on_path.remove(&w);
            self.path_edges.pop();
            self.path.pop();
        }
    }

    /// Temporal extension: timestamps strictly increase along the path and
    /// stay strictly below the root's timestamp (`t_last` is `t0 - 1`).
    fn extend_temporal(&mut self, v: VertexId, arrival: Timestamp, t_last: Timestamp) {
        self.metrics.recursive_call(self.worker);
        let window = TimeWindow::new(arrival.saturating_add(1), t_last);
        for &entry in self.graph.out_edges_in_window(v, window) {
            if self.sink.stopped() {
                return;
            }
            self.metrics.edge_visit(self.worker);
            let Some((sum, amount)) = admit_edge(
                self.graph,
                self.predicate,
                self.push,
                entry.edge,
                self.path_edges.len(),
                self.root_amount,
                self.sum,
                self.last_amount,
                self.metrics,
                self.worker,
            ) else {
                continue;
            };
            let w = entry.neighbor;
            if w == self.target {
                if self.len_ok(self.path_edges.len() + 2) {
                    self.close(entry.edge);
                }
                continue;
            }
            if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
                self.metrics.vertex_prune(self.worker);
                continue;
            }
            if self.on_path.contains(&w)
                || !self.union.in_union(w)
                || !self.union.can_close_after(w, entry.ts)
                || !self.len_ok(self.path_edges.len() + 3)
            {
                continue;
            }
            self.path.push(w);
            self.path_edges.push(entry.edge);
            self.on_path.insert(w);
            let (prev_sum, prev_last) = (self.sum, self.last_amount);
            self.sum = sum;
            self.last_amount = amount;
            self.extend_temporal(w, entry.ts, t_last);
            self.sum = prev_sum;
            self.last_amount = prev_last;
            self.on_path.remove(&w);
            self.path_edges.pop();
            self.path.pop();
        }
    }
}

/// Runs the simple-cycle delta search rooted at `root` (the cycle's maximum
/// edge). See the [module docs](self) for `floor`.
#[allow(clippy::too_many_arguments)] // the per-root driver signature + floor
pub(crate) fn delta_simple_root<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    root: EdgeId,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
) {
    let e = graph.edge(root);
    if e.ts < floor {
        // A batch that straddles the retention span can contain edges that
        // expired the moment they arrived; they close nothing.
        return;
    }
    let push = Pushdown::of(predicate);
    if !admit_root(&e, predicate, metrics, worker) {
        return;
    }
    if e.src == e.dst {
        if opts.include_self_loops
            && opts.len_ok(1)
            && (!push.cycle_check || predicate.accepts_cycle_edges(std::slice::from_ref(&e)))
        {
            sink.push(&[e.src], &[root]);
        }
        return;
    }
    metrics.root_processed(worker);
    // A cycle whose maximum edge has timestamp t0 fits in a δ-window iff all
    // of its edges have ts >= t0 - δ; clamp at the stream floor.
    let start = e.ts.saturating_sub(opts.effective_delta()).max(floor);
    let window = TimeWindow::new(start, e.ts);
    let reachable = scratch
        .union
        .compute_simple_before(graph, root, window, predicate);
    record_union(metrics, worker, &scratch.union);
    if !reachable {
        return;
    }
    DeltaSearch::new(
        graph,
        sink,
        metrics,
        worker,
        scratch,
        root,
        &e,
        opts.max_len,
        predicate,
    )
    .extend_simple(e.dst, window);
}

/// Runs the temporal-cycle delta search rooted at `root` (the cycle's last —
/// and strictly largest — edge). See the [module docs](self) for `floor`.
#[allow(clippy::too_many_arguments)] // the per-root driver signature + floor
pub(crate) fn delta_temporal_root<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    root: EdgeId,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
) {
    let e = graph.edge(root);
    if e.ts < floor || e.src == e.dst {
        return;
    }
    if !admit_root(&e, predicate, metrics, worker) {
        return;
    }
    metrics.root_processed(worker);
    // The cycle's first edge anchors its window: first_ts >= t0 - δ.
    let start = e.ts.saturating_sub(opts.window_delta).max(floor);
    let window = TimeWindow::new(start, e.ts);
    let reachable = scratch
        .union
        .compute_temporal_before(graph, root, window, predicate);
    record_union(metrics, worker, &scratch.union);
    if !reachable {
        return;
    }
    // Seeding the arrival one below the window start admits exactly first
    // hops with ts >= start; path timestamps stay strictly below t0.
    DeltaSearch::new(
        graph,
        sink,
        metrics,
        worker,
        scratch,
        root,
        &e,
        opts.max_len,
        predicate,
    )
    .extend_temporal(e.dst, start.saturating_sub(1), e.ts.saturating_sub(1));
}

/// Sequential simple-cycle delta enumeration over the root range `roots`
/// (typically the id range of the newest ingest batch). Allocates fresh
/// scratch; high-frequency callers should use
/// [`delta_simple_with_scratch`] to reuse one scratch across runs.
///
/// `predicate` is pushed into the traversal (union passes, path extension
/// and aggregate partial bounds alike; see the [module docs](self)), so
/// pruned branches never enter the search state — pass
/// [`CyclePredicate::pass_all`] for unfiltered enumeration. Every driver
/// below takes the same parameter with the same meaning.
pub fn delta_simple<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
) -> RunStats {
    let mut scratch = RootScratch::new(graph.num_vertices());
    delta_simple_with_scratch(graph, roots, floor, opts, predicate, sink, &mut scratch)
}

/// [`delta_simple`] with caller-owned scratch: the streaming engine's
/// per-batch hot path, paying no per-run allocation (the scratch's
/// epoch-stamping makes reuse free). The scratch must cover
/// `graph.num_vertices()` (see [`RootScratch::ensure_vertices`]).
pub fn delta_simple_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    scratch: &mut RootScratch,
) -> RunStats {
    let metrics = WorkMetrics::new(1);
    let sink = HaltingSink::new(sink);
    timed_run(&sink, &metrics, 1, || {
        for root in roots {
            if sink.stopped() {
                break;
            }
            delta_simple_root(
                graph, root, floor, opts, predicate, scratch, &sink, &metrics, 0,
            );
        }
    })
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

/// Sequential temporal-cycle delta enumeration over the root range `roots`.
/// Allocates fresh scratch; high-frequency callers should use
/// [`delta_temporal_with_scratch`] to reuse one scratch across runs.
pub fn delta_temporal<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
) -> RunStats {
    let mut scratch = RootScratch::new(graph.num_vertices());
    delta_temporal_with_scratch(graph, roots, floor, opts, predicate, sink, &mut scratch)
}

/// [`delta_temporal`] with caller-owned scratch (see
/// [`delta_simple_with_scratch`]).
pub fn delta_temporal_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    scratch: &mut RootScratch,
) -> RunStats {
    let metrics = WorkMetrics::new(1);
    let sink = HaltingSink::new(sink);
    timed_run(&sink, &metrics, 1, || {
        for root in roots {
            if sink.stopped() {
                break;
            }
            delta_temporal_root(
                graph, root, floor, opts, predicate, scratch, &sink, &metrics, 0,
            );
        }
    })
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

/// The shared parallel delta driver: workers claim roots from the batch
/// range via a dynamic counter, exactly like the coarse-grained one-shot
/// driver (one task per root edge, §4 of the paper). One caller-owned
/// scratch per spawned worker; each scratch must cover
/// `graph.num_vertices()`.
fn run_delta_parallel<S, F>(
    roots: Range<EdgeId>,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
    per_root: F,
) -> RunStats
where
    S: CycleSink,
    F: Fn(EdgeId, &mut RootScratch, &HaltingSink<'_, S>, &WorkMetrics, usize) + Sync,
{
    let threads = pool.num_threads();
    assert!(
        scratches.len() >= threads,
        "need one scratch per pool worker"
    );
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let base = roots.start;
    let counter = DynamicCounter::new(roots.len(), 1);
    let sink = HaltingSink::new(sink);

    pool.scope(|scope| {
        for scratch in scratches[..threads].iter_mut() {
            let counter = &counter;
            let metrics = &metrics;
            let sink = &sink;
            let per_root = &per_root;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                while let Some(i) = counter.next() {
                    if sink.stopped() {
                        break;
                    }
                    let t0 = Instant::now();
                    per_root(base + i as EdgeId, scratch, sink, metrics, worker);
                    metrics.add_busy(worker, t0.elapsed());
                }
            });
        }
    });

    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(Algorithm::Johnson, Granularity::CoarseGrained)
}

/// Allocates one fresh scratch per pool worker (the convenience path; the
/// streaming engine reuses persistent scratches instead).
fn fresh_scratches<G: GraphView + ?Sized>(graph: &G, pool: &ThreadPool) -> Vec<RootScratch> {
    (0..pool.num_threads())
        .map(|_| RootScratch::new(graph.num_vertices()))
        .collect()
}

/// Parallel simple-cycle delta enumeration: one dynamically scheduled task
/// per root in `roots`. Allocates fresh per-worker scratch; high-frequency
/// callers should use [`delta_simple_parallel_with_scratch`].
pub fn delta_simple_parallel<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let mut scratches = fresh_scratches(graph, pool);
    delta_simple_parallel_with_scratch(
        graph,
        roots,
        floor,
        opts,
        predicate,
        sink,
        pool,
        &mut scratches,
    )
}

/// [`delta_simple_parallel`] with caller-owned per-worker scratches (at
/// least `pool.num_threads()` of them, each covering
/// `graph.num_vertices()`): no allocation on the per-batch hot path.
#[allow(clippy::too_many_arguments)] // the parallel driver signature + scratches
pub fn delta_simple_parallel_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_parallel(
        roots,
        sink,
        pool,
        scratches,
        |root, scratch, sink, metrics, worker| {
            delta_simple_root(
                graph, root, floor, opts, predicate, scratch, sink, metrics, worker,
            )
        },
    )
}

/// Parallel temporal-cycle delta enumeration: one dynamically scheduled task
/// per root in `roots`. Allocates fresh per-worker scratch; high-frequency
/// callers should use [`delta_temporal_parallel_with_scratch`].
pub fn delta_temporal_parallel<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let mut scratches = fresh_scratches(graph, pool);
    delta_temporal_parallel_with_scratch(
        graph,
        roots,
        floor,
        opts,
        predicate,
        sink,
        pool,
        &mut scratches,
    )
}

/// [`delta_temporal_parallel`] with caller-owned per-worker scratches (see
/// [`delta_simple_parallel_with_scratch`]).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + scratches
pub fn delta_temporal_parallel_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_parallel(
        roots,
        sink,
        pool,
        scratches,
        |root, scratch, sink, metrics, worker| {
            delta_temporal_root(
                graph, root, floor, opts, predicate, scratch, sink, metrics, worker,
            )
        },
    )
}

/// A sink adaptor attributing accepted cycles to one shard: forwards every
/// push to the shared inner sink and bumps the shard's counter. The counter
/// assumes a non-halting inner sink (the streaming engine's counting and
/// collecting sinks never return `Break`); under an early-stopping sink the
/// per-shard attribution may over-count by in-flight pushes, exactly like
/// the global count across workers.
struct ShardCountingSink<'a, S> {
    inner: &'a S,
    cycles: &'a AtomicU64,
}

impl<S: CycleSink> CycleSink for ShardCountingSink<'_, S> {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> std::ops::ControlFlow<()> {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        self.inner.push(vertices, edges)
    }

    fn count(&self) -> u64 {
        self.inner.count()
    }
}

/// The sharded delta driver: the root range is partitioned by *shard
/// ownership of the root's source vertex* ([`ShardSpec::owner`]), workers
/// claim whole shards from a dynamic counter, and every claimed shard sweeps
/// the batch's roots sequentially in ascending id order, skipping roots it
/// does not own. Ownership partitions the roots, so together the shards
/// process every root exactly once — and because a cycle is reported only by
/// the search rooted at its maximum `(ts, id)` edge, a cycle whose path
/// crosses shard boundaries is still reported exactly once, by the shard
/// owning that closing edge. Cross-shard paths need no messaging: the
/// backward union/search passes read sibling shards' adjacency directly
/// (immutable between appends), which is the shared-memory form of the
/// boundary-frontier exchange.
///
/// Per-shard cycle/root attribution is returned in [`RunStats::shards`].
/// The granularity tag stays `Sequential`: each root still runs the
/// sequential per-root search — sharding parallelises *across* shards, not
/// inside a root (the coarse- and fine-grained drivers already decompose
/// below shard level, so they ignore sharding).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + spec
fn run_delta_sharded<G, S, F>(
    graph: &G,
    roots: Range<EdgeId>,
    spec: ShardSpec,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
    per_root: F,
) -> RunStats
where
    G: GraphView + ?Sized,
    S: CycleSink,
    F: for<'h> Fn(
            EdgeId,
            &mut RootScratch,
            &HaltingSink<'h, ShardCountingSink<'h, S>>,
            &WorkMetrics,
            usize,
        ) + Sync,
{
    let threads = pool.num_threads();
    assert!(
        scratches.len() >= threads,
        "need one scratch per pool worker"
    );
    let nshards = spec.shards();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let counter = DynamicCounter::new(nshards, 1);
    let shard_cycles: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let shard_roots: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    // A sink's Break latches per shard (each shard wraps its own
    // HaltingSink); this flag propagates the stop to shards other workers
    // are sweeping.
    let stop = AtomicBool::new(false);

    pool.scope(|scope| {
        for scratch in scratches[..threads.min(nshards)].iter_mut() {
            let counter = &counter;
            let metrics = &metrics;
            let per_root = &per_root;
            let shard_cycles = &shard_cycles;
            let shard_roots = &shard_roots;
            let stop = &stop;
            let roots = roots.clone();
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                while let Some(s) = counter.next() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let t0 = Instant::now();
                    let shard_sink = ShardCountingSink {
                        inner: sink,
                        cycles: &shard_cycles[s],
                    };
                    let halting = HaltingSink::new(&shard_sink);
                    let mut owned = 0u64;
                    for root in roots.clone() {
                        if halting.stopped() || stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if spec.owner(graph.edge(root).src) != s {
                            continue;
                        }
                        owned += 1;
                        per_root(root, scratch, &halting, metrics, worker);
                    }
                    shard_roots[s].store(owned, Ordering::Relaxed);
                    if halting.stopped() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    metrics.add_busy(worker, t0.elapsed());
                }
            });
        }
    });

    let shards = shard_roots
        .iter()
        .zip(shard_cycles.iter())
        .enumerate()
        .map(|(shard, (r, c))| ShardStats {
            shard,
            roots: r.load(Ordering::Relaxed),
            cycles: c.load(Ordering::Relaxed),
        })
        .collect();
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        shards,
        ..RunStats::default()
    }
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

/// Sharded simple-cycle delta enumeration with caller-owned per-worker
/// scratches: one parallel task per shard, roots partitioned by
/// [`ShardSpec::owner`] of the root's source vertex. Results are identical
/// to every other driver; see the [module docs](self).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + spec
pub fn delta_simple_sharded_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    spec: ShardSpec,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_sharded(
        graph,
        roots,
        spec,
        sink,
        pool,
        scratches,
        |root, scratch, sink, metrics, worker| {
            delta_simple_root(
                graph, root, floor, opts, predicate, scratch, sink, metrics, worker,
            )
        },
    )
}

/// Sharded temporal-cycle delta enumeration (see
/// [`delta_simple_sharded_with_scratch`]).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + spec
pub fn delta_temporal_sharded_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    spec: ShardSpec,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_sharded(
        graph,
        roots,
        spec,
        sink,
        pool,
        scratches,
        |root, scratch, sink, metrics, worker| {
            delta_temporal_root(
                graph, root, floor, opts, predicate, scratch, sink, metrics, worker,
            )
        },
    )
}

/// The constraint set of one fine-grained delta run: which cycle definition
/// the frame-stack searches enforce while extending a path.
#[derive(Clone, Copy)]
enum FineDeltaMode<'a> {
    Simple(&'a SimpleCycleOptions),
    Temporal(&'a TemporalCycleOptions),
}

impl FineDeltaMode<'_> {
    #[inline]
    fn len_ok(&self, len: usize) -> bool {
        match self {
            FineDeltaMode::Simple(o) => o.len_ok(len),
            FineDeltaMode::Temporal(o) => o.len_ok(len),
        }
    }

    #[inline]
    fn is_temporal(&self) -> bool {
        matches!(self, FineDeltaMode::Temporal(_))
    }
}

/// The per-root constants of one delta search, shared by its owner and by
/// every search stolen from it. The pruning state is the root's union pass
/// snapshot into a read-only [`UnionView`], so a thief shares it instead of
/// copying it.
#[derive(Clone)]
struct RootBounds {
    /// The root (maximum) edge; simple-mode path edges must stay below it.
    root: EdgeId,
    /// The root's tail `u` — reaching it closes a cycle.
    target: VertexId,
    /// Admissible window for simple extensions (fixed per root).
    window: TimeWindow,
    /// Temporal: upper timestamp bound for path edges (`t0 - 1`).
    t_last: Timestamp,
    /// Amount of the root edge — under monotonicity every path edge must
    /// stay strictly below it.
    root_amount: Amount,
    union: Arc<UnionView>,
}

impl RootBounds {
    /// The window of the out-edges that may leave a tip reached at
    /// `arrival` (temporal: strictly later, and before the root).
    #[inline]
    fn window_after(&self, mode: FineDeltaMode<'_>, arrival: Timestamp) -> TimeWindow {
        if mode.is_temporal() {
            TimeWindow::new(arrival.saturating_add(1), self.t_last)
        } else {
            self.window
        }
    }

    /// Could `entry`, leaving a tip after `prefix_edges` path edges, extend
    /// the path rather than close or die? Decided from the root's constants
    /// alone (no counters, no path state), so a thief can ask it under the
    /// victim's lock; a `true` may still be pruned when the entry is run.
    fn may_extend(&self, mode: FineDeltaMode<'_>, entry: &AdjEntry, prefix_edges: usize) -> bool {
        (mode.is_temporal() || entry.edge < self.root)
            && entry.neighbor != self.target
            && self.union.in_union(entry.neighbor)
            && self.union.can_close_after(entry.neighbor, entry.ts)
            && mode.len_ok(prefix_edges + 3)
    }
}

/// One recursion level of a frame-stack delta search: the tip's admissible
/// out-edges and the aggregate state of the path reaching the tip. The
/// entries are a sub-slice of the graph's adjacency (for temporal searches
/// already cut to timestamps after the arrival at the tip), so pushing a
/// frame allocates nothing and a stolen frame carries its arrival bound.
#[derive(Clone, Copy)]
struct Frame<'g> {
    entries: &'g [AdjEntry],
    /// Index of the next unclaimed entry.
    next: usize,
    /// Running saturating total of the root and the path edges to the tip.
    sum: Amount,
    /// Amount of the last path edge (meaningful iff the path has an edge).
    last_amount: Amount,
}

/// The mutable state of one running search — a root's, or a stolen
/// branch's. `frames[i]` explores the tip of a path of `base + i` vertices.
#[derive(Default)]
struct SearchState<'g> {
    base: usize,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    frames: Vec<Frame<'g>>,
    /// Unclaimed entries over all frames.
    unclaimed: usize,
    /// Scratch for the close-time whole-cycle re-check.
    edge_buf: Vec<TemporalEdge>,
}

impl SearchState<'_> {
    /// A worker's search state for one run, built on the path buffers of
    /// its persistent scratch (the frames borrow the run's graph, so they
    /// are the run's own).
    fn lend(scratch: &mut RootScratch) -> Self {
        Self {
            path: std::mem::take(&mut scratch.path),
            path_edges: std::mem::take(&mut scratch.path_edges),
            on_path: std::mem::take(&mut scratch.on_path),
            edge_buf: std::mem::take(&mut scratch.edge_buf),
            ..Self::default()
        }
    }

    /// Hands the path buffers back to the scratch for the next run.
    fn give_back(self, scratch: &mut RootScratch) {
        scratch.path = self.path;
        scratch.path_edges = self.path_edges;
        scratch.on_path = self.on_path;
        scratch.edge_buf = self.edge_buf;
    }
}

/// A registered, stealable search.
struct FineSearch<'g> {
    bounds: RootBounds,
    /// Held by the owner across its steps, so a step costs no lock round
    /// trip; handed over whenever `thieves` is non-zero.
    state: Mutex<SearchState<'g>>,
    /// Lock-free hint that `state` holds unclaimed entries.
    stealable: AtomicBool,
    /// Thieves waiting for `state`.
    thieves: AtomicUsize,
}

impl<'g> FineSearch<'g> {
    /// Splits work off this search for an idle worker: the unclaimed entries
    /// of the shallowest frame up to and including the first one that
    /// [may extend](RootBounds::may_extend) the path (all of them if none
    /// may). Only now is state copied (copy-on-steal): the path prefix of
    /// that frame, its edges and `on_path` go into the thief's recycled
    /// buffers `into`, together with the frame's `sum`/`last_amount`; the
    /// root's bounds and union are shared. Counts the thief's search as
    /// outstanding in `sched` before releasing the victim.
    fn split(
        &self,
        mode: FineDeltaMode<'_>,
        into: &mut SearchState<'g>,
        sched: &StealLoop<FineSearch<'g>>,
        metrics: &WorkMetrics,
        worker: usize,
    ) -> Option<RootBounds> {
        if !self.stealable.load(Ordering::Relaxed) {
            return None;
        }
        self.thieves.fetch_add(1, Ordering::AcqRel);
        let mut guard = self.state.lock();
        self.thieves.fetch_sub(1, Ordering::AcqRel);
        let st = &mut *guard;
        let Some(depth) = st.frames.iter().position(|f| f.next < f.entries.len()) else {
            self.stealable.store(false, Ordering::Relaxed);
            return None;
        };
        let prefix = st.base + depth;
        let frame = &mut st.frames[depth];
        let rest = &frame.entries[frame.next..];
        let take = rest
            .iter()
            .position(|e| self.bounds.may_extend(mode, e, prefix - 1))
            .map_or(rest.len(), |k| k + 1);
        let stolen = Frame {
            entries: &rest[..take],
            next: 0,
            ..*frame
        };
        frame.next += take;
        st.unclaimed -= take;
        if st.unclaimed == 0 {
            self.stealable.store(false, Ordering::Relaxed);
        }
        sched.count_split();

        metrics.copy_event(worker);
        into.base = prefix;
        into.path.clear();
        into.path.extend_from_slice(&st.path[..prefix]);
        into.path_edges.clear();
        into.path_edges
            .extend_from_slice(&st.path_edges[..prefix - 1]);
        into.on_path.clear();
        into.on_path.extend(into.path.iter().copied());
        into.on_path.insert(self.bounds.target);
        into.frames.clear();
        into.frames.push(stolen);
        into.unclaimed = take;
        Some(self.bounds.clone())
    }
}

/// State shared by every worker of one fine-grained delta run.
struct FineDeltaShared<'a, G: ?Sized, S> {
    graph: &'a G,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    mode: FineDeltaMode<'a>,
    /// Whole-cycle predicate pushed into every search of the run.
    predicate: &'a CyclePredicate,
    /// Cached pushdown flags (see [`Pushdown`]).
    push: Pushdown,
    /// The batch's roots and every running search, open to thieves.
    sched: StealLoop<FineSearch<'a>>,
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> FineDeltaShared<'a, G, S> {
    /// Per-root preamble: floor / self-loop handling, the mirrored union pass
    /// into the worker's scratch and its snapshot, and the root frame pushed
    /// into the worker's recycled buffers `st`. Returns `None` when the root
    /// closes nothing.
    fn prepare_root(
        &self,
        root: EdgeId,
        floor: Timestamp,
        scratch: &mut RootScratch,
        st: &mut SearchState<'a>,
        worker: usize,
    ) -> Option<RootBounds> {
        let e = self.graph.edge(root);
        if e.ts < floor {
            return None;
        }
        // The root edge is part of every cycle it closes.
        if !admit_root(&e, self.predicate, self.metrics, worker) {
            return None;
        }
        if e.src == e.dst {
            if let FineDeltaMode::Simple(opts) = self.mode {
                if opts.include_self_loops
                    && opts.len_ok(1)
                    && (!self.push.cycle_check
                        || self.predicate.accepts_cycle_edges(std::slice::from_ref(&e)))
                {
                    self.sink.push(&[e.src], &[root]);
                }
            }
            return None;
        }
        self.metrics.root_processed(worker);
        let delta = match self.mode {
            FineDeltaMode::Simple(opts) => opts.effective_delta(),
            FineDeltaMode::Temporal(opts) => opts.window_delta,
        };
        let start = e.ts.saturating_sub(delta).max(floor);
        let window = TimeWindow::new(start, e.ts);
        let union = &mut scratch.union;
        let reachable = if self.mode.is_temporal() {
            union.compute_temporal_before(self.graph, root, window, self.predicate)
        } else {
            union.compute_simple_before(self.graph, root, window, self.predicate)
        };
        record_union(self.metrics, worker, union);
        if !reachable {
            return None;
        }
        let union = Arc::new(if self.mode.is_temporal() {
            UnionView::from_temporal(union)
        } else {
            UnionView::from_simple(union)
        });
        let bounds = RootBounds {
            root,
            target: e.src,
            window,
            t_last: e.ts.saturating_sub(1),
            root_amount: e.amount,
            union,
        };
        self.metrics.recursive_call(worker);
        // Seeding the arrival one below the window start admits exactly
        // first hops with ts >= start (same as the sequential driver).
        let entries = self.graph.out_edges_in_window(
            e.dst,
            bounds.window_after(self.mode, start.saturating_sub(1)),
        );
        st.base = 1;
        st.path.clear();
        st.path.push(e.dst);
        st.path_edges.clear();
        st.on_path.clear();
        st.on_path.insert(e.src);
        st.on_path.insert(e.dst);
        st.frames.clear();
        st.frames.push(Frame {
            entries,
            next: 0,
            sum: e.amount,
            last_amount: 0,
        });
        st.unclaimed = entries.len();
        Some(bounds)
    }

    /// Runs one entry claimed from the deepest frame: the sequential
    /// search's loop body (same admission, pruning and counters), except
    /// that a continuable branch pushes a frame instead of recursing.
    fn expand(&self, b: &RootBounds, st: &mut SearchState<'a>, entry: AdjEntry, worker: usize) {
        let frame = *st.frames.last().expect("claimed from a frame");
        self.metrics.edge_visit(worker);
        if !self.mode.is_temporal() && entry.edge >= b.root {
            // Temporal admissibility is already timestamp-bounded by
            // `t_last < t0` (ids refine timestamp order).
            return;
        }
        let Some((sum, amount)) = admit_edge(
            self.graph,
            self.predicate,
            self.push,
            entry.edge,
            st.path_edges.len(),
            b.root_amount,
            frame.sum,
            frame.last_amount,
            self.metrics,
            worker,
        ) else {
            return;
        };
        let w = entry.neighbor;
        if w == b.target {
            if self.mode.len_ok(st.path_edges.len() + 2) {
                st.path.push(b.target);
                st.path_edges.push(entry.edge);
                st.path_edges.push(b.root);
                if !self.push.cycle_check
                    || cycle_accepted(self.graph, self.predicate, &mut st.edge_buf, &st.path_edges)
                {
                    self.sink.push(&st.path, &st.path_edges);
                }
                st.path_edges.pop();
                st.path_edges.pop();
                st.path.pop();
            }
            return;
        }
        if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
            self.metrics.vertex_prune(worker);
            return;
        }
        if st.on_path.contains(&w)
            || !b.union.in_union(w)
            || !b.union.can_close_after(w, entry.ts)
            || !self.mode.len_ok(st.path_edges.len() + 3)
        {
            return;
        }
        self.metrics.recursive_call(worker);
        let entries = self
            .graph
            .out_edges_in_window(w, b.window_after(self.mode, entry.ts));
        st.path.push(w);
        st.path_edges.push(entry.edge);
        st.on_path.insert(w);
        st.frames.push(Frame {
            entries,
            next: 0,
            sum,
            last_amount: amount,
        });
        st.unclaimed += entries.len();
    }

    /// Runs a search to completion on the calling worker: claims entries
    /// from the deepest frame (the sequential depth-first order) and
    /// backtracks over exhausted frames, while thieves split the shallowest
    /// frame off through [`FineSearch::split`]. Winds down early, with
    /// entries unclaimed, once the sink stops the run.
    fn run_search(&self, search: &FineSearch<'a>, worker: usize) {
        let b = &search.bounds;
        let mut guard = search.state.lock();
        loop {
            if self.sink.stopped() {
                break;
            }
            if search.thieves.load(Ordering::Relaxed) > 0 {
                // Let every waiting thief take its turn before the next step.
                drop(guard);
                while search.thieves.load(Ordering::Acquire) > 0 {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                guard = search.state.lock();
            }
            let st = &mut *guard;
            let Some(frame) = st.frames.last_mut() else {
                break;
            };
            if let Some(&entry) = frame.entries.get(frame.next) {
                frame.next += 1;
                st.unclaimed -= 1;
                self.expand(b, st, entry, worker);
                let stealable = st.unclaimed > 0;
                if search.stealable.load(Ordering::Relaxed) != stealable {
                    search.stealable.store(stealable, Ordering::Relaxed);
                }
            } else {
                st.frames.pop();
                if st.frames.is_empty() {
                    break;
                }
                let v = st.path.pop().expect("a frame above the base owns a vertex");
                st.path_edges.pop();
                st.on_path.remove(&v);
            }
        }
    }

    /// Registers `state` as a search under `bounds`, runs it, and hands its
    /// buffers back for reuse.
    fn run_registered(
        &self,
        bounds: RootBounds,
        state: SearchState<'a>,
        worker: usize,
    ) -> SearchState<'a> {
        let search = Arc::new(FineSearch {
            bounds,
            stealable: AtomicBool::new(state.unclaimed > 0),
            thieves: AtomicUsize::new(0),
            state: Mutex::new(state),
        });
        let guard = self.sched.register(Arc::clone(&search));
        self.run_search(&search, worker);
        drop(guard);
        search.stealable.store(false, Ordering::Relaxed);
        let state = std::mem::take(&mut *search.state.lock());
        state
    }
}

/// The shared fine-grained delta driver — the paper's copy-on-steal (§5)
/// applied to the max-edge-rooted backward search. Workers run a
/// [`StealLoop`] over the batch range, like `par::fine_johnson`: they claim
/// roots and run each closing root's search on an explicit frame stack,
/// registered for thieves. The owner claims entries from its deepest frame, so a
/// lone worker keeps the sequential order and counters and allocates
/// nothing per call; an idle worker splits the shallowest frame's next
/// branch off any registered search, copies the path prefix once and runs
/// the branch as a search of its own, itself open to further steals. The
/// delta search has no blocked set, so a steal needs no unblock pass. A
/// batch whose cycles all hang off one hot root thus still engages every
/// worker, and state is copied once per steal rather than once per branch.
#[allow(clippy::too_many_arguments)] // the parallel driver signature + predicate
fn run_delta_fine<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    mode: FineDeltaMode<'_>,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    let threads = pool.num_threads();
    assert!(
        scratches.len() >= threads,
        "need one scratch per pool worker"
    );
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let base = roots.start;
    let sink = HaltingSink::new(sink);
    let shared = FineDeltaShared {
        graph,
        sink: &sink,
        metrics: &metrics,
        mode,
        predicate,
        push: Pushdown::of(predicate),
        sched: StealLoop::new(roots.len()),
    };

    pool.scope(|scope| {
        for scratch in scratches[..threads].iter_mut() {
            let shared = &shared;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                let mut spare = SearchState::lend(scratch);
                shared.sched.run_worker(
                    &mut spare,
                    || shared.sink.stopped(),
                    |spare, i| {
                        let t0 = Instant::now();
                        let root = base + i as EdgeId;
                        if let Some(bounds) =
                            shared.prepare_root(root, floor, scratch, spare, worker)
                        {
                            *spare = shared.run_registered(bounds, std::mem::take(spare), worker);
                        }
                        shared.metrics.add_busy(worker, t0.elapsed());
                    },
                    |spare, victim| {
                        victim.split(mode, spare, &shared.sched, shared.metrics, worker)
                    },
                    |spare, bounds| {
                        let t0 = Instant::now();
                        shared.metrics.steal_event(worker);
                        *spare = shared.run_registered(bounds, std::mem::take(spare), worker);
                        shared.metrics.add_busy(worker, t0.elapsed());
                    },
                );
                spare.give_back(scratch);
            });
        }
    });

    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(Algorithm::Johnson, Granularity::FineGrained)
}

/// Fine-grained parallel simple-cycle delta enumeration: one frame-stack
/// search per closing root whose branches idle workers steal mid-search
/// (the paper's copy-on-steal decomposition applied to the backward,
/// max-edge-rooted search). Allocates fresh per-worker scratch;
/// high-frequency callers should use [`delta_simple_fine_with_scratch`].
pub fn delta_simple_fine<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let mut scratches = fresh_scratches(graph, pool);
    delta_simple_fine_with_scratch(
        graph,
        roots,
        floor,
        opts,
        predicate,
        sink,
        pool,
        &mut scratches,
    )
}

/// [`delta_simple_fine`] with caller-owned per-worker scratches (at least
/// `pool.num_threads()` of them, each covering `graph.num_vertices()`).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + scratches
pub fn delta_simple_fine_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_fine(
        graph,
        roots,
        floor,
        FineDeltaMode::Simple(opts),
        predicate,
        sink,
        pool,
        scratches,
    )
}

/// Fine-grained parallel temporal-cycle delta enumeration (see
/// [`delta_simple_fine`]). Allocates fresh per-worker scratch; high-frequency
/// callers should use [`delta_temporal_fine_with_scratch`].
pub fn delta_temporal_fine<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let mut scratches = fresh_scratches(graph, pool);
    delta_temporal_fine_with_scratch(
        graph,
        roots,
        floor,
        opts,
        predicate,
        sink,
        pool,
        &mut scratches,
    )
}

/// [`delta_temporal_fine`] with caller-owned per-worker scratches (see
/// [`delta_simple_fine_with_scratch`]).
#[allow(clippy::too_many_arguments)] // the parallel driver signature + scratches
pub fn delta_temporal_fine_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> RunStats {
    run_delta_fine(
        graph,
        roots,
        floor,
        FineDeltaMode::Temporal(opts),
        predicate,
        sink,
        pool,
        scratches,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::{EdgePredicate, GraphBuilder, LabelFilter, TemporalGraph};

    fn all_roots(g: &TemporalGraph) -> Range<EdgeId> {
        0..g.num_edges() as EdgeId
    }

    /// Rooting every edge as the *maximum* must enumerate exactly the same
    /// cycle set as rooting every edge as the *minimum* (the one-shot path)
    /// — and both must match the shared brute-force oracle.
    #[test]
    fn max_rooted_matches_min_rooted_simple() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 14,
                num_edges: 70,
                time_span: 50,
                seed: 900 + seed,
            });
            for delta in [12, 30, 100] {
                let opts = SimpleCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_simple(&g, &opts);
                let fwd = CollectingSink::new();
                johnson_simple(&g, &opts, &fwd);
                assert_eq!(fwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
                let bwd = CollectingSink::new();
                delta_simple(
                    &g,
                    all_roots(&g),
                    Timestamp::MIN,
                    &opts,
                    &CyclePredicate::pass_all(),
                    &bwd,
                );
                assert_eq!(bwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn max_rooted_matches_min_rooted_temporal() {
        for seed in 0..6 {
            let g = generators::power_law_temporal(RandomTemporalConfig {
                num_vertices: 20,
                num_edges: 110,
                time_span: 70,
                seed: 1_300 + seed,
            });
            for delta in [15, 40, 100] {
                let opts = TemporalCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_temporal(&g, delta);
                let fwd = CollectingSink::new();
                temporal_simple(&g, &opts, &fwd);
                assert_eq!(fwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
                let bwd = CollectingSink::new();
                delta_temporal(
                    &g,
                    all_roots(&g),
                    Timestamp::MIN,
                    &opts,
                    &CyclePredicate::pass_all(),
                    &bwd,
                );
                assert_eq!(bwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn unconstrained_and_bounded_options_are_respected() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let all = CollectingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &all,
        );
        assert_eq!(all.count(), 2);
        for c in all.canonical_cycles() {
            c.validate(&g).expect("structurally valid");
        }
        let short = CountingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained().max_len(2),
            &CyclePredicate::pass_all(),
            &short,
        );
        assert_eq!(short.count(), 1);
    }

    #[test]
    fn self_loops_only_when_requested() {
        let g = GraphBuilder::new()
            .add_edge(0, 0, 1)
            .add_edge(0, 1, 2)
            .add_edge(1, 0, 3)
            .build();
        let without = CountingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &without,
        );
        assert_eq!(without.count(), 1);
        let with = CountingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained().include_self_loops(true),
            &CyclePredicate::pass_all(),
            &with,
        );
        assert_eq!(with.count(), 2);
    }

    #[test]
    fn floor_excludes_expired_content() {
        // Triangle closed by the t=10 edge, but the t=1 edge is below floor.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 10)
            .build();
        let open = CountingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &open,
        );
        assert_eq!(open.count(), 1);
        let floored = CountingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            3,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &floored,
        );
        assert_eq!(floored.count(), 0, "expired first hop breaks the cycle");
        // Roots themselves below the floor are skipped outright.
        let t = CountingSink::new();
        delta_temporal(
            &g,
            all_roots(&g),
            11,
            &TemporalCycleOptions::with_window(100),
            &CyclePredicate::pass_all(),
            &t,
        );
        assert_eq!(t.count(), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 18,
            num_edges: 90,
            time_span: 60,
            seed: 77,
        });
        let pool = ThreadPool::new(4);
        let simple_opts = SimpleCycleOptions::with_window(20);
        let seq = CollectingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &simple_opts,
            &CyclePredicate::pass_all(),
            &seq,
        );
        let par = CollectingSink::new();
        let stats = delta_simple_parallel(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &simple_opts,
            &CyclePredicate::pass_all(),
            &par,
            &pool,
        );
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
        assert_eq!(stats.threads, 4);

        let temporal_opts = TemporalCycleOptions::with_window(25);
        let seq = CollectingSink::new();
        delta_temporal(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &temporal_opts,
            &CyclePredicate::pass_all(),
            &seq,
        );
        let par = CollectingSink::new();
        delta_temporal_parallel(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &temporal_opts,
            &CyclePredicate::pass_all(),
            &par,
            &pool,
        );
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn fine_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 18,
            num_edges: 90,
            time_span: 60,
            seed: 78,
        });
        let pool = ThreadPool::new(4);
        let simple_opts = SimpleCycleOptions::with_window(20);
        let seq = CollectingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &simple_opts,
            &CyclePredicate::pass_all(),
            &seq,
        );
        let fine = CollectingSink::new();
        let stats = delta_simple_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &simple_opts,
            &CyclePredicate::pass_all(),
            &fine,
            &pool,
        );
        assert_eq!(seq.canonical_cycles(), fine.canonical_cycles());
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.granularity, Some(Granularity::FineGrained));

        let temporal_opts = TemporalCycleOptions::with_window(25).max_len(4);
        let seq = CollectingSink::new();
        delta_temporal(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &temporal_opts,
            &CyclePredicate::pass_all(),
            &seq,
        );
        let fine = CollectingSink::new();
        delta_temporal_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &temporal_opts,
            &CyclePredicate::pass_all(),
            &fine,
            &pool,
        );
        assert_eq!(seq.canonical_cycles(), fine.canonical_cycles());

        // Steal-time state restore: all of a lattice's cycles hang off one
        // root, so 8 workers split it mid-path, and under these predicates
        // a thief's pruning is only right if it resumes with the stolen
        // frame's running total and last amount.
        let g = attributed_hub_burst(2, 10);
        let pool = ThreadPool::new(8);
        let simple_opts = SimpleCycleOptions::unconstrained();
        let temporal_opts = TemporalCycleOptions::with_window(100);
        let all = CollectingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &simple_opts,
            &CyclePredicate::pass_all(),
            &all,
        );
        let all = all.into_cycles();
        let mut totals: Vec<Amount> = all
            .iter()
            .map(|c| c.edges.iter().map(|&id| g.edge(id).amount).sum())
            .collect();
        totals.sort_unstable();
        let (low, high) = (totals[totals.len() / 4], totals[totals.len() * 3 / 5]);
        let pin = Position::FromStart(2);
        let wire = EdgePredicate::pass_all().labels(LabelFilter::allow(vec![0, 1]));
        let predicates = [
            CyclePredicate::pass_all(),
            CyclePredicate::pass_all().monotone_amounts(true),
            CyclePredicate::pass_all().total_min(low).total_max(high),
            CyclePredicate::pass_all().at(pin, wire.clone()),
            CyclePredicate::pass_all()
                .monotone_amounts(true)
                .total_min(low)
                .total_max(high)
                .at(pin, wire),
        ];
        for (i, p) in predicates.iter().enumerate() {
            let seq = CollectingSink::new();
            let seq_stats = delta_simple(&g, all_roots(&g), Timestamp::MIN, &simple_opts, p, &seq);
            let seq_t = CollectingSink::new();
            let seq_t_stats =
                delta_temporal(&g, all_roots(&g), Timestamp::MIN, &temporal_opts, p, &seq_t);
            assert_eq!(seq.canonical_cycles(), seq_t.canonical_cycles(), "case {i}");
            // Every predicate keeps some cycles and, but for pass-all, cuts
            // some.
            assert!(!seq.canonical_cycles().is_empty(), "case {i}");
            assert_eq!(seq.count() == all.len() as u64, i == 0, "case {i}");
            for run in 0..3 {
                let fine = CollectingSink::new();
                let stats = delta_simple_fine(
                    &g,
                    all_roots(&g),
                    Timestamp::MIN,
                    &simple_opts,
                    p,
                    &fine,
                    &pool,
                );
                assert_eq!(
                    seq.canonical_cycles(),
                    fine.canonical_cycles(),
                    "case {i} run {run}"
                );
                assert_same_work(&seq_stats, &stats);
                let fine = CollectingSink::new();
                let stats = delta_temporal_fine(
                    &g,
                    all_roots(&g),
                    Timestamp::MIN,
                    &temporal_opts,
                    p,
                    &fine,
                    &pool,
                );
                assert_eq!(
                    seq.canonical_cycles(),
                    fine.canonical_cycles(),
                    "case {i} run {run}"
                );
                assert_same_work(&seq_t_stats, &stats);
            }
            // A halting sink stops thieves and owners alike, after exactly
            // its first k cycles — each one a cycle the full run reports.
            let first = crate::cycle::FirstKSink::new(5);
            delta_simple_fine(
                &g,
                all_roots(&g),
                Timestamp::MIN,
                &simple_opts,
                p,
                &first,
                &pool,
            );
            let expected = seq.canonical_cycles();
            let halted = crate::testing::canonicalized(first.into_cycles());
            assert_eq!(halted.len(), expected.len().min(5), "case {i}");
            assert!(halted.iter().all(|c| expected.contains(c)), "case {i}");
        }
    }

    /// `hub_burst(width, depth)` with seeded amounts and labels: amounts
    /// climb by layer with a jitter that sometimes breaks strict escalation,
    /// so monotone and total-amount pruning cut branches at every depth.
    fn attributed_hub_burst(width: usize, depth: usize) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for (i, e) in generators::hub_burst(width, depth)
            .edges()
            .iter()
            .enumerate()
        {
            let jitter = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
            let amount = e.ts as Amount * 6 + jitter;
            b.push_attr_edge(TemporalEdge::with_attrs(
                e.src,
                e.dst,
                e.ts,
                amount,
                (jitter % 3) as u16,
            ));
        }
        b.build()
    }

    /// The deterministic work counters a fine-grained run must share with
    /// the sequential one.
    fn assert_same_work(seq: &RunStats, fine: &RunStats) {
        let (s, f) = (&seq.work, &fine.work);
        assert_eq!(s.total_edge_visits(), f.total_edge_visits());
        assert_eq!(s.total_recursive_calls(), f.total_recursive_calls());
        assert_eq!(s.total_union_members(), f.total_union_members());
        assert_eq!(s.total_union_edge_scans(), f.total_union_edge_scans());
        assert_eq!(s.total_roots(), f.total_roots());
        assert_eq!(s.total_aggregate_prunes(), f.total_aggregate_prunes());
        assert_eq!(s.total_positional_prunes(), f.total_positional_prunes());
        assert_eq!(s.total_vertex_prunes(), f.total_vertex_prunes());
        assert!(f.total_copies() <= f.total_steals() + f.total_roots());
    }

    #[test]
    fn fine_results_independent_of_thread_count_and_floor() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 110,
            time_span: 70,
            seed: 1_301,
        });
        let opts = TemporalCycleOptions::with_window(30);
        for floor in [Timestamp::MIN, 20] {
            let reference = CollectingSink::new();
            delta_temporal(
                &g,
                all_roots(&g),
                floor,
                &opts,
                &CyclePredicate::pass_all(),
                &reference,
            );
            for threads in [1, 2, 4] {
                let sink = CollectingSink::new();
                delta_temporal_fine(
                    &g,
                    all_roots(&g),
                    floor,
                    &opts,
                    &CyclePredicate::pass_all(),
                    &sink,
                    &ThreadPool::new(threads),
                );
                assert_eq!(
                    reference.canonical_cycles(),
                    sink.canonical_cycles(),
                    "threads {threads} floor {floor}"
                );
            }
        }
    }

    #[test]
    fn fine_self_loops_and_early_termination() {
        let g = GraphBuilder::new()
            .add_edge(0, 0, 1)
            .add_edge(0, 1, 2)
            .add_edge(1, 0, 3)
            .build();
        let pool = ThreadPool::new(2);
        let with = CountingSink::new();
        delta_simple_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained().include_self_loops(true),
            &CyclePredicate::pass_all(),
            &with,
            &pool,
        );
        assert_eq!(with.count(), 2);
        let floored = CountingSink::new();
        delta_simple_fine(
            &g,
            all_roots(&g),
            3,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &floored,
            &pool,
        );
        assert_eq!(floored.count(), 0, "both cycle-closing hops are expired");

        let g = generators::fig4a_exponential_cycles(12);
        let sink = crate::cycle::FirstKSink::new(3);
        delta_simple_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &sink,
            &pool,
        );
        assert_eq!(sink.into_cycles().len(), 3);
    }

    /// A counting sink that hands the core to thieves: until a second thread
    /// has pushed a cycle, each push naps briefly (within a time budget).
    /// The pushing owner holds its search across the nap, but it yields the
    /// core, so an idle worker is scheduled and queues for a split even on a
    /// loaded test executor; once a thief pushes, the naps stop. A barrier
    /// cannot force this interleaving: the owner holds its search's lock
    /// while it pushes, so a thief can split only between pushes.
    struct SpreadGate {
        count: AtomicU64,
        first: Mutex<Option<std::thread::ThreadId>>,
        spread: AtomicBool,
        deadline: Instant,
    }

    impl SpreadGate {
        fn new() -> Self {
            Self {
                count: AtomicU64::new(0),
                first: Mutex::new(None),
                spread: AtomicBool::new(false),
                deadline: Instant::now() + std::time::Duration::from_secs(20),
            }
        }
    }

    impl CycleSink for SpreadGate {
        fn push(&self, _: &[VertexId], _: &[EdgeId]) -> std::ops::ControlFlow<()> {
            self.count.fetch_add(1, Ordering::Relaxed);
            if !self.spread.load(Ordering::Relaxed) {
                let me = std::thread::current().id();
                if *self.first.lock().get_or_insert(me) != me {
                    self.spread.store(true, Ordering::Relaxed);
                } else if Instant::now() < self.deadline {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
            std::ops::ControlFlow::Continue(())
        }

        fn count(&self) -> u64 {
            self.count.load(Ordering::Relaxed)
        }
    }

    /// The delta mirror of `fine_johnson::fig4a_work_is_spread_across_workers`:
    /// every cycle of the hub-burst gadget is closed by one root edge, so the
    /// coarse driver pins to a single worker while the fine driver must spread
    /// the search across workers via steals. The [`SpreadGate`] sink makes a
    /// thief's arrival independent of how the executor schedules threads.
    #[test]
    fn hub_burst_work_is_spread_across_workers() {
        let g = generators::hub_burst(2, 13);
        let expected = generators::hub_burst_cycle_count(2, 13);
        let opts = SimpleCycleOptions::unconstrained();
        let sink = SpreadGate::new();
        let stats = delta_simple_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &CyclePredicate::pass_all(),
            &sink,
            &ThreadPool::new(4),
        );
        assert_eq!(sink.count(), expected);
        eprintln!(
            "hub_burst steals={} copies={} per-worker calls={:?}",
            stats.work.total_steals(),
            stats.work.total_copies(),
            stats
                .work
                .workers
                .iter()
                .map(|w| w.recursive_calls)
                .collect::<Vec<_>>()
        );
        assert!(stats.work.total_steals() > 0, "steals should have happened");
        // Copy-on-steal: state is copied once per steal, never per branch.
        assert_eq!(stats.work.total_copies(), stats.work.total_steals());
        let active_workers = stats
            .work
            .workers
            .iter()
            .filter(|w| w.recursive_calls > 0)
            .count();
        assert!(
            active_workers > 1,
            "fine-grained delta should use several workers on a hub burst"
        );

        // The temporal variant agrees on the count (every hub-burst cycle is
        // temporal by construction).
        let sink = CountingSink::new();
        delta_temporal_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &TemporalCycleOptions::with_window(1_000),
            &CyclePredicate::pass_all(),
            &sink,
            &ThreadPool::new(4),
        );
        assert_eq!(sink.count(), expected);
    }

    /// A panicking sink must fail the run, not hang it: the panicking
    /// worker's search still counts as finished, so the idle workers leave
    /// and the pool re-raises the panic. A hang fails the test after a
    /// minute instead of wedging the suite.
    #[test]
    fn fine_sink_panic_propagates() {
        struct Exploding;
        impl CycleSink for Exploding {
            fn push(&self, _: &[VertexId], _: &[EdgeId]) -> std::ops::ControlFlow<()> {
                panic!("sink exploded");
            }

            fn count(&self) -> u64 {
                0
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // One cycle: exactly one worker panics, the others stay idle.
            let g = GraphBuilder::new()
                .add_edge(0, 1, 1)
                .add_edge(1, 2, 2)
                .add_edge(2, 0, 3)
                .build();
            let pool = ThreadPool::new(4);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                delta_simple_fine(
                    &g,
                    all_roots(&g),
                    Timestamp::MIN,
                    &SimpleCycleOptions::unconstrained(),
                    &CyclePredicate::pass_all(),
                    &Exploding,
                    &pool,
                )
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hung after its sink panicked");
        assert!(panicked);
    }

    #[test]
    fn partial_root_ranges_report_only_their_cycles() {
        // Two vertex-disjoint 2-cycles; each closes at its own later edge.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(2, 3, 2)
            .add_edge(1, 0, 3)
            .add_edge(3, 2, 4)
            .build();
        // Roots {2} (the 1→0 edge) close exactly the 0/1 cycle.
        let sink = CollectingSink::new();
        delta_simple(
            &g,
            2..3,
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &sink,
        );
        let cycles = sink.into_cycles();
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].vertices.contains(&0) && cycles[0].vertices.contains(&1));
    }

    #[test]
    fn early_termination_stops_the_delta_run() {
        let g = generators::fig4a_exponential_cycles(12);
        let sink = crate::cycle::FirstKSink::new(3);
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &SimpleCycleOptions::unconstrained(),
            &CyclePredicate::pass_all(),
            &sink,
        );
        assert_eq!(sink.into_cycles().len(), 3);
    }

    /// Canonical post-filter baseline: pass-all enumeration re-checked per
    /// cycle with the exact predicate over the reported (max-edge-last)
    /// order.
    fn post_filtered(
        g: &TemporalGraph,
        cycles: Vec<crate::cycle::Cycle>,
        p: &CyclePredicate,
    ) -> Vec<crate::cycle::Cycle> {
        crate::testing::canonicalized(cycles.into_iter().filter(|c| {
            let edges: Vec<TemporalEdge> = c.edges.iter().map(|&id| g.edge(id)).collect();
            p.accepts_cycle(&edges, &c.vertices)
        }))
    }

    /// Hand-sized graph exercising every predicate class end to end: two
    /// 3-cycles share the closing max edge `2→0` but differ in their middle
    /// vertex, labels and amounts, so each predicate class separates them a
    /// different way. Every pushed predicate must report exactly the
    /// post-filtered pass-all results, and the classes whose bounds are
    /// decidable early must record their prune counters.
    #[test]
    fn cycle_predicate_pushdown_matches_post_filter() {
        let mut b = GraphBuilder::new();
        for (src, dst, ts, amount, label) in [
            (0, 1, 1, 5, 1),
            (1, 2, 2, 6, 1),
            (0, 3, 1, 4, 2),
            (3, 2, 2, 5, 2),
            (2, 0, 3, 7, 9),
        ] {
            b.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
        }
        let g = b.build();
        let opts = SimpleCycleOptions::unconstrained();
        let all = CollectingSink::new();
        delta_simple(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &CyclePredicate::pass_all(),
            &all,
        );
        let raw = all.into_cycles();
        assert_eq!(raw.len(), 2, "both 3-cycles close at the 2→0 root");

        // (predicate, expected survivors, which prune counter must fire;
        // None = the constraint is only decidable at close).
        let wire2 = EdgePredicate::pass_all().labels(LabelFilter::allow(vec![2]));
        let cases: Vec<(CyclePredicate, usize, Option<&str>)> = vec![
            (
                CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![3])),
                1,
                Some("vertex"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromStart(0), wire2.clone()),
                1,
                Some("positional"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromEnd(1), wire2.clone()),
                1,
                None,
            ),
            (
                CyclePredicate::pass_all().at(
                    Position::FromEnd(0),
                    EdgePredicate::pass_all().min_amount(8),
                ),
                0,
                Some("positional"),
            ),
            // Totals: 5+6+7 = 18 and 4+5+7 = 16.
            (
                CyclePredicate::pass_all().total_max(17),
                1,
                Some("aggregate"),
            ),
            (CyclePredicate::pass_all().total_min(17), 1, None),
            // 5,6,7 escalates strictly; 4,5,7 does too — deny label 1 to
            // leave one, then break it with a per-edge amount cap instead.
            (CyclePredicate::pass_all().monotone_amounts(true), 2, None),
            (
                CyclePredicate::pass_all().total_max(5),
                0,
                Some("aggregate"),
            ),
        ];
        for (i, (p, expect, counter)) in cases.iter().enumerate() {
            let expected = post_filtered(&g, raw.clone(), p);
            assert_eq!(expected.len(), *expect, "case {i}: oracle cardinality");
            let sink = CollectingSink::new();
            let stats = delta_simple(&g, all_roots(&g), Timestamp::MIN, &opts, p, &sink);
            assert_eq!(sink.canonical_cycles(), expected, "case {i}: pushdown");
            match counter {
                Some("vertex") => assert!(stats.work.total_vertex_prunes() > 0, "case {i}"),
                Some("positional") => {
                    assert!(stats.work.total_positional_prunes() > 0, "case {i}")
                }
                Some("aggregate") => {
                    assert!(stats.work.total_aggregate_prunes() > 0, "case {i}")
                }
                _ => {}
            }
        }
    }

    /// The monotone-layering workload separates signal from decoys *only*
    /// through the aggregate constraints; every driver granularity must
    /// agree with the post-filtered baseline, record identical prune
    /// counters, and prune strictly more than zero branches.
    #[test]
    fn aggregate_pushdown_is_identical_across_granularities() {
        use pce_graph::generators::MonotoneLayeringConfig;
        let cfg = MonotoneLayeringConfig {
            num_accounts: 150,
            background_edges: 900,
            num_chains: 5,
            num_decoys: 6,
            seed: 777,
            ..MonotoneLayeringConfig::default()
        };
        let predicate = cfg.alert_predicate();
        let window = cfg.chain_span;
        let (g, planted) = generators::monotone_layering(cfg);
        assert!(planted > 0);
        let opts = TemporalCycleOptions::with_window(window);

        let all = CollectingSink::new();
        delta_temporal(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &CyclePredicate::pass_all(),
            &all,
        );
        let expected = post_filtered(&g, all.into_cycles(), &predicate);
        assert_eq!(expected.len(), planted, "only the planted chains survive");

        let seq = CollectingSink::new();
        let seq_stats = delta_temporal(&g, all_roots(&g), Timestamp::MIN, &opts, &predicate, &seq);
        assert_eq!(seq.canonical_cycles(), expected);
        assert!(
            seq_stats.work.total_aggregate_prunes() > 0,
            "decoys must be pruned mid-path, not post-filtered"
        );

        let pool = ThreadPool::new(4);
        let mut scratches = fresh_scratches(&g, &pool);
        let coarse = CollectingSink::new();
        let coarse_stats = delta_temporal_parallel_with_scratch(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &predicate,
            &coarse,
            &pool,
            &mut scratches,
        );
        assert_eq!(coarse.canonical_cycles(), expected);
        let fine = CollectingSink::new();
        let fine_stats = delta_temporal_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &predicate,
            &fine,
            &pool,
        );
        assert_eq!(fine.canonical_cycles(), expected);
        let pool8 = ThreadPool::new(8);
        let fine8 = CollectingSink::new();
        let fine8_stats = delta_temporal_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &predicate,
            &fine8,
            &pool8,
        );
        assert_eq!(fine8.canonical_cycles(), expected);
        assert_same_work(&seq_stats, &fine_stats);
        assert_same_work(&seq_stats, &fine8_stats);
        // A halting sink stops the fine run after exactly its first cycle.
        let first = crate::cycle::FirstKSink::new(1);
        delta_temporal_fine(
            &g,
            all_roots(&g),
            Timestamp::MIN,
            &opts,
            &predicate,
            &first,
            &pool8,
        );
        let halted = crate::testing::canonicalized(first.into_cycles());
        assert_eq!(halted.len(), 1);
        assert!(expected.contains(&halted[0]));

        // The prune counters are data-deterministic: identical across every
        // granularity and thread count.
        for stats in [&coarse_stats, &fine_stats, &fine8_stats] {
            assert_eq!(
                stats.work.total_aggregate_prunes(),
                seq_stats.work.total_aggregate_prunes()
            );
            assert_eq!(
                stats.work.total_positional_prunes(),
                seq_stats.work.total_positional_prunes()
            );
            assert_eq!(
                stats.work.total_vertex_prunes(),
                seq_stats.work.total_vertex_prunes()
            );
        }
    }
}
