//! Graph generators: the paper's adversarial gadget graphs and the random
//! temporal-graph families used to stand in for the evaluation datasets.
//!
//! * [`fig3a_pruning_gadget`] — the graph of Figure 3a, on which Tiernan
//!   revisits a dead-end path exponentially often while Johnson visits it
//!   once.
//! * [`fig4a_exponential_cycles`] — the graph of Figure 4a with `2^(n-2)`
//!   simple cycles all rooted at a single edge; the worst case for
//!   coarse-grained parallelism.
//! * [`fig5a_infeasible_regions`] — the graph of Figure 5a with exactly four
//!   cycles and `4·2^(m-1)` maximal simple paths; illustrates the work
//!   inefficiency of the fine-grained parallel Johnson algorithm.
//! * [`hub_burst`] — the delta-enumeration mirror of Figure 4a: `width^depth`
//!   cycles all closed by one final edge; the worst case for coarse-grained
//!   parallel *delta* enumeration.
//! * [`uniform_temporal`] — Erdős–Rényi-style random temporal multigraph.
//! * [`power_law_temporal`] — preferential-attachment (power-law in/out
//!   degree) temporal multigraph; this is the family that reproduces the load
//!   imbalance of Figure 1.
//! * [`transaction_rings`] — a "financial transaction" generator that plants
//!   temporal cycles (money-laundering rings) into background traffic.
//! * [`layering_chains`] — attribute-bearing AML generator: long
//!   high-amount layering rings hidden in low-amount retail noise; the
//!   workload where an amount predicate prunes the shared pass.
//! * [`monotone_layering`] — aggregate-predicate AML generator: planted
//!   chains whose amounts *strictly escalate* hop over hop with totals in a
//!   known band, surrounded by decoys that pass every per-edge test but
//!   break monotonicity or overshoot the total band; the workload where only
//!   aggregate cycle predicates separate signal from decoys.
//! * [`labeled_intrusion`] — attribute-bearing lateral-movement generator:
//!   beacon loops on one protocol label inside multi-protocol noise; the
//!   workload where a label predicate prunes the shared pass.
//! * [`complete_digraph`], [`directed_path`], [`directed_cycle`] — small
//!   structured helpers used throughout the tests.

use crate::builder::GraphBuilder;
use crate::predicate::{CyclePredicate, EdgePredicate, LabelFilter};
use crate::temporal::TemporalGraph;
use crate::types::{Amount, Label, TemporalEdge, Timestamp, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The graph of the paper's Figure 3a.
///
/// Searching from `v0`, both subtrees of the recursion tree reach a chain of
/// `k` vertices `b1 … bk` that never leads back to `v0`. Tiernan re-explores
/// the chain `2m` times, Johnson only once, and Read-Tarjan exactly twice.
/// Vertex layout: `0 = v0`, `1 = v1`, `2 = v2`, then `w1..wm`, `u1..um`,
/// then `b1..bk`.
///
/// Edges: `v0→v1`, `v1→v2`, `v1→v0`, `v2→v0`, `v2→w1`, `w_i→w_{i+1}`,
/// `w_i→b1` for every `i`, `v2→u1`, `u_i→u_{i+1}`, `u_i→b1` for every `i`,
/// and the chain `b_1→…→b_k` (a dead end).
pub fn fig3a_pruning_gadget(m: usize, k: usize) -> TemporalGraph {
    assert!(m >= 1 && k >= 1);
    let v0 = 0u32;
    let v1 = 1u32;
    let v2 = 2u32;
    let w = |i: usize| (3 + i) as VertexId; // i in 0..m
    let u = |i: usize| (3 + m + i) as VertexId; // i in 0..m
    let b = |i: usize| (3 + 2 * m + i) as VertexId; // i in 0..k

    let mut builder = GraphBuilder::new();
    let mut t = 0;
    let mut add = |b: &mut GraphBuilder, s: VertexId, d: VertexId| {
        b.push_edge(s, d, t);
        t += 1;
    };
    add(&mut builder, v0, v1);
    add(&mut builder, v1, v0);
    add(&mut builder, v1, v2);
    add(&mut builder, v2, v0);
    add(&mut builder, v2, w(0));
    add(&mut builder, v2, u(0));
    for i in 0..m {
        if i + 1 < m {
            add(&mut builder, w(i), w(i + 1));
            add(&mut builder, u(i), u(i + 1));
        }
        add(&mut builder, w(i), b(0));
        add(&mut builder, u(i), b(0));
    }
    for i in 0..k - 1 {
        add(&mut builder, b(i), b(i + 1));
    }
    builder.build()
}

/// The graph of the paper's Figure 4a: vertex `v_i` (for `i ≥ 1`) has edges to
/// `v0` and to every `v_j` with `j > i`, and `v0 → v1` is the only edge
/// leaving `v0`. Every subset of `{v2, …, v_{n-1}}` defines a distinct simple
/// cycle through `v0 → v1`, so the graph has exactly `2^(n-2)` simple cycles,
/// all discovered by the search rooted at the single edge `v0 → v1`.
pub fn fig4a_exponential_cycles(n: usize) -> TemporalGraph {
    assert!(n >= 2);
    let mut builder = GraphBuilder::new();
    let mut t = 0;
    builder.push_edge(0, 1, t);
    for i in 1..n as VertexId {
        t += 1;
        builder.push_edge(i, 0, t);
        for j in (i + 1)..n as VertexId {
            t += 1;
            builder.push_edge(i, j, t);
        }
    }
    builder.build()
}

/// Closed form for the number of simple cycles of [`fig4a_exponential_cycles`]
/// with `n` vertices: `2^(n-2)`.
pub fn fig4a_cycle_count(n: usize) -> u64 {
    assert!(n >= 2);
    1u64 << (n - 2)
}

/// The **hub-burst** gadget: the delta-enumeration mirror of
/// [`fig4a_exponential_cycles`]. `width^depth` cycles all pass through one
/// hub pair and are all **closed by the single final edge** — the worst case
/// for coarse-grained (one-task-per-root) parallel delta enumeration, which
/// collapses to a single worker on it, and the showcase for the fine-grained
/// decomposition.
///
/// Layout: hub tail `u = 0`, hub head `w = 1`, then `depth` layers of `width`
/// vertices. `w` fans out to layer 0 (timestamp 1), consecutive layers are
/// completely bipartite (timestamp `layer + 2`), the last layer converges on
/// `u` (timestamp `depth + 1`), and the closing edge `u → w` arrives last at
/// timestamp `depth + 2` — strictly the maximum `(ts, id)` edge, so every
/// cycle is rooted at it. Every cycle is simple *and* temporal (timestamps
/// strictly increase along it).
pub fn hub_burst(width: usize, depth: usize) -> TemporalGraph {
    assert!(width >= 1 && depth >= 1);
    let u = 0u32;
    let w = 1u32;
    let layer = |l: usize, j: usize| (2 + l * width + j) as VertexId;
    let mut builder = GraphBuilder::new();
    for j in 0..width {
        builder.push_edge(w, layer(0, j), 1);
    }
    for l in 0..depth - 1 {
        for a in 0..width {
            for b in 0..width {
                builder.push_edge(layer(l, a), layer(l + 1, b), (l + 2) as Timestamp);
            }
        }
    }
    for j in 0..width {
        builder.push_edge(layer(depth - 1, j), u, (depth + 1) as Timestamp);
    }
    builder.push_edge(u, w, (depth + 2) as Timestamp);
    builder.build()
}

/// Closed form for the number of (simple = temporal) cycles of
/// [`hub_burst`]: `width^depth`, one per path through the layers.
pub fn hub_burst_cycle_count(width: usize, depth: usize) -> u64 {
    (width as u64).pow(depth as u32)
}

/// The graph of the paper's Figure 5a: four cycles
/// `v0 → v1 → u_i → v2 → v0` (`i = 1..4`) plus an "infeasible region": a
/// binary-ish dead-end structure of `m` vertices `b1 … bm` hanging off `v2`
/// that every search must explore once per discovered cycle in the worst
/// case. The graph has exactly 4 simple cycles and `4·2^(m-1)`-ish maximal
/// simple paths (we reproduce the structure, not the exact path count, by
/// attaching a chain with side branches).
pub fn fig5a_infeasible_regions(m: usize) -> TemporalGraph {
    assert!(m >= 2);
    let v0 = 0u32;
    let v1 = 1u32;
    let v2 = 2u32;
    let u = |i: usize| (3 + i) as VertexId; // i in 0..4
    let b = |i: usize| (7 + i) as VertexId; // i in 0..m

    let mut builder = GraphBuilder::new();
    let mut t = 0;
    let mut add = |bld: &mut GraphBuilder, s: VertexId, d: VertexId| {
        bld.push_edge(s, d, t);
        t += 1;
    };
    add(&mut builder, v0, v1);
    for i in 0..4 {
        add(&mut builder, v1, u(i));
        add(&mut builder, u(i), v2);
    }
    add(&mut builder, v2, v0);
    // Infeasible region reachable from v2: a ladder of side branches so that
    // brute-force search explores exponentially many maximal simple paths.
    add(&mut builder, v2, b(0));
    for i in 0..m - 1 {
        add(&mut builder, b(i), b(i + 1));
        if i + 2 < m {
            add(&mut builder, b(i), b(i + 2));
        }
    }
    builder.build()
}

/// Number of simple cycles in [`fig5a_infeasible_regions`]: always 4.
pub const FIG5A_CYCLE_COUNT: u64 = 4;

/// A complete directed graph on `n` vertices (every ordered pair, no self
/// loops), all timestamps distinct. Contains `sum_{k=2..n} n!/(k·(n-k)!)`
/// simple cycles; used by tests against a brute-force reference.
pub fn complete_digraph(n: usize) -> TemporalGraph {
    let mut builder = GraphBuilder::new();
    let mut t = 0;
    for i in 0..n as VertexId {
        for j in 0..n as VertexId {
            if i != j {
                builder.push_edge(i, j, t);
                t += 1;
            }
        }
    }
    builder.build()
}

/// A directed path `0 → 1 → … → n-1` (acyclic).
pub fn directed_path(n: usize) -> TemporalGraph {
    let mut builder = GraphBuilder::with_vertices(n);
    for i in 0..n.saturating_sub(1) {
        builder.push_edge(i as VertexId, (i + 1) as VertexId, i as Timestamp);
    }
    builder.build()
}

/// A directed cycle `0 → 1 → … → n-1 → 0` with increasing timestamps (so it
/// is also a temporal cycle).
pub fn directed_cycle(n: usize) -> TemporalGraph {
    assert!(n >= 1);
    let mut builder = GraphBuilder::with_vertices(n);
    for i in 0..n {
        builder.push_edge(i as VertexId, ((i + 1) % n) as VertexId, i as Timestamp);
    }
    builder.build()
}

/// Parameters for the random temporal graph generators.
#[derive(Debug, Clone, Copy)]
pub struct RandomTemporalConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of temporal edges to generate.
    pub num_edges: usize,
    /// Total time span: timestamps are drawn from `[0, time_span]`.
    pub time_span: Timestamp,
    /// RNG seed (generators are fully deterministic given the seed).
    pub seed: u64,
}

/// Uniform random temporal multigraph: each edge picks its two endpoints and
/// its timestamp independently and uniformly.
pub fn uniform_temporal(cfg: RandomTemporalConfig) -> TemporalGraph {
    assert!(cfg.num_vertices >= 2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::from_edges(cfg.num_vertices, Vec::with_capacity(cfg.num_edges));
    for _ in 0..cfg.num_edges {
        let src = rng.gen_range(0..cfg.num_vertices) as VertexId;
        let mut dst = rng.gen_range(0..cfg.num_vertices) as VertexId;
        while dst == src {
            dst = rng.gen_range(0..cfg.num_vertices) as VertexId;
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        builder.push_edge(src, dst, ts);
    }
    builder.build()
}

/// Power-law (preferential attachment) temporal multigraph.
///
/// Endpoints are drawn from a repeated-vertex pool so that vertices that
/// already have many edges attract more, producing the heavy-tailed degree
/// distribution that real communication/transaction graphs exhibit and that
/// causes the coarse-grained load imbalance of Figure 1. A fraction
/// `hub_bias` of the edges is forced to touch one of the first
/// `num_hubs` vertices, sharpening the skew.
pub fn power_law_temporal(cfg: RandomTemporalConfig) -> TemporalGraph {
    assert!(cfg.num_vertices >= 2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::from_edges(cfg.num_vertices, Vec::with_capacity(cfg.num_edges));
    // The "repeated nodes" pool implements preferential attachment: every time
    // an edge touches a vertex we push the vertex into the pool, so the
    // probability of picking it again is proportional to its degree.
    let mut pool: Vec<VertexId> = Vec::with_capacity(cfg.num_vertices + 2 * cfg.num_edges);
    pool.extend(0..cfg.num_vertices as VertexId);
    let num_hubs = (cfg.num_vertices / 100).max(1);
    let hub_bias = 0.15f64;

    for _ in 0..cfg.num_edges {
        let pick = |rng: &mut StdRng, pool: &Vec<VertexId>| -> VertexId {
            if rng.gen_bool(hub_bias) {
                rng.gen_range(0..num_hubs) as VertexId
            } else if rng.gen_bool(0.2) {
                // Keep a uniform component so the graph stays connected-ish.
                rng.gen_range(0..pool.len()).min(cfg.num_vertices - 1) as VertexId
                    % cfg.num_vertices as VertexId
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        };
        let src = pick(&mut rng, &pool);
        let mut dst = pick(&mut rng, &pool);
        let mut tries = 0;
        while dst == src && tries < 8 {
            dst = pick(&mut rng, &pool);
            tries += 1;
        }
        if dst == src {
            dst = (src + 1) % cfg.num_vertices as VertexId;
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        builder.push_edge(src, dst, ts);
        pool.push(src);
        pool.push(dst);
    }
    builder.build()
}

/// Configuration for [`transaction_rings`].
#[derive(Debug, Clone, Copy)]
pub struct TransactionRingConfig {
    /// Number of accounts (vertices).
    pub num_accounts: usize,
    /// Number of background (noise) transactions.
    pub background_edges: usize,
    /// Number of planted temporal cycles ("laundering rings").
    pub num_rings: usize,
    /// Minimum and maximum ring length (number of hops).
    pub ring_len: (usize, usize),
    /// Total time span of the dataset.
    pub time_span: Timestamp,
    /// Maximum time span of a single planted ring (so rings fit in a window).
    pub ring_span: Timestamp,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransactionRingConfig {
    fn default() -> Self {
        Self {
            num_accounts: 1_000,
            background_edges: 10_000,
            num_rings: 50,
            ring_len: (3, 6),
            time_span: 1_000_000,
            ring_span: 10_000,
            seed: 42,
        }
    }
}

/// Generates a synthetic financial transaction graph with planted temporal
/// cycles.
///
/// Background transactions follow a power-law-ish endpoint distribution and
/// random timestamps; each planted ring is a sequence of accounts
/// `a_0 → a_1 → … → a_k → a_0` whose transaction timestamps are strictly
/// increasing and fit within `ring_span`. Returns the graph and the number of
/// planted rings (each of which is guaranteed to be a temporal cycle of the
/// output, though background noise may create additional ones).
pub fn transaction_rings(cfg: TransactionRingConfig) -> (TemporalGraph, usize) {
    assert!(cfg.num_accounts > cfg.ring_len.1.max(2));
    assert!(cfg.ring_len.0 >= 2 && cfg.ring_len.0 <= cfg.ring_len.1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Each ring adds at most `ring_len.1` edges to the background traffic.
    let capacity = cfg.background_edges + cfg.num_rings * cfg.ring_len.1;
    let mut builder = GraphBuilder::from_edges(cfg.num_accounts, Vec::with_capacity(capacity));

    // Background traffic: mildly skewed endpoints.
    for _ in 0..cfg.background_edges {
        let src = skewed_vertex(&mut rng, cfg.num_accounts);
        let mut dst = skewed_vertex(&mut rng, cfg.num_accounts);
        while dst == src {
            dst = skewed_vertex(&mut rng, cfg.num_accounts);
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        builder.push_edge(src, dst, ts);
    }

    // Planted rings.
    for _ in 0..cfg.num_rings {
        let len = rng.gen_range(cfg.ring_len.0..=cfg.ring_len.1);
        let mut accounts: Vec<VertexId> = Vec::with_capacity(len);
        while accounts.len() < len {
            let a = rng.gen_range(0..cfg.num_accounts) as VertexId;
            if !accounts.contains(&a) {
                accounts.push(a);
            }
        }
        let start = rng.gen_range(0..=(cfg.time_span - cfg.ring_span).max(1));
        let mut ts = start;
        let step = (cfg.ring_span / len as Timestamp).max(1);
        for i in 0..len {
            let src = accounts[i];
            let dst = accounts[(i + 1) % len];
            ts += rng.gen_range(1..=step);
            builder.push_edge(src, dst, ts);
        }
    }

    (builder.build(), cfg.num_rings)
}

/// Configuration for [`layering_chains`].
#[derive(Debug, Clone, Copy)]
pub struct LayeringChainConfig {
    /// Number of accounts (vertices).
    pub num_accounts: usize,
    /// Number of background (retail noise) transactions.
    pub background_edges: usize,
    /// Number of planted layering chains (each a temporal cycle).
    pub num_chains: usize,
    /// Minimum and maximum chain length in hops — layering chains are
    /// *long* (many hops through mule accounts), unlike classic rings.
    pub chain_len: (usize, usize),
    /// Total time span of the dataset.
    pub time_span: Timestamp,
    /// Maximum time span of a single chain (so chains fit in a window).
    pub chain_span: Timestamp,
    /// Amount of the chain's first hop; each later hop skims a little off,
    /// so amounts are monotone non-increasing along the chain.
    pub base_amount: Amount,
    /// Maximum skim per hop. Every chain hop stays at or above
    /// [`alert_floor`](Self::alert_floor).
    pub skim_per_hop: Amount,
    /// Upper bound on background transaction amounts — strictly below the
    /// alert floor, so an amount predicate rejects all background traffic.
    pub background_amount_max: Amount,
    /// Number of planted *decoy* rings: structurally identical cycles whose
    /// amounts stay below the alert floor. They are real temporal cycles the
    /// pass-all shared pass must discover — and the alert predicates must
    /// reject — so they pin down the strict candidate gap between the
    /// pushdown and filter-at-fan-out runs.
    pub num_decoys: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LayeringChainConfig {
    fn default() -> Self {
        Self {
            num_accounts: 1_000,
            background_edges: 10_000,
            num_chains: 20,
            chain_len: (6, 10),
            time_span: 1_000_000,
            chain_span: 20_000,
            base_amount: 100_000,
            skim_per_hop: 500,
            background_amount_max: 50_000,
            num_decoys: 20,
            seed: 42,
        }
    }
}

impl LayeringChainConfig {
    /// The smallest amount any planted chain hop can carry:
    /// `base_amount − max_len · skim_per_hop`.
    pub fn alert_floor(&self) -> Amount {
        self.base_amount - self.chain_len.1 as Amount * self.skim_per_hop
    }

    /// The predicate an AML alert would subscribe with: amounts at or above
    /// the [`alert_floor`](Self::alert_floor). Accepts every planted chain
    /// hop and (by construction) no background transaction.
    pub fn alert_predicate(&self) -> EdgePredicate {
        EdgePredicate::pass_all().min_amount(self.alert_floor())
    }
}

/// The wire-transfer label every [`layering_chains`] hop carries.
pub const LAYERING_WIRE_LABEL: Label = 2;

/// Generates an anti-money-laundering *layering* dataset: long planted
/// chains `a_0 → a_1 → … → a_k → a_0` of large, monotone non-increasing
/// amounts (the classic structuring pattern — a sum moves through mule
/// accounts, each hop skimming a fee) buried in high-volume low-amount
/// retail noise.
///
/// Every chain hop carries an amount of at least
/// [`LayeringChainConfig::alert_floor`] and the [`LAYERING_WIRE_LABEL`];
/// every background transaction carries an amount of at most
/// `background_amount_max` (strictly below the floor) and a non-wire label.
/// [`LayeringChainConfig::alert_predicate`] therefore accepts exactly the
/// planted traffic — the workload where predicate pushdown removes the
/// (dominant) background from the shared enumeration pass entirely.
///
/// Returns the graph and the number of planted chains.
pub fn layering_chains(cfg: LayeringChainConfig) -> (TemporalGraph, usize) {
    assert!(cfg.num_accounts > cfg.chain_len.1.max(2));
    assert!(cfg.chain_len.0 >= 2 && cfg.chain_len.0 <= cfg.chain_len.1);
    assert!(
        cfg.base_amount > cfg.chain_len.1 as Amount * cfg.skim_per_hop,
        "base amount must survive the worst-case total skim"
    );
    assert!(
        cfg.background_amount_max < cfg.alert_floor(),
        "background amounts must stay below the alert floor"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_vertices(cfg.num_accounts);

    // Retail noise: skewed endpoints, small amounts, non-wire labels.
    for _ in 0..cfg.background_edges {
        let src = skewed_vertex(&mut rng, cfg.num_accounts);
        let mut dst = skewed_vertex(&mut rng, cfg.num_accounts);
        while dst == src {
            dst = skewed_vertex(&mut rng, cfg.num_accounts);
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        let amount = rng.gen_range(1..=cfg.background_amount_max);
        let label = [0u16, 1, 3][rng.gen_range(0..3usize)];
        builder.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
    }

    // Planted layering chains, then low-amount decoy rings: the same ring
    // shape, but every decoy hop stays below the alert floor (and off the
    // wire label), so only a pass-all pass can close them.
    for chain in 0..cfg.num_chains + cfg.num_decoys {
        let decoy = chain >= cfg.num_chains;
        let len = rng.gen_range(cfg.chain_len.0..=cfg.chain_len.1);
        let mut accounts: Vec<VertexId> = Vec::with_capacity(len);
        while accounts.len() < len {
            let a = rng.gen_range(0..cfg.num_accounts) as VertexId;
            if !accounts.contains(&a) {
                accounts.push(a);
            }
        }
        let start = rng.gen_range(0..=(cfg.time_span - cfg.chain_span).max(1));
        let mut ts = start;
        let step = (cfg.chain_span / len as Timestamp).max(1);
        let mut amount = cfg.base_amount;
        for i in 0..len {
            let src = accounts[i];
            let dst = accounts[(i + 1) % len];
            ts += rng.gen_range(1..=step);
            if decoy {
                builder.push_attr_edge(TemporalEdge::with_attrs(
                    src,
                    dst,
                    ts,
                    rng.gen_range(1..=cfg.background_amount_max),
                    0,
                ));
            } else {
                builder.push_attr_edge(TemporalEdge::with_attrs(
                    src,
                    dst,
                    ts,
                    amount,
                    LAYERING_WIRE_LABEL,
                ));
                amount -= rng.gen_range(0..=cfg.skim_per_hop);
            }
        }
    }

    (builder.build(), cfg.num_chains)
}

/// Configuration for [`monotone_layering`].
#[derive(Debug, Clone, Copy)]
pub struct MonotoneLayeringConfig {
    /// Number of accounts (vertices).
    pub num_accounts: usize,
    /// Number of background (retail noise) transactions, all strictly below
    /// [`alert_floor`](Self::alert_floor).
    pub background_edges: usize,
    /// Number of planted escalation chains (each a temporal cycle whose
    /// amounts strictly increase hop over hop).
    pub num_chains: usize,
    /// Minimum and maximum chain length in hops.
    pub chain_len: (usize, usize),
    /// Total time span of the dataset.
    pub time_span: Timestamp,
    /// Maximum time span of a single chain (so chains fit in a window).
    pub chain_span: Timestamp,
    /// Base amount: hop `i` (1-based) of a planted chain carries
    /// `base_amount + i · step`, so every hop is at least
    /// [`alert_floor`](Self::alert_floor) and the chain strictly escalates.
    pub base_amount: Amount,
    /// Per-chain strict increment range (each chain draws one step).
    pub step: (Amount, Amount),
    /// Number of planted *decoy* rings, split evenly between the two kinds a
    /// per-edge predicate cannot reject: **shuffled** decoys reuse a valid
    /// escalation's amounts with two adjacent hops swapped (total in band,
    /// monotonicity broken) and **overshoot** decoys escalate cleanly at
    /// [`overshoot_multiplier`](Self::overshoot_multiplier)`· base_amount`
    /// (monotone, total above the band).
    pub num_decoys: usize,
    /// Amount multiplier for overshoot decoys. Validated by the generator to
    /// push every overshoot total strictly above
    /// [`alert_total_max`](Self::alert_total_max).
    pub overshoot_multiplier: Amount,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MonotoneLayeringConfig {
    fn default() -> Self {
        Self {
            num_accounts: 1_000,
            background_edges: 10_000,
            num_chains: 20,
            chain_len: (4, 7),
            time_span: 1_000_000,
            chain_span: 20_000,
            base_amount: 100_000,
            step: (100, 400),
            num_decoys: 20,
            overshoot_multiplier: 16,
            seed: 42,
        }
    }
}

impl MonotoneLayeringConfig {
    /// The smallest amount any planted (or decoy) hop can carry:
    /// `base_amount + step.0`.
    pub fn alert_floor(&self) -> Amount {
        self.base_amount + self.step.0
    }

    fn total(len: usize, base: Amount, step: Amount) -> Amount {
        let l = len as Amount;
        l * base + step * l * (l + 1) / 2
    }

    /// The smallest total any planted chain can carry.
    pub fn alert_total_min(&self) -> Amount {
        Self::total(self.chain_len.0, self.base_amount, self.step.0)
    }

    /// The largest total any planted chain can carry.
    pub fn alert_total_max(&self) -> Amount {
        Self::total(self.chain_len.1, self.base_amount, self.step.1)
    }

    /// The aggregate predicate an AML alert would subscribe with: per-hop
    /// amounts at or above the [`alert_floor`](Self::alert_floor), amounts
    /// strictly escalating, and a total inside
    /// `[alert_total_min : alert_total_max]`. Accepts exactly the planted
    /// chains: background fails the per-edge floor, shuffled decoys fail
    /// monotonicity, overshoot decoys fail the total band.
    pub fn alert_predicate(&self) -> CyclePredicate {
        CyclePredicate::pass_all()
            .edge(EdgePredicate::pass_all().min_amount(self.alert_floor()))
            .monotone_amounts(true)
            .total_min(self.alert_total_min())
            .total_max(self.alert_total_max())
    }
}

/// Generates the *monotone layering* AML dataset: planted escalation chains
/// `a_0 → a_1 → … → a_{k-1} → a_0` whose amounts strictly increase hop over
/// hop (each mule forwards the prior hop plus a margin — the closing maximum
/// edge carries the largest amount) with totals in a known band, buried in
/// low-amount retail noise **and** surrounded by decoy rings built to defeat
/// any per-edge predicate: shuffled decoys carry a valid escalation's
/// amounts out of order (total in band, monotonicity broken), overshoot
/// decoys escalate cleanly but total far above the band. Only the aggregate
/// parts of a [`CyclePredicate`] — monotonicity and the total interval —
/// separate signal from decoys, which is exactly what makes this the
/// pushdown-counter workload for aggregate predicates.
///
/// Every chain and decoy hop carries [`LAYERING_WIRE_LABEL`]; background
/// stays below [`MonotoneLayeringConfig::alert_floor`] on non-wire labels.
///
/// Returns the graph and the number of planted (signal) chains.
pub fn monotone_layering(cfg: MonotoneLayeringConfig) -> (TemporalGraph, usize) {
    assert!(cfg.num_accounts > cfg.chain_len.1.max(2));
    assert!(cfg.chain_len.0 >= 3 && cfg.chain_len.0 <= cfg.chain_len.1);
    assert!(cfg.step.0 >= 1 && cfg.step.0 <= cfg.step.1);
    assert!(
        cfg.chain_len.0 as Amount * cfg.overshoot_multiplier * cfg.base_amount
            > cfg.alert_total_max(),
        "overshoot decoys must total strictly above the alert band"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_vertices(cfg.num_accounts);

    // Retail noise: skewed endpoints, sub-floor amounts, non-wire labels.
    for _ in 0..cfg.background_edges {
        let src = skewed_vertex(&mut rng, cfg.num_accounts);
        let mut dst = skewed_vertex(&mut rng, cfg.num_accounts);
        while dst == src {
            dst = skewed_vertex(&mut rng, cfg.num_accounts);
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        let amount = rng.gen_range(1..cfg.alert_floor());
        let label = [0u16, 1, 3][rng.gen_range(0..3usize)];
        builder.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
    }

    // Planted escalations, then the two decoy kinds (alternating).
    for chain in 0..cfg.num_chains + cfg.num_decoys {
        let decoy = chain >= cfg.num_chains;
        let shuffled = decoy && (chain - cfg.num_chains).is_multiple_of(2);
        let len = rng.gen_range(cfg.chain_len.0..=cfg.chain_len.1);
        let step = rng.gen_range(cfg.step.0..=cfg.step.1);
        let base = if decoy && !shuffled {
            cfg.base_amount * cfg.overshoot_multiplier
        } else {
            cfg.base_amount
        };
        let mut amounts: Vec<Amount> = (1..=len as Amount).map(|i| base + i * step).collect();
        if shuffled {
            // Swap two adjacent interior hops: total unchanged, strict
            // escalation broken somewhere before the closing edge.
            let at = rng.gen_range(0..len - 2);
            amounts.swap(at, at + 1);
        }
        let mut accounts: Vec<VertexId> = Vec::with_capacity(len);
        while accounts.len() < len {
            let a = rng.gen_range(0..cfg.num_accounts) as VertexId;
            if !accounts.contains(&a) {
                accounts.push(a);
            }
        }
        let start = rng.gen_range(0..=(cfg.time_span - cfg.chain_span).max(1));
        let mut ts = start;
        let hop_step = (cfg.chain_span / len as Timestamp).max(1);
        for (i, &amount) in amounts.iter().enumerate() {
            let src = accounts[i];
            let dst = accounts[(i + 1) % len];
            ts += rng.gen_range(1..=hop_step);
            builder.push_attr_edge(TemporalEdge::with_attrs(
                src,
                dst,
                ts,
                amount,
                LAYERING_WIRE_LABEL,
            ));
        }
    }

    (builder.build(), cfg.num_chains)
}

/// Configuration for [`labeled_intrusion`].
#[derive(Debug, Clone, Copy)]
pub struct LabeledIntrusionConfig {
    /// Number of hosts (vertices).
    pub num_hosts: usize,
    /// Number of background (benign multi-protocol) flows.
    pub background_edges: usize,
    /// Number of planted beacon loops (each a temporal cycle on the
    /// suspicious protocol).
    pub num_beacons: usize,
    /// Minimum and maximum loop length in hops.
    pub loop_len: (usize, usize),
    /// Total time span of the dataset.
    pub time_span: Timestamp,
    /// Maximum time span of a single loop.
    pub loop_span: Timestamp,
    /// The protocol label every planted loop edge carries; background flows
    /// never use it.
    pub suspicious_label: Label,
    /// Background flows draw labels from `0..num_labels` (skipping the
    /// suspicious one).
    pub num_labels: Label,
    /// Number of planted *decoy* loops: the same loop shape on a benign
    /// label — real temporal cycles only a pass-all shared pass discovers,
    /// pinning down the strict candidate gap between the pushdown and
    /// filter-at-fan-out runs.
    pub num_decoys: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabeledIntrusionConfig {
    fn default() -> Self {
        Self {
            num_hosts: 500,
            background_edges: 10_000,
            num_beacons: 25,
            loop_len: (3, 6),
            time_span: 1_000_000,
            loop_span: 10_000,
            suspicious_label: 7,
            num_labels: 8,
            num_decoys: 25,
            seed: 42,
        }
    }
}

impl LabeledIntrusionConfig {
    /// The predicate an intrusion alert would subscribe with: only flows on
    /// the suspicious protocol. Accepts every planted loop edge and (by
    /// construction) no background flow.
    pub fn alert_predicate(&self) -> EdgePredicate {
        EdgePredicate::pass_all().labels(LabelFilter::allow(vec![self.suspicious_label]))
    }
}

/// Generates a labelled network-flow dataset with planted lateral-movement
/// loops: every loop edge carries `suspicious_label` (say, an uncommon
/// remote-admin protocol) while benign background flows spread over the
/// other labels.
///
/// [`LabeledIntrusionConfig::alert_predicate`] accepts exactly the planted
/// traffic — the workload where a *label* predicate (rather than an amount
/// interval) lets the shared pass skip the background entirely.
///
/// Returns the graph and the number of planted loops.
pub fn labeled_intrusion(cfg: LabeledIntrusionConfig) -> (TemporalGraph, usize) {
    assert!(cfg.num_hosts > cfg.loop_len.1.max(2));
    assert!(cfg.loop_len.0 >= 2 && cfg.loop_len.0 <= cfg.loop_len.1);
    assert!(cfg.num_labels >= 2, "need at least one benign label");
    assert!(
        cfg.suspicious_label < cfg.num_labels,
        "the suspicious label must be inside the label alphabet"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = GraphBuilder::with_vertices(cfg.num_hosts);

    // Benign flows: every label except the suspicious one.
    for _ in 0..cfg.background_edges {
        let src = skewed_vertex(&mut rng, cfg.num_hosts);
        let mut dst = skewed_vertex(&mut rng, cfg.num_hosts);
        while dst == src {
            dst = skewed_vertex(&mut rng, cfg.num_hosts);
        }
        let ts = rng.gen_range(0..=cfg.time_span);
        let amount = rng.gen_range(1..=1_500);
        let mut label = rng.gen_range(0..(cfg.num_labels - 1) as u32) as Label;
        if label >= cfg.suspicious_label {
            label += 1;
        }
        builder.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
    }

    // Planted beacon loops on the suspicious protocol, then decoy loops on
    // a benign label.
    let decoy_label = if cfg.suspicious_label == 0 { 1 } else { 0 };
    for beacon in 0..cfg.num_beacons + cfg.num_decoys {
        let decoy = beacon >= cfg.num_beacons;
        let len = rng.gen_range(cfg.loop_len.0..=cfg.loop_len.1);
        let mut hosts: Vec<VertexId> = Vec::with_capacity(len);
        while hosts.len() < len {
            let h = rng.gen_range(0..cfg.num_hosts) as VertexId;
            if !hosts.contains(&h) {
                hosts.push(h);
            }
        }
        let start = rng.gen_range(0..=(cfg.time_span - cfg.loop_span).max(1));
        let mut ts = start;
        let step = (cfg.loop_span / len as Timestamp).max(1);
        for i in 0..len {
            let src = hosts[i];
            let dst = hosts[(i + 1) % len];
            ts += rng.gen_range(1..=step);
            builder.push_attr_edge(TemporalEdge::with_attrs(
                src,
                dst,
                ts,
                rng.gen_range(1..=1_500),
                if decoy {
                    decoy_label
                } else {
                    cfg.suspicious_label
                },
            ));
        }
    }

    (builder.build(), cfg.num_beacons)
}

fn skewed_vertex(rng: &mut StdRng, n: usize) -> VertexId {
    // Squaring a uniform variate biases towards low ids, giving a few
    // high-degree "hub" accounts.
    let x: f64 = rng.gen::<f64>();
    ((x * x * n as f64) as usize).min(n - 1) as VertexId
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_structure() {
        let g = fig4a_exponential_cycles(6);
        assert_eq!(g.num_vertices(), 6);
        // v0 has exactly one outgoing edge, to v1.
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_edges(0)[0].neighbor, 1);
        // Each v_i (i >= 1) points to v0 and to all larger vertices.
        assert!(g.has_edge(3, 0));
        assert!(g.has_edge(3, 4));
        assert!(g.has_edge(3, 5));
        assert!(!g.has_edge(3, 2));
        assert_eq!(fig4a_cycle_count(6), 16);
        assert_eq!(fig4a_cycle_count(2), 1);
    }

    #[test]
    fn hub_burst_structure() {
        let g = hub_burst(3, 2);
        // u(0), w(1), two layers of three: 8 vertices.
        assert_eq!(g.num_vertices(), 8);
        // 3 fan-out + 9 bipartite + 3 fan-in + 1 closing edge.
        assert_eq!(g.num_edges(), 16);
        // The closing edge is strictly the maximum (ts, id) edge.
        let closing = g.edge(g.num_edges() as u32 - 1);
        assert_eq!((closing.src, closing.dst), (0, 1));
        assert!(g.edges()[..g.num_edges() - 1]
            .iter()
            .all(|e| e.ts < closing.ts));
        assert_eq!(hub_burst_cycle_count(3, 2), 9);
        assert_eq!(hub_burst_cycle_count(2, 13), 8192);
    }

    #[test]
    fn fig3a_has_dead_end_chain() {
        let g = fig3a_pruning_gadget(3, 4);
        // 3 + 2*3 + 4 = 13 vertices.
        assert_eq!(g.num_vertices(), 13);
        // The last b vertex is a sink.
        assert_eq!(g.out_degree(12), 0);
        // v1 -> v0 direct cycle edge exists.
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn fig5a_has_four_u_vertices() {
        let g = fig5a_infeasible_regions(5);
        assert!(g.has_edge(1, 3));
        assert!(g.has_edge(1, 4));
        assert!(g.has_edge(1, 5));
        assert!(g.has_edge(1, 6));
        assert!(g.has_edge(2, 0));
        assert_eq!(FIG5A_CYCLE_COUNT, 4);
    }

    #[test]
    fn complete_digraph_edge_count() {
        let g = complete_digraph(5);
        assert_eq!(g.num_edges(), 20);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn path_and_cycle_shapes() {
        let p = directed_path(4);
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.out_degree(3), 0);
        let c = directed_cycle(4);
        assert_eq!(c.num_edges(), 4);
        assert!(c.has_edge(3, 0));
    }

    #[test]
    fn uniform_generator_is_deterministic() {
        let cfg = RandomTemporalConfig {
            num_vertices: 50,
            num_edges: 200,
            time_span: 1000,
            seed: 7,
        };
        let a = uniform_temporal(cfg);
        let b = uniform_temporal(cfg);
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.num_edges(), 200);
        assert!(a.edges().iter().all(|e| e.src != e.dst));
        assert!(a.edges().iter().all(|e| e.ts >= 0 && e.ts <= 1000));
    }

    #[test]
    fn power_law_generator_has_skewed_degrees() {
        let cfg = RandomTemporalConfig {
            num_vertices: 500,
            num_edges: 5_000,
            time_span: 10_000,
            seed: 11,
        };
        let g = power_law_temporal(cfg);
        assert_eq!(g.num_edges(), 5_000);
        let mut degs: Vec<usize> = (0..g.num_vertices() as VertexId)
            .map(|v| g.out_degree(v) + g.in_degree(v))
            .collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = degs.iter().take(10).sum();
        let total: usize = degs.iter().sum();
        // The hubs should carry a disproportionate share of the edges.
        assert!(
            top10 * 5 > total,
            "expected heavy-tailed degrees, top10={top10} total={total}"
        );
    }

    #[test]
    fn layering_chains_separate_cleanly_on_amount() {
        let cfg = LayeringChainConfig {
            num_accounts: 200,
            background_edges: 1_000,
            num_chains: 4,
            chain_len: (6, 8),
            ..LayeringChainConfig::default()
        };
        let (g, planted) = layering_chains(cfg);
        assert_eq!(planted, 4);
        let pred = cfg.alert_predicate();
        let alerted = g.edges().iter().filter(|e| pred.accepts(e)).count();
        let chain_hops: usize = g
            .edges()
            .iter()
            .filter(|e| e.label == LAYERING_WIRE_LABEL)
            .count();
        // The predicate accepts exactly the planted hops: amounts are
        // monotone within each chain and never drop below the floor, while
        // background amounts never reach it.
        assert!((4 * 6..=4 * 8).contains(&chain_hops));
        assert_eq!(alerted, chain_hops);
        // Determinism.
        let (h, _) = layering_chains(cfg);
        assert_eq!(g.edges(), h.edges());
    }

    #[test]
    fn monotone_layering_separates_only_on_aggregates() {
        let cfg = MonotoneLayeringConfig {
            num_accounts: 200,
            background_edges: 1_000,
            num_chains: 4,
            num_decoys: 4,
            ..MonotoneLayeringConfig::default()
        };
        let (g, planted) = monotone_layering(cfg);
        assert_eq!(planted, 4);
        let pred = cfg.alert_predicate();
        assert!(pred.validate().is_ok());
        assert!(pred.requires_monotone());
        // Every wire-labelled hop — planted chains *and* both decoy kinds —
        // passes the per-edge part of the alert predicate; no background
        // transaction does. Per-edge pruning alone cannot tell them apart.
        let edge_part = pred.edge_predicate();
        for e in g.edges() {
            assert_eq!(e.label == LAYERING_WIRE_LABEL, edge_part.accepts(e));
        }
        let wire_hops = g
            .edges()
            .iter()
            .filter(|e| e.label == LAYERING_WIRE_LABEL)
            .count();
        assert!(
            (8 * cfg.chain_len.0..=8 * cfg.chain_len.1).contains(&wire_hops),
            "wire hops {wire_hops}"
        );
        // Determinism.
        let (h, _) = monotone_layering(cfg);
        assert_eq!(g.edges(), h.edges());
    }

    #[test]
    fn labeled_intrusion_separates_cleanly_on_label() {
        let cfg = LabeledIntrusionConfig {
            num_hosts: 100,
            background_edges: 800,
            num_beacons: 3,
            loop_len: (3, 5),
            ..LabeledIntrusionConfig::default()
        };
        let (g, planted) = labeled_intrusion(cfg);
        assert_eq!(planted, 3);
        let pred = cfg.alert_predicate();
        let alerted = g.edges().iter().filter(|e| pred.accepts(e)).count();
        // Only the planted loops carry the suspicious label.
        assert!((3 * 3..=3 * 5).contains(&alerted));
        assert!(g.edges().iter().all(|e| e.label < cfg.num_labels));
        assert_eq!(
            alerted,
            g.edges()
                .iter()
                .filter(|e| e.label == cfg.suspicious_label)
                .count()
        );
    }

    #[test]
    fn transaction_rings_plants_temporal_cycles() {
        let cfg = TransactionRingConfig {
            num_accounts: 100,
            background_edges: 200,
            num_rings: 5,
            ring_len: (3, 4),
            time_span: 100_000,
            ring_span: 1_000,
            seed: 3,
        };
        let (g, planted) = transaction_rings(cfg);
        assert_eq!(planted, 5);
        assert!(g.num_edges() >= 200 + 5 * 3);
        assert_eq!(g.num_vertices(), 100);
    }
}
