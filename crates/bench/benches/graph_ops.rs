//! Criterion micro-benchmarks of the graph substrate: CSR construction,
//! window slicing, SCC decomposition and the per-root cycle-union
//! preprocessing (§7) — min-rooted on a static graph, and the max-rooted
//! temporal `_before` pass the streaming engine runs on every arriving edge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pce_graph::generators::{self, RandomTemporalConfig};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::scc::tarjan_scc;
use pce_graph::stream::SlidingWindowGraph;
use pce_graph::{CyclePredicate, GraphBuilder, GraphView, TimeWindow};
use pce_workloads::streaming::StreamScenarioConfig;

fn workload() -> pce_graph::TemporalGraph {
    generators::power_law_temporal(RandomTemporalConfig {
        num_vertices: 20_000,
        num_edges: 120_000,
        time_span: 1_000_000,
        seed: 7,
    })
}

fn bench_build(c: &mut Criterion) {
    let graph = workload();
    let edges: Vec<_> = graph.edges().to_vec();
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    group.bench_function("csr_from_120k_edges", |b| {
        b.iter(|| {
            GraphBuilder::from_edges(graph.num_vertices(), edges.clone())
                .build()
                .num_edges()
        })
    });
    group.finish();
}

fn bench_window_slicing(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("graph_window_slice");
    group.bench_function("all_vertices", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in 0..graph.num_vertices() as u32 {
                total += graph
                    .out_edges_in_window(v, TimeWindow::new(200_000, 400_000))
                    .len();
            }
            total
        })
    });
    group.finish();
}

fn bench_scc(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("graph_scc");
    group.sample_size(10);
    group.bench_function("tarjan_120k_edges", |b| {
        b.iter(|| tarjan_scc(&graph).num_components)
    });
    group.finish();
}

fn bench_cycle_union(c: &mut Criterion) {
    let graph = workload();
    let mut group = c.benchmark_group("cycle_union_preprocessing");
    group.sample_size(10);
    for &delta in &[10_000i64, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(delta), &delta, |b, &delta| {
            let mut ws = CycleUnionWorkspace::new(graph.num_vertices());
            b.iter(|| {
                let mut feasible = 0usize;
                // Preprocess the first 2000 root edges.
                for root in 0..2_000u32.min(graph.num_edges() as u32) {
                    if ws.compute_temporal(&graph, root, delta) {
                        feasible += 1;
                    }
                }
                feasible
            })
        });
    }
    group.finish();
}

/// `compute_temporal_before` over every root of the default
/// `transaction_rings` stream at the streaming scenario's δ — the union pass
/// in isolation. The window keeps the whole stream live, so each root sees
/// exactly the δ-window it sees when the stream is replayed batch by batch.
fn bench_cycle_union_before(c: &mut Criterion) {
    let cfg = StreamScenarioConfig::default();
    let (rings, _) = generators::transaction_rings(cfg.ring);
    let mut window = SlidingWindowGraph::new(rings.time_span());
    let roots = window
        .append_batch(rings.edges())
        .expect("in-order replay")
        .roots;
    let pred = CyclePredicate::pass_all();
    let mut group = c.benchmark_group("cycle_union_before");
    group.sample_size(10);
    group.bench_function("transaction_rings", |b| {
        let mut ws = CycleUnionWorkspace::new(window.num_vertices());
        b.iter(|| {
            let mut closing = 0usize;
            for root in roots.clone() {
                let e = window.edge(root);
                let path_window = TimeWindow::new(e.ts - cfg.window_delta, e.ts);
                if e.src != e.dst && ws.compute_temporal_before(&window, root, path_window, &pred) {
                    closing += 1;
                }
            }
            closing
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_window_slicing,
    bench_scc,
    bench_cycle_union,
    bench_cycle_union_before
);
criterion_main!(benches);
