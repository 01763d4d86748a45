//! Ablation study of the design choices called out in DESIGN.md (§5/§6 of the
//! paper):
//!
//! 1. **Cycle-union preprocessing on/off** — the scalable replacement for
//!    2SCENT's sequential preprocessing. Turning it off means every rooted
//!    search explores the unrestricted neighbourhood.
//! 2. **Task granularity** — coarse-grained (per root edge) vs fine-grained
//!    (per branch / per recursive call) decomposition at a fixed thread count.
//! 3. **Algorithm family** — Johnson-style vs Read-Tarjan-style fine-grained
//!    decomposition (pruning efficiency vs work efficiency trade-off).
//!
//! Usage: `ablations [--threads N] [--scale X] [--json PATH]`

use pce_bench::{build_scaled, resolve_threads, run_algo, Algo};
use pce_core::Engine;
use pce_graph::TimeWindow;
use pce_workloads::{dataset, DatasetId, ExperimentConfig, MeasuredRow, ResultTable};
use std::time::Instant;

/// A deliberately degraded sequential temporal enumerator with the cycle-union
/// preprocessing disabled: the DFS only checks the window and the simple-path
/// constraint. Used to quantify how much the preprocessing contributes.
fn temporal_without_union(graph: &pce_graph::TemporalGraph, delta: i64) -> (u64, f64) {
    fn dfs(
        graph: &pce_graph::TemporalGraph,
        v0: u32,
        v: u32,
        arrival: i64,
        t_end: i64,
        path: &mut Vec<u32>,
        count: &mut u64,
    ) {
        let window = TimeWindow::new(arrival.saturating_add(1), t_end);
        for &entry in graph.out_edges_in_window(v, window) {
            if entry.neighbor == v0 {
                *count += 1;
            } else if !path.contains(&entry.neighbor) {
                path.push(entry.neighbor);
                dfs(graph, v0, entry.neighbor, entry.ts, t_end, path, count);
                path.pop();
            }
        }
    }

    let start = Instant::now();
    let mut count = 0u64;
    for (_root, e0) in graph.edge_ids() {
        if e0.src == e0.dst {
            continue;
        }
        let t_end = e0.ts.saturating_add(delta);
        let mut path = vec![e0.src, e0.dst];
        dfs(graph, e0.src, e0.dst, e0.ts, t_end, &mut path, &mut count);
    }
    (count, start.elapsed().as_secs_f64())
}

fn main() {
    let cfg = ExperimentConfig::from_args(std::env::args().skip(1));
    let threads = resolve_threads(cfg.threads);
    let engine = Engine::with_threads(threads);
    let spec = dataset(DatasetId::TR);
    let workload = build_scaled(&spec, cfg.scale);
    eprintln!("ablations: {} {}", spec.id.abbrev(), workload.stats());
    let graph = &workload.graph;
    let delta = spec.delta_temporal;

    let mut table = ResultTable::new(format!(
        "Ablations on dataset {} ({} threads)",
        spec.id.abbrev(),
        threads
    ));

    // 1. Cycle-union preprocessing on/off (sequential, temporal cycles).
    let with_union = run_algo(Algo::SeqTemporal, graph, delta, &engine);
    let (count_no_union, secs_no_union) = temporal_without_union(graph, delta);
    assert_eq!(
        with_union.cycles, count_no_union,
        "preprocessing must not change results"
    );
    let mut row = MeasuredRow::new("union_preprocessing");
    row.push("with_s", with_union.wall_secs);
    row.push("without_s", secs_no_union);
    row.push("speedup", secs_no_union / with_union.wall_secs.max(1e-9));
    table.push(row);

    // 2. Task granularity (temporal cycles, fixed thread count).
    let coarse = run_algo(Algo::CoarseTemporal, graph, delta, &engine);
    let fine = run_algo(Algo::FineTemporalJohnson, graph, delta, &engine);
    assert_eq!(coarse.cycles, fine.cycles);
    let mut row = MeasuredRow::new("task_granularity");
    row.push("with_s", fine.wall_secs);
    row.push("without_s", coarse.wall_secs);
    row.push("speedup", coarse.wall_secs / fine.wall_secs.max(1e-9));
    table.push(row);

    // 3. Johnson-style vs Read-Tarjan-style fine-grained decomposition
    //    (simple cycles: pruning sharing vs task independence).
    let fine_j = run_algo(Algo::FineJohnson, graph, spec.delta_simple, &engine);
    let fine_rt = run_algo(Algo::FineReadTarjan, graph, spec.delta_simple, &engine);
    assert_eq!(fine_j.cycles, fine_rt.cycles);
    let mut row = MeasuredRow::new("johnson_vs_read_tarjan");
    row.push("with_s", fine_j.wall_secs);
    row.push("without_s", fine_rt.wall_secs);
    row.push("speedup", fine_rt.wall_secs / fine_j.wall_secs.max(1e-9));
    table.push(row);

    print!("{}", table.render());
    println!(
        "\ncolumns: `with_s` = the paper's design choice, `without_s` = the ablated \
         alternative, `speedup` = how much the design choice buys."
    );
    table.maybe_write_json(&cfg.json_out).expect("write json");
}
