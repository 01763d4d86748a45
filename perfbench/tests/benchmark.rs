//! The benchmark's own tests: its vocabulary, its statistics, its span
//! arithmetic and its output checks.

use pce_core::graph::generators::{transaction_rings, TransactionRingConfig};
use pce_core::graph::TemporalEdge;
use pce_core::{StreamCycle, StreamingQuery};
use perfbench::check::Checker;
use perfbench::reference::{dedicated_totals, oneshot_totals, stored, FRAUD_TOTALS};
use perfbench::report::{result_line, valid_name, Values, END_TO_END, PER_LAYER};
use perfbench::stats::{beyond, percentile, tail, tail_percentile, MIN_BEYOND};
use perfbench::trace::{self_time, Tracer};
use perfbench::workloads::{fraud::valid_temporal_cycle, NAMES};
use std::collections::BTreeSet;

/// `(name, unit)` pairs of every `{"name": ...}` object in BENCHMARK.json
/// (unit empty for workloads).
fn benchmark_json_names() -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let field = |obj: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        obj.find(&pat).map(|i| {
            let rest = &obj[i + pat.len()..];
            rest[..rest.find('"').unwrap()].to_string()
        })
    };
    text.split('{')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit").unwrap_or_default())))
        .collect()
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut seen = BTreeSet::new();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(spec.name), "bad metric name {:?}", spec.name);
        assert!(
            seen.insert(spec.name),
            "metric {:?} listed twice",
            spec.name
        );
        assert!(!spec.unit.is_empty() && spec.unit.len() <= 16);
    }
    for name in NAMES {
        assert!(valid_name(name));
        assert!(
            seen.insert(name),
            "workload {name:?} shares a metric's name"
        );
    }
    for bad in ["", ".lead", "has space", "quote\"", "slash/", "é"] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let listed = benchmark_json_names();
    let mut expected: Vec<(String, String)> = NAMES
        .iter()
        .map(|n| (n.to_string(), String::new()))
        .collect();
    expected.extend(
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|s| (s.name.to_string(), s.unit.to_string())),
    );
    assert_eq!(listed, expected);
}

#[test]
fn nearest_rank_tail_keeps_ten_samples_beyond() {
    // p99 needs n >= 1000: rank 990 of 1000 leaves exactly 10 above it.
    assert_eq!(tail_percentile(1000), Some(0.99));
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(tail_percentile(999), Some(0.9));
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(tail_percentile(100), Some(0.9));
    assert_eq!(tail_percentile(99), Some(0.5));
    assert_eq!(tail_percentile(20), Some(0.5));
    assert_eq!(tail_percentile(19), None);
    for n in 1..3000 {
        if let Some(p) = tail_percentile(n) {
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.99), Some(990.0));
    assert_eq!(percentile(&samples, 0.5), Some(500.0));
    let t = tail(&samples).unwrap();
    assert_eq!((t.p, t.value, t.n), (0.99, 990.0, 1000));
    // Too few samples for any percentile: the maximum stands in.
    let few = [3.0, 1.0, 2.0];
    assert_eq!(tail(&few).unwrap().value, 3.0);
    assert_eq!(tail(&few).unwrap().p, 1.0);
    assert!(tail(&[]).is_none());
}

#[test]
fn self_time_subtracts_nested_and_overlapping_children_once() {
    // Parent [0, 10]. Children [1, 3] and [2, 5] overlap; [4, 4.5] nests
    // inside the second; [9, 12] sticks out of the parent. Covered:
    // [1, 5] and [9, 10], 5 seconds.
    let children = [(1.0, 3.0), (2.0, 5.0), (4.0, 4.5), (9.0, 12.0)];
    assert!((self_time(0.0, 10.0, &children) - 5.0).abs() < 1e-12);
    assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
    assert_eq!(self_time(0.0, 10.0, &[(11.0, 12.0)]), 10.0);
    assert_eq!(self_time(0.0, 10.0, &[(-1.0, 11.0)]), 0.0);

    let mut t = Tracer::new(true);
    t.set_run(7);
    let outer = t.begin("outer");
    let inner = t.begin("inner");
    std::thread::sleep(std::time::Duration::from_millis(5));
    t.end(inner);
    t.end(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans.iter().all(|s| s.run == 7 && s.end >= s.start));
    let selfs = t.self_times(7);
    let outer_self = spans[0].duration() - spans[1].duration();
    assert!((selfs["outer"] - outer_self).abs() < 1e-12);
    assert!((selfs["inner"] - spans[1].duration()).abs() < 1e-12);
    assert!(t.self_times(0).is_empty());

    let mut off = Tracer::new(false);
    let id = off.begin("ignored");
    off.end(id);
    assert!(off.spans().is_empty());
}

#[test]
fn checker_flags_a_doctored_total() {
    let expected = stored(FRAUD_TOTALS);
    let mut honest = Checker::new();
    honest.totals("stream", &expected, &expected);
    assert_eq!((honest.attempted(), honest.failed()), (4, 0));

    let mut doctored = expected.clone();
    doctored[1].1 += 1;
    let mut c = Checker::new();
    c.totals("stream", &expected, &doctored);
    assert_eq!((c.attempted(), c.failed()), (4, 1));
    assert!(c.notes()[0].contains(&expected[1].0));

    let mut missing = Checker::new();
    missing.totals("stream", &expected, &doctored[..3]);
    assert_eq!(missing.failed(), 2);

    // A failed check makes the result line incorrect.
    let mut v = Values::new();
    for spec in END_TO_END {
        v.set(spec.name, 1.5);
    }
    let (ok, line) = result_line(c.attempted(), c.failed(), END_TO_END, &v);
    assert!(!ok);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {")
    );
    let (ok, line) = result_line(4, 0, END_TO_END, &v);
    assert!(ok);
    assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    // A figure that is not a number is never printed as one.
    v.set("setup_s", f64::NAN);
    let (ok, line) = result_line(4, 0, END_TO_END, &v);
    assert!(!ok && !line.contains("NaN") && !line.contains("setup_s"));
}

#[test]
fn alert_validation_rejects_a_doctored_cycle() {
    let cycle = StreamCycle {
        vertices: vec![2, 0, 1],
        edges: vec![
            TemporalEdge::new(2, 0, 30),
            TemporalEdge::new(0, 1, 10),
            TemporalEdge::new(1, 2, 20),
        ],
    };
    assert!(valid_temporal_cycle(&cycle, 20, 3));
    assert!(!valid_temporal_cycle(&cycle, 19, 3), "span 20 exceeds δ 19");
    assert!(!valid_temporal_cycle(&cycle, 20, 2), "3 hops exceed 2");
    let mut broken = cycle.clone();
    broken.edges[2].dst = 3;
    assert!(!valid_temporal_cycle(&broken, 20, 3));
    let mut unordered = cycle;
    unordered.edges[2].ts = 5;
    assert!(!valid_temporal_cycle(&unordered, 20, 3));
}

#[test]
fn the_two_reference_computations_agree() {
    let (graph, _) = transaction_rings(TransactionRingConfig {
        num_accounts: 200,
        background_edges: 3_000,
        num_rings: 20,
        ring_len: (3, 5),
        time_span: 50_000,
        ring_span: 1_000,
        seed: 5,
    });
    let portfolio = vec![
        StreamingQuery::temporal(1_000).max_len(5),
        StreamingQuery::temporal(500).max_len(4),
        StreamingQuery::simple(1_000).max_len(4),
    ];
    let batches = perfbench::stream::batches(graph.edges(), 100);
    let streamed = dedicated_totals(&portfolio, &batches, 5_000, 2).unwrap();
    let oneshot = oneshot_totals(&portfolio, &graph, 2);
    assert_eq!(streamed, oneshot);
    assert!(streamed.iter().any(|(_, n)| *n > 0));
}

#[test]
fn fixed_tail_falls_back_to_the_maximum() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    // p90 of 100: rank 90, ten samples beyond.
    assert_eq!(perfbench::stats::tail_at(&samples, 0.9), Some(90.0));
    // p90 of 99: rank 90, nine beyond, so the maximum stands in.
    assert_eq!(perfbench::stats::tail_at(&samples[..99], 0.9), Some(99.0));
    assert_eq!(perfbench::stats::tail_at(&[], 0.9), None);
}
