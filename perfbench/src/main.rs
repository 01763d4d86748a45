//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload in this process and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics (the
//! end-to-end ones untraced, the per-layer ones traced). Human-readable
//! figures come before it. `perfbench --reference` recomputes the stored
//! reference totals of the default seeds.

use perfbench::workloads::{self, durable, fraud, oneshot};
use perfbench::{reference, run_traced, run_untraced, Ctx, THREADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Where stores and span files go, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Prints the stored reference totals, computed with the one-shot engine
/// and cross-checked against dedicated streaming engines.
fn print_reference() -> ExitCode {
    let mut ok = true;
    for (name, seed, portfolio) in [
        ("FRAUD_TOTALS", reference::FRAUD_SEED, fraud::portfolio()),
        (
            "DURABLE_TOTALS",
            reference::DURABLE_SEED,
            pce_workloads::streaming::large_portfolio(durable::SUBSCRIPTIONS, fraud::DELTA),
        ),
    ] {
        let graph = fraud::generate(seed);
        let oneshot = reference::oneshot_totals(&portfolio, &graph, THREADS);
        let batches = perfbench::stream::batches(graph.edges(), fraud::BATCH_EDGES);
        let dedicated =
            reference::dedicated_totals(&portfolio, &batches, fraud::RETENTION, THREADS);
        ok &= dedicated.as_ref().is_ok_and(|d| *d == oneshot);
        println!("pub const {name}: &[(&str, u64)] = &[");
        for (profile, total) in &oneshot {
            println!("    (\"{profile}\", {total}),");
        }
        println!("];");
        if dedicated.as_ref().map_or(true, |d| *d != oneshot) {
            eprintln!("{name}: dedicated engines disagree: {dedicated:?}");
        }
    }
    let (graph, delta) = oneshot::graph(reference::ONESHOT_SEED);
    let q = oneshot::query(
        pce_core::Algorithm::Johnson,
        pce_core::Granularity::CoarseGrained,
        delta,
    );
    let co = pce_core::Engine::with_threads(THREADS).count(&q, &graph);
    println!("pub const CO_TEMPORAL_CYCLES: u64 = {co:?};");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--reference") {
        return print_reference();
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some((mut workload, default_seed)) = workloads::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(default_seed);
    let root = PathBuf::from(WORK_DIR);
    let run_dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx::new(seed, run_dir.clone());
    println!(
        "workload {} seed {seed} seconds {} trace {} threads {THREADS}",
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        let spans = root.join(format!("spans-{}-seed{seed}.jsonl", args.workload));
        let out = run_traced(workload.as_mut(), &mut ctx, &spans);
        println!("spans written to {}", spans.display());
        out
    } else {
        run_untraced(workload.as_mut(), &mut ctx, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", out.result);
    ExitCode::SUCCESS
}
