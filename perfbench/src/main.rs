//! Wall-clock benchmark of gTop-k S-SGD: end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run, each timed from
//! outside the program through its public entry points.
//!
//! Usage: `gtopk-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (normally through `perfbench/run.py`, which builds this binary and
//! pins `GTOPK_THREADS=1`). The last line of standard output is the
//! result object; the exit code is non-zero when any output check fails.

mod exchange;
mod ranks;
mod report;
mod stats;
mod train;
mod wire;

use report::{emit, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 2] = ["train-resnet20-sim", "exchange-gtopk-sim"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The run header and the workload's parameters, printed before the
/// metrics.
fn header(args: &Args) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "host: cpus {cpus}, simd {}, GTOPK_THREADS={} (kernel pool {} thread(s))",
        gtopk_tensor::simd::level().name(),
        std::env::var("GTOPK_THREADS").unwrap_or_else(|_| "unset".into()),
        gtopk_tensor::parallel::num_threads(),
    );
    let params = match args.workload.as_str() {
        "train-resnet20-sim" => format!(
            "P {}, model resnet20_lite, b {} per worker, {} epochs, rho {} after the paper's warm-up, \
             lr {}, momentum 0.9, algorithm gtopk (Alg. 4, exact selection), transport sim (1 GbE alpha-beta)",
            train::WORKERS,
            train::BATCH,
            train::EPOCHS,
            train::DENSITY,
            train::LR,
        ),
        "exchange-gtopk-sim" => format!(
            "P {}, m {}, rho {} (k {}), algorithm gtopk (GtopkAggregator, exact, binomial), transport sim (1 GbE alpha-beta); \
             the traced run adds dense ring allreduces (DenseAggregator) of the same gradients over the wire transport \
             (in-process, every message through the TCP frame codec)",
            exchange::WORKERS,
            exchange::M,
            exchange::DENSITY,
            exchange::K,
        ),
        _ => unreachable!("parse_args admits only WORKLOADS"),
    };
    println!(
        "workload {}: {params}; seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("gtopk-perfbench: {why}");
            std::process::exit(2);
        }
    };
    header(&args);
    let (seed, secs) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("train-resnet20-sim", false) => train::run(seed, secs),
        ("train-resnet20-sim", true) => train::run_traced(seed, secs),
        (_, false) => exchange::run(seed, secs),
        (_, true) => exchange::run_traced(seed, secs),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if !emit(table, outcome) {
        std::process::exit(1);
    }
}
