//! `calciom-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name with its unit, and
//! ends stdout with one JSON result object. Exits 1 when an output check
//! fails and 2 on a usage error.

use calciom_perfbench::machine::{self, Sweep};
use calciom_perfbench::report::Report;
use calciom_perfbench::serve_mix;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["machine_contended", "machine_coordinated", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(machine::PINNED_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: calciom-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\nerror: {e}", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.meta("workload", &args.workload);
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("trace", u8::from(args.trace));
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    match args.workload.as_str() {
        "machine_contended" => machine::bench(
            Sweep::Contended,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "machine_coordinated" => machine::bench(
            Sweep::Coordinated,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => serve_mix::bench(args.seed, args.seconds, args.trace, &mut report),
    }
    report.check_finite();
    print!("{}", report.render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
