//! `sfbench`: four loopback-TCP workloads against a Snowflake server
//! child, a per-layer replay trace, and the result line `BENCHMARK.json`
//! promises.  See `benchmark/README.md`.

mod affinity;
mod child;
mod drive;
mod inputs;
mod replay;
mod report;
mod run;
mod server;
mod spec;
mod stats;
mod trace;
mod wire;
mod workloads;

use run::{Config, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  sfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
      one run of one workload; the last line of stdout is the JSON result
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  sfbench run   [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
      every workload, untraced then traced; prints every metric by name
  sfbench trace [--seed <n>] [--seconds <s>] [--quick] [--out <dir>]
      only the traced runs
  sfbench check [--seed <n>] [--seconds <s>] [--out <dir>]
      two untraced sets of three alternating runs on the same seed, their
      medians side by side; exits 1 when a pair differs by more than its
      metric's bound
workloads: mac_steady signed_fresh rmi_mail broker_admission
<dir> defaults to benchmark/out under the current directory";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        dir: None,
    };
    let mut words = std::env::args().skip(1).peekable();
    if words.peek().is_some_and(|w| !w.starts_with("--")) {
        args.command = words.next();
    }
    while let Some(flag) = words.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = words.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("between 0 and 120"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--dir" => args.dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn one(
    args: &Args,
    workload: &'static spec::WorkloadDef,
    traced: bool,
) -> Result<RunResult, String> {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(0.6)
        } else {
            args.seconds
        },
        out: args.out.clone(),
        quick: args.quick,
    };
    if traced {
        run::per_layer(&cfg)
    } else {
        run::end_to_end(&cfg)
    }
}

/// `run` and `trace`: every workload, printed as it finishes.
fn all(args: &Args, nproc: usize, modes: &[bool], file: &str) -> Result<bool, String> {
    let mut results = Vec::new();
    for workload in &spec::WORKLOADS {
        for &traced in modes {
            let r = one(args, workload, traced)?;
            print!("{}", report::table(&r, traced));
            results.push((r, traced));
        }
    }
    report::write_results(&args.out.join(file), args.seed, nproc, &results)?;
    Ok(results.iter().all(|(r, _)| r.correct()))
}

/// Runs per set and workload in `check`.  A set's value is the median of
/// its runs, so that one run under a noisy neighbour does not fail the
/// comparison; the two sets' runs alternate, so that drift reaches both.
const CHECK_RUNS: usize = 3;

fn check(args: &Args, nproc: usize) -> Result<bool, String> {
    let mut pairs = Vec::new();
    let mut correct = true;
    for workload in &spec::WORKLOADS {
        let mut sets = [Vec::new(), Vec::new()];
        for _ in 0..CHECK_RUNS {
            for set in &mut sets {
                let r = one(args, workload, false)?;
                correct &= r.correct();
                set.push(r);
            }
        }
        let [first, second] = sets;
        pairs.extend(report::pairs(&first, &second));
    }
    print!("{}", report::pairs_table(&pairs));
    report::write_repeat(&args.out.join("repeat.json"), args.seed, nproc, &pairs)?;
    if !correct {
        println!("a run reported failed operations");
    }
    Ok(correct && pairs.iter().all(report::Pair::within_bound))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if args.command.as_deref() == Some("serve") {
        let dir = args.dir.as_ref().ok_or("serve needs --dir")?;
        return server::serve(dir).map(|()| true);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    // Counted before the process confines itself to one of them.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    match affinity::pin_to_one_cpu() {
        Some(cpu) => eprintln!("sfbench: clients and server child confined to CPU {cpu}"),
        None => eprintln!("sfbench: could not set CPU affinity; threads float"),
    }
    match args.command.as_deref() {
        None => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let workload = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
            let r = one(args, workload, args.trace)?;
            eprint!("{}", report::table(&r, args.trace));
            println!("{}", report::result_line(&r));
            // A wrong answer is reported in the line, not by the exit code.
            Ok(true)
        }
        Some("run") => all(args, nproc, &[false, true], "run.json"),
        Some("trace") => all(args, nproc, &[true], "trace.json"),
        Some("check") => check(args, nproc),
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| dispatch(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
