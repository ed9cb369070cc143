//! `dl-e2e` — run the benchmark.
//!
//! ```text
//! dl-e2e --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! dl-e2e [--seed N] [--seconds S] [--trace 0|1]          every workload, one table
//! dl-e2e --selfcheck [--seed N] [--seconds S]            the untraced suite twice; fails on disagreement
//! dl-e2e --manifest                                      print BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dl_e2e::spec::{manifest_json, END_TO_END, RUN_SECONDS, TCP_WORKLOAD, WORKLOADS};
use dl_e2e::workload::{self, RunResult};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where traces and the kernels' scratch log go: inside the benchmark's
/// own directory, which `.gitignore` covers.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_run(name: &str, r: &RunResult) {
    println!("== {name}");
    for note in &r.notes {
        println!("   {note}");
    }
    for v in &r.violations {
        println!("   VIOLATION: {v}");
    }
    for row in &r.rows {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == row.name)
            .and_then(|m| m.bound)
            .map_or(String::new(), |b| format!("  (bound {:.0}%)", b * 100.0));
        println!(
            "   {:<32} {:>16.6} {}{bound}",
            row.name, row.value, row.unit
        );
    }
    println!(
        "   attempted {} failed {} correct {}",
        r.attempted, r.failed, r.correct
    );
}

/// The contract's workloads, then (unless `contract_only`) the TCP
/// cross-check.
fn run_suite(args: &Args, contract_only: bool) -> Vec<(&'static str, RunResult)> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain((!contract_only).then_some(TCP_WORKLOAD))
        .map(|name| {
            let r = workload::run(name, args.seed, args.seconds, args.trace, &out_dir())
                .expect("every listed workload has a plan");
            print_run(name, &r);
            (name, r)
        })
        .collect()
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.rows
        .iter()
        .find(|row| row.name == name)
        .map_or(0.0, |row| row.value)
}

/// Print the paper's shape as information: DL against HoneyBadger.
fn print_shape(suite: &[(&'static str, RunResult)]) {
    let goodput = |w: &str| {
        suite
            .iter()
            .find(|(name, _)| *name == w)
            .map(|(_, r)| value(r, "goodput_mbps"))
    };
    if let (Some(dl), Some(hb)) = (goodput("vbw-sat-dl"), goodput("vbw-sat-hb")) {
        if hb > 0.0 {
            println!(
                "shape: vbw-sat-dl {dl:.3} MB/s vs vbw-sat-hb {hb:.3} MB/s — DL/HB = {:.3}",
                dl / hb
            );
        }
    }
}

fn selfcheck(args: &Args) -> bool {
    let first = run_suite(args, true);
    let second = run_suite(args, true);
    let mut ok = first.iter().chain(&second).all(|(_, r)| r.correct);
    println!(
        "== selfcheck: two runs of the same code, seed {}",
        args.seed
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (value(a, m.name), value(b, m.name));
            let spread = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            // Everything but the set-up time is measured in virtual time.
            let verdict = if m.name != "setup_s" && x != y {
                "NOT IDENTICAL"
            } else if spread > bound {
                "OUTSIDE ITS BOUND"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "   {name:<16} {:<28} {x:>14.6} {y:>14.6}  spread {:>7.3}%  bound {:>4.0}%  {verdict}",
                m.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dl-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", manifest_json());
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return if selfcheck(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = &args.workload else {
        let suite = run_suite(&args, false);
        print_shape(&suite);
        return if suite.iter().all(|(_, r)| r.correct) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let Some(result) = workload::run(name, args.seed, args.seconds, args.trace, &out_dir()) else {
        eprintln!("dl-e2e: no workload named {name}");
        return ExitCode::from(2);
    };
    print_run(name, &result);
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
