//! The repository's benchmark: one seeded workload per process, on one
//! thread, printing its metrics as the last line of standard output.
//!
//! ```text
//! hoas-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line holds the end-to-end metrics; with
//! `--trace 1` the per-layer ones. See `README.md`.

mod harness;
mod imp_edits;
mod lp_preserve;
mod miniml_eval;
mod prenex;
#[cfg(test)]
mod reference;
mod rng;

use harness::Recorder;
use std::process::ExitCode;

/// A workload: runs rounds for `seconds` from `seed` into the recorder.
type Run = fn(u64, u64, &mut Recorder) -> Result<(), String>;

const WORKLOADS: &[(&str, Run)] = &[
    ("prenex-cold", prenex::run),
    ("imp-opt-edits", imp_edits::run),
    ("lp-preserve", lp_preserve::run),
    ("miniml-eval", miniml_eval::run),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" | "1" => trace = Some(value == "1"),
                _ => return Err(format!("--trace: 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: hoas-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some((_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut rec = Recorder::new(args.trace);
    if let Err(e) = run(args.seed, args.seconds, &mut rec) {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    eprintln!("{}: {}", args.workload, rec.summary());
    println!("{}", rec.report());
    ExitCode::SUCCESS
}
