//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload, prints every metric with its unit and the
//! run's host facts, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a correctness check failed, 2 on bad arguments or a run
//! that could not complete, 3 when the run is invalid as a measurement.

use std::process::ExitCode;

use agentrack_perfbench::{run, Request, Scale, WORKLOADS};

fn parse(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", WORKLOADS.join(", ")))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok((workload, seed, seconds, trace))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let req = Request {
        workload: &workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    };
    let outcome = match run(&req) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = &outcome.invalid {
        eprintln!("perfbench: INVALID RUN: {why}");
        return ExitCode::from(3);
    }
    let (table, json) = match (outcome.table(trace), outcome.json(trace)) {
        (Ok(table), Ok(json)) => (table, json),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in table {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{json}");
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
