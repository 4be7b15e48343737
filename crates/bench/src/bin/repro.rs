//! Regenerates the paper's evaluation figures and the extension
//! experiments.
//!
//! ```text
//! repro [--quick] [--csv DIR] [--jobs N] [EXPERIMENT | all]...
//! ```
//!
//! Experiments: `exp1` and `exp2` (the paper's Figures 7 and 8),
//! `ablation-split`, `ablation-propagation`, `sweep-thresholds`, `skew`,
//! `baselines`, `churn`, `locality`, `ablation-planning`, `delivery`,
//! `trackers`, `chaos`, `attribution`, `recovery` and `rehash-spike`;
//! `--help` lists them too. All but `baselines`, `delivery`, `trackers`
//! and `attribution` have a spec file under `specs/` and run from it
//! through the scenario lab's trial runner, with its post-quiesce
//! invariant audit: any violation is reported and makes `repro` exit 1
//! once every chosen experiment has run, as `scenario_lab` does.
//!
//! With no experiment arguments, everything runs. `--quick` shrinks
//! populations and spans for a fast smoke pass; the recorded results in
//! `EXPERIMENTS.md` come from full-fidelity runs. `--csv DIR` additionally
//! writes one CSV per experiment into `DIR`. `--jobs N` runs the
//! independent grid cells of each experiment on `N` worker threads
//! (results are identical to sequential — each cell owns its simulation
//! and its seed); `--jobs 0` means one thread per available core.

use std::path::PathBuf;
use std::process::ExitCode;

use agentrack_bench::{run_experiment, Fidelity, EXPERIMENTS};

fn main() -> ExitCode {
    let mut fidelity = Fidelity::Full;
    let mut csv_dir: Option<PathBuf> = None;
    let mut jobs: usize = 1;
    let mut chosen: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--csv requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(0) => {
                    jobs = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
                }
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs requires a thread count (0 = all cores)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--csv DIR] [--jobs N] [EXPERIMENT]...\n\
                     experiments: {} | all",
                    EXPERIMENTS.join(" | ")
                );
                return ExitCode::SUCCESS;
            }
            "all" => chosen.extend(EXPERIMENTS.iter().map(|s| (*s).to_owned())),
            name if EXPERIMENTS.contains(&name) => chosen.push(name.to_owned()),
            other => {
                eprintln!(
                    "unknown argument {other:?}; experiments: {}",
                    EXPERIMENTS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS.iter().map(|s| (*s).to_owned()));
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let mut dirty = false;
    for name in chosen {
        let started = std::time::Instant::now();
        let output = run_experiment(&name, fidelity, jobs);
        print!("{}", output.table.render());
        println!("[{name} took {:.1?}]", started.elapsed());
        if output.violations > 0 {
            eprintln!("{name}: {} invariant violation(s)", output.violations);
            dirty = true;
        }
        if let Some(dir) = &csv_dir {
            let csv = (format!("{name}.csv"), output.table.to_csv());
            for (file, contents) in std::iter::once(csv).chain(output.files) {
                let path = dir.join(file);
                if let Err(e) = std::fs::write(&path, contents) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("[wrote {}]", path.display());
            }
        }
    }
    if dirty {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
