//! Determinism: the spec-driven trial runner's output does not depend on
//! the worker count.
//!
//! Every trial owns its simulation and its seed, so a spec run
//! sequentially (`jobs = 1`) and across all cores must produce the same
//! table and the same trial records. What the tables hold is pinned
//! separately, by the goldens in `tests/spec_golden.rs`.

use agentrack_bench::{run_spec, Fidelity, ScenarioSpec};

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn load_spec(name: &str) -> ScenarioSpec {
    let path = format!("{}/specs/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::load_str(&text).unwrap_or_else(|e| panic!("loading {path}: {e}"))
}

#[test]
fn spec_runner_is_deterministic_across_job_counts() {
    for name in [
        "diurnal",
        "hot_key_churn",
        "chaos",
        "rehash-spike",
        "recovery",
    ] {
        let spec = load_spec(name);
        let sequential = run_spec(&spec, Fidelity::Quick, 1);
        let parallel = run_spec(&spec, Fidelity::Quick, all_cores());
        assert_eq!(
            sequential.table.to_csv(),
            parallel.table.to_csv(),
            "{name}: table differs between jobs=1 and jobs=all"
        );
        // Trial records must agree too, modulo the one wall-clock field.
        let strip = |trials: &[agentrack_bench::TrialRecord]| {
            let mut trials = trials.to_vec();
            for t in &mut trials {
                t.wall_ms = 0.0;
            }
            serde_json::to_string(&trials).unwrap()
        };
        assert_eq!(
            strip(&sequential.trials),
            strip(&parallel.trials),
            "{name}: trials differ between jobs=1 and jobs=all"
        );
    }
}
