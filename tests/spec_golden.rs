//! Golden-file tests for the spec-driven experiments: the paper's E1 and
//! E2, the ablations, sweeps and extensions that `repro` runs from
//! `specs/` (E3–E6, E8–E10, E13, E15, E17) and the spec-only workloads
//! (E18a–E18d).
//!
//! Each committed CSV under `tests/golden/` is the quick-fidelity table
//! of one spec in `specs/`, under the spec's own name. The simulation is
//! deterministic and none of these tables report wall-clock fields (the
//! only non-deterministic trial field, `wall_ms`, lives in the trials
//! JSON and is bounded separately below), so the comparison is exact. A diff here means the
//! spec, the runner, or the protocol changed behaviour — regenerate
//! with `scenario_lab --quick` only after deciding the change is
//! intended.

use agentrack_bench::{run_spec, Fidelity, ScenarioSpec};

fn check_golden(name: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let spec_text = std::fs::read_to_string(format!("{root}/specs/{name}.json"))
        .unwrap_or_else(|e| panic!("reading specs/{name}.json: {e}"));
    let spec = ScenarioSpec::load_str(&spec_text)
        .unwrap_or_else(|e| panic!("loading specs/{name}.json: {e}"));
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/{name}.quick.csv"))
        .unwrap_or_else(|e| panic!("reading tests/golden/{name}.quick.csv: {e}"));

    let outcome = run_spec(&spec, Fidelity::Quick, 1);
    assert_eq!(
        outcome.table.to_csv(),
        golden,
        "{name}: quick-fidelity table diverged from tests/golden/{name}.quick.csv"
    );

    // Every spec run carries the post-quiesce invariant audit; golden
    // workloads must stay audit-green trial by trial.
    for trial in &outcome.trials {
        let audit = trial
            .invariants
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: trial {} ran without an audit", trial.scenario));
        assert!(
            audit.violations.is_empty(),
            "{name}: trial {} has violations: {:?}",
            trial.scenario,
            audit.violations
        );
        // Wall-clock is the one non-deterministic field: bound it
        // instead of comparing it (quick trials run in well under a
        // minute even on a loaded host).
        assert!(
            trial.wall_ms > 0.0 && trial.wall_ms < 60_000.0,
            "{name}: implausible wall_ms {} for trial {}",
            trial.wall_ms,
            trial.scenario
        );
    }
}

/// One `#[test]` per golden table.
macro_rules! goldens {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check_golden($name);
            }
        )*
    };
}

goldens! {
    golden_diurnal => "diurnal",
    golden_flash_crowd => "flash_crowd",
    golden_regional_partition => "regional_partition",
    golden_hot_key_churn => "hot_key_churn",
    golden_exp1 => "exp1",
    golden_exp2 => "exp2",
    golden_ablation_split => "ablation-split",
    golden_ablation_propagation => "ablation-propagation",
    golden_sweep_thresholds => "sweep-thresholds",
    golden_ablation_planning => "ablation-planning",
    golden_chaos => "chaos",
    golden_rehash_spike => "rehash-spike",
    golden_skew => "skew",
    golden_churn => "churn",
    golden_locality => "locality",
    golden_recovery => "recovery",
}
