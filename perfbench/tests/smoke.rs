//! Every workload at a tiny size, untraced and traced, through the same
//! code path as the benchmark: the harness must run, pass its own
//! correctness checks and report every metric it declares.

use agentrack_perfbench::{run, Request, Scale, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn every_workload_runs_at_tiny_size() {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let req = Request {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                scale: Scale::Tiny,
            };
            let outcome = run(&req).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            assert!(
                outcome.problems.is_empty(),
                "{workload} trace={trace}: {:?}",
                outcome.problems
            );
            assert!(
                outcome.attempted > 0,
                "{workload} trace={trace} attempted nothing"
            );
            let table = outcome.table(trace).expect("every metric measured");
            let names: Vec<&str> = table.iter().map(|(name, _, _)| *name).collect();
            let declared: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|(name, _)| *name)
                .collect();
            assert_eq!(names, declared);
            let json = outcome.json(trace).expect("json");
            assert!(json.starts_with("{\"correct\": true,"), "{json}");
            if !trace {
                for (name, value, _) in &table {
                    assert!(*value > 0.0, "{workload}: {name} = {value}");
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let req = Request {
        workload: "nope",
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::Tiny,
    };
    assert!(run(&req).is_err());
}
