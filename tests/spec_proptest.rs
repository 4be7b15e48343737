//! Property tests of the scenario-spec layer: generated valid specs
//! survive a serialize/parse round trip unchanged, and broken specs of
//! every stripe come back as spanned `SpecError`s naming the offending
//! field — never a panic.

use agentrack_bench::spec::{
    AxisSpec, ChaosFaults, ColumnSpec, FaultSpec, NodeCrashFaults, SchemeSpec, SpikeSpec,
    WorkloadSpec,
};
use agentrack_bench::ScenarioSpec;
use proptest::prelude::*;

/// A scheme arm with every knob off; tests switch on what they need.
fn plain_scheme(kind: &str) -> SchemeSpec {
    SchemeSpec {
        kind: kind.to_string(),
        label: None,
        patient: None,
        standby: None,
        strict_versions: None,
        version_audit_s: None,
        replication_ms: None,
        rehash_concurrency: None,
        eager_propagation: None,
        simple_splits_only: None,
        blind_splits: None,
        locality_migration: None,
        threshold_max: None,
        threshold_min: None,
    }
}

fn plain_workload(agents: usize) -> WorkloadSpec {
    WorkloadSpec {
        agents,
        residence_ms: None,
        queries: None,
        nodes: None,
        queriers: None,
        warmup_s: None,
        measure_s: None,
        grace_s: None,
        query_skew: None,
        mobility_skew: None,
        churn_lifespan_ms: None,
        loss: None,
        duplication: None,
        regions: None,
        inter_region_ms: None,
        freshness_ms: None,
    }
}

/// A fault block with every arm off; tests switch on the one they need.
fn plain_faults() -> FaultSpec {
    FaultSpec {
        chaos: None,
        regional_partition: None,
        region_sever: None,
        node_crash: None,
    }
}

fn column(field: &str) -> ColumnSpec {
    ColumnSpec {
        field: field.to_string(),
        scheme: None,
        header: None,
    }
}

fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (
        (10usize..400, proptest::option::of(100u64..1000)),
        (
            proptest::option::of(50u64..400),
            proptest::option::of(8u32..32),
        ),
        (
            proptest::option::of(5.0f64..30.0),
            proptest::option::of(0.0f64..0.05),
        ),
    )
        .prop_map(
            |((agents, residence_ms), (queries, nodes), (grace_s, loss))| WorkloadSpec {
                residence_ms,
                queries,
                nodes,
                grace_s,
                loss,
                ..plain_workload(agents)
            },
        )
}

fn arb_scheme() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        (
            (
                proptest::option::of(any::<bool>()),
                proptest::option::of(any::<bool>())
            ),
            (
                proptest::option::of(1.0f64..5.0),
                proptest::option::of(1usize..8)
            ),
        )
            .prop_map(
                |((patient, standby), (version_audit_s, rehash_concurrency))| SchemeSpec {
                    patient,
                    standby,
                    version_audit_s,
                    rehash_concurrency,
                    ..plain_scheme("hashed")
                }
            ),
        (0usize..3, proptest::option::of(any::<bool>())).prop_map(|(k, patient)| SchemeSpec {
            patient,
            ..plain_scheme(["centralized", "home-registry", "forwarding"][k])
        }),
    ]
}

fn arb_sweep() -> impl Strategy<Value = Option<Vec<AxisSpec>>> {
    proptest::option::of(prop_oneof![
        proptest::collection::vec(50u64..500, 1..4).prop_map(|vs| vec![AxisSpec {
            param: "agents".to_string(),
            values: vs.into_iter().map(|v| v as f64).collect(),
        }]),
        proptest::collection::vec(100u64..900, 1..4).prop_map(|vs| vec![AxisSpec {
            param: "residence_ms".to_string(),
            values: vs.into_iter().map(|v| v as f64).collect(),
        }]),
        (0usize..3, proptest::collection::vec(0u64..30, 1..4)).prop_map(|(p, vs)| vec![AxisSpec {
            param: ["skew", "mobility_skew", "mean_lifespan_s"][p].to_string(),
            values: vs.into_iter().map(|v| v as f64 / 10.0).collect(),
        }]),
    ])
}

fn arb_columns() -> impl Strategy<Value = Vec<ColumnSpec>> {
    const FIELDS: [&str; 6] = [
        "issued",
        "completed",
        "success_pct",
        "p95_ms",
        "splits",
        "violations",
    ];
    proptest::collection::vec(0usize..FIELDS.len(), 1..5).prop_map(|idxs| {
        let mut cols: Vec<ColumnSpec> = Vec::new();
        for i in idxs {
            if !cols.iter().any(|c| c.field == FIELDS[i]) {
                cols.push(column(FIELDS[i]));
            }
        }
        cols
    })
}

fn arb_valid_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (0u32..10_000, arb_workload()),
        (arb_sweep(), arb_scheme()),
        (
            proptest::option::of(any::<bool>()),
            proptest::option::of(proptest::collection::vec(any::<u64>(), 1..4)),
        ),
        arb_columns(),
    )
        .prop_map(
            |((n, workload), (sweep, scheme), (scheme_rows, seeds), columns)| ScenarioSpec {
                name: format!("gen-{n}"),
                title: format!("generated spec {n}"),
                workload,
                sweep,
                schemes: vec![scheme],
                scheme_rows,
                seeds,
                faults: None,
                spikes: None,
                audit: None,
                trace_buffer: None,
                columns,
            },
        )
}

/// One way to break a valid spec, with the path fragment the resulting
/// error must name.
type Breakage = (fn(&mut ScenarioSpec), &'static str);

fn arb_breakage() -> impl Strategy<Value = Breakage> {
    let cases: Vec<Breakage> = vec![
        (|s| s.name = "bad name!".to_string(), "name"),
        (|s| s.workload.agents = 0, "workload.agents"),
        (
            |s| s.workload.residence_ms = Some(0),
            "workload.residence_ms",
        ),
        (|s| s.workload.nodes = Some(0), "workload.nodes"),
        (|s| s.workload.loss = Some(1.5), "loss"),
        (|s| s.seeds = Some(Vec::new()), "seeds"),
        (|s| s.trace_buffer = Some(0), "trace_buffer"),
        (|s| s.schemes.clear(), "schemes"),
        (|s| s.schemes[0].kind = "quantum".to_string(), "kind"),
        (|s| s.schemes[0].threshold_min = Some(0.5), "threshold_min"),
        (|s| s.columns.clear(), "columns"),
        (|s| s.columns[0].field = "bogus".to_string(), "field"),
        (
            |s| {
                s.sweep = Some(vec![AxisSpec {
                    param: "teleportation".to_string(),
                    values: vec![1.0],
                }]);
            },
            "param",
        ),
        (
            |s| {
                s.spikes = Some(vec![SpikeSpec {
                    at_frac: 0.2,
                    span_frac: 0.2,
                    queries_factor: Some(10),
                    queries: Some(100),
                    queriers: 8,
                }]);
            },
            "queries",
        ),
        (
            |s| {
                s.faults = Some(FaultSpec {
                    chaos: Some(ChaosFaults {
                        seed: 7,
                        intensity: Some(2.0),
                    }),
                    ..plain_faults()
                });
            },
            "intensity",
        ),
        (
            |s| {
                s.sweep = Some(vec![AxisSpec {
                    param: "crash_frac".to_string(),
                    values: vec![0.5],
                }]);
            },
            "sweep",
        ),
        (
            |s| {
                s.faults = Some(FaultSpec {
                    node_crash: Some(NodeCrashFaults {
                        nodes: vec![0],
                        restart_ms: 500,
                    }),
                    ..plain_faults()
                });
            },
            "node_crash",
        ),
    ];
    (0..cases.len()).prop_map(move |i| cases[i])
}

proptest! {
    /// parse(to_json(spec)) is the identity on valid specs, and the
    /// JSON form itself is a fixed point.
    fn valid_specs_round_trip(spec in arb_valid_spec()) {
        prop_assert!(
            spec.validate().is_ok(),
            "generator produced an invalid spec: {:?}",
            spec.validate().err()
        );
        let json = spec.to_json();
        let reparsed = match ScenarioSpec::load_str(&json) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!(
                "round trip failed to parse: {e}"
            ))),
        };
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.to_json(), json);
    }

    /// Every class of semantic breakage surfaces as a `SpecError`
    /// naming the offending field — both from `validate` on the struct
    /// and from `load_str` on its JSON text (where the error also gains
    /// a source span when the key occurs literally).
    fn broken_specs_name_the_field(
        spec in arb_valid_spec(),
        breakage in arb_breakage(),
    ) {
        let (break_it, expect) = breakage;
        let mut spec = spec;
        break_it(&mut spec);
        let err = match spec.validate() {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError::fail(format!(
                "breakage '{expect}' was not rejected"
            ))),
        };
        prop_assert!(
            err.path.contains(expect),
            "error path {:?} does not name {:?} (message: {})",
            err.path, expect, err.message
        );
        prop_assert!(!err.message.is_empty());
        let text_err = match ScenarioSpec::load_str(&spec.to_json()) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail(
                "load_str accepted what validate rejected".to_string()
            )),
        };
        prop_assert!(text_err.path.contains(expect));
    }

    /// Arbitrary bytes never panic the loader.
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = ScenarioSpec::load_str(&text);
    }

    /// Truncating a valid document anywhere never panics the loader,
    /// and anything it rejects carries a non-empty path and message.
    fn truncation_never_panics(spec in arb_valid_spec(), frac in 0.0f64..1.0) {
        let json = spec.to_json();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((json.len() as f64) * frac) as usize;
        let mut cut = cut.min(json.len());
        while !json.is_char_boundary(cut) {
            cut -= 1;
        }
        if let Err(e) = ScenarioSpec::load_str(&json[..cut]) {
            prop_assert!(!e.path.is_empty());
            prop_assert!(!e.message.is_empty());
        }
    }
}
