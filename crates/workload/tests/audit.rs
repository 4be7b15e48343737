//! The post-quiesce audit judges the directory, not its queue: a
//! saturated tracker that holds every record audits clean once the
//! workload stops and its backlog drains, while a record that is really
//! gone is still reported. Under churn, an agent still being created when
//! the run ends is audited like any other live agent.

use agentrack_core::{CentralizedScheme, HashedScheme, LocationConfig};
use agentrack_platform::NodeId;
use agentrack_sim::{DurationDist, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use agentrack_workload::{AuditOptions, InvariantReport, RunOptions, Scenario, ScenarioReport};

fn audited(scenario: &Scenario) -> (ScenarioReport, InvariantReport) {
    // Experiment-grade patience: the saturated tracker answers from a
    // queue that is seconds deep.
    let config = LocationConfig {
        max_locate_attempts: 30,
        locate_retry_timeout: SimDuration::from_secs(2),
        ..LocationConfig::default()
    };
    let mut scheme = CentralizedScheme::new(config);
    let out = scenario.run_with(
        &mut scheme,
        RunOptions::new().with_audit(AuditOptions::default()),
    );
    (out.report, out.invariants.expect("audit was requested"))
}

#[test]
fn saturated_centralized_run_audits_clean() {
    // 100 agents moving every 500 ms send 200 updates/s at a tracker
    // that serves 100 messages/s: its queue grows for the whole run.
    let mut scenario = Scenario::new("saturated")
        .with_agents(100)
        .with_residence_ms(500)
        .with_queries(100)
        .with_seconds(6.0, 4.0);
    scenario.service_time = DurationDist::Constant(SimDuration::from_millis(10));
    let (report, invariants) = audited(&scenario);
    assert!(
        report.mean_locate_ms > 1000.0,
        "the tracker was meant to saturate: {report:#?}"
    );
    assert!(
        invariants.ok(),
        "a saturated tracker that holds every record is not a violation: {:?}",
        invariants.violations
    );
    assert_eq!(invariants.located, invariants.probed);
    assert_eq!(invariants.records_held, 100);
}

#[test]
fn lost_record_is_still_reported() {
    // Agents that stay put for the whole run never re-announce
    // themselves, so the records the tracker's node loses in a late
    // crash stay lost. Only the agents on the crashed node re-register
    // when it restarts.
    let mut scenario = Scenario::new("lost-records")
        .with_agents(32)
        .with_residence_ms(600_000)
        .with_queries(40)
        .with_seconds(6.0, 4.0);
    let crash_at = SimTime::ZERO + SimDuration::from_secs(12);
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash {
            node: NodeId::new(0),
            lose_soft_state: true,
            restart_at: Some(crash_at + SimDuration::from_millis(500)),
        },
    });
    scenario = scenario.with_faults(plan);
    let (_, invariants) = audited(&scenario);
    assert_eq!(invariants.probed, 32);
    assert_eq!(
        invariants.unlocatable.len(),
        30,
        "every agent off the crashed node lost its record: {invariants:?}"
    );
    assert!(!invariants.ok(), "lost records must be reported");
}

#[test]
fn churn_successor_in_flight_at_the_end_is_audited() {
    // Agents die every ~0.3 s on average, so when the run ends some
    // successor's creation is still crossing the network; it joins the
    // roster and registers only after that. The audit must count it
    // among the live agents, not report its record as a duplicate.
    let mut scenario = Scenario::new("fast-churn")
        .with_agents(60)
        .with_residence_ms(300)
        .with_queries(60)
        .with_seconds(4.0, 2.0);
    scenario.churn_lifespan = Some(DurationDist::Exponential {
        mean: SimDuration::from_millis(300),
    });
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let out = scenario.run_with(
        &mut scheme,
        RunOptions::new().with_audit(AuditOptions::default()),
    );
    let invariants = out.invariants.expect("audit was requested");
    assert!(invariants.ok(), "{:?}", invariants.violations);
    assert_eq!(invariants.records_held, invariants.live_agents as u64);
}
