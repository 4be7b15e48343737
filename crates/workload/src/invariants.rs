//! Post-quiesce invariant checking for fault-injection runs.
//!
//! After a chaos scenario drains, [`check`] probes the system the way an
//! operator would audit it:
//!
//! * **Locatability** — every live, reachable TAgent must still be
//!   locatable through its scheme (a fresh probe client issues one locate
//!   per agent). Skipped for the forwarding baseline under any fault plan:
//!   a chain link lost to a crash or partition is unrecoverable by design,
//!   which is exactly the weakness the paper's mechanism avoids.
//! * **Version convergence** — the primary HAgent must hold the highest
//!   hash-function version among live copies; with `strict_versions`,
//!   every live copy (standby, LHAgents, IAgents) must match it.
//! * **Single ownership** — for the hashed scheme, the live IAgents'
//!   record counts must not exceed the live population: no agent is owned
//!   by two IAgents after the tree settles.
//! * **Mail accounting** — a fault-free, loss-free run must lose no
//!   guaranteed-delivery mail.
//! * **Recovery convergence** — every recovery a restarted tracker
//!   entered must have finished by quiesce (the recovery timeout bounds
//!   it); a tracker stuck recovering would answer stale forever. Together
//!   with locatability this is the durability guarantee: no agent stays
//!   permanently unlocatable after its tracker crashes and restarts.
//! * **Freshness bounds** — no answer delivered during the run may
//!   declare an age above the locate's freshness bound (the scheme's
//!   client-side audit counter must be zero), and once every recovery has
//!   converged the post-quiesce probes must be answered authoritatively —
//!   a stale probe answer means a replica set failed to reconverge after
//!   the faults healed.
//!
//! Checks that a fault plan makes undecidable (e.g. locatability of agents
//! stranded on a node that never restarts) are narrowed to the reachable
//! population rather than skipped wholesale.
//!
//! "Quiesce" means the workload has stopped. The audit first freezes
//! directory adaptation ([`LocationScheme::set_adaptation_frozen`]): a
//! post-spike merge cascade can still be committing versions while the
//! probe runs, and sampling versions mid-install would report a
//! convergence failure that is really an in-flight broadcast. In-flight
//! leases still commit (bounded by the lease timeout, inside the probe
//! window); only new grants stop. It then freezes the TAgents (no more
//! moves, no more churn) and lets the simulation run until every
//! tracker has worked off its queue. A saturated tracker — the
//! centralized baseline at the paper's largest population — holds every
//! record but answers from a backlog that is minutes deep; probing it
//! before it drains would report correct records as unlocatable.

use std::sync::Arc;

use agentrack_core::{ClientEvent, CopyRole, DirectoryClient, LocationScheme};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, SimPlatform, TimerId};
use agentrack_sim::SimDuration;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::population::Population;
use crate::scenario::{Scenario, ScenarioReport};

/// Pace between probe locates: fast enough to keep the audit short, slow
/// enough not to saturate a recovering tracker.
const PROBE_PACE: SimDuration = SimDuration::from_millis(50);

/// Extra run time after the last probe is issued, covering a full retry
/// budget (8 attempts x 800 ms) with headroom.
const PROBE_SLACK: SimDuration = SimDuration::from_secs(8);

/// Step of the pre-probe drain: the audit checks for leftover backlog
/// once per simulated second.
const DRAIN_STEP: SimDuration = SimDuration::from_secs(1);

/// Longest the pre-probe drain waits for the trackers to empty their
/// queues; a backlog still standing after this is left for the probes
/// to report.
const DRAIN_CAP: SimDuration = SimDuration::from_secs(600);

/// Outcome of the post-quiesce audit of one chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvariantReport {
    /// Live, reachable TAgents the probe attempted to locate.
    pub probed: usize,
    /// Probes answered with a location.
    pub located: usize,
    /// Raw ids of agents the probe could not locate (empty unless the
    /// locatability check applied and failed).
    pub unlocatable: Vec<u64>,
    /// Live hash-function copies inspected (0 for non-hashed schemes).
    pub version_copies: usize,
    /// Whether the version-convergence check passed (vacuously true when
    /// no copies report versions).
    pub versions_converged: bool,
    /// Records held across live trackers at quiesce.
    pub records_held: u64,
    /// Live TAgents at quiesce.
    pub live_agents: usize,
    /// Guaranteed-delivery messages lost to mailbox expiry.
    pub mail_lost: u64,
    /// Recoveries entered by restarted trackers over the whole run.
    pub recoveries_started: u64,
    /// Recoveries that converged or timed out.
    pub recoveries_completed: u64,
    /// Degraded-mode (stale) locate answers served during recoveries.
    pub stale_answers: u64,
    /// Answers whose declared age exceeded the locate's freshness bound
    /// over the whole run (must be zero).
    pub bound_violations: u64,
    /// Post-quiesce probes answered with a stale (replica/recovery)
    /// record instead of the authoritative one.
    pub probe_stale: usize,
    /// Human-readable invariant violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Shared result cell the probe agent writes into.
#[derive(Debug, Default)]
struct ProbeOutcome {
    located: Vec<u64>,
    failed: Vec<u64>,
    stale: Vec<u64>,
}

/// A one-shot audit agent: locates each target in turn through a fresh
/// scheme client and records which answers arrive.
struct ProbeBehavior {
    client: Box<dyn DirectoryClient>,
    targets: Vec<AgentId>,
    next: usize,
    probe_timer: Option<TimerId>,
    results: Arc<Mutex<ProbeOutcome>>,
}

impl ProbeBehavior {
    fn issue_next(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.next < self.targets.len() {
            let token = self.next as u64;
            let target = self.targets[self.next];
            self.next += 1;
            self.client.locate(ctx, target, token);
            self.probe_timer = Some(ctx.set_timer(PROBE_PACE));
        }
    }

    fn handle(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        f: impl FnOnce(&mut dyn DirectoryClient, &mut AgentCtx<'_>) -> ClientEvent,
    ) {
        match f(self.client.as_mut(), ctx) {
            ClientEvent::Located { target, stale, .. } => {
                let mut results = self.results.lock();
                results.located.push(target.raw());
                if stale {
                    results.stale.push(target.raw());
                }
            }
            ClientEvent::Failed { target, .. } => self.results.lock().failed.push(target.raw()),
            _ => {}
        }
    }
}

impl Agent for ProbeBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.issue_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.probe_timer == Some(timer) {
            self.probe_timer = None;
            self.issue_next(ctx);
            return;
        }
        self.handle(ctx, |client, ctx| client.on_timer(ctx, timer));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        self.handle(ctx, |client, ctx| client.on_message(ctx, from, payload));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        self.handle(ctx, |client, ctx| {
            client.on_delivery_failed(ctx, to, node, payload)
        });
    }
}

impl std::fmt::Debug for ProbeBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeBehavior")
            .field("targets", &self.targets.len())
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

/// Runs the full post-quiesce audit; see the module docs for the
/// invariants.
pub(crate) fn check(
    scenario: &Scenario,
    scheme: &mut dyn LocationScheme,
    platform: &mut SimPlatform,
    tagents: &[AgentId],
    population: &Population,
    report: &ScenarioReport,
    strict_versions: bool,
) -> InvariantReport {
    let mut violations = Vec::new();

    // Drain the control plane before auditing, the way an operator would:
    // no new rehash leases are granted from here on (in-flight ones still
    // commit, bounded by the lease timeout, well inside the probe window),
    // so the version sample at the end observes a settled directory
    // instead of racing a cascade that is still adapting to post-fault
    // load.
    scheme.set_adaptation_frozen(true);

    // Stop the workload and let the trackers catch up: the probes would
    // otherwise queue behind every Update and retry still in flight.
    population.freeze();
    let drain_until = platform.now() + DRAIN_CAP;
    while !platform.max_backlog().is_zero() && platform.now() < drain_until {
        platform.run_for(DRAIN_STEP);
    }

    // Under churn the original spawn list is long dead: audit the live
    // roster instead, read after the drain so that a successor whose
    // creation was still in flight when the run ended is counted too.
    let roster = if scenario.churn_lifespan.is_some() {
        population.snapshot()
    } else {
        tagents.to_vec()
    };

    // The audited population: agents still alive on nodes that are up.
    // With a fully-healing plan that is every survivor; under an unhealed
    // plan, stranded agents are unreachable by construction and excluded.
    let reachable: Vec<AgentId> = roster
        .iter()
        .copied()
        .filter(|&id| {
            platform.is_live(id)
                && platform
                    .agent_node(id)
                    .is_some_and(|node| !platform.node_is_down(node))
        })
        .collect();

    // -- Locatability ----------------------------------------------------
    // Forwarding keeps per-node pointer chains with no repair path: any
    // crash or partition can sever a chain permanently (the gap this
    // scheme is the foil for), so the check only binds it on fault-free
    // plans.
    let check_locate = scenario.faults.is_empty() || scheme.name() != "forwarding";
    let results = Arc::new(Mutex::new(ProbeOutcome::default()));
    let mut probed = 0;
    if !reachable.is_empty() {
        probed = reachable.len();
        let probe = ProbeBehavior {
            client: scheme.make_client(),
            targets: reachable.clone(),
            next: 0,
            probe_timer: None,
            results: Arc::clone(&results),
        };
        platform.spawn(Box::new(probe), NodeId::new(0));
        platform.run_for(PROBE_PACE * probed as u64 + PROBE_SLACK);
    }
    let outcome = results.lock();
    let located = outcome.located.len();
    let probe_stale = outcome.stale.len();
    let mut unlocatable: Vec<u64> = reachable
        .iter()
        .map(|id| id.raw())
        .filter(|raw| !outcome.located.contains(raw))
        .collect();
    drop(outcome);
    unlocatable.sort_unstable();
    if check_locate && !unlocatable.is_empty() {
        violations.push(format!(
            "{} of {} reachable agents unlocatable after quiesce: {:?}",
            unlocatable.len(),
            probed,
            &unlocatable[..unlocatable.len().min(8)]
        ));
    }

    // -- Version convergence ---------------------------------------------
    let versions: Vec<(u64, CopyRole, u64)> = scheme
        .hash_versions()
        .into_iter()
        .filter(|&(id, _, _)| platform.is_live(AgentId::new(id)))
        .collect();
    let mut versions_converged = true;
    if !versions.is_empty() {
        let max = versions.iter().map(|&(_, _, v)| v).max().unwrap_or(0);
        let primary = versions
            .iter()
            .find(|&&(_, role, _)| role == CopyRole::Primary);
        match primary {
            Some(&(_, _, v)) if v < max => {
                versions_converged = false;
                violations.push(format!(
                    "primary HAgent at hash-function version {v}, but a live copy holds {max}"
                ));
            }
            None => {
                versions_converged = false;
                violations.push("no live primary HAgent at quiesce".to_owned());
            }
            Some(_) => {}
        }
        if strict_versions {
            let stale: Vec<(u64, u64)> = versions
                .iter()
                .filter(|&&(_, _, v)| v != max)
                .map(|&(id, _, v)| (id, v))
                .collect();
            if !stale.is_empty() {
                versions_converged = false;
                violations.push(format!(
                    "{} live hash-function copies below version {max}: {:?}",
                    stale.len(),
                    &stale[..stale.len().min(8)]
                ));
            }
        }
    }

    // -- Single ownership ------------------------------------------------
    // Live trackers' record-count gauges (refreshed on their periodic
    // check timer) must not exceed the live population: an agent counted
    // twice means two IAgents both believe they own it.
    let live_agents = roster.iter().filter(|&&id| platform.is_live(id)).count();
    let records_held: u64 = scheme
        .registry()
        .snapshot()
        .trackers
        .iter()
        .filter(|&&(id, _)| platform.is_live(AgentId::new(id)))
        .map(|(_, t)| t.records_held as u64)
        .sum();
    if scheme.name() == "hashed" && records_held > live_agents as u64 {
        violations.push(format!(
            "live IAgents hold {records_held} records for {live_agents} live agents \
             (duplicate ownership)"
        ));
    }

    // -- Mail accounting -------------------------------------------------
    if scenario.faults.is_empty() && scenario.loss == 0.0 && report.mail_lost > 0 {
        violations.push(format!(
            "{} guaranteed-delivery messages lost in a fault-free, loss-free run",
            report.mail_lost
        ));
    }

    // -- Recovery convergence --------------------------------------------
    // Recovery is bounded by its timeout, so by the time the audit runs
    // every recovery that started must have declared RecoveryEnd. One that
    // has not is wedged in degraded mode, answering stale indefinitely.
    let stats = scheme.stats();
    if stats.recoveries_started > stats.recoveries_completed {
        violations.push(format!(
            "{} of {} tracker recoveries still unfinished at quiesce",
            stats.recoveries_started - stats.recoveries_completed,
            stats.recoveries_started
        ));
    }

    // -- Freshness bounds ------------------------------------------------
    // The client audits every answer against the bound its locate
    // declared; a single violation means a tracker served a record older
    // than it promised.
    if stats.bound_violations > 0 {
        violations.push(format!(
            "{} answers declared an age above their locate's freshness bound",
            stats.bound_violations
        ));
    }
    if let Some(bound) = scenario.freshness.bound_ms() {
        if report.max_answer_age_ms > bound {
            violations.push(format!(
                "an answer declared age {} ms against a {} ms staleness budget",
                report.max_answer_age_ms, bound
            ));
        }
    }
    // With every recovery converged and the faults healed, replica sets
    // must have reconverged: the post-quiesce probes (issued without a
    // freshness bound) must come from authoritative records, never from a
    // stale replica or recovery copy.
    if stats.recoveries_started == stats.recoveries_completed && probe_stale > 0 {
        violations.push(format!(
            "{probe_stale} post-quiesce probes answered stale after every recovery converged \
             (replica set failed to reconverge)"
        ));
    }

    scheme.set_adaptation_frozen(false);

    InvariantReport {
        probed,
        located,
        unlocatable,
        version_copies: versions.len(),
        versions_converged,
        records_held,
        live_agents,
        mail_lost: report.mail_lost,
        recoveries_started: stats.recoveries_started,
        recoveries_completed: stats.recoveries_completed,
        stale_answers: stats.stale_answers,
        bound_violations: stats.bound_violations,
        probe_stale,
        violations,
    }
}
