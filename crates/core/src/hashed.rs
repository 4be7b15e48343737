//! The paper's mechanism assembled: scheme bootstrap and the client-side
//! state machine.
//!
//! Client flows (paper §2.3):
//!
//! * **Registration** — on creation, an agent asks the LHAgent *at its own
//!   node* which IAgent is responsible for it, then registers with that
//!   IAgent and caches it.
//! * **Movement** — after each move the agent informs its cached IAgent;
//!   a `NotResponsible` answer (or a bounce off a retired IAgent) makes it
//!   re-resolve freshly through the local LHAgent and resend.
//! * **Locating** — resolve the target through the local LHAgent, then
//!   query the returned IAgent; `NotResponsible` / `NotFound` / bounces
//!   trigger a fresh resolve and a retry, up to the configured budget.

use std::sync::Arc;

use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::{CorrId, MetricsRegistry};

use crate::config::LocationConfig;
use crate::geo::ReachabilityMap;
use crate::hagent::{HAgentBehavior, StandbyHAgentBehavior};
use crate::iagent::IAgentBehavior;
use crate::lhagent::LHAgentBehavior;
use crate::mailbox::MAIL_MAX_HOPS;
use crate::retry::{Attempt, LocateTracker};
use crate::scheme::{
    ClientEvent, ClientFactory, CopyRole, DirectoryClient, LocationScheme, SchemeStats,
    SharedSchemeStats,
};
use crate::wire::{send_traced, trace_recv, Freshness, HashFunction, Wire};

/// The hash-based location scheme: one HAgent, one initial IAgent, one
/// LHAgent per node.
///
/// # Examples
///
/// ```
/// use agentrack_core::{HashedScheme, LocationConfig, LocationScheme};
/// use agentrack_platform::{PlatformConfig, SimPlatform};
/// use agentrack_sim::{DurationDist, SimDuration, Topology};
///
/// let topo = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(300)));
/// let mut platform = SimPlatform::new(topo, PlatformConfig::default());
/// let mut scheme = HashedScheme::new(LocationConfig::default());
/// scheme.bootstrap(&mut platform);
/// // The scheme's agents run periodic self-checks, so drive the platform
/// // by time, not to idleness.
/// platform.run_for(SimDuration::from_millis(100));
/// let client = scheme.make_client();
/// # let _ = client;
/// ```
#[derive(Debug)]
pub struct HashedScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    lhagents: Arc<Vec<AgentId>>,
    bootstrapped: bool,
    standby: bool,
    hagent: Option<(AgentId, NodeId)>,
    standby_agent: Option<(AgentId, NodeId)>,
}

impl HashedScheme {
    /// Creates the scheme with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`LocationConfig::validate`]).
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        config.validate().expect("invalid location configuration");
        HashedScheme {
            config,
            shared: SharedSchemeStats::new(),
            lhagents: Arc::new(Vec::new()),
            bootstrapped: false,
            standby: false,
            hagent: None,
            standby_agent: None,
        }
    }

    /// Deploys a hot-standby HAgent replica at bootstrap (the paper's §7
    /// fault-tolerance direction): the primary pushes every version to it,
    /// and LHAgents fail over to it when the primary is unreachable.
    ///
    /// The standby is placed on node 1; on a single-node topology it
    /// necessarily shares the primary's node and only protects against the
    /// primary *agent* failing, not the node.
    #[must_use]
    pub fn with_standby(mut self) -> Self {
        self.standby = true;
        self
    }

    /// The primary HAgent's identity, after bootstrap (for fault
    /// injection in tests).
    #[must_use]
    pub fn hagent(&self) -> Option<(AgentId, NodeId)> {
        self.hagent
    }

    /// The standby HAgent's identity, if deployed.
    #[must_use]
    pub fn standby_hagent(&self) -> Option<(AgentId, NodeId)> {
        self.standby_agent
    }

    /// The per-node LHAgent directory (index = node), available after
    /// bootstrap.
    #[must_use]
    pub fn lhagents(&self) -> Arc<Vec<AgentId>> {
        Arc::clone(&self.lhagents)
    }
}

impl LocationScheme for HashedScheme {
    fn name(&self) -> &'static str {
        "hashed"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(!self.bootstrapped, "bootstrap called twice");
        let node_count = platform.node_count();
        let home = NodeId::new(0);

        // Agent ids are assigned sequentially, so the whole cast can be
        // named before anything is spawned — which lets every behaviour be
        // constructed with full knowledge of the others.
        let base = platform.next_agent_id();
        let iagent0 = AgentId::new(base);
        let hagent = AgentId::new(base + 1);
        let standby_offset = u64::from(self.standby);
        let standby = self
            .standby
            .then(|| (AgentId::new(base + 2), NodeId::new(1 % node_count)));
        let lhagents: Vec<AgentId> = (0..node_count)
            .map(|i| AgentId::new(base + 2 + standby_offset + u64::from(i)))
            .collect();

        let hf = HashFunction::initial(iagent0, home);

        let spawned = platform.spawn_agent(
            Box::new(
                IAgentBehavior::initial(
                    self.config.clone(),
                    hagent,
                    home,
                    hf.clone(),
                    self.shared.clone(),
                )
                .with_standby(standby),
            ),
            home,
        );
        assert_eq!(spawned, iagent0, "agent id assignment drifted");

        let lh_directory: Vec<(AgentId, NodeId)> = lhagents
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, NodeId::new(i as u32)))
            .collect();
        let mut hagent_behavior = HAgentBehavior::new(
            self.config.clone(),
            hf.clone(),
            lh_directory,
            node_count,
            self.shared.clone(),
        );
        if let Some((standby_id, standby_node)) = standby {
            hagent_behavior = hagent_behavior.with_standby(standby_id, standby_node);
        }
        let spawned = platform.spawn_agent(Box::new(hagent_behavior), home);
        assert_eq!(spawned, hagent, "agent id assignment drifted");

        if let Some((standby_id, standby_node)) = standby {
            let spawned = platform.spawn_agent(
                Box::new(StandbyHAgentBehavior::new(hf.clone(), self.shared.clone())),
                standby_node,
            );
            assert_eq!(spawned, standby_id, "agent id assignment drifted");
        }

        for (i, &expected) in lhagents.iter().enumerate() {
            let mut lh = LHAgentBehavior::new(hf.clone(), hagent, home, self.shared.clone())
                .with_audit(self.config.version_audit)
                .with_timing(&self.config);
            if let Some((standby_id, standby_node)) = standby {
                lh = lh.with_standby(standby_id, standby_node);
            }
            let spawned = platform.spawn_agent(Box::new(lh), NodeId::new(i as u32));
            assert_eq!(spawned, expected, "agent id assignment drifted");
        }

        self.hagent = Some((hagent, home));
        self.standby_agent = standby;
        self.lhagents = Arc::new(lhagents);
        self.bootstrapped = true;
    }

    fn client_factory(&self) -> ClientFactory {
        assert!(self.bootstrapped, "client_factory before bootstrap");
        let config = self.config.clone();
        let lhagents = self.lhagents();
        let registry = self.shared.registry().clone();
        let shared = self.shared.clone();
        Arc::new(move || {
            Box::new(
                HashedClient::new(config.clone(), Arc::clone(&lhagents))
                    .with_registry(registry.clone())
                    .with_shared(shared.clone()),
            )
        })
    }

    fn stats(&self) -> SchemeStats {
        self.shared.snapshot()
    }

    fn registry(&self) -> MetricsRegistry {
        self.shared.registry().clone()
    }

    fn hash_versions(&self) -> Vec<(u64, CopyRole, u64)> {
        self.shared.versions()
    }

    fn set_adaptation_frozen(&self, frozen: bool) {
        self.shared.set_adaptation_frozen(frozen);
    }
}

/// Client-side state machine of the hashed scheme (one per mobile agent).
#[derive(Debug)]
pub struct HashedClient {
    config: LocationConfig,
    /// LHAgent at each node (index = node id).
    lhagents: Arc<Vec<AgentId>>,
    /// Cached responsible IAgent for the *owning* agent.
    my_iagent: Option<(AgentId, NodeId)>,
    registered: bool,
    /// Watchdog for the registration handshake: any leg of
    /// resolve → register → ack can be lost to the network, and an
    /// unregistered agent is unlocatable, so the handshake restarts until
    /// the ack lands.
    register_watchdog: Option<TimerId>,
    locates: LocateTracker,
    /// Scheme-wide counters (hedges, bound violations) shared with the
    /// behaviours; a detached default when the client is built directly.
    shared: SharedSchemeStats,
    /// Per-destination reachability, fed by locate outcomes; drives
    /// hedging of freshness-bounded locates.
    health: ReachabilityMap,
}

impl HashedClient {
    /// Creates a client talking to the given per-node LHAgents.
    #[must_use]
    pub fn new(config: LocationConfig, lhagents: Arc<Vec<AgentId>>) -> Self {
        let health = ReachabilityMap::new(config.geo_degrade_after, config.geo_heal_after);
        HashedClient {
            locates: LocateTracker::new(&config, MetricsRegistry::new()),
            config,
            lhagents,
            my_iagent: None,
            registered: false,
            register_watchdog: None,
            shared: SharedSchemeStats::new(),
            health,
        }
    }

    /// Reports locate latencies into the given registry (the scheme's
    /// shared one) instead of a detached default.
    #[must_use]
    pub fn with_registry(mut self, registry: MetricsRegistry) -> Self {
        self.locates = LocateTracker::new(&self.config, registry);
        self
    }

    /// Reports scheme-wide counters into the given shared stats (the
    /// scheme's) instead of a detached default.
    #[must_use]
    pub fn with_shared(mut self, shared: SharedSchemeStats) -> Self {
        self.shared = shared;
        self
    }

    fn send_local_resolve(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        send_traced(ctx, self.lhagents[ctx.node().index()], ctx.node(), msg);
    }

    fn send_own_update(&self, ctx: &mut AgentCtx<'_>) {
        if let Some((iagent, node)) = self.my_iagent {
            let me = ctx.self_id();
            let here = ctx.node();
            ctx.send(
                iagent,
                node,
                Wire::Update {
                    agent: me,
                    node: here,
                }
                .payload(),
            );
        }
    }

    fn refresh_own_iagent(&self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::ResolveFresh {
                target: me,
                token: None,
                corr: None,
            },
        );
    }

    /// Phase 2 of a locate: the local LHAgent named the responsible
    /// IAgent, so query it. A bounded read toward a destination that has
    /// been timing out is hedged: the same query goes to the tracker's
    /// buddy replica in parallel, so the answer can come from this side
    /// of a severed link.
    fn query_tracker(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        tracker: (AgentId, NodeId),
        buddy: Option<(AgentId, NodeId)>,
        corr: Option<CorrId>,
    ) {
        let Some(target) = self.locates.target(token) else {
            return;
        };
        let (iagent, node) = tracker;
        self.locates.note_tracker(token, iagent.raw(), node);
        let freshness = self.locates.freshness(token).unwrap_or_default();
        let locate = Wire::Locate {
            target,
            token,
            reply_node: ctx.node(),
            freshness,
            corr: corr.or_else(|| Some(CorrId::new(ctx.self_id().raw(), token))),
        };
        send_traced(ctx, iagent, node, &locate);
        if matches!(freshness, Freshness::BoundedMs(_)) && self.health.should_hedge(node) {
            if let Some((b, b_node)) = buddy.filter(|&(b, _)| b != iagent) {
                self.shared.update(|s| s.hedged_locates += 1);
                send_traced(ctx, b, b_node, &locate);
            }
        }
    }

    /// A negative answer (`NotFound`, `NotResponsible`) for `token` from
    /// `from`.
    fn on_negative(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, token: u64) -> ClientEvent {
        let noted = self.locates.noted_tracker(token);
        match noted {
            // A negative from anyone but the op's noted tracker is a
            // hedged buddy (or a stale straggler) saying "I don't know" —
            // not authoritative, so it must not burn the primary
            // attempt's retry budget.
            Some((tracker, _)) if tracker != from.raw() => return ClientEvent::Consumed,
            // A negative answer still proves its sender's node reachable.
            Some((_, node)) => self.health.on_success(node),
            None => {}
        }
        let event = self
            .locates
            .on_negative(ctx, token, resolve_locate(&self.lhagents));
        // A final negative is one more reachability signal for the
        // destination the locate gave up on.
        if let (ClientEvent::Failed { .. }, Some((_, node))) = (&event, noted) {
            self.health.on_success(node);
        }
        event
    }
}

/// Phase 1 of one locate attempt: resolve the target through the local
/// LHAgent, freshly on retries (the previous answer may have come from a
/// stale hash-function copy). The tracker is noted once the LHAgent
/// answers.
fn resolve_locate(
    lhagents: &[AgentId],
) -> impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)> + '_ {
    move |ctx, attempt| {
        let (target, token, corr) = (attempt.target, Some(attempt.token), attempt.corr(ctx));
        let msg = if attempt.number > 1 {
            Wire::ResolveFresh {
                target,
                token,
                corr,
            }
        } else {
            Wire::Resolve {
                target,
                token,
                corr,
            }
        };
        send_traced(ctx, lhagents[ctx.node().index()], ctx.node(), &msg);
        None
    }
}

impl DirectoryClient for HashedClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::Resolve {
                target: me,
                token: None,
                corr: None,
            },
        );
        self.register_watchdog = Some(ctx.set_timer(self.config.locate_retry_timeout));
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.registered {
            self.send_own_update(ctx);
        } else {
            // Moved before registration completed: restart it from the new
            // node's LHAgent.
            self.register(ctx);
        }
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        // Routed via the local LHAgent, not the cached tracker: the dying
        // agent disposes itself right after this send and can never see a
        // bounce, so aiming at a tracker that has since merged away would
        // leak the record forever. The LHAgent survives to retry.
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::Deregister {
                agent: me,
                ttl: MAIL_MAX_HOPS,
            },
        );
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        let send = resolve_locate(&self.lhagents);
        self.locates.start(ctx, token, target, freshness, send);
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::from_payload(payload) else {
            return ClientEvent::NotMine;
        };
        trace_recv(ctx, &msg);
        match msg {
            // Phase-1 answer for one of our locates.
            Wire::Resolved {
                iagent,
                node,
                buddy,
                token: Some(token),
                corr,
                ..
            } => {
                self.query_tracker(ctx, token, (iagent, node), buddy, corr);
                ClientEvent::Consumed
            }
            // Phase-1 answer about ourselves (registration or own-update
            // refresh).
            Wire::Resolved {
                target,
                iagent,
                node,
                token: None,
                ..
            } => {
                if target != ctx.self_id() {
                    return ClientEvent::Consumed;
                }
                self.my_iagent = Some((iagent, node));
                if self.registered {
                    self.send_own_update(ctx);
                } else {
                    let me = ctx.self_id();
                    let here = ctx.node();
                    ctx.send(
                        iagent,
                        node,
                        Wire::Register {
                            agent: me,
                            node: here,
                        }
                        .payload(),
                    );
                }
                ClientEvent::Consumed
            }
            Wire::RegisterAck { agent } if agent == ctx.self_id() => {
                let was_new = !self.registered;
                self.registered = true;
                self.register_watchdog = None;
                if was_new {
                    ClientEvent::Registered
                } else {
                    ClientEvent::Consumed
                }
            }
            located @ Wire::Located { token, age_ms, .. } => {
                let declared = self.locates.freshness(token);
                let noted = self.locates.noted_tracker(token);
                let event = self.locates.on_located(ctx, located);
                if let ClientEvent::Located { .. } = event {
                    // An answer from the tracker itself is a reachability
                    // signal for its node (a hedged buddy answering for
                    // it is not).
                    if let Some((_, node)) = noted.filter(|&(t, _)| t == from.raw()) {
                        self.health.on_success(node);
                    }
                    // No answer may exceed the bound its locate declared;
                    // the invariant checker requires this count to stay 0.
                    if declared.is_some_and(|f| !f.admits(age_ms)) {
                        self.shared.update(|s| s.bound_violations += 1);
                    }
                }
                event
            }
            Wire::SolicitReregister => {
                // A recovering tracker resurrected our record from a
                // replica and wants it reconfirmed from where we really
                // are.
                if self.registered {
                    if self.my_iagent.is_some() {
                        self.send_own_update(ctx);
                    } else {
                        self.refresh_own_iagent(ctx);
                    }
                } else {
                    self.register(ctx);
                }
                ClientEvent::Consumed
            }
            Wire::MailDrop { from, data } => ClientEvent::Mail { from, data },
            Wire::NotFound { token, .. }
            | Wire::NotResponsible {
                token: Some(token), ..
            } => self.on_negative(ctx, from, token),
            Wire::NotResponsible {
                about, token: None, ..
            } => {
                // Our own registration/update hit a stale IAgent.
                if about == ctx.self_id() {
                    self.refresh_own_iagent(ctx);
                }
                ClientEvent::Consumed
            }
            _ => ClientEvent::NotMine,
        }
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::from_payload(payload) else {
            return ClientEvent::NotMine;
        };
        match msg {
            // Our cached IAgent retired (merge) between updates.
            Wire::Update { .. } | Wire::Register { .. } => {
                self.refresh_own_iagent(ctx);
                ClientEvent::Consumed
            }
            // The IAgent we queried is gone or mid-migration; retry after a
            // short backoff (an immediate retry would burn the budget
            // inside the outage window).
            Wire::Locate { token, .. } => {
                self.locates
                    .arm_timer(ctx, self.config.bounce_retry_delay, token);
                ClientEvent::Consumed
            }
            Wire::Resolve { .. } | Wire::ResolveFresh { .. } => {
                // LHAgents are static; only injected faults get here. The
                // retry timer recovers the operation.
                ClientEvent::Consumed
            }
            _ => ClientEvent::NotMine,
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        if self.register_watchdog == Some(timer) {
            self.register_watchdog = None;
            if !self.registered {
                // Some leg of the handshake was lost: start over.
                self.register(ctx);
            }
            return ClientEvent::Consumed;
        }
        // A live timer firing means the attempt got no answer: one
        // unreachability signal against the tracker it was sent to.
        if let Some(node) = self.locates.expiring(timer) {
            self.health.on_timeout(node);
        }
        let send = resolve_locate(&self.lhagents);
        self.locates.on_timer(ctx, timer, send)
    }

    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        let me = ctx.self_id();
        self.send_local_resolve(
            ctx,
            &Wire::DeliverVia {
                target,
                from: me,
                data,
                ttl: MAIL_MAX_HOPS,
            },
        );
        true
    }
}
