//! The centralized baseline: the comparison scheme of the paper's
//! evaluation.
//!
//! "In the centralized scheme, there is a single central agent that is
//! responsible for maintaining the current location of all mobile agents
//! in the system. This central agent performs the same functions as the
//! IAgents in our system." (paper §5.)
//!
//! Every register, update and locate in the whole system funnels through
//! one agent — one FIFO service station — which is why its location time
//! grows with both the agent population and the mobility rate.

use std::collections::HashMap;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::MetricsRegistry;

use crate::config::LocationConfig;
use crate::mailbox::Mailbox;
use crate::retry::{on_register_ack, on_update_bounce, Attempt, LocateTracker};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SchemeStats, SharedSchemeStats,
};
use crate::wire::{send_traced, trace_recv, Freshness, Wire};

/// Behaviour of the single central tracker.
#[derive(Debug, Default)]
pub struct CentralBehavior {
    records: HashMap<AgentId, NodeId>,
    mailbox: Mailbox,
    shared: SharedSchemeStats,
    requests_seen: u64,
}

impl CentralBehavior {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reports mail losses and per-tracker metrics into the scheme's
    /// shared statistics instead of a detached default.
    #[must_use]
    pub fn with_shared(mut self, shared: SharedSchemeStats) -> Self {
        self.shared = shared;
        self
    }

    /// Wipes the tracker's soft state after a crash that lost it: every
    /// record and all buffered mail, with the mail loss accounted in the
    /// metrics and the event trace. Records repair themselves as agents
    /// keep sending movement updates.
    pub(crate) fn drop_soft_state(&mut self, ctx: &mut AgentCtx<'_>) {
        self.mailbox.drop_all(ctx, self.shared.registry());
        self.records.clear();
    }

    fn flush_mail_for(&mut self, ctx: &mut AgentCtx<'_>, agent: AgentId) {
        if self.mailbox.is_empty() {
            return;
        }
        if let Some(&node) = self.records.get(&agent) {
            self.mailbox.flush(ctx, self.shared.registry(), agent, node);
        }
    }
}

impl Agent for CentralBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            self.drop_soft_state(ctx);
        }
        // The crash killed the expiry timer chain; re-arm it.
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: agentrack_platform::TimerId) {
        let me = ctx.self_id().raw();
        self.mailbox.drop_expired(ctx, self.shared.registry());
        let requests = self.requests_seen;
        let records_held = self.records.len();
        let mailbox_occupancy = self.mailbox.len();
        self.shared.registry().update_tracker(me, |t| {
            t.requests = requests;
            t.records_held = records_held;
            t.observe_mailbox(mailbox_occupancy);
        });
        ctx.set_timer(agentrack_sim::SimDuration::from_millis(500));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        _node: NodeId,
        payload: &Payload,
    ) {
        // A MailDrop bounced off a recipient that just moved: hold it for
        // the next update (the delivery guarantee).
        if let Some(Wire::MailDrop { from, data }) = Wire::from_payload(payload) {
            self.records.remove(&to);
            self.mailbox
                .buffer(ctx, self.shared.registry(), to, from, data);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::from_payload(payload) else {
            return;
        };
        trace_recv(ctx, &msg);
        self.requests_seen += 1;
        match msg {
            Wire::Register { agent, node } => {
                self.records.insert(agent, node);
                ctx.send(from, node, Wire::RegisterAck { agent }.payload());
                self.flush_mail_for(ctx, agent);
            }
            Wire::Update { agent, node } => {
                self.records.insert(agent, node);
                self.flush_mail_for(ctx, agent);
            }
            Wire::DeliverVia {
                target,
                from: origin,
                data,
                ..
            } => match self.records.get(&target) {
                Some(&node) => ctx.send(
                    target,
                    node,
                    Wire::MailDrop { from: origin, data }.payload(),
                ),
                None => self
                    .mailbox
                    .buffer(ctx, self.shared.registry(), target, origin, data),
            },
            Wire::Deregister { agent, .. } => {
                self.records.remove(&agent);
            }
            Wire::Locate {
                target,
                token,
                reply_node,
                corr,
                ..
            } => {
                // The central record is authoritative, so every answer is
                // age 0 and satisfies any freshness bound.
                let answer = match self.records.get(&target) {
                    Some(&node) => Wire::Located {
                        target,
                        node,
                        stale: false,
                        age_ms: 0,
                        token,
                        corr,
                    },
                    None => Wire::NotFound {
                        target,
                        token,
                        corr,
                    },
                };
                send_traced(ctx, from, reply_node, &answer);
            }
            _ => {}
        }
    }
}

/// The centralized location scheme: one tracker on one node.
#[derive(Debug)]
pub struct CentralizedScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    central: Option<(AgentId, NodeId)>,
}

impl CentralizedScheme {
    /// Creates the scheme; the tracker is placed on node 0 at bootstrap.
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        CentralizedScheme {
            config,
            shared: SharedSchemeStats::new(),
            central: None,
        }
    }

    /// The central tracker's identity, after bootstrap.
    #[must_use]
    pub fn central(&self) -> Option<(AgentId, NodeId)> {
        self.central
    }
}

impl LocationScheme for CentralizedScheme {
    fn name(&self) -> &'static str {
        "centralized"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(self.central.is_none(), "bootstrap called twice");
        let node = NodeId::new(0);
        let id = platform.spawn_agent(
            Box::new(CentralBehavior::new().with_shared(self.shared.clone())),
            node,
        );
        self.central = Some((id, node));
        self.shared.set_trackers(1);
    }

    fn client_factory(&self) -> ClientFactory {
        let central = self.central.expect("client_factory before bootstrap");
        let config = self.config.clone();
        let registry = self.shared.registry().clone();
        std::sync::Arc::new(move || {
            Box::new(
                CentralizedClient::new(config.clone(), central).with_registry(registry.clone()),
            )
        })
    }

    fn stats(&self) -> SchemeStats {
        self.shared.snapshot()
    }

    fn registry(&self) -> MetricsRegistry {
        self.shared.registry().clone()
    }
}

/// Client-side state machine of the centralized scheme.
#[derive(Debug)]
pub struct CentralizedClient {
    config: LocationConfig,
    central: (AgentId, NodeId),
    registered: bool,
    locates: LocateTracker,
}

impl CentralizedClient {
    /// Creates a client of the given central tracker.
    #[must_use]
    pub fn new(config: LocationConfig, central: (AgentId, NodeId)) -> Self {
        CentralizedClient {
            locates: LocateTracker::new(&config, MetricsRegistry::new()),
            config,
            central,
            registered: false,
        }
    }

    /// Reports locate latencies into the given registry (the scheme's
    /// shared one) instead of a detached default.
    #[must_use]
    pub fn with_registry(mut self, registry: MetricsRegistry) -> Self {
        self.locates = LocateTracker::new(&self.config, registry);
        self
    }

    fn send_central(&self, ctx: &mut AgentCtx<'_>, msg: &Wire) {
        ctx.send(self.central.0, self.central.1, msg.payload());
    }
}

/// Sends one locate attempt to the central tracker.
fn send_locate(
    central: (AgentId, NodeId),
) -> impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)> {
    move |ctx, attempt| {
        send_traced(ctx, central.0, central.1, &attempt.locate(ctx));
        Some(central)
    }
}

impl DirectoryClient for CentralizedClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        self.send_central(
            ctx,
            &Wire::Register {
                agent: me,
                node: here,
            },
        );
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        if self.registered {
            self.send_central(
                ctx,
                &Wire::Update {
                    agent: me,
                    node: here,
                },
            );
        } else {
            self.register(ctx);
        }
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        self.send_central(ctx, &Wire::Deregister { agent: me, ttl: 0 });
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        self.locates
            .start(ctx, token, target, freshness, send_locate(self.central));
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        _from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        let Some(msg) = Wire::from_payload(payload) else {
            return ClientEvent::NotMine;
        };
        trace_recv(ctx, &msg);
        match msg {
            Wire::RegisterAck { agent } => on_register_ack(ctx, agent, &mut self.registered),
            located @ Wire::Located { .. } => self.locates.on_located(ctx, located),
            Wire::MailDrop { from, data } => ClientEvent::Mail { from, data },
            Wire::NotFound { token, .. } => {
                self.locates
                    .on_negative(ctx, token, send_locate(self.central))
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
        on_update_bounce(payload, || self.moved(ctx))
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        self.locates.on_timer(ctx, timer, send_locate(self.central))
    }

    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        let me = ctx.self_id();
        self.send_central(
            ctx,
            &Wire::DeliverVia {
                target,
                from: me,
                data,
                ttl: 1,
            },
        );
        true
    }
}
