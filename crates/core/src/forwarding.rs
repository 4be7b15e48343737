//! The forwarding-pointers baseline: a Voyager-style scheme.
//!
//! Voyager (paper §6) locates agents by following forwarding pointers:
//! "these nodes will forward the request until the agent is reached". We
//! model one forwarder agent per node. An agent arriving at a node tells
//! the local forwarder "I am here" and deposits a pointer at the node it
//! left; a locate starts at the target's birth node (known from its name)
//! and walks the pointer chain hop by hop.
//!
//! The chain from the birth node grows with the number of moves the target
//! has made since it was last "short-cut", which is what makes this scheme
//! degrade with mobility rate — the contrast the extended baseline panel
//! (experiment E7) shows against the hash-based mechanism.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::MetricsRegistry;

use crate::config::LocationConfig;
use crate::retry::{on_register_ack, on_update_bounce, Attempt, LocateTracker};
use crate::scheme::{
    ClientEvent, ClientFactory, DirectoryClient, LocationScheme, SchemeStats, SharedSchemeStats,
};
use crate::wire::{send_traced, trace_recv, trace_send, Freshness, Wire};

/// Longest pointer chain a locate will follow before giving up the
/// attempt (the client retries from the birth node).
const MAX_CHAIN_HOPS: u32 = 64;

/// What a forwarder knows about an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pointer {
    /// The agent is resident at this node.
    Here,
    /// The agent left this node for the given one.
    MovedTo(NodeId),
}

/// Behaviour of a per-node forwarder.
#[derive(Debug)]
pub struct ForwarderBehavior {
    /// Forwarder directory (index = node), for chain forwarding.
    forwarders: Arc<Vec<AgentId>>,
    pointers: HashMap<AgentId, Pointer>,
    shared: SharedSchemeStats,
}

impl ForwarderBehavior {
    /// Creates an empty forwarder knowing its peers.
    #[must_use]
    pub fn new(forwarders: Arc<Vec<AgentId>>, shared: SharedSchemeStats) -> Self {
        ForwarderBehavior {
            forwarders,
            pointers: HashMap::new(),
            shared,
        }
    }
}

impl Agent for ForwarderBehavior {
    fn on_restart(&mut self, _ctx: &mut AgentCtx<'_>, lost_soft_state: bool) {
        if lost_soft_state {
            // Forwarding keeps no authoritative copy anywhere: a pointer
            // lost here is lost for good. Agents that re-announce from
            // this node reappear, but chains that *passed through* this
            // forwarder are severed permanently — the scheme's known
            // fault-tolerance gap.
            self.pointers.clear();
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let Some(msg) = Wire::from_payload(payload) else {
            return;
        };
        if let Wire::ChainLocate { .. } = msg {
            trace_recv(ctx, &msg);
        }
        match msg {
            // "I am here": an agent arrived at this node.
            Wire::Register { agent, node } | Wire::Update { agent, node } => {
                debug_assert_eq!(node, ctx.node());
                self.pointers.insert(agent, Pointer::Here);
                ctx.send(from, node, Wire::RegisterAck { agent }.payload());
            }
            Wire::LeavePointer { agent, to } => {
                self.pointers.insert(agent, Pointer::MovedTo(to));
            }
            Wire::Deregister { agent, .. } => {
                self.pointers.remove(&agent);
            }
            Wire::ChainLocate {
                target,
                token,
                reply_to,
                reply_node,
                hops,
                corr,
            } => {
                // A hop goes on to the next forwarder; the walk's end
                // answers the querier. The forwarder stamps each send's
                // trace event with the node the message goes to.
                let (to, node, msg) = match self.pointers.get(&target) {
                    Some(Pointer::Here) => (
                        reply_to,
                        reply_node,
                        Wire::Located {
                            target,
                            node: ctx.node(),
                            stale: false,
                            age_ms: 0,
                            token,
                            corr,
                        },
                    ),
                    Some(&Pointer::MovedTo(next)) if hops < MAX_CHAIN_HOPS => {
                        self.shared.update(|s| s.chain_hops += 1);
                        (
                            self.forwarders[next.index()],
                            next,
                            Wire::ChainLocate {
                                target,
                                token,
                                reply_to,
                                reply_node,
                                hops: hops + 1,
                                corr,
                            },
                        )
                    }
                    _ => (
                        reply_to,
                        reply_node,
                        Wire::NotFound {
                            target,
                            token,
                            corr,
                        },
                    ),
                };
                trace_send(ctx, to, node, &msg);
                ctx.send(to, node, msg.payload());
            }
            _ => {}
        }
    }
}

/// Birth-node table standing in for name-embedded origin information.
type NameTable = Arc<RwLock<HashMap<AgentId, NodeId>>>;

/// The forwarding-pointers location scheme: one forwarder per node.
#[derive(Debug)]
pub struct ForwardingScheme {
    config: LocationConfig,
    shared: SharedSchemeStats,
    forwarders: Arc<Vec<AgentId>>,
    names: NameTable,
    bootstrapped: bool,
}

impl ForwardingScheme {
    /// Creates the scheme.
    #[must_use]
    pub fn new(config: LocationConfig) -> Self {
        ForwardingScheme {
            config,
            shared: SharedSchemeStats::new(),
            forwarders: Arc::new(Vec::new()),
            names: Arc::default(),
            bootstrapped: false,
        }
    }
}

impl LocationScheme for ForwardingScheme {
    fn name(&self) -> &'static str {
        "forwarding"
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        assert!(!self.bootstrapped, "bootstrap called twice");
        // Forwarders need each other's ids: pre-name them (sequential id
        // assignment), then spawn.
        let base = platform.next_agent_id();
        let node_count = platform.node_count();
        let ids: Vec<AgentId> = (0..node_count)
            .map(|i| AgentId::new(base + u64::from(i)))
            .collect();
        let shared_ids = Arc::new(ids.clone());
        for (i, &expected) in ids.iter().enumerate() {
            let spawned = platform.spawn_agent(
                Box::new(ForwarderBehavior::new(
                    Arc::clone(&shared_ids),
                    self.shared.clone(),
                )),
                NodeId::new(i as u32),
            );
            assert_eq!(spawned, expected, "agent id assignment drifted");
        }
        self.shared.set_trackers(node_count as u64);
        self.forwarders = shared_ids;
        self.bootstrapped = true;
    }

    fn client_factory(&self) -> ClientFactory {
        assert!(self.bootstrapped, "client_factory before bootstrap");
        let config = self.config.clone();
        let forwarders = Arc::clone(&self.forwarders);
        let names = Arc::clone(&self.names);
        let registry = self.shared.registry().clone();
        Arc::new(move || {
            Box::new(
                ForwardingClient::new(config.clone(), Arc::clone(&forwarders), Arc::clone(&names))
                    .with_registry(registry.clone()),
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

/// Client-side state machine of the forwarding scheme.
#[derive(Debug)]
pub struct ForwardingClient {
    config: LocationConfig,
    forwarders: Arc<Vec<AgentId>>,
    names: NameTable,
    birth: Option<NodeId>,
    prev_node: Option<NodeId>,
    registered: bool,
    locates: LocateTracker,
}

impl ForwardingClient {
    /// Creates a client over the per-node forwarders and the shared birth
    /// table.
    #[must_use]
    pub fn new(config: LocationConfig, forwarders: Arc<Vec<AgentId>>, names: NameTable) -> Self {
        ForwardingClient {
            locates: LocateTracker::new(&config, MetricsRegistry::new()),
            config,
            forwarders,
            names,
            birth: None,
            prev_node: None,
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

    fn forwarder_at(&self, node: NodeId) -> (AgentId, NodeId) {
        (self.forwarders[node.index()], node)
    }

    fn announce_here(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        let (fw, node) = self.forwarder_at(here);
        let msg = if self.registered {
            Wire::Update {
                agent: me,
                node: here,
            }
        } else {
            Wire::Register {
                agent: me,
                node: here,
            }
        };
        ctx.send(fw, node, msg.payload());
    }
}

/// Sends one locate attempt as a chain walk from the target's birth
/// node's forwarder. An unregistered target has no birth entry yet:
/// nothing is sent, and the attempt's timeout tries again later.
fn send_locate<'a>(
    names: &'a NameTable,
    forwarders: &'a [AgentId],
) -> impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)> + 'a {
    move |ctx, attempt| {
        let birth = names.read().get(&attempt.target).copied()?;
        let fw = forwarders[birth.index()];
        let msg = Wire::ChainLocate {
            target: attempt.target,
            token: attempt.token,
            reply_to: ctx.self_id(),
            reply_node: ctx.node(),
            hops: 0,
            corr: attempt.corr(ctx),
        };
        send_traced(ctx, fw, birth, &msg);
        Some((fw, birth))
    }
}

impl DirectoryClient for ForwardingClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.self_id();
        let here = ctx.node();
        if self.birth.is_none() {
            self.birth = Some(here);
            self.prev_node = Some(here);
            self.names.write().insert(me, here);
        }
        self.announce_here(ctx);
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.registered {
            self.register(ctx);
            return;
        }
        let me = ctx.self_id();
        let here = ctx.node();
        // Deposit the pointer at the node we left, then announce here.
        if let Some(prev) = self.prev_node.replace(here) {
            if prev != here {
                let (fw, node) = self.forwarder_at(prev);
                ctx.send(
                    fw,
                    node,
                    Wire::LeavePointer {
                        agent: me,
                        to: here,
                    }
                    .payload(),
                );
            }
        }
        self.announce_here(ctx);
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        // Drop the "Here" pointer at the current node and the birth entry;
        // stale MovedTo pointers along the old trail expire into NotFound.
        let me = ctx.self_id();
        let here = ctx.node();
        let (fw, node) = self.forwarder_at(here);
        ctx.send(fw, node, Wire::Deregister { agent: me, ttl: 0 }.payload());
        if let Some(birth) = self.birth {
            if birth != here {
                let (fw, node) = self.forwarder_at(birth);
                ctx.send(fw, node, Wire::Deregister { agent: me, ttl: 0 }.payload());
            }
        }
        self.names.write().remove(&me);
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        // A chain walk always ends at the node the target is resident on,
        // so every answer is authoritative (age 0) and any bound holds.
        let send = send_locate(&self.names, &self.forwarders);
        self.locates.start(ctx, token, target, freshness, send);
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
            Wire::NotFound { token, .. } => {
                let send = send_locate(&self.names, &self.forwarders);
                self.locates.on_negative(ctx, token, send)
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
        on_update_bounce(payload, || self.announce_here(ctx))
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        let send = send_locate(&self.names, &self.forwarders);
        self.locates.on_timer(ctx, timer, send)
    }
}
