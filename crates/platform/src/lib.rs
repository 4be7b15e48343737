//! # agentrack-platform
//!
//! A from-scratch mobile-agent platform: the substrate the location
//! mechanism runs on, standing in for Aglets 2.0 in the original paper.
//!
//! The programming model mirrors Aglets' event-driven lifecycle:
//!
//! * implement [`Agent`] — `on_create`, `on_arrival`, `on_message`,
//!   `on_timer`, `on_dispose`, plus `on_delivery_failed` for bounced
//!   messages;
//! * every effect (send, migrate, create, dispose, timers) is requested
//!   through the [`AgentCtx`] handed to each callback;
//! * [`SimPlatform`] executes agents deterministically over a simulated
//!   LAN ([`agentrack_sim::Topology`]): messages cost latency plus queueing
//!   at the receiver, migrations cost overhead plus state transfer.
//!
//! Addressing is *location-dependent*: `send` takes the node you believe
//! the agent is at, and a wrong belief bounces the message back. That is
//! the gap the hash-based location mechanism (in `agentrack-core`) fills.
//!
//! ## Example: ping-pong between two nodes
//!
//! ```
//! use agentrack_platform::{Agent, AgentCtx, AgentId, Payload, PlatformConfig, SimPlatform};
//! use agentrack_sim::{DurationDist, NodeId, SimDuration, Topology};
//!
//! struct Ponger;
//! impl Agent for Ponger {
//!     fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, _payload: &Payload) {
//!         // Reply to the pinger, which we know lives on node 0.
//!         ctx.send(from, NodeId::new(0), Payload::encode(&"pong"));
//!     }
//! }
//!
//! struct Pinger {
//!     ponger: Option<AgentId>,
//!     got_pong: bool,
//! }
//! impl Agent for Pinger {
//!     fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
//!         let ponger = ctx.create_agent(Box::new(Ponger), NodeId::new(1));
//!         self.ponger = Some(ponger);
//!         let t = ctx.set_timer(SimDuration::from_millis(10));
//!         let _ = t;
//!     }
//!     fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: agentrack_platform::TimerId) {
//!         ctx.send(self.ponger.unwrap(), NodeId::new(1), Payload::encode(&"ping"));
//!     }
//!     fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
//!         self.got_pong = true;
//!     }
//! }
//!
//! let topo = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
//! let mut platform = SimPlatform::new(topo, PlatformConfig::default());
//! platform.spawn(Box::new(Pinger { ponger: None, got_pong: false }), NodeId::new(0));
//! platform.run_until_idle();
//! assert_eq!(platform.stats().messages_delivered, 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod agent;
mod config;
mod id;
mod live;
mod payload;
mod runtime;
mod spawner;

pub use agent::{Agent, AgentCtx};
pub use config::{LiveConfig, PlatformConfig};
pub use id::{AgentId, TimerId};
pub use live::{
    to_flight_json, to_flight_perfetto, LiveHandle, LivePlatform, LiveStats, NodeHealth, OpKind,
    RouteCache, SlowOp, TelemetrySnapshot,
};
pub use payload::{DecodeError, Payload};
pub use runtime::{AgentState, PlatformStats, SimPlatform};
pub use spawner::Spawner;

// Re-export the sim vocabulary platform users need constantly.
pub use agentrack_sim::{
    shrink, ChaosConfig, CorrId, DurationDist, FaultEvent, FaultKind, FaultPlan, NodeId,
    SimDuration, SimTime, Topology, TraceEvent, TraceRecord, TraceSink,
};
