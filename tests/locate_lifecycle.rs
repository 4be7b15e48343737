//! The client-side locate lifecycle, pinned for all four schemes from one
//! table: a locate the directory cannot answer gives up after exactly the
//! retry budget (one `RetryAttempt` per retry, one `RetryGiveUp`), charges
//! the scheme's give-up counters, and a successful locate records exactly
//! one latency in the scheme registry.

use std::sync::{Arc, Mutex};

use agentrack::core::{
    CentralizedScheme, ClientEvent, DirectoryClient, ForwardingScheme, HashedScheme,
    HomeRegistryScheme, LocationConfig, LocationScheme,
};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, GiveUpCause, SimDuration, Topology, TraceEvent, TraceSink};

const ATTEMPTS: u32 = 4;
const PHANTOM: AgentId = AgentId::new(0xDEAD);
const PHANTOM_TOKEN: u64 = 1;
const RESIDENT_TOKEN: u64 = 2;

fn config() -> LocationConfig {
    LocationConfig {
        max_locate_attempts: ATTEMPTS,
        locate_retry_timeout: SimDuration::from_secs(1),
        ..LocationConfig::default()
    }
}

/// Registers its client and then sits still: the locatable target.
struct Resident {
    client: Box<dyn DirectoryClient>,
}

impl Agent for Resident {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let _ = self.client.on_message(ctx, from, payload);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let _ = self.client.on_delivery_failed(ctx, to, node, payload);
    }
}

/// After one second, locates the phantom and the resident, recording
/// every locate outcome its client reports.
struct Prober {
    client: Box<dyn DirectoryClient>,
    resident: AgentId,
    start: Option<TimerId>,
    outcomes: Arc<Mutex<Vec<ClientEvent>>>,
}

impl Prober {
    fn keep(&self, event: ClientEvent) {
        if matches!(
            event,
            ClientEvent::Located { .. } | ClientEvent::Failed { .. }
        ) {
            self.outcomes.lock().unwrap().push(event);
        }
    }
}

impl Agent for Prober {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.start = Some(ctx.set_timer(SimDuration::from_secs(1)));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.start == Some(timer) {
            self.start = None;
            self.client.locate(ctx, PHANTOM, PHANTOM_TOKEN);
            self.client.locate(ctx, self.resident, RESIDENT_TOKEN);
            return;
        }
        let event = self.client.on_timer(ctx, timer);
        self.keep(event);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let event = self.client.on_message(ctx, from, payload);
        self.keep(event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let event = self.client.on_delivery_failed(ctx, to, node, payload);
        self.keep(event);
    }
}

/// One row of the table: a scheme and what its give-up looks like.
struct Case {
    scheme: Box<dyn LocationScheme>,
    /// What ends the phantom's final attempt.
    cause: GiveUpCause,
    /// Summed `(giveup_timeout, giveup_negative, giveup_timeout_remote,
    /// giveup_negative_remote)` over every tracker row.
    charged: (u64, u64, u64, u64),
}

fn cases() -> Vec<Case> {
    vec![
        // The central tracker answers NotFound; it sits on node 0, the
        // prober on node 1, so the charge is also remote.
        Case {
            scheme: Box::new(CentralizedScheme::new(config())),
            cause: GiveUpCause::Negative,
            charged: (0, 1, 0, 1),
        },
        // The initial IAgent (node 0) answers NotFound.
        Case {
            scheme: Box::new(HashedScheme::new(config())),
            cause: GiveUpCause::Negative,
            charged: (0, 1, 0, 1),
        },
        // The phantom has no name, so no attempt is ever sent and the
        // give-up is charged to nobody.
        Case {
            scheme: Box::new(HomeRegistryScheme::new(config())),
            cause: GiveUpCause::Timeout,
            charged: (0, 0, 0, 0),
        },
        Case {
            scheme: Box::new(ForwardingScheme::new(config())),
            cause: GiveUpCause::Timeout,
            charged: (0, 0, 0, 0),
        },
    ]
}

#[test]
fn every_scheme_shares_one_locate_lifecycle() {
    for Case {
        mut scheme,
        cause,
        charged,
    } in cases()
    {
        let name = scheme.name();
        let topology = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(300)));
        let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(5));
        let sink = TraceSink::bounded(100_000);
        platform.set_trace_sink(sink.clone());
        scheme.bootstrap(&mut platform);

        let resident = platform.spawn(
            Box::new(Resident {
                client: scheme.make_client(),
            }),
            NodeId::new(2),
        );
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let prober = platform.spawn(
            Box::new(Prober {
                client: scheme.make_client(),
                resident,
                start: None,
                outcomes: Arc::clone(&outcomes),
            }),
            NodeId::new(1),
        );
        platform.run_for(SimDuration::from_secs(8));

        let outcomes = outcomes.lock().unwrap().clone();
        assert_eq!(outcomes.len(), 2, "{name}: one outcome per locate");
        assert!(
            outcomes.contains(&ClientEvent::Failed {
                token: PHANTOM_TOKEN,
                target: PHANTOM,
            }),
            "{name}: the phantom locate must fail, got {outcomes:?}"
        );
        assert!(
            outcomes.iter().any(|e| matches!(
                e,
                ClientEvent::Located { token, target, node, .. }
                    if *token == RESIDENT_TOKEN && *target == resident && *node == NodeId::new(2)
            )),
            "{name}: the resident locate must succeed, got {outcomes:?}"
        );

        let records = sink.snapshot();
        let phantom_events = |want: fn(&TraceEvent) -> bool| {
            records
                .iter()
                .filter(|r| {
                    want(&r.event)
                        && r.event
                            .corr()
                            .is_some_and(|c| c.origin == prober.raw() && c.seq == PHANTOM_TOKEN)
                })
                .map(|r| r.event.clone())
                .collect::<Vec<_>>()
        };
        let retries = phantom_events(|e| matches!(e, TraceEvent::RetryAttempt { .. }));
        let attempts: Vec<u32> = retries
            .iter()
            .map(|e| match e {
                TraceEvent::RetryAttempt { attempt, .. } => *attempt,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            attempts,
            (2..=ATTEMPTS).collect::<Vec<_>>(),
            "{name}: one RetryAttempt per retry, numbered from 2"
        );
        let give_ups = phantom_events(|e| matches!(e, TraceEvent::RetryGiveUp { .. }));
        assert_eq!(
            give_ups,
            vec![TraceEvent::RetryGiveUp {
                corr: give_ups[0].corr(),
                client: prober.raw(),
                target: PHANTOM.raw(),
                attempts: ATTEMPTS,
                cause,
            }],
            "{name}: exactly one RetryGiveUp"
        );
        let total_retries = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RetryAttempt { .. }))
            .count();
        assert_eq!(
            total_retries,
            retries.len(),
            "{name}: the successful locate must not retry"
        );

        let snapshot = scheme.registry().snapshot();
        let got = snapshot
            .trackers
            .iter()
            .fold((0, 0, 0, 0), |(a, b, c, d), (_, t)| {
                (
                    a + t.giveup_timeout,
                    b + t.giveup_negative,
                    c + t.giveup_timeout_remote,
                    d + t.giveup_negative_remote,
                )
            });
        assert_eq!(got, charged, "{name}: give-up counters");
        assert_eq!(
            snapshot.locate_latency.count, 1,
            "{name}: exactly one locate latency recorded"
        );
    }
}
