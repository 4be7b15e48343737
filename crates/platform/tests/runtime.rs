//! End-to-end tests of the platform runtime: lifecycle, messaging costs,
//! migration, delivery failure, queueing, and determinism.

use std::sync::{Arc, Mutex};

use agentrack_platform::{
    Agent, AgentCtx, AgentId, DurationDist, NodeId, Payload, PlatformConfig, SimDuration,
    SimPlatform, SimTime, TimerId, Topology,
};

const LATENCY: SimDuration = SimDuration::from_micros(300);
const SERVICE: SimDuration = SimDuration::from_micros(100);

fn platform(nodes: u32) -> SimPlatform {
    let topo = Topology::lan(nodes, DurationDist::Constant(LATENCY));
    let config = PlatformConfig::default()
        .with_seed(7)
        .with_handler_service_time(DurationDist::Constant(SERVICE));
    SimPlatform::new(topo, config)
}

type Log = Arc<Mutex<Vec<String>>>;

/// Replies "pong" to every "ping"; records everything it sees.
struct Responder {
    log: Log,
    home_of_sender: NodeId,
}

impl Agent for Responder {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let text: String = payload.decode().unwrap();
        self.log
            .lock()
            .unwrap()
            .push(format!("responder got {text}"));
        ctx.send(from, self.home_of_sender, Payload::encode(&"pong"));
    }
}

/// Fires one ping after a timer and records the round-trip completion time.
struct Requester {
    log: Log,
    target: AgentId,
    target_node: NodeId,
    sent_at: Arc<Mutex<Option<SimTime>>>,
    done_at: Arc<Mutex<Option<SimTime>>>,
}

impl Agent for Requester {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(50));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        *self.sent_at.lock().unwrap() = Some(ctx.now());
        ctx.send(self.target, self.target_node, Payload::encode(&"ping"));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        let text: String = payload.decode().unwrap();
        self.log
            .lock()
            .unwrap()
            .push(format!("requester got {text}"));
        *self.done_at.lock().unwrap() = Some(ctx.now());
    }
}

#[test]
fn ping_pong_round_trip_costs_two_hops_and_two_services() {
    let mut p = platform(2);
    let log: Log = Arc::default();
    let responder = p.spawn(
        Box::new(Responder {
            log: log.clone(),
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1),
    );
    let sent_at = Arc::new(Mutex::new(None));
    let done_at = Arc::new(Mutex::new(None));
    p.spawn(
        Box::new(Requester {
            log: log.clone(),
            target: responder,
            target_node: NodeId::new(1),
            sent_at: sent_at.clone(),
            done_at: done_at.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();

    assert_eq!(
        log.lock().unwrap().as_slice(),
        ["responder got ping", "requester got pong"]
    );
    let rtt = done_at.lock().unwrap().unwrap() - sent_at.lock().unwrap().unwrap();
    assert_eq!(rtt, (LATENCY + SERVICE) * 2);
    let stats = p.stats();
    assert_eq!(stats.messages_sent, 2);
    assert_eq!(stats.messages_delivered, 2);
    assert_eq!(stats.messages_failed, 0);
}

/// A hopper that migrates through every node, recording arrivals.
struct Hopper {
    log: Log,
    route: Vec<NodeId>,
}

impl Agent for Hopper {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let next = self.route.remove(0);
        ctx.dispatch(next);
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.log
            .lock()
            .unwrap()
            .push(format!("arrived at {}", ctx.node()));
        if !self.route.is_empty() {
            let next = self.route.remove(0);
            ctx.dispatch(next);
        }
    }
}

#[test]
fn migration_visits_every_node_in_route() {
    let mut p = platform(4);
    let log: Log = Arc::default();
    let hopper = p.spawn(
        Box::new(Hopper {
            log: log.clone(),
            route: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert_eq!(
        log.lock().unwrap().as_slice(),
        ["arrived at node1", "arrived at node2", "arrived at node3"]
    );
    assert_eq!(p.agent_node(hopper), Some(NodeId::new(3)));
    assert!(p.is_active(hopper));
    assert_eq!(p.stats().migrations, 3);
}

/// Sends a message to a node where the target is not, and records the
/// bounce.
struct WrongAddresser {
    target: AgentId,
    failures: Arc<Mutex<Vec<(AgentId, NodeId)>>>,
}

impl Agent for WrongAddresser {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.send(self.target, NodeId::new(2), Payload::encode(&"hello?"));
    }

    fn on_delivery_failed(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        assert_eq!(payload.decode::<String>().unwrap(), "hello?");
        self.failures.lock().unwrap().push((to, node));
    }
}

#[test]
fn wrong_node_bounces_back_to_sender() {
    let mut p = platform(3);
    let log: Log = Arc::default();
    let resident = p.spawn(
        Box::new(Responder {
            log,
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1), // actually at node1, addressed at node2
    );
    let failures = Arc::new(Mutex::new(Vec::new()));
    p.spawn(
        Box::new(WrongAddresser {
            target: resident,
            failures: failures.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert_eq!(
        failures.lock().unwrap().as_slice(),
        [(resident, NodeId::new(2))]
    );
    let stats = p.stats();
    assert_eq!(stats.messages_failed, 1);
    // Failure notices are not counted as deliveries.
    assert_eq!(stats.messages_delivered, 0);
}

#[test]
fn message_to_nonexistent_agent_bounces() {
    let mut p = platform(3);
    let failures = Arc::new(Mutex::new(Vec::new()));
    p.spawn(
        Box::new(WrongAddresser {
            target: AgentId::new(999),
            failures: failures.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert_eq!(failures.lock().unwrap().len(), 1);
}

/// Floods a target with `n` back-to-back messages, recording reply times.
struct Flooder {
    target: AgentId,
    target_node: NodeId,
    n: usize,
    replies: Arc<Mutex<Vec<SimTime>>>,
}

impl Agent for Flooder {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        for _ in 0..self.n {
            ctx.send(self.target, self.target_node, Payload::encode(&"ping"));
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
        self.replies.lock().unwrap().push(ctx.now());
    }
}

#[test]
fn burst_to_one_agent_queues_fifo() {
    let mut p = platform(2);
    let log: Log = Arc::default();
    let responder = p.spawn(
        Box::new(Responder {
            log,
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1),
    );
    let replies = Arc::new(Mutex::new(Vec::new()));
    p.spawn(
        Box::new(Flooder {
            target: responder,
            target_node: NodeId::new(1),
            n: 10,
            replies: replies.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();

    let replies = replies.lock().unwrap();
    assert_eq!(replies.len(), 10);
    // Replies are spaced by the responder's service time: the k-th reply
    // completes one service later than the (k-1)-th. (The flooder's own
    // inbound station adds no spacing beyond that because its service rate
    // equals the responder's.)
    let spacing = replies[9] - replies[8];
    assert_eq!(spacing, SERVICE);
    // Total span of the burst ≈ 9 service times.
    assert_eq!(replies[9] - replies[0], SERVICE * 9);
}

/// Disposes itself on message; used to test dispose + post-dispose sends.
struct Mayfly {
    disposed: Arc<Mutex<bool>>,
}

impl Agent for Mayfly {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
        ctx.dispose();
    }

    fn on_dispose(&mut self, _ctx: &mut AgentCtx<'_>) {
        *self.disposed.lock().unwrap() = true;
    }
}

struct TwoShots {
    target: AgentId,
    target_node: NodeId,
    gap: SimDuration,
    failures: Arc<Mutex<u64>>,
    shots_left: u32,
}

impl Agent for TwoShots {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.send(self.target, self.target_node, Payload::encode(&1u32));
        ctx.set_timer(self.gap);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        if self.shots_left > 0 {
            self.shots_left -= 1;
            ctx.send(self.target, self.target_node, Payload::encode(&2u32));
        }
    }

    fn on_delivery_failed(
        &mut self,
        _ctx: &mut AgentCtx<'_>,
        _to: AgentId,
        _node: NodeId,
        _payload: &Payload,
    ) {
        *self.failures.lock().unwrap() += 1;
    }
}

#[test]
fn disposed_agents_bounce_messages() {
    let mut p = platform(2);
    let disposed = Arc::new(Mutex::new(false));
    let mayfly = p.spawn(
        Box::new(Mayfly {
            disposed: disposed.clone(),
        }),
        NodeId::new(1),
    );
    let failures = Arc::new(Mutex::new(0u64));
    p.spawn(
        Box::new(TwoShots {
            target: mayfly,
            target_node: NodeId::new(1),
            gap: SimDuration::from_millis(100),
            failures: failures.clone(),
            shots_left: 1,
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert!(*disposed.lock().unwrap());
    assert_eq!(*failures.lock().unwrap(), 1);
    assert_eq!(p.stats().agents_disposed, 1);
    assert!(!p.is_active(mayfly));
    assert_eq!(p.agent_node(mayfly), None);
}

/// Migrates away on creation and stays in transit long enough for a probe
/// message to bounce.
struct SlowMover;

impl Agent for SlowMover {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.dispatch(NodeId::new(1));
    }

    fn state_size(&self) -> usize {
        10_000_000 // 1 second of transfer at the default bandwidth
    }
}

#[test]
fn in_transit_agents_bounce_messages() {
    let mut p = platform(3);
    let mover = p.spawn(Box::new(SlowMover), NodeId::new(0));
    let failures = Arc::new(Mutex::new(0u64));
    p.spawn(
        Box::new(TwoShots {
            target: mover,
            target_node: NodeId::new(0), // old node; mover left immediately
            gap: SimDuration::from_millis(200),
            failures: failures.clone(),
            shots_left: 1,
        }),
        NodeId::new(2),
    );
    p.run_until_idle();
    // Both the immediate shot and the delayed one bounce: the mover is in
    // transit for a full simulated second.
    assert_eq!(*failures.lock().unwrap(), 2);
    assert_eq!(p.agent_node(mover), Some(NodeId::new(1)));
}

/// Spawns a child remotely and waits for it to report in.
struct Parent {
    child_reported: Arc<Mutex<bool>>,
}

struct Child {
    parent: AgentId,
    parent_node: NodeId,
}

impl Agent for Parent {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let here = ctx.node();
        let me = ctx.self_id();
        ctx.create_agent(
            Box::new(Child {
                parent: me,
                parent_node: here,
            }),
            NodeId::new(1),
        );
    }

    fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
        *self.child_reported.lock().unwrap() = true;
    }
}

impl Agent for Child {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        assert_eq!(ctx.node(), NodeId::new(1));
        ctx.send(self.parent, self.parent_node, Payload::encode(&"born"));
    }
}

#[test]
fn remote_agent_creation_runs_on_create_at_the_target_node() {
    let mut p = platform(2);
    let reported = Arc::new(Mutex::new(false));
    p.spawn(
        Box::new(Parent {
            child_reported: reported.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert!(*reported.lock().unwrap());
    assert_eq!(p.stats().agents_created, 2);
    assert_eq!(p.agent_count(), 2);
}

#[test]
fn loss_injection_drops_messages_without_bounce() {
    let topo = Topology::lan(2, DurationDist::Constant(LATENCY)).with_loss(1.0);
    let mut p = SimPlatform::new(
        topo,
        PlatformConfig::default().with_handler_service_time(DurationDist::Constant(SERVICE)),
    );
    let log: Log = Arc::default();
    let responder = p.spawn(
        Box::new(Responder {
            log: log.clone(),
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1),
    );
    let failures = Arc::new(Mutex::new(0u64));
    p.spawn(
        Box::new(TwoShots {
            target: responder,
            target_node: NodeId::new(1),
            gap: SimDuration::from_millis(1),
            failures: failures.clone(),
            shots_left: 0,
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert_eq!(p.stats().messages_lost, 1);
    assert!(log.lock().unwrap().is_empty());
    // Loss is silent: no failure notice (that is what makes it a fault).
    assert_eq!(*failures.lock().unwrap(), 0);
}

#[test]
fn duplication_injection_invokes_handler_twice() {
    let topo = Topology::lan(2, DurationDist::Constant(LATENCY)).with_duplication(1.0);
    let mut p = SimPlatform::new(
        topo,
        PlatformConfig::default().with_handler_service_time(DurationDist::Constant(SERVICE)),
    );
    let log: Log = Arc::default();
    let responder = p.spawn(
        Box::new(Responder {
            log: log.clone(),
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1),
    );
    let replies = Arc::new(Mutex::new(Vec::new()));
    p.spawn(
        Box::new(Flooder {
            target: responder,
            target_node: NodeId::new(1),
            n: 1,
            replies: replies.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert_eq!(
        log.lock()
            .unwrap()
            .iter()
            .filter(|l| *l == "responder got ping")
            .count(),
        2
    );
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let run = || {
        let mut p = platform(4);
        let log: Log = Arc::default();
        let responder = p.spawn(
            Box::new(Responder {
                log,
                home_of_sender: NodeId::new(0),
            }),
            NodeId::new(1),
        );
        let replies = Arc::new(Mutex::new(Vec::new()));
        p.spawn(
            Box::new(Flooder {
                target: responder,
                target_node: NodeId::new(1),
                n: 25,
                replies: replies.clone(),
            }),
            NodeId::new(0),
        );
        p.run_until_idle();
        let r = replies.lock().unwrap().clone();
        (p.stats(), p.now(), r)
    };
    assert_eq!(run(), run());
}

#[test]
fn run_until_stops_at_the_deadline() {
    let mut p = platform(2);
    let log: Log = Arc::default();
    let responder = p.spawn(
        Box::new(Responder {
            log,
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(1),
    );
    let sent_at = Arc::new(Mutex::new(None));
    let done_at = Arc::new(Mutex::new(None));
    p.spawn(
        Box::new(Requester {
            log: Arc::default(),
            target: responder,
            target_node: NodeId::new(1),
            sent_at,
            done_at: done_at.clone(),
        }),
        NodeId::new(0),
    );
    // The requester fires its ping at t=50ms; stop before that.
    p.run_until(SimTime::ZERO + SimDuration::from_millis(10));
    assert!(done_at.lock().unwrap().is_none());
    assert!(p.now() <= SimTime::ZERO + SimDuration::from_millis(10));
    // Resume to completion.
    p.run_for(SimDuration::from_secs(1));
    assert!(done_at.lock().unwrap().is_some());
}

/// Dispatch-then-dispose in one handler: the dispatch wins, identically on
/// both runtimes (the behaviour already departed when the dispose ran).
#[test]
fn dispatch_then_dispose_lets_the_migration_win() {
    struct Confused;
    impl Agent for Confused {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.dispatch(NodeId::new(1));
            ctx.dispose(); // too late: the behaviour is already leaving
        }
    }
    let mut p = platform(2);
    let agent = p.spawn(Box::new(Confused), NodeId::new(0));
    p.run_until_idle();
    assert!(p.is_active(agent), "the migration won");
    assert_eq!(p.agent_node(agent), Some(NodeId::new(1)));
    assert_eq!(p.stats().agents_disposed, 0);
    assert_eq!(p.stats().ignored_actions, 1);
}

/// `on_dispose` is a destructor: its sends go out, but structural requests
/// (including a recursive dispose) are ignored rather than recursed into.
#[test]
fn on_dispose_cannot_recurse() {
    struct Stubborn {
        farewell_to: AgentId,
    }
    impl Agent for Stubborn {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.dispose();
        }
        fn on_dispose(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.send(self.farewell_to, NodeId::new(0), Payload::encode(&"bye"));
            ctx.dispose(); // must not recurse
            ctx.set_timer(SimDuration::from_millis(1)); // must be ignored
        }
    }
    let mut p = platform(2);
    let log: Log = std::sync::Arc::default();
    let mourner = p.spawn(
        Box::new(Responder {
            log: log.clone(),
            home_of_sender: NodeId::new(0),
        }),
        NodeId::new(0),
    );
    let stubborn = p.spawn(
        Box::new(Stubborn {
            farewell_to: mourner,
        }),
        NodeId::new(1),
    );
    p.run_until_idle();
    assert!(!p.is_active(stubborn));
    assert_eq!(p.stats().agents_disposed, 1);
    assert_eq!(log.lock().unwrap().len(), 1, "the farewell was sent");
}

/// A message racing its addressee's creation is deferred, not bounced.
#[test]
fn create_then_send_in_one_handler_delivers() {
    struct Creator {
        heard_back: std::sync::Arc<Mutex<bool>>,
    }
    impl Agent for Creator {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            let me = ctx.self_id();
            let here = ctx.node();
            let child = ctx.create_agent(Box::new(EchoBack { to: me, node: here }), NodeId::new(1));
            // Sent immediately: arrives before the child's on_create runs.
            ctx.send(child, NodeId::new(1), Payload::encode(&"early"));
        }
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _p: &Payload) {
            *self.heard_back.lock().unwrap() = true;
        }
    }
    struct EchoBack {
        to: AgentId,
        node: NodeId,
    }
    impl Agent for EchoBack {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            ctx.send(self.to, self.node, payload.clone());
        }
    }

    let mut p = platform(2);
    let heard_back = std::sync::Arc::new(Mutex::new(false));
    p.spawn(
        Box::new(Creator {
            heard_back: heard_back.clone(),
        }),
        NodeId::new(0),
    );
    p.run_until_idle();
    assert!(
        *heard_back.lock().unwrap(),
        "the early message must be deferred to the child, not bounced"
    );
    assert_eq!(p.stats().messages_failed, 0);
}
