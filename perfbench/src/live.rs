//! `live-lookup` and `live-mobile`: the hashed scheme's `DirectoryClient`
//! on `LivePlatform` node threads.
//!
//! Target agents (roamers) register through the scheme and, on
//! `live-mobile`, migrate to the other node every residence period.
//! Locator agents issue `DirectoryClient::locate` calls on request. The
//! calling thread is the generator: in phase A it sends each locate
//! request to a locator at its own due time, on a fixed schedule that
//! does not wait for answers (open loop), and every latency is timed from
//! that due time. In phase B each locator keeps a fixed number of locates
//! outstanding (closed loop), which measures capacity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use agentrack_core::{
    ClientEvent, DirectoryClient, HashedScheme, LocationConfig, LocationScheme, SchemeStats,
};
use agentrack_platform::{
    Agent, AgentCtx, AgentId, LiveConfig, LivePlatform, LiveStats, NodeId, Payload, TimerId,
};
use agentrack_sim::{LogHistogram, SimDuration, SimRng, TraceSink};
use bytes::Bytes;

use crate::hist::{median, median_over, Hist};
use crate::{host, spans, Outcome, Request, Scale};

/// Node threads; the machine this benchmark is sized for has two cores.
const NODES: u32 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Phase-A/phase-B alternations in an untraced run.
const ROUNDS: usize = 4;
/// Phase-A latencies are binned per window of this length; the reported
/// percentiles are medians over the windows.
const WINDOW_NS: u64 = 200_000_000;
/// Trace ring size of the traced run and the locates attributed from it.
const TRACE_RECORDS: usize = 200_000;
const TRACE_SPANS: usize = 4096;
/// A run whose generator sent its median request later than this after
/// its due time did not offer the load it claims, and is invalid.
const MAX_GEN_LATE_P50_NS: f64 = 500_000.0;
/// IAgent split/merge thresholds of both live workloads, in messages per
/// second, fitted to real-thread rates: under the warm-up's closed loop
/// (75–110 k locates/s on a 2-core host) 4 IAgents carry 19–28 k/s each
/// and split, 8 carry 9–14 k/s and stay. The paper's 50/5 assume 1 ms
/// per message; on real threads they split the directory into hundreds
/// of IAgents.
const T_MAX: f64 = 17_500.0;
const T_MIN: f64 = 500.0;
/// Locator agents per node, and the locates each keeps outstanding in
/// phase B.
const LOCATORS_PER_NODE: usize = 2;
const CLOSED_WINDOW: u32 = 16;
/// The warm-up ends once the directory has not split or merged for
/// `SETTLE_QUIET`, or after `SETTLE_MAX`; then adaptation is frozen, so
/// the measured window runs on the directory the warm-up built. (Left
/// live, IAgents near the threshold split inside the window in some runs
/// and not others, and capacity moved by a quarter with the directory's
/// shape.)
const SETTLE_QUIET: Duration = Duration::from_millis(2000);
const SETTLE_MAX: Duration = Duration::from_secs(15);
/// Longest wait for registrations, or for outstanding work to drain.
const PATIENCE: Duration = Duration::from_secs(60);

/// A live workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Target agents.
    pub agents: usize,
    /// Residence time between a target's migrations; `None`: targets
    /// never move.
    pub residence_ms: Option<u64>,
    /// Phase-A offered locate rate, per second.
    pub open_rate: f64,
}

impl LiveSpec {
    /// `live-lookup`: 20,000 targets that never move, 20,000 locates/s.
    pub fn lookup(scale: Scale) -> Self {
        LiveSpec {
            agents: 20_000,
            residence_ms: None,
            open_rate: 20_000.0,
        }
        .scaled(scale)
    }

    /// `live-mobile`: 10,000 targets each migrating every 500 ms, the
    /// paper's residence time (about 20,000 moves/s offered), 5,000
    /// locates/s.
    pub fn mobile(scale: Scale) -> Self {
        LiveSpec {
            agents: 10_000,
            residence_ms: Some(500),
            open_rate: 5_000.0,
        }
        .scaled(scale)
    }

    fn scaled(self, scale: Scale) -> Self {
        match scale {
            Scale::Full => self,
            Scale::Tiny => LiveSpec {
                agents: 400,
                open_rate: self.open_rate / 10.0,
                ..self
            },
        }
    }
}

/// What the agents of one platform record, shared with the generator.
struct Books {
    epoch: Instant,
    registered: AtomicU64,
    /// Phase-A locate latency from due time, one histogram per window.
    open_windows: Vec<Hist>,
    /// Due time of the current phase-A segment's first request, and the
    /// index of its first window.
    open_start_ns: AtomicU64,
    open_base: AtomicU64,
    open_done: AtomicU64,
    closed_done: AtomicU64,
    issued: AtomicU64,
    failed: AtomicU64,
    outstanding: AtomicI64,
    /// Answers that name the wrong node or answer no locate of ours.
    wrong: AtomicU64,
    /// Each target's node, when targets never move.
    expected: Option<Vec<NodeId>>,
    roaming: AtomicBool,
    moves_started: AtomicU64,
    moves_done: AtomicU64,
    move_ns: Hist,
    client_locate_ns: Hist,
    client_on_message_ns: Hist,
    client_moved_ns: Hist,
}

impl Books {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn finished(&self) -> u64 {
        self.open_done.load(Ordering::Relaxed)
            + self.closed_done.load(Ordering::Relaxed)
            + self.failed.load(Ordering::Relaxed)
    }
}

fn timed<T>(hist: &Hist, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    hist.record(t0.elapsed().as_nanos() as u64);
    out
}

/// A target agent: registers, then (when roaming) migrates between the
/// two nodes once per residence period.
struct Roamer {
    client: Box<dyn DirectoryClient>,
    books: Arc<Books>,
    residence: Option<SimDuration>,
    /// Delay before the first migration, spreading departures over one
    /// residence period.
    first_delay: SimDuration,
    departed_ns: u64,
    /// The pending migration timer (the client sets timers of its own).
    move_timer: Option<TimerId>,
}

impl Roamer {
    fn offer(&mut self, ctx: &mut AgentCtx<'_>, event: ClientEvent) {
        if event == ClientEvent::Registered {
            self.books.registered.fetch_add(1, Ordering::Relaxed);
            if self.residence.is_some() {
                self.move_timer = Some(ctx.set_timer(self.first_delay));
            }
        }
    }
}

impl Agent for Roamer {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        let books = Arc::clone(&self.books);
        books
            .move_ns
            .record(books.now_ns().saturating_sub(self.departed_ns));
        timed(&books.client_moved_ns, || self.client.moved(ctx));
        books.moves_done.fetch_add(1, Ordering::Relaxed);
        self.move_timer = self.residence.map(|r| ctx.set_timer(r));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        match self.client.on_timer(ctx, timer) {
            ClientEvent::NotMine => {
                if self.move_timer == Some(timer) && self.books.roaming.load(Ordering::Relaxed) {
                    self.departed_ns = self.books.now_ns();
                    self.books.moves_started.fetch_add(1, Ordering::Relaxed);
                    ctx.dispatch(NodeId::new((ctx.node().raw() + 1) % NODES));
                }
            }
            event => self.offer(ctx, event),
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let books = Arc::clone(&self.books);
        let event = timed(&books.client_on_message_ns, || {
            self.client.on_message(ctx, from, payload)
        });
        self.offer(ctx, event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let event = self.client.on_delivery_failed(ctx, to, node, payload);
        self.offer(ctx, event);
    }
}

/// Generator-to-locator requests, as raw bytes (never valid protocol
/// JSON, so the scheme client reports them `NotMine`).
enum Control {
    /// Locate target `index`, due at `due_ns` on the books' clock.
    Open {
        index: u32,
        due_ns: u64,
    },
    /// Keep `window` locates outstanding until `Stop`.
    Closed {
        window: u32,
    },
    Stop,
}

impl Control {
    fn payload(&self) -> Payload {
        let mut b = Vec::with_capacity(13);
        match *self {
            Control::Open { index, due_ns } => {
                b.push(0);
                b.extend_from_slice(&index.to_le_bytes());
                b.extend_from_slice(&due_ns.to_le_bytes());
            }
            Control::Closed { window } => {
                b.push(1);
                b.extend_from_slice(&window.to_le_bytes());
            }
            Control::Stop => b.push(2),
        }
        Payload::from_bytes(Bytes::from(b))
    }

    fn parse(payload: &Payload) -> Option<Control> {
        let b = payload.bytes();
        let u32_at = |i: usize| Some(u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?));
        match b.first()? {
            0 => Some(Control::Open {
                index: u32_at(1)?,
                due_ns: u64::from_le_bytes(b.get(5..13)?.try_into().ok()?),
            }),
            1 => Some(Control::Closed { window: u32_at(1)? }),
            2 => Some(Control::Stop),
            _ => None,
        }
    }
}

/// `due_ns` of a closed-loop locate (latency not recorded).
const CLOSED: u64 = u64::MAX;

/// Issues locates on request and checks every answer.
struct Locator {
    client: Box<dyn DirectoryClient>,
    books: Arc<Books>,
    targets: Arc<Vec<AgentId>>,
    /// token -> (target index, due time or `CLOSED`)
    pending: HashMap<u64, (u32, u64)>,
    next_token: u64,
    rng: SimRng,
    closed: bool,
}

impl Locator {
    fn issue(&mut self, ctx: &mut AgentCtx<'_>, index: u32, due_ns: u64) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (index, due_ns));
        self.books.issued.fetch_add(1, Ordering::Relaxed);
        self.books.outstanding.fetch_add(1, Ordering::Relaxed);
        let target = self.targets[index as usize];
        let books = Arc::clone(&self.books);
        timed(&books.client_locate_ns, || {
            self.client.locate(ctx, target, token)
        });
    }

    fn issue_closed(&mut self, ctx: &mut AgentCtx<'_>) {
        let index = self.rng.index(self.targets.len()) as u32;
        self.issue(ctx, index, CLOSED);
    }

    fn offer(&mut self, ctx: &mut AgentCtx<'_>, event: ClientEvent) {
        let (token, answer) = match event {
            ClientEvent::Located {
                token,
                target,
                node,
                ..
            } => (token, Some((target, node))),
            ClientEvent::Failed { token, .. } => (token, None),
            _ => return,
        };
        let books = &self.books;
        let Some((index, due_ns)) = self.pending.remove(&token) else {
            books.wrong.fetch_add(1, Ordering::Relaxed);
            return;
        };
        books.outstanding.fetch_sub(1, Ordering::Relaxed);
        let Some((target, node)) = answer else {
            books.failed.fetch_add(1, Ordering::Relaxed);
            return self.reissue(ctx, due_ns);
        };
        let right_node = match &books.expected {
            Some(expected) => expected[index as usize] == node,
            None => node.raw() < NODES,
        };
        if target != self.targets[index as usize] || !right_node {
            books.wrong.fetch_add(1, Ordering::Relaxed);
        }
        if due_ns == CLOSED {
            books.closed_done.fetch_add(1, Ordering::Relaxed);
        } else {
            let now = books.now_ns();
            let start = books.open_start_ns.load(Ordering::Relaxed);
            let base = books.open_base.load(Ordering::Relaxed);
            let window = (base + due_ns.saturating_sub(start) / WINDOW_NS) as usize;
            if let Some(hist) = books.open_windows.get(window) {
                hist.record(now.saturating_sub(due_ns));
            }
            books.open_done.fetch_add(1, Ordering::Relaxed);
        }
        self.reissue(ctx, due_ns);
    }

    fn reissue(&mut self, ctx: &mut AgentCtx<'_>, due_ns: u64) {
        if due_ns == CLOSED && self.closed {
            self.issue_closed(ctx);
        }
    }
}

impl Agent for Locator {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if let Some(control) = Control::parse(payload) {
            match control {
                Control::Open { index, due_ns } => self.issue(ctx, index, due_ns),
                Control::Closed { window } => {
                    self.closed = true;
                    for _ in 0..window {
                        self.issue_closed(ctx);
                    }
                }
                Control::Stop => self.closed = false,
            }
            return;
        }
        let books = Arc::clone(&self.books);
        let event = timed(&books.client_on_message_ns, || {
            self.client.on_message(ctx, from, payload)
        });
        self.offer(ctx, event);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        let event = self.client.on_timer(ctx, timer);
        self.offer(ctx, event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        let event = self.client.on_delivery_failed(ctx, to, node, payload);
        self.offer(ctx, event);
    }
}

/// One platform with the scheme bootstrapped, every target registered,
/// and the warm-up done.
struct World {
    platform: LivePlatform,
    scheme: HashedScheme,
    books: Arc<Books>,
    targets: Arc<Vec<AgentId>>,
    locators: Vec<AgentId>,
    trace: TraceSink,
    setup_s: f64,
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while !done() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Starts a platform, registers every target and warms up with a closed
/// loop: one locate per target, so route caches and hash-function copies
/// are filled, then on until the directory has settled, which is then
/// frozen.
fn setup(spec: &LiveSpec, seed: u64, traced: bool, windows: usize) -> Result<World, String> {
    let t0 = Instant::now();
    let trace = if traced {
        TraceSink::bounded(TRACE_RECORDS)
    } else {
        TraceSink::disabled()
    };
    let config = LiveConfig::default()
        .with_telemetry(traced)
        .with_telemetry_interval_ms(50);
    let mut platform = LivePlatform::with_config(NODES, config, trace.clone());
    let mut scheme = HashedScheme::new(LocationConfig::default().with_thresholds(T_MAX, T_MIN));
    scheme.bootstrap(&mut platform);

    let mut rng = SimRng::seed_from(seed);
    let residence = spec.residence_ms.map(SimDuration::from_millis);
    let spawn_node = |i: usize| NodeId::new(i as u32 % NODES);
    let books = Arc::new(Books {
        epoch: Instant::now(),
        registered: AtomicU64::new(0),
        open_windows: (0..windows).map(|_| Hist::default()).collect(),
        open_start_ns: AtomicU64::new(u64::MAX),
        open_base: AtomicU64::new(0),
        open_done: AtomicU64::new(0),
        closed_done: AtomicU64::new(0),
        issued: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        outstanding: AtomicI64::new(0),
        wrong: AtomicU64::new(0),
        expected: residence
            .is_none()
            .then(|| (0..spec.agents).map(spawn_node).collect()),
        roaming: AtomicBool::new(true),
        moves_started: AtomicU64::new(0),
        moves_done: AtomicU64::new(0),
        move_ns: Hist::default(),
        client_locate_ns: Hist::default(),
        client_on_message_ns: Hist::default(),
        client_moved_ns: Hist::default(),
    });
    let targets: Arc<Vec<AgentId>> = Arc::new(
        (0..spec.agents)
            .map(|i| {
                let first_delay = residence.map_or(SimDuration::ZERO, |r| {
                    SimDuration::from_nanos(rng.next_u64() % r.as_nanos().max(1))
                });
                platform.spawn(
                    Box::new(Roamer {
                        client: scheme.make_client(),
                        books: Arc::clone(&books),
                        residence,
                        first_delay,
                        departed_ns: 0,
                        move_timer: None,
                    }),
                    spawn_node(i),
                )
            })
            .collect(),
    );
    let locators = (0..NODES as usize * LOCATORS_PER_NODE)
        .map(|i| {
            platform.spawn(
                Box::new(Locator {
                    client: scheme.make_client(),
                    books: Arc::clone(&books),
                    targets: Arc::clone(&targets),
                    pending: HashMap::new(),
                    next_token: 0,
                    rng: rng.fork(),
                    closed: false,
                }),
                spawn_node(i),
            )
        })
        .collect();
    wait_until("registrations", || {
        books.registered.load(Ordering::Relaxed) >= spec.agents as u64
    })?;
    let mut world = World {
        platform,
        scheme,
        books,
        targets,
        locators,
        trace,
        setup_s: 0.0,
    };
    let warm_from = world.books.closed_done.load(Ordering::Relaxed);
    world.broadcast(&Control::Closed {
        window: CLOSED_WINDOW,
    });
    wait_until("warm-up", || {
        world.books.closed_done.load(Ordering::Relaxed) - warm_from >= spec.agents as u64
    })?;
    // Keep the closed loop running until the directory has stopped
    // splitting and merging for a while: measure a settled directory.
    let rehashes = |w: &World| {
        let s = w.scheme.stats();
        s.splits + s.merges
    };
    let (mut last, mut since) = (rehashes(&world), Instant::now());
    let give_up = Instant::now() + SETTLE_MAX;
    while since.elapsed() < SETTLE_QUIET && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(20));
        let now = rehashes(&world);
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    world.broadcast(&Control::Stop);
    world.drain_locates()?;
    world.scheme.set_adaptation_frozen(true);
    world.setup_s = t0.elapsed().as_secs_f64();
    Ok(world)
}

impl World {
    fn broadcast(&self, control: &Control) {
        let mut handle = self.platform.handle();
        for &locator in &self.locators {
            handle.post(locator, control.payload());
        }
        handle.flush();
    }

    fn drain_locates(&self) -> Result<(), String> {
        wait_until("outstanding locates", || {
            self.books.outstanding.load(Ordering::Relaxed) == 0
        })
    }

    /// Stops the roamers, lets every migration land, shuts the platform
    /// down and checks that the message books balance.
    fn finish(self, outcome: &mut Outcome) -> Result<(), String> {
        let books = Arc::clone(&self.books);
        books.roaming.store(false, Ordering::Relaxed);
        wait_until("migrations in flight", || {
            books.moves_done.load(Ordering::Relaxed) == books.moves_started.load(Ordering::Relaxed)
        })?;
        if let Some(expected) = &books.expected {
            // Each answer was checked against its target's spawn node: with
            // the target still there, it equals `LivePlatform::agent_node`.
            let moved = self
                .targets
                .iter()
                .zip(expected)
                .filter(|&(&id, &node)| self.platform.agent_node(id) != Some(node))
                .count();
            outcome.check(moved == 0, || {
                format!("{moved} static targets left their spawn node")
            });
        }
        let stats = self.platform.shutdown();
        outcome.check(
            stats.messages_sent == stats.messages_delivered + stats.messages_failed,
            || format!("live books do not balance: {stats:?}"),
        );
        let wrong = books.wrong.load(Ordering::Relaxed);
        outcome.check(wrong == 0, || format!("{wrong} locate answers were wrong"));
        Ok(())
    }
}

/// Open-loop generator readings.
#[derive(Default)]
struct OpenLoop {
    late: Hist,
    post_ns: Hist,
    queue_depth_max: u64,
    sent: u64,
}

/// Phase A, one segment: sends `rate * secs` locate requests, each at
/// its own due time, round-robin over the locators, to uniformly random
/// targets. Latencies land in windows after those of earlier segments.
fn open_loop(world: &World, rate: f64, secs: f64, rng: &mut SimRng, out: &mut OpenLoop) {
    let books = &world.books;
    let mut handle = world.platform.handle();
    let period = 1e9 / rate;
    let start = books.now_ns() + 1_000_000;
    books.open_start_ns.store(start, Ordering::Relaxed);
    let n = (rate * secs).round() as u64;
    let targets = books.registered.load(Ordering::Relaxed);
    for i in 0..n {
        let due_ns = start + (i as f64 * period) as u64;
        // Sleep, not spin: with two node threads on two cores a spinning
        // generator starves them and turns the tail into milliseconds.
        // The sleep overshoots by the timer slack, which the lateness
        // histogram reports and every latency includes.
        let now = books.now_ns();
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        out.late.record(books.now_ns() - due_ns);
        let locator = world.locators[(i % world.locators.len() as u64) as usize];
        let index = rng.index(targets as usize) as u32;
        let t0 = Instant::now();
        handle.post(locator, Control::Open { index, due_ns }.payload());
        handle.flush();
        out.post_ns.record(t0.elapsed().as_nanos() as u64);
        out.sent += 1;
        if i % 1000 == 0 {
            if let Some(snap) = world.platform.latest_telemetry() {
                let depth = snap.nodes.iter().map(|n| n.queue_depth).max().unwrap_or(0);
                out.queue_depth_max = out.queue_depth_max.max(depth);
            }
        }
    }
    let windows = (n as f64 * period / WINDOW_NS as f64).ceil() as u64;
    books.open_base.fetch_add(windows, Ordering::Relaxed);
}

/// Phase B, one segment: every locator keeps `CLOSED_WINDOW` locates
/// outstanding for `secs`; adds the completed locates per second of each
/// `WINDOW_NS` slice to `rates`.
fn closed_loop(world: &World, secs: f64, rates: &mut Vec<f64>) -> Result<(), String> {
    let books = &world.books;
    world.broadcast(&Control::Closed {
        window: CLOSED_WINDOW,
    });
    // Let the pipelines fill before counting.
    std::thread::sleep(Duration::from_millis(50));
    let segments = ((secs * 1e9 / WINDOW_NS as f64).round() as usize).max(1);
    let (mut t0, mut done0) = (Instant::now(), books.closed_done.load(Ordering::Relaxed));
    for _ in 0..segments {
        std::thread::sleep(Duration::from_secs_f64(secs / segments as f64));
        let (t1, done1) = (Instant::now(), books.closed_done.load(Ordering::Relaxed));
        rates.push((done1 - done0) as f64 / t1.duration_since(t0).as_secs_f64());
        (t0, done0) = (t1, done1);
    }
    world.broadcast(&Control::Stop);
    world.drain_locates()
}

/// Counters read at the start and end of the measured window.
struct Mark {
    stats: LiveStats,
    scheme: SchemeStats,
    node_cpu_s: f64,
    issued: u64,
    finished: u64,
    failed: u64,
    moves_started: u64,
    moves_done: u64,
}

fn mark(world: &World) -> Mark {
    let b = &world.books;
    Mark {
        stats: world.platform.stats(),
        scheme: world.scheme.stats(),
        node_cpu_s: host::thread_cpu_seconds("agentrack-node"),
        issued: b.issued.load(Ordering::Relaxed),
        finished: b.finished(),
        failed: b.failed.load(Ordering::Relaxed),
        moves_started: b.moves_started.load(Ordering::Relaxed),
        moves_done: b.moves_done.load(Ordering::Relaxed),
    }
}

/// Phase-A locate latency from due time, µs: each statistic is the
/// median over the phase's windows.
struct Latency {
    mean_us: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

impl Latency {
    fn of(books: &Books, spec: &LiveSpec) -> Self {
        // Only full windows count (the last one is partial).
        let min_count = (spec.open_rate * WINDOW_NS as f64 / 1e9 / 2.0) as u64;
        let over =
            |stat: &dyn Fn(&Hist) -> f64| median_over(&books.open_windows, min_count, stat) / 1e3;
        Latency {
            mean_us: over(&Hist::mean),
            p50_us: over(&|h| h.quantile(0.5)),
            p90_us: over(&|h| h.quantile(0.9)),
            p99_us: over(&|h| h.quantile(0.99)),
        }
    }
}

/// One measured window: phase A then phase B, then the drain.
struct Measured {
    gen: OpenLoop,
    latency: Latency,
    capacity: f64,
    start: Mark,
    end: Mark,
}

/// Alternates `rounds` phase-A segments (`a_secs` in all) with phase-B
/// segments (`b_secs` in all), so host speed drifting over the run
/// weighs on both phases alike.
fn measure(
    world: &World,
    spec: &LiveSpec,
    rng: &mut SimRng,
    rounds: usize,
    a_secs: f64,
    b_secs: f64,
) -> Result<Measured, String> {
    let start = mark(world);
    let mut gen = OpenLoop::default();
    let mut rates = Vec::new();
    for _ in 0..rounds {
        open_loop(world, spec.open_rate, a_secs / rounds as f64, rng, &mut gen);
        world.drain_locates()?;
        closed_loop(world, b_secs / rounds as f64, &mut rates)?;
    }
    let end = mark(world);
    Ok(Measured {
        gen,
        latency: Latency::of(&world.books, spec),
        capacity: median(&mut rates),
        start,
        end,
    })
}

/// Runs a live workload.
pub fn run(spec: &LiveSpec, req: &Request<'_>) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut rng = SimRng::seed_from(req.seed ^ 0x9e37_79b9_7f4a_7c15);
    let secs = req.seconds.max(0.5);
    // Phase A gets 60 % of the budget, phase B the rest; a traced run
    // splits it over an untraced and a traced platform.
    let (rounds, a_secs, b_secs) = if req.trace {
        (2, 0.3 * secs, 0.2 * secs)
    } else {
        (ROUNDS, 0.6 * secs, 0.4 * secs)
    };
    let windows = (a_secs * 1e9 / WINDOW_NS as f64).ceil() as usize + rounds;

    let mut setups = Vec::new();
    let world = loop {
        let world = setup(spec, req.seed, false, windows)?;
        setups.push(world.setup_s);
        if setups.len() == if req.trace { 1 } else { SETUPS } {
            break world;
        }
        world.finish(&mut outcome)?;
    };
    let m = measure(&world, spec, &mut rng, rounds, a_secs, b_secs)?;
    let books = Arc::clone(&world.books);
    let (s, e) = (&m.start, &m.end);
    let locates_done = e.finished - s.finished - (e.failed - s.failed);
    let moves = e.moves_done - s.moves_done;
    let failed = e.failed - s.failed;
    outcome.attempted = (e.issued - s.issued) + (e.moves_started - s.moves_started);
    outcome.failed = failed;
    world.finish(&mut outcome)?;

    let gen_p50 = m.gen.late.quantile(0.5);
    outcome.notes.push(format!(
        "generator: {} requests at {}/s, late p50 {:.1} us p99 {:.1} us",
        m.gen.sent,
        spec.open_rate,
        gen_p50 / 1e3,
        m.gen.late.quantile(0.99) / 1e3
    ));
    if gen_p50 > MAX_GEN_LATE_P50_NS {
        outcome.invalid = Some(format!(
            "the generator ran {:.0} us late at the median (limit {:.0} us): offered load not met",
            gen_p50 / 1e3,
            MAX_GEN_LATE_P50_NS / 1e3
        ));
    }
    outcome.notes.push(format!(
        "latency from due time: mean {:.1} us, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us (medians over {} ms windows)",
        m.latency.mean_us,
        m.latency.p50_us,
        m.latency.p90_us,
        m.latency.p99_us,
        WINDOW_NS / 1_000_000
    ));
    let (ss, es) = (&s.scheme, &e.scheme);
    outcome.notes.push(format!(
        "window: {} locates, {} moves, {} failed, {} splits, {} merges, {} trackers",
        locates_done,
        moves,
        failed,
        es.splits - ss.splits,
        es.merges - ss.merges,
        es.trackers
    ));

    if !req.trace {
        let ops = (locates_done + moves).max(1) as f64;
        outcome.set("setup_s", median(&mut setups));
        outcome.set("locate_us", m.latency.p50_us);
        outcome.set("locate_capacity_per_s", m.capacity);
        outcome.set("cpu_us_per_op", (e.node_cpu_s - s.node_cpu_s) * 1e6 / ops);
        outcome.set("peak_rss_mb", host::peak_rss_mb());
        return Ok(outcome);
    }

    let (st, et) = (&s.stats, &e.stats);
    let sent = et.messages_sent - st.messages_sent;
    let hits = et.route_cache_hits - st.route_cache_hits;
    let lookups = hits + et.route_cache_misses - st.route_cache_misses;
    outcome.set("bench.gen_late_p50_us", gen_p50 / 1e3);
    outcome.set("bench.gen_late_p99_us", m.gen.late.quantile(0.99) / 1e3);
    outcome.set("bench.locate_p99_us", m.latency.p99_us);
    outcome.set("platform.post_ns", m.gen.post_ns.quantile(0.5));
    outcome.set(
        "platform.msgs_per_op",
        sent as f64 / (locates_done + moves).max(1) as f64,
    );
    outcome.set(
        "platform.bounce_ratio",
        (et.messages_failed - st.messages_failed) as f64 / sent.max(1) as f64,
    );
    outcome.set(
        "platform.route_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );
    outcome.set("platform.move_p50_us", books.move_ns.quantile(0.5) / 1e3);
    outcome.set(
        "core.client_locate_ns",
        books.client_locate_ns.quantile(0.5),
    );
    outcome.set(
        "core.client_on_message_ns",
        books.client_on_message_ns.quantile(0.5),
    );
    outcome.set("core.client_moved_ns", books.client_moved_ns.quantile(0.5));
    outcome.set(
        "core.locate_fail_ratio",
        failed as f64 / (e.issued - s.issued).max(1) as f64,
    );
    outcome.set("core.splits", (es.splits - ss.splits) as f64);
    outcome.set("core.merges", (es.merges - ss.merges) as f64);
    outcome.set("core.trackers", es.trackers as f64);
    outcome.set("core.stale_hits", (es.stale_hits - ss.stale_hits) as f64);
    outcome.set("core.hf_fetches", (es.hf_fetches - ss.hf_fetches) as f64);
    outcome.set("hashtree.height", es.tree_height as f64);
    outcome.set(
        "hashtree.mean_prefix_bits",
        es.depth_bits_total as f64 / es.trackers.max(1) as f64,
    );

    // The traced platform: phase A only, with the trace ring and
    // telemetry on.
    let traced = setup(spec, req.seed, true, windows)?;
    let before = traced.platform.telemetry_snapshot();
    traced.trace.clear();
    let mut gen = OpenLoop::default();
    open_loop(&traced, spec.open_rate, a_secs, &mut rng, &mut gen);
    traced.drain_locates()?;
    let records = traced.trace.snapshot();
    let after = traced.platform.telemetry_snapshot();
    let traced_p50_us = Latency::of(&traced.books, spec).p50_us;
    traced.finish(&mut outcome)?;
    outcome.check(gen.sent > 0, || "traced generator sent nothing".into());
    spans::attribute(&records, TRACE_SPANS).report(&mut outcome);
    outcome.set(
        "bench.trace_overhead_pct",
        (traced_p50_us / m.latency.p50_us - 1.0) * 100.0,
    );
    outcome.set("platform.queue_depth_max", gen.queue_depth_max as f64);
    if let (Some(before), Some(after)) = (before, after) {
        outcome.set(
            "platform.deliver_p50_us",
            window_p50_us(&before.deliver_ns, &after.deliver_ns),
        );
    }
    Ok(outcome)
}

/// Median of the values recorded between two cumulative snapshots of a
/// program histogram (upper bound of its power-of-two bucket), in µs.
fn window_p50_us(before: &LogHistogram, after: &LogHistogram) -> f64 {
    let counts: Vec<u64> = after
        .counts()
        .iter()
        .zip(before.counts())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = counts.iter().sum();
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if total > 0 && seen * 2 >= total {
            return LogHistogram::bucket_upper(i).as_nanos() as f64 / 1e3;
        }
    }
    0.0
}
