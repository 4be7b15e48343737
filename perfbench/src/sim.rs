//! `sim-paper`: the paper's Figure-7 set-up on the deterministic
//! simulator, run through `Scenario::run_with` with the post-run audit.
//!
//! The benchmark wraps the hashed scheme in [`TimedScheme`], which
//! forwards every call, notes two instants — the first client
//! registration (the simulation has started) and the audit's first
//! `set_adaptation_frozen(true)` (the simulation has ended and the audit
//! begins), so set-up and audit time stay out of the run's wall time —
//! and times the `DirectoryClient` calls the workload's agents make.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use agentrack_core::{
    ClientEvent, ClientFactory, CopyRole, DirectoryClient, Freshness, HashedScheme, LocationConfig,
    LocationScheme, SchemeStats,
};
use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload, Spawner, TimerId};
use agentrack_sim::{MetricsRegistry, TraceSink};
use agentrack_workload::{AuditOptions, RunOptions, Scenario, ScenarioReport};

use crate::hist::{median, Hist};
use crate::{host, spans, Outcome, Request, Scale};

/// Trace ring size for the traced run: the newest records of the run,
/// enough for thousands of complete locates.
const TRACE_RECORDS: usize = 200_000;
/// Locates folded into the per-phase attribution.
const TRACE_SPANS: usize = 4096;
/// Untraced runs go as this many identical cells in parallel, one thread
/// each, the way `repro --jobs` and the scenario lab run cells: the
/// benchmark host's two cores run at speeds that drift apart, and a
/// single-threaded run timed on one of them spread by a quarter over ten
/// runs.
const CELLS: usize = 2;

/// The simulated workload's size.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// TAgent population.
    pub agents: usize,
    /// Queries issued over the run.
    pub queries: u64,
}

impl SimSpec {
    /// `Scenario::new` defaults (16 nodes, 300 µs links, 1 ms service,
    /// 500 ms residence) with 2,000 TAgents and 20,000 queries.
    pub fn paper(scale: Scale) -> Self {
        match scale {
            Scale::Full => SimSpec {
                agents: 2000,
                queries: 20_000,
            },
            Scale::Tiny => SimSpec {
                agents: 100,
                queries: 1000,
            },
        }
    }
}

/// Instants and call timings collected by [`TimedScheme`].
struct Probe {
    started: OnceLock<(Instant, f64)>,
    frozen: OnceLock<(Instant, f64)>,
    /// Cleared when the audit starts, so its probes are not timed.
    timing: AtomicBool,
    locate: Hist,
    on_message: Hist,
    moved: Hist,
}

impl Probe {
    fn time<T>(&self, hist: &Hist, f: impl FnOnce() -> T) -> T {
        if !self.timing.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        hist.record(t0.elapsed().as_nanos() as u64);
        out
    }
}

/// The hashed scheme with a stopwatch around it.
struct TimedScheme {
    inner: HashedScheme,
    probe: Arc<Probe>,
}

impl LocationScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bootstrap(&mut self, platform: &mut dyn Spawner) {
        self.inner.bootstrap(platform);
    }

    fn client_factory(&self) -> ClientFactory {
        let inner = self.inner.client_factory();
        let probe = Arc::clone(&self.probe);
        Arc::new(move || {
            Box::new(TimedClient {
                inner: inner(),
                probe: Arc::clone(&probe),
            }) as Box<dyn DirectoryClient>
        })
    }

    fn stats(&self) -> SchemeStats {
        self.inner.stats()
    }

    fn registry(&self) -> MetricsRegistry {
        self.inner.registry()
    }

    fn hash_versions(&self) -> Vec<(u64, CopyRole, u64)> {
        self.inner.hash_versions()
    }

    fn set_adaptation_frozen(&self, frozen: bool) {
        if frozen {
            self.probe
                .frozen
                .get_or_init(|| (Instant::now(), host::current_thread_cpu_seconds()));
            self.probe.timing.store(false, Ordering::Relaxed);
        }
        self.inner.set_adaptation_frozen(frozen);
    }
}

struct TimedClient {
    inner: Box<dyn DirectoryClient>,
    probe: Arc<Probe>,
}

impl DirectoryClient for TimedClient {
    fn register(&mut self, ctx: &mut AgentCtx<'_>) {
        self.probe
            .started
            .get_or_init(|| (Instant::now(), host::current_thread_cpu_seconds()));
        self.inner.register(ctx);
    }

    fn moved(&mut self, ctx: &mut AgentCtx<'_>) {
        let (probe, inner) = (&self.probe, &mut self.inner);
        probe.time(&probe.moved, || inner.moved(ctx));
    }

    fn deregister(&mut self, ctx: &mut AgentCtx<'_>) {
        self.inner.deregister(ctx);
    }

    fn locate(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, token: u64) {
        let (probe, inner) = (&self.probe, &mut self.inner);
        probe.time(&probe.locate, || inner.locate(ctx, target, token));
    }

    fn locate_with(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        target: AgentId,
        token: u64,
        freshness: Freshness,
    ) {
        let (probe, inner) = (&self.probe, &mut self.inner);
        probe.time(&probe.locate, || {
            inner.locate_with(ctx, target, token, freshness);
        });
    }

    fn on_message(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        from: AgentId,
        payload: &Payload,
    ) -> ClientEvent {
        let (probe, inner) = (&self.probe, &mut self.inner);
        probe.time(&probe.on_message, || inner.on_message(ctx, from, payload))
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) -> ClientEvent {
        self.inner.on_delivery_failed(ctx, to, node, payload)
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) -> ClientEvent {
        self.inner.on_timer(ctx, timer)
    }

    fn restarted(&mut self, ctx: &mut AgentCtx<'_>) {
        self.inner.restarted(ctx);
    }

    fn send_via(&mut self, ctx: &mut AgentCtx<'_>, target: AgentId, data: Vec<u8>) -> bool {
        self.inner.send_via(ctx, target, data)
    }
}

/// One audited scenario run and its readings.
struct SimRun {
    report: ScenarioReport,
    setup_s: f64,
    wall_s: f64,
    /// CPU time of the thread that ran the simulation.
    cpu_s: f64,
    probe: Arc<Probe>,
}

fn run_once(spec: SimSpec, seed: u64, sink: TraceSink, outcome: &mut Outcome) -> SimRun {
    let scenario = Scenario::new("sim-paper")
        .with_agents(spec.agents)
        .with_queries(spec.queries)
        .with_seed(seed);
    let probe = Arc::new(Probe {
        started: OnceLock::new(),
        frozen: OnceLock::new(),
        timing: AtomicBool::new(true),
        locate: Hist::default(),
        on_message: Hist::default(),
        moved: Hist::default(),
    });
    let mut scheme = TimedScheme {
        inner: HashedScheme::new(LocationConfig::default()),
        probe: Arc::clone(&probe),
    };
    let t0 = Instant::now();
    let options = RunOptions::new()
        .with_sink(sink)
        .with_audit(AuditOptions::default());
    let out = scenario.run_with(&mut scheme, options);
    let end = (Instant::now(), host::current_thread_cpu_seconds());
    let &(started, cpu_started) = probe.started.get().unwrap_or(&(t0, 0.0));
    let &(frozen, cpu_frozen) = probe.frozen.get().unwrap_or(&end);

    match &out.invariants {
        Some(audit) => outcome.check(audit.ok(), || {
            format!("sim-paper audit violations: {:?}", audit.violations)
        }),
        None => outcome.problems.push("sim-paper audit did not run".into()),
    }
    let report = out.report;
    outcome.check(report.locates_completed > 0, || {
        "sim-paper completed no locate".into()
    });
    SimRun {
        setup_s: started.duration_since(t0).as_secs_f64(),
        wall_s: frozen.duration_since(started).as_secs_f64(),
        cpu_s: cpu_frozen - cpu_started,
        report,
        probe,
    }
}

/// Runs `cells` audited runs of the same seed in parallel, one thread
/// each.
fn run_cells(spec: SimSpec, seed: u64, cells: usize, outcome: &mut Outcome) -> Vec<SimRun> {
    let runs: Vec<(SimRun, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cells)
            .map(|_| {
                scope.spawn(move || {
                    let mut cell = Outcome::default();
                    (run_once(spec, seed, TraceSink::disabled(), &mut cell), cell)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sim-paper cell panicked"))
            .collect()
    });
    runs.into_iter()
        .map(|(run, cell)| {
            outcome.problems.extend(cell.problems);
            run
        })
        .collect()
}

/// Runs `sim-paper`. Untraced: `CELLS` identical audited runs in
/// parallel, which must reproduce each other exactly. Traced: one
/// untraced run, then one traced run of the same seed for the per-phase
/// attribution and the tracing overhead.
pub fn run(spec: &SimSpec, req: &Request<'_>) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let cells = run_cells(
        *spec,
        req.seed,
        if req.trace { 1 } else { CELLS },
        &mut outcome,
    );
    let plain = &cells[0];
    let r = &plain.report;
    for cell in &cells[1..] {
        let same = cell.report.messages_sent == r.messages_sent
            && cell.report.mean_locate_ms == r.mean_locate_ms;
        outcome.check(same, || "sim-paper cells of one seed differ".into());
    }
    outcome.attempted = r.locates_issued + r.moves;
    outcome.failed = r.locate_failures
        + r.locates_issued
            .saturating_sub(r.locates_completed + r.locate_failures);
    outcome.notes.push(format!(
        "sim-paper: {} TAgents, {} queries, {} messages, {} trackers, {} splits, {} merges, cells {:?} s wall",
        r.agents,
        r.locates_issued,
        r.messages_sent,
        r.trackers,
        r.splits,
        r.merges,
        cells.iter().map(|c| (c.wall_s * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    if !req.trace {
        let mut setups: Vec<f64> = cells.iter().map(|c| c.setup_s).collect();
        let cpu_s: f64 = cells.iter().map(|c| c.cpu_s).sum();
        let ops = (r.locates_completed + r.moves).max(1) as f64 * cells.len() as f64;
        outcome.set("setup_s", median(&mut setups));
        outcome.set("locate_us", r.mean_locate_ms * 1000.0);
        outcome.set(
            "locate_capacity_per_s",
            cells
                .iter()
                .map(|c| c.report.locates_completed as f64 / c.wall_s)
                .sum(),
        );
        outcome.set("cpu_us_per_op", cpu_s * 1e6 / ops);
        outcome.set("peak_rss_mb", host::peak_rss_mb());
        return Ok(outcome);
    }

    let sink = TraceSink::bounded(TRACE_RECORDS);
    let traced = run_once(*spec, req.seed, sink.clone(), &mut outcome);
    let split = spans::attribute(&sink.snapshot(), TRACE_SPANS);
    split.report(&mut outcome);
    outcome.set(
        "bench.trace_overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );

    let issued = r.locates_issued.max(1) as f64;
    outcome.set("bench.locate_p99_us", r.p99_locate_ms * 1000.0);
    outcome.set(
        "platform.msgs_per_op",
        r.messages_sent as f64 / (r.locates_completed + r.moves).max(1) as f64,
    );
    outcome.set(
        "platform.bounce_ratio",
        r.messages_failed as f64 / r.messages_sent.max(1) as f64,
    );
    outcome.set("core.client_locate_ns", plain.probe.locate.quantile(0.5));
    outcome.set(
        "core.client_on_message_ns",
        plain.probe.on_message.quantile(0.5),
    );
    outcome.set("core.client_moved_ns", plain.probe.moved.quantile(0.5));
    outcome.set("core.locate_fail_ratio", outcome.failed as f64 / issued);
    outcome.set("core.splits", r.splits as f64);
    outcome.set("core.merges", r.merges as f64);
    outcome.set("core.trackers", r.trackers as f64);
    outcome.set("core.stale_hits", r.stale_hits as f64);
    outcome.set("core.hf_fetches", r.hf_fetches as f64);
    outcome.set("hashtree.height", r.tree_height as f64);
    outcome.set("hashtree.mean_prefix_bits", r.mean_prefix_bits);
    outcome.set("sim.messages", r.messages_sent as f64);
    outcome.set(
        "sim.wall_ns_per_msg",
        plain.wall_s * 1e9 / r.messages_sent.max(1) as f64,
    );
    outcome.set("sim.locate_mean_ms", r.mean_locate_ms);
    Ok(outcome)
}
