//! Live-runtime throughput bench: locates/sec + moves/sec on the
//! threaded [`LivePlatform`] at 1M–10M registered agents.
//!
//! Everything else in this repo measures the *discrete-event* kernel;
//! this binary is the one that makes the live runtime put up headline
//! numbers for the paper's scalability claim. It spins up `--nodes` node
//! threads, registers `--agents` no-op mobile agents, then drives
//! `--drivers` external threads through [`LiveHandle`]s with a mixed
//! workload: Zipf-popular location lookups plus a trickle of real
//! migrations (`--move-pct`), which is exactly the traffic shape that
//! punishes a global registry lock and rewards the sharded
//! registry / batched channels / generation-validated route cache added
//! in `platform/src/live/`.
//!
//! ```text
//! live_bench [--agents N] [--nodes N] [--seconds S] [--drivers K]
//!            [--shards N] [--batch N] [--drain-budget N]
//!            [--route-cache-bits B] [--move-pct P] [--zipf S] [--seed N]
//!            [--inflight N] [--compare] [--check] [--out FILE]
//! ```
//!
//! * `--shards 1 --batch 1 --drain-budget 1 --route-cache-bits 0`
//!   reproduces the pre-sharding runtime: one global registry lock, one
//!   channel op per message, one blocking receive per wake-up, no route
//!   cache — none of which existed before the `live/` split.
//! * `--compare` runs the tuned arm and that baseline arm in one
//!   invocation and emits a `speedup` section.
//! * `--check` is the CI smoke mode: after the measured window it
//!   asserts the books balance (`sent == delivered + failed`), every
//!   sampled agent is still locatable, and no node died — exiting
//!   non-zero otherwise.
//!
//! The output (`BENCH_live.json` by default) carries a `results` array
//! in the exact shape `bench_gate` consumes, so CI gates it against
//! `results/bench_live_baseline.json`.

use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use agentrack_platform::{
    to_flight_json, to_flight_perfetto, Agent, AgentCtx, AgentId, LiveConfig, LivePlatform,
    LiveStats, NodeId, Payload, TelemetrySnapshot, TraceSink,
};
use agentrack_sim::{LogHistogram, SimRng, Zipf};

/// The bench's only behaviour: migrate wherever a `u32` payload says.
struct Sink;
impl Agent for Sink {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        if let Ok(dest) = payload.decode::<u32>() {
            ctx.dispatch(NodeId::new(dest));
        }
    }
}

#[derive(Clone)]
struct Opts {
    nodes: u32,
    agents: u64,
    seconds: f64,
    drivers: usize,
    shards: usize,
    batch: usize,
    drain_budget: usize,
    route_cache_bits: u8,
    move_pct: f64,
    zipf: f64,
    seed: u64,
    inflight: u64,
    settle_secs: f64,
    compare: bool,
    check: bool,
    telemetry: bool,
    flight_recorder: usize,
    overhead: bool,
    overhead_reps: usize,
    overhead_max_pct: f64,
    flight_out: Option<String>,
    csv_out: String,
    out: String,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            nodes: 4,
            agents: 1_000_000,
            seconds: 5.0,
            drivers: 2,
            shards: 0, // auto (1024)
            batch: 64,
            drain_budget: 256,
            route_cache_bits: 20,
            // Read-dominated mix: a location mechanism exists because
            // lookups vastly outnumber migrations.
            move_pct: 1.0,
            zipf: 1.1,
            seed: 0x11fe,
            inflight: 200_000,
            settle_secs: 30.0,
            compare: false,
            check: false,
            telemetry: false,
            flight_recorder: 0,
            overhead: false,
            overhead_reps: 1,
            overhead_max_pct: 0.0,
            flight_out: None,
            csv_out: "results/live_telemetry.csv".to_string(),
            out: "BENCH_live.json".to_string(),
        }
    }
}

/// Throughput measured for one platform configuration.
struct ArmResult {
    locates_per_sec: f64,
    moves_per_sec: f64,
    posts_per_sec: f64,
    cache_hit_rate: f64,
    window_secs: f64,
    stats: LiveStats,
    /// The final (post-drain) telemetry snapshot, when the arm ran
    /// instrumented.
    snapshot: Option<TelemetrySnapshot>,
}

impl ArmResult {
    fn ns(rate: f64) -> f64 {
        if rate > 0.0 {
            1e9 / rate
        } else {
            f64::INFINITY
        }
    }
}

/// A latency percentile read off a telemetry histogram, in nanoseconds.
fn pctl(h: &LogHistogram, p: f64) -> f64 {
    h.percentile(p).as_nanos() as f64
}

/// One histogram as a JSON object of percentiles plus its sample count.
fn fmt_pctls(h: &LogHistogram) -> String {
    format!(
        "{{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}, \"samples\": {}}}",
        pctl(h, 50.0),
        pctl(h, 95.0),
        pctl(h, 99.0),
        h.len()
    )
}

/// How many driver ops sit between two move ops for a given percentage.
fn move_stride(move_pct: f64) -> u64 {
    if move_pct <= 0.0 {
        0
    } else {
        ((100.0 / move_pct).round() as u64).max(1)
    }
}

fn run_arm(opts: &Opts, config: LiveConfig, label: &str) -> Result<ArmResult, String> {
    eprintln!(
        "live_bench[{label}]: {} agents on {} nodes, {} drivers, shards={}, batch={}, \
         cache=2^{}, {:.0}% moves, {:.1}s window",
        opts.agents,
        opts.nodes,
        opts.drivers,
        config.effective_shards(),
        config.batch_max,
        config.route_cache_bits,
        opts.move_pct,
        opts.seconds,
    );
    let platform = LivePlatform::with_config(opts.nodes, config, TraceSink::disabled());

    // ---- Register the population and wait until every agent is active.
    let spawn_start = Instant::now();
    for i in 0..opts.agents {
        platform.spawn(
            Box::new(Sink),
            NodeId::new((i % u64::from(opts.nodes)) as u32),
        );
        // Don't let the spawn loop run the welcome queues arbitrarily
        // deep: cap the backlog so memory stays bounded at 10M agents.
        if i % 262_144 == 0 && i > 0 {
            while i.saturating_sub(platform.stats().agents_activated) > 2_000_000 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let activation_deadline = Instant::now() + Duration::from_secs(600);
    while platform.stats().agents_activated < opts.agents {
        if Instant::now() > activation_deadline {
            return Err(format!(
                "activation stalled: {}/{} agents",
                platform.stats().agents_activated,
                opts.agents
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!(
        "live_bench[{label}]: population active in {:.1}s",
        spawn_start.elapsed().as_secs_f64()
    );

    // ---- Pre-sample the workload so the measured loop does no RNG or
    // Zipf binary-search work, only the operations under test.
    const PRESAMPLE: usize = 1 << 16;
    const PMASK: u64 = (PRESAMPLE - 1) as u64;
    let zipf = Zipf::new(opts.agents as usize, opts.zipf);
    let stride = move_stride(opts.move_pct);
    let hop_payloads: Vec<Payload> = (0..opts.nodes).map(|n| Payload::encode(&n)).collect();

    let total_locates = AtomicU64::new(0);
    let total_posts = AtomicU64::new(0);
    let total_hits = AtomicU64::new(0);
    let total_misses = AtomicU64::new(0);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(opts.seconds);
    let stats_at_start = platform.stats();

    std::thread::scope(|s| {
        for d in 0..opts.drivers {
            let platform = &platform;
            let zipf = &zipf;
            let hop_payloads = &hop_payloads;
            let (total_locates, total_posts) = (&total_locates, &total_posts);
            let (total_hits, total_misses) = (&total_hits, &total_misses);
            let opts = opts.clone();
            s.spawn(move || {
                let mut rng = SimRng::seed_from(opts.seed ^ (0xd00d + d as u64));
                let locate_targets: Vec<u64> = (0..PRESAMPLE)
                    .map(|_| zipf.sample(&mut rng) as u64)
                    .collect();
                let move_targets: Vec<u64> = (0..PRESAMPLE)
                    .map(|_| rng.index(opts.agents as usize) as u64)
                    .collect();
                let move_dests: Vec<u32> = (0..PRESAMPLE)
                    .map(|_| rng.index(opts.nodes as usize) as u32)
                    .collect();

                let mut handle = platform.handle();
                let (mut locates, mut posts, mut i) = (0u64, 0u64, 0u64);
                while Instant::now() < deadline {
                    for _ in 0..4096 {
                        i += 1;
                        let slot = (i & PMASK) as usize;
                        if stride != 0 && i % stride == 0 {
                            let target = AgentId::new(move_targets[slot]);
                            // Rotate the destination on every pass through the
                            // presample ring: a slot that always named the same
                            // node would only migrate its agent once.
                            let dest =
                                (u64::from(move_dests[slot]) + (i >> 16)) % u64::from(opts.nodes);
                            let hop = hop_payloads[dest as usize].clone();
                            if handle.post(target, hop) {
                                posts += 1;
                            }
                        } else if handle.locate(AgentId::new(locate_targets[slot])).is_some() {
                            locates += 1;
                        }
                    }
                    handle.flush();
                    // Backpressure: never let posted work outrun the node
                    // threads unboundedly, or "throughput" would just be
                    // queue growth.
                    let st = platform.stats();
                    let in_flight = st.messages_sent - st.messages_delivered - st.messages_failed;
                    if in_flight > opts.inflight {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                handle.flush();
                total_locates.fetch_add(locates, Ordering::Relaxed);
                total_posts.fetch_add(posts, Ordering::Relaxed);
                total_hits.fetch_add(handle.cache_hits(), Ordering::Relaxed);
                total_misses.fetch_add(handle.cache_misses(), Ordering::Relaxed);
            });
        }
    });
    let window = start.elapsed().as_secs_f64();
    let stats_at_end = platform.stats();

    // ---- Settle: drain in-flight messages until the books balance.
    let settle_deadline = Instant::now() + Duration::from_secs_f64(opts.settle_secs);
    loop {
        let s = platform.stats();
        if s.messages_sent == s.messages_delivered + s.messages_failed {
            break;
        }
        if Instant::now() > settle_deadline {
            return Err(format!(
                "settle timeout: sent {} != delivered {} + failed {}",
                s.messages_sent, s.messages_delivered, s.messages_failed
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let final_stats = platform.stats();
    if opts.check {
        check_invariants(&platform, opts, &final_stats)?;
    }
    let (end_stats, snapshot) = platform.shutdown_telemetry();
    if opts.check {
        if let Some(snap) = &snapshot {
            check_snapshot(snap, &end_stats)?;
        }
    }

    let locates = total_locates.load(Ordering::Relaxed);
    let posts = total_posts.load(Ordering::Relaxed);
    let hits = total_hits.load(Ordering::Relaxed);
    let misses = total_misses.load(Ordering::Relaxed);
    let moves_in_window = stats_at_end.migrations - stats_at_start.migrations;
    let result = ArmResult {
        locates_per_sec: locates as f64 / window,
        moves_per_sec: moves_in_window as f64 / window,
        posts_per_sec: posts as f64 / window,
        cache_hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        window_secs: window,
        stats: end_stats,
        snapshot,
    };
    eprintln!(
        "live_bench[{label}]: {:.0} locates/s, {:.0} moves/s, {:.0} posts/s, \
         cache hit rate {:.1}%",
        result.locates_per_sec,
        result.moves_per_sec,
        result.posts_per_sec,
        result.cache_hit_rate * 100.0,
    );
    if let Some(snap) = &result.snapshot {
        eprintln!(
            "live_bench[{label}]: telemetry: locate p50/p99 {:.0}/{:.0}ns, \
             move p50/p99 {:.0}/{:.0}ns, deliver p50/p99 {:.0}/{:.0}ns, \
             {} slow ops captured, {} stalled",
            pctl(&snap.locate_ns, 50.0),
            pctl(&snap.locate_ns, 99.0),
            pctl(&snap.move_ns, 50.0),
            pctl(&snap.move_ns, 99.0),
            pctl(&snap.deliver_ns, 50.0),
            pctl(&snap.deliver_ns, 99.0),
            snap.slow_ops.len(),
            snap.stalled_nodes,
        );
    }
    Ok(result)
}

/// `--check --telemetry`: the snapshot must tell the same story as the
/// platform counters — per-node rows summing to totals, totals matching
/// `LiveStats`, and every channel's books closed.
fn check_snapshot(snap: &TelemetrySnapshot, stats: &LiveStats) -> Result<(), String> {
    let delivered: u64 = snap.nodes.iter().map(|n| n.delivered).sum();
    let failed: u64 = snap.nodes.iter().map(|n| n.failed).sum();
    if delivered != snap.delivered_total || failed != snap.failed_total {
        return Err(format!(
            "check: snapshot node rows do not sum to its totals: \
             {delivered}/{} delivered, {failed}/{} failed",
            snap.delivered_total, snap.failed_total
        ));
    }
    if snap.delivered_total != stats.messages_delivered
        || snap.failed_total != stats.messages_failed
    {
        return Err(format!(
            "check: snapshot disagrees with LiveStats: {}/{} delivered, {}/{} failed",
            snap.delivered_total,
            stats.messages_delivered,
            snap.failed_total,
            stats.messages_failed
        ));
    }
    for n in &snap.nodes {
        if n.queue_depth != 0 || n.enqueued != n.processed {
            return Err(format!(
                "check: node {} channel books did not close: {} in, {} out",
                n.node, n.enqueued, n.processed
            ));
        }
    }
    if stats.migrations > 0 && snap.move_ns.is_empty() {
        return Err("check: migrations happened but the move histogram is empty".into());
    }
    eprintln!("live_bench: telemetry snapshot checks passed");
    Ok(())
}

/// `--check` mode: the assertions that make the smoke run a test.
fn check_invariants(platform: &LivePlatform, opts: &Opts, stats: &LiveStats) -> Result<(), String> {
    if stats.agents_activated != opts.agents {
        return Err(format!(
            "check: only {}/{} agents activated",
            stats.agents_activated, opts.agents
        ));
    }
    if stats.messages_sent != stats.messages_delivered + stats.messages_failed {
        return Err(format!("check: message books do not balance: {stats:?}"));
    }
    if stats.nodes_dead != 0 {
        return Err(format!("check: {} node(s) died", stats.nodes_dead));
    }
    // Every sampled agent must still be registered and locatable through
    // both the lock path and a fresh route cache.
    let mut handle = platform.handle();
    let step = (opts.agents / 1000).max(1);
    for i in (0..opts.agents).step_by(step as usize) {
        let id = AgentId::new(i);
        let via_registry = platform.agent_node(id);
        let via_cache = handle.locate(id);
        if via_registry.is_none() {
            return Err(format!("check: {id} lost from the registry"));
        }
        if via_cache != via_registry {
            return Err(format!(
                "check: {id} cache/registry disagree at quiesce: {via_cache:?} vs {via_registry:?}"
            ));
        }
    }
    if opts.move_pct > 0.0 && stats.migrations == 0 {
        return Err("check: a move mix was requested but nothing migrated".into());
    }
    eprintln!("live_bench: checks passed");
    Ok(())
}

fn fmt_arm(label: &str, arm: &ArmResult) -> String {
    format!(
        "  \"{label}\": {{\n    \"locates_per_sec\": {:.0},\n    \"moves_per_sec\": {:.0},\n    \
         \"posts_per_sec\": {:.0},\n    \"route_cache_hit_rate\": {:.4},\n    \
         \"window_secs\": {:.3},\n    \"messages_sent\": {},\n    \"messages_delivered\": {},\n    \
         \"messages_failed\": {},\n    \"migrations\": {}\n  }}",
        arm.locates_per_sec,
        arm.moves_per_sec,
        arm.posts_per_sec,
        arm.cache_hit_rate,
        arm.window_secs,
        arm.stats.messages_sent,
        arm.stats.messages_delivered,
        arm.stats.messages_failed,
        arm.stats.migrations,
    )
}

fn main() -> ExitCode {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    macro_rules! take {
        ($args:ident, $flag:expr) => {
            match $args.next().and_then(|v| v.parse().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("{} requires a value", $flag);
                    return ExitCode::FAILURE;
                }
            }
        };
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => opts.nodes = take!(args, "--nodes"),
            "--agents" => opts.agents = take!(args, "--agents"),
            "--seconds" => opts.seconds = take!(args, "--seconds"),
            "--drivers" => opts.drivers = take!(args, "--drivers"),
            "--shards" => opts.shards = take!(args, "--shards"),
            "--batch" => opts.batch = take!(args, "--batch"),
            "--drain-budget" => opts.drain_budget = take!(args, "--drain-budget"),
            "--route-cache-bits" => opts.route_cache_bits = take!(args, "--route-cache-bits"),
            "--move-pct" => opts.move_pct = take!(args, "--move-pct"),
            "--zipf" => opts.zipf = take!(args, "--zipf"),
            "--seed" => opts.seed = take!(args, "--seed"),
            "--inflight" => opts.inflight = take!(args, "--inflight"),
            "--settle-secs" => opts.settle_secs = take!(args, "--settle-secs"),
            "--out" => match args.next() {
                Some(p) => opts.out = p,
                None => {
                    eprintln!("--out requires a file");
                    return ExitCode::FAILURE;
                }
            },
            "--compare" => opts.compare = true,
            "--check" => opts.check = true,
            "--telemetry" => opts.telemetry = true,
            "--flight-recorder" => opts.flight_recorder = take!(args, "--flight-recorder"),
            "--overhead" => opts.overhead = true,
            "--overhead-reps" => opts.overhead_reps = take!(args, "--overhead-reps"),
            "--overhead-max-pct" => opts.overhead_max_pct = take!(args, "--overhead-max-pct"),
            "--flight-out" => match args.next() {
                Some(p) => opts.flight_out = Some(p),
                None => {
                    eprintln!("--flight-out requires a path prefix");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match args.next() {
                Some(p) => opts.csv_out = p,
                None => {
                    eprintln!("--csv requires a file");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: live_bench [--agents N] [--nodes N] [--seconds S] [--drivers K]\n\
                     \u{20}                 [--shards N] [--batch N] [--drain-budget N]\n\
                     \u{20}                 [--route-cache-bits B] [--move-pct P] [--zipf S]\n\
                     \u{20}                 [--seed N] [--inflight N] [--settle-secs S]\n\
                     \u{20}                 [--compare] [--check] [--out FILE]\n\
                     \u{20}                 [--telemetry] [--flight-recorder K]\n\
                     \u{20}                 [--overhead] [--overhead-reps N]\n\
                     \u{20}                 [--overhead-max-pct F] [--csv FILE]\n\
                     \u{20}                 [--flight-out PREFIX]\n\
                     --shards 1 --batch 1 --drain-budget 1 --route-cache-bits 0\n\
                     reproduces the pre-sharding runtime;\n\
                     --compare runs the tuned arm plus that baseline and reports speedups;\n\
                     --check asserts invariants (CI smoke mode);\n\
                     --telemetry instruments the run and adds p50/p95/p99 latency rows;\n\
                     --flight-recorder K keeps the K slowest ops (exported via --flight-out);\n\
                     --overhead runs off/on/on+flight arms, writes --csv, and (with\n\
                     --overhead-max-pct) fails if instrumented locate throughput drops more."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.nodes == 0 || opts.agents == 0 || opts.drivers == 0 {
        eprintln!("need at least one node, one agent and one driver");
        return ExitCode::FAILURE;
    }

    if opts.overhead && opts.telemetry {
        // The overhead table needs a clean uninstrumented arm; the main
        // arm is that arm.
        eprintln!("live_bench: --overhead implies the main arm runs telemetry-off");
        opts.telemetry = false;
    }
    let tuned = LiveConfig::default()
        .with_shards(opts.shards)
        .with_batch_max(opts.batch)
        .with_drain_budget(opts.drain_budget)
        .with_route_cache_bits(opts.route_cache_bits)
        .with_telemetry(opts.telemetry)
        .with_flight_recorder(if opts.telemetry {
            opts.flight_recorder
        } else {
            0
        });
    let mut main_arm = match run_arm(&opts, tuned, "tuned") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("live_bench: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    // ---- E19: telemetry overhead — off (the arm above), on, on+flight.
    if opts.overhead {
        let flight_k = opts.flight_recorder.max(64);
        let flight_name = format!("telemetry-on+flight-{flight_k}");
        let arms: [(&str, LiveConfig); 3] = [
            ("telemetry-off", tuned),
            ("telemetry-on", tuned.with_telemetry(true)),
            (
                flight_name.as_str(),
                tuned.with_telemetry(true).with_flight_recorder(flight_k),
            ),
        ];
        // Arms run interleaved with the starting arm rotated each rep
        // (rep 0: off,on,flight; rep 1: on,flight,off; …) and each slot
        // keeps its best rep. Throughput drifts several percent over a
        // long-lived process — warm-up early, allocator fragmentation
        // late — so a fixed order would systematically flatter whichever
        // config always ran in the luckiest position; rotation gives
        // every arm a turn in every position and best-of takes each
        // arm's luckiest draw.
        let mut best: [Option<ArmResult>; 3] = [Some(main_arm), None, None];
        let reps = opts.overhead_reps.max(1);
        for rep in 0..reps {
            for k in 0..arms.len() {
                let slot = (rep + k) % arms.len();
                let (name, config) = &arms[slot];
                if rep == 0 && slot == 0 {
                    continue; // the main arm above was rep 0 of "off"
                }
                let arm = match run_arm(&opts, *config, &format!("{name}#{rep}")) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("live_bench: FAILED ({name} arm): {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| arm.locates_per_sec > b.locates_per_sec)
                {
                    best[slot] = Some(arm);
                }
            }
        }
        let [off, on, flight] = best.map(|b| b.expect("every slot ran"));
        let overhead_pct =
            |arm: &ArmResult| (1.0 - arm.locates_per_sec / off.locates_per_sec.max(1.0)) * 100.0;
        let mut csv =
            String::from("arm,locates_per_sec,moves_per_sec,posts_per_sec,locate_overhead_pct\n");
        for (name, arm) in [
            ("telemetry-off", &off),
            ("telemetry-on", &on),
            (flight_name.as_str(), &flight),
        ] {
            csv.push_str(&format!(
                "{name},{:.0},{:.0},{:.0},{:.2}\n",
                arm.locates_per_sec,
                arm.moves_per_sec,
                arm.posts_per_sec,
                overhead_pct(arm),
            ));
        }
        if let Some(dir) = std::path::Path::new(&opts.csv_out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&opts.csv_out, &csv) {
            eprintln!("live_bench: cannot write {}: {e}", opts.csv_out);
            return ExitCode::FAILURE;
        }
        eprint!("live_bench: wrote {}\n{csv}", opts.csv_out);
        if opts.overhead_max_pct > 0.0 {
            for (name, arm) in [("telemetry-on", &on), ("telemetry+flight", &flight)] {
                let pct = overhead_pct(arm);
                if pct > opts.overhead_max_pct {
                    eprintln!(
                        "live_bench: FAILED: {name} locate overhead {pct:.2}% \
                         exceeds --overhead-max-pct {:.2}%",
                        opts.overhead_max_pct
                    );
                    return ExitCode::FAILURE;
                }
            }
            eprintln!(
                "live_bench: overhead within {:.1}% bound",
                opts.overhead_max_pct
            );
        }
        // The best uninstrumented rep is the honest headline.
        main_arm = off;
    }

    // ---- Flight recorder export.
    if let Some(prefix) = &opts.flight_out {
        match &main_arm.snapshot {
            Some(snap) if !snap.slow_ops.is_empty() => {
                let json_path = format!("{prefix}.json");
                let perfetto_path = format!("{prefix}.perfetto.json");
                if let Err(e) =
                    std::fs::write(&json_path, to_flight_json(&snap.slow_ops)).and_then(|()| {
                        std::fs::write(&perfetto_path, to_flight_perfetto(&snap.slow_ops))
                    })
                {
                    eprintln!("live_bench: cannot write flight capture: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("live_bench: wrote {json_path} and {perfetto_path}");
            }
            _ => eprintln!(
                "live_bench: --flight-out given but no slow ops captured \
                 (need --telemetry --flight-recorder K)"
            ),
        }
    }

    let flat_arm = if opts.compare {
        // The pre-split runtime: one registry lock, one channel op per
        // message, one blocking receive per wake-up, and no route cache.
        let flat = tuned
            .with_shards(1)
            .with_batch_max(1)
            .with_drain_budget(1)
            .with_route_cache_bits(0);
        match run_arm(&opts, flat, "pre-shard-batch") {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("live_bench: FAILED (baseline arm): {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // ---- Emit the JSON report (bench_gate-compatible `results` array).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"bench\": \"live runtime throughput (sharded registry, batched channels, route cache)\",\n",
    );
    let flag_suffix = format!(
        "{}{}{}",
        if opts.compare { " --compare" } else { "" },
        if opts.telemetry { " --telemetry" } else { "" },
        if opts.flight_recorder > 0 {
            format!(" --flight-recorder {}", opts.flight_recorder)
        } else {
            String::new()
        },
    );
    out.push_str(&format!(
        "  \"command\": \"cargo run -p agentrack-bench --release --bin live_bench -- \
         --agents {} --nodes {} --seconds {} --drivers {} --shards {} --batch {} \
         --drain-budget {} --route-cache-bits {} --move-pct {} --zipf {} --seed {}{}\",\n",
        opts.agents,
        opts.nodes,
        opts.seconds,
        opts.drivers,
        opts.shards,
        opts.batch,
        opts.drain_budget,
        opts.route_cache_bits,
        opts.move_pct,
        opts.zipf,
        opts.seed,
        flag_suffix,
    ));
    out.push_str(
        "  \"baseline_arm\": \"--shards 1 --batch 1 --drain-budget 1 --route-cache-bits 0 \
         (pre-shard/pre-batch runtime)\",\n",
    );
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"agents\": {}, \"drivers\": {}, \"shards\": {}, \
         \"batch\": {}, \"drain_budget\": {}, \"route_cache_bits\": {}, \"move_pct\": {}, \
         \"zipf\": {}, \"seed\": {}}},\n",
        opts.nodes,
        opts.agents,
        opts.drivers,
        tuned.effective_shards(),
        tuned.batch_max,
        tuned.drain_budget,
        tuned.route_cache_bits,
        opts.move_pct,
        opts.zipf,
        opts.seed,
    ));
    out.push_str(&fmt_arm("headline", &main_arm));
    out.push_str(",\n");
    if let Some(snap) = &main_arm.snapshot {
        out.push_str(&format!(
            "  \"telemetry\": {{\n    \"locate_ns\": {},\n    \"deliver_ns\": {},\n    \
             \"move_ns\": {},\n    \"timer_lag_ns\": {},\n    \
             \"route_cache_hit_rate\": {:.4},\n    \"stalled_nodes\": {},\n    \
             \"trace_dropped\": {},\n    \"slow_ops_captured\": {},\n    \
             \"registry_generation\": {}\n  }},\n",
            fmt_pctls(&snap.locate_ns),
            fmt_pctls(&snap.deliver_ns),
            fmt_pctls(&snap.move_ns),
            fmt_pctls(&snap.timer_lag_ns),
            {
                let total = snap.route_cache_hits + snap.route_cache_misses;
                if total > 0 {
                    snap.route_cache_hits as f64 / total as f64
                } else {
                    0.0
                }
            },
            snap.stalled_nodes,
            snap.trace_dropped,
            snap.slow_ops.len(),
            snap.registry_generation,
        ));
    }
    if let Some(flat) = &flat_arm {
        out.push_str(&fmt_arm("baseline_pre_shard_batch", flat));
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"speedup\": {{\"locate\": {:.2}, \"move\": {:.2}, \"post\": {:.2}}},\n",
            main_arm.locates_per_sec / flat.locates_per_sec.max(1.0),
            main_arm.moves_per_sec / flat.moves_per_sec.max(1.0),
            main_arm.posts_per_sec / flat.posts_per_sec.max(1.0),
        ));
    }
    out.push_str("  \"results\": [\n");
    let mut rows = vec![
        (
            "live/locate".to_string(),
            ArmResult::ns(main_arm.locates_per_sec),
        ),
        (
            "live/move".to_string(),
            ArmResult::ns(main_arm.moves_per_sec),
        ),
        (
            "live/post".to_string(),
            ArmResult::ns(main_arm.posts_per_sec),
        ),
    ];
    if let Some(snap) = &main_arm.snapshot {
        // Per-op latency percentiles straight off the telemetry
        // histograms: the rows bench_gate uses to catch tail-latency
        // regressions, not just throughput ones.
        for (op, h) in [
            ("locate", &snap.locate_ns),
            ("move", &snap.move_ns),
            ("deliver", &snap.deliver_ns),
        ] {
            if h.is_empty() {
                continue;
            }
            for p in [50.0, 95.0, 99.0] {
                rows.push((format!("live/{op}/p{p:.0}"), pctl(h, p)));
            }
        }
    }
    if let Some(flat) = &flat_arm {
        rows.push((
            "live/locate/pre-shard-batch".into(),
            ArmResult::ns(flat.locates_per_sec),
        ));
        rows.push((
            "live/move/pre-shard-batch".into(),
            ArmResult::ns(flat.moves_per_sec),
        ));
        rows.push((
            "live/post/pre-shard-batch".into(),
            ArmResult::ns(flat.posts_per_sec),
        ));
    }
    let last = rows.len() - 1;
    for (i, (id, ns)) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{id}\", \"ns_per_iter\": {ns:.2}}}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&opts.out, &out) {
        eprintln!("live_bench: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("{out}");
    eprintln!("live_bench: wrote {}", opts.out);
    ExitCode::SUCCESS
}
