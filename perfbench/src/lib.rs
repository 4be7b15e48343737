//! The repository benchmark: the paper's two operations — *locate*
//! (LHAgent lookup, IAgent query, answer) and *move* (migration, then
//! IAgent update) — measured end to end and layer by layer.
//!
//! Three workloads (see `README.md` for why each was chosen):
//!
//! * `live-lookup` and `live-mobile` run `HashedScheme` clients on
//!   `LivePlatform` node threads, driven open-loop from one generator
//!   thread, then closed-loop for capacity ([`live`]);
//! * `sim-paper` runs the paper's Figure-7 set-up on the deterministic
//!   simulator through `Scenario::run_with` ([`sim`]).
//!
//! Every run checks its answers. A run with `trace = false` reports the
//! end-to-end metrics ([`END_TO_END`]); a traced run reports the
//! per-layer metrics ([`PER_LAYER`]) from the program's public
//! instruments plus the benchmark's own timing around calls into each
//! layer.

pub mod hist;
pub mod host;
pub mod live;
pub mod sim;
pub mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("locate_us", "us"),
    ("locate_capacity_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not
/// exercise a layer reports 0 for it (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.gen_late_p50_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.locate_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("platform.post_ns", "ns"),
    ("platform.msgs_per_op", "count"),
    ("platform.bounce_ratio", "ratio"),
    ("platform.route_cache_hit_ratio", "ratio"),
    ("platform.deliver_p50_us", "us"),
    ("platform.queue_depth_max", "count"),
    ("platform.move_p50_us", "us"),
    ("core.client_locate_ns", "ns"),
    ("core.client_on_message_ns", "ns"),
    ("core.client_moved_ns", "ns"),
    ("core.phase.resolution_us", "us"),
    ("core.phase.tracker_query_us", "us"),
    ("core.phase.chain_traversal_us", "us"),
    ("core.phase.answer_us", "us"),
    ("core.phase.stale_detour_us", "us"),
    ("core.phase.queue_wait_us", "us"),
    ("core.phase.retry_backoff_us", "us"),
    ("core.phase.other_us", "us"),
    ("core.locate_span_us", "us"),
    ("core.locate_fail_ratio", "ratio"),
    ("core.splits", "count"),
    ("core.merges", "count"),
    ("core.trackers", "count"),
    ("core.stale_hits", "count"),
    ("core.hf_fetches", "count"),
    ("hashtree.height", "count"),
    ("hashtree.mean_prefix_bits", "bits"),
    ("sim.messages", "count"),
    ("sim.wall_ns_per_msg", "ns"),
    ("sim.locate_mean_ms", "ms"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["live-lookup", "live-mobile", "sim-paper"];

/// How big a workload runs: `Full` is the benchmark, `Tiny` the smoke
/// test's miniature of the same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's workload sizes.
    Full,
    /// A few hundred agents, for the smoke test.
    Tiny,
}

/// One run's request.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: &'a str,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// `true`: report the per-layer metrics from a traced run.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness problems; empty when every check passed.
    pub problems: Vec<String>,
    /// Operations (locates and moves) issued while measuring.
    pub attempted: u64,
    /// Operations that failed or went unanswered.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run printed beside the metrics.
    pub notes: Vec<String>,
    /// Set when the run cannot be trusted as a measurement (the
    /// generator fell behind its schedule).
    pub invalid: Option<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Every metric of the requested kind with its unit. End-to-end
    /// metrics must all be present; a missing per-layer metric is a layer
    /// the workload does not exercise and reads 0.
    ///
    /// # Errors
    ///
    /// Names a missing end-to-end metric or a value that is not finite.
    pub fn table(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => return Err(format!("metric {name} was not measured")),
                };
                if value.is_finite() {
                    Ok((name, value, unit))
                } else {
                    Err(format!("metric {name} is not finite: {value}"))
                }
            })
            .collect()
    }

    /// The one-line JSON result.
    ///
    /// # Errors
    ///
    /// As [`Outcome::table`].
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.table(trace)?.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a run that could not complete (a
/// platform that never finished registering its agents).
pub fn run(req: &Request<'_>) -> Result<Outcome, String> {
    let mut outcome = match req.workload {
        "live-lookup" => live::run(&live::LiveSpec::lookup(req.scale), req)?,
        "live-mobile" => live::run(&live::LiveSpec::mobile(req.scale), req)?,
        "sim-paper" => sim::run(&sim::SimSpec::paper(req.scale), req)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    outcome.notes.insert(
        0,
        format!(
            "host: nproc={} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
            host::nproc(),
            host::rustc_version(),
            req.workload,
            req.seed,
            req.seconds,
            u8::from(req.trace)
        ),
    );
    Ok(outcome)
}
