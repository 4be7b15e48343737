//! Runs a small workload with structured tracing enabled, finds the
//! slowest locate, prints its critical-path breakdown, and replays its
//! multi-hop path (client → LHAgent → IAgent → answer) from the trace
//! ring by correlation id. Exits non-zero when no locate was traced.
//!
//! ```text
//! cargo run --release -p agentrack-bench --example trace_replay
//! ```

use agentrack_core::{HashedScheme, LocationConfig};
use agentrack_sim::{TraceEvent, TraceRecord, TraceSink};
use agentrack_trace_analysis::{build_spans, render_breakdown, slowest};
use agentrack_workload::{RunOptions, Scenario};

fn main() {
    let sink = TraceSink::bounded(200_000);
    let scenario = Scenario::new("trace-replay")
        .with_agents(50)
        .with_queries(40)
        .with_seconds(8.0, 4.0);
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let report = scenario
        .run_with(&mut scheme, RunOptions::new().with_sink(sink.clone()))
        .report;
    let records = sink.snapshot();
    println!(
        "completed {} locates; {} trace records buffered ({} overwritten)",
        report.locates_completed,
        records.len(),
        sink.dropped()
    );

    let trees = build_spans(&records);
    let Some(worst) = slowest(&trees) else {
        eprintln!("error: no locate was traced");
        std::process::exit(1);
    };
    println!("\nslowest locate, phase by phase:");
    print!("{}", render_breakdown(worst));
    let path: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| r.event.corr() == Some(worst.corr))
        .collect();
    println!("\nits path ({} events):", path.len());
    for r in path {
        let t = r.at.as_secs_f64();
        match &r.event {
            TraceEvent::MessageSend {
                kind,
                from,
                to,
                node,
                ..
            } => println!("  t={t:>9.4}s  {from} -> {to} @{node}  send {kind}"),
            TraceEvent::MessageRecv { kind, by, node, .. } => {
                println!("  t={t:>9.4}s  {by} @{node}  recv {kind}");
            }
            TraceEvent::RetryAttempt {
                client,
                target,
                attempt,
                ..
            } => println!("  t={t:>9.4}s  client {client} retries locate of {target} (#{attempt})"),
            TraceEvent::RetryGiveUp {
                client,
                target,
                attempts,
                ..
            } => println!("  t={t:>9.4}s  client {client} gives up on {target} after {attempts}"),
            other => println!("  t={t:>9.4}s  {other:?}"),
        }
    }
}
