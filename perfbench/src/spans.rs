//! Per-phase attribution of complete locates found in a trace snapshot,
//! through the program's own span builder (`build_spans`/`Attribution`).

use std::collections::HashMap;

use agentrack_sim::{CorrId, TraceEvent, TraceRecord};
use agentrack_trace_analysis::{build_spans, Attribution, Phase};

use crate::Outcome;

/// Locates attributed, per-phase means and their end-to-end mean, in µs
/// of the trace's clock (wall time on the live runtime, simulated time
/// on the simulator).
pub struct PhaseSplit {
    /// Spans folded in.
    pub spans: u64,
    /// `(phase name, mean µs)` for every phase, in presentation order.
    pub phases_us: Vec<(&'static str, f64)>,
    /// Mean end-to-end span, µs; equals the sum of `phases_us`.
    pub span_us: f64,
}

impl PhaseSplit {
    /// Sets `core.phase.<phase>_us` and `core.locate_span_us`, and checks
    /// that the phases sum to the span.
    pub fn report(&self, outcome: &mut Outcome) {
        const NAMES: [&str; Phase::COUNT] = [
            "core.phase.resolution_us",
            "core.phase.tracker_query_us",
            "core.phase.chain_traversal_us",
            "core.phase.answer_us",
            "core.phase.stale_detour_us",
            "core.phase.queue_wait_us",
            "core.phase.retry_backoff_us",
            "core.phase.other_us",
        ];
        for (name, (phase, us)) in NAMES.iter().zip(&self.phases_us) {
            debug_assert!(name.ends_with(&format!(".{phase}_us")));
            outcome.set(name, *us);
        }
        outcome.set("core.locate_span_us", self.span_us);
        let sum: f64 = self.phases_us.iter().map(|(_, us)| us).sum();
        outcome.check(self.spans > 0, || {
            "the trace held no complete locate".into()
        });
        outcome.check(
            (sum - self.span_us).abs() <= 1e-6 * self.span_us.max(1.0),
            || format!("phases sum to {sum} us, not the span's {} us", self.span_us),
        );
        outcome.notes.push(format!(
            "trace: {} complete locates attributed, mean span {:.3} us",
            self.spans, self.span_us
        ));
    }
}

/// Attributes at most `max_spans` locates, taken in correlation-id order
/// among those the snapshot holds completely: from the client's first
/// `Resolve` send to the first `Located` it receives. Records of a locate
/// that began before the ring's oldest record, or is still unanswered,
/// would give truncated spans and are left out; so are a locate's records
/// after its answer (late duplicates). Capping the span count keeps
/// `build_spans`, which scans the records once per span, to seconds.
pub fn attribute(records: &[TraceRecord], max_spans: usize) -> PhaseSplit {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.at);
    // corr -> (records up to the answer, answered)
    let mut ops: HashMap<CorrId, (Vec<TraceRecord>, bool)> = HashMap::new();
    for record in sorted {
        let Some(corr) = record.event.corr() else {
            continue;
        };
        let op = ops.entry(corr).or_default();
        if op.1 {
            continue;
        }
        if op.0.is_empty() && !is_first_resolve(&record.event, corr) {
            op.1 = true; // began before the snapshot: mark done, keep nothing
            continue;
        }
        op.0.push(record.clone());
        op.1 = is_answer(&record.event, corr);
    }
    let mut complete: Vec<(CorrId, Vec<TraceRecord>)> = ops
        .into_iter()
        .filter(|(_, (recs, answered))| *answered && !recs.is_empty())
        .map(|(corr, (recs, _))| (corr, recs))
        .collect();
    complete.sort_by_key(|(corr, _)| *corr);
    complete.truncate(max_spans);
    let subset: Vec<TraceRecord> = complete.into_iter().flat_map(|(_, r)| r).collect();

    let mut attribution = Attribution::new();
    for tree in build_spans(&subset) {
        attribution.record(&tree.breakdown());
    }
    PhaseSplit {
        spans: attribution.count(),
        phases_us: Phase::ALL
            .iter()
            .map(|&p| (p.name(), attribution.mean_ms(p) * 1000.0))
            .collect(),
        span_us: attribution.mean_total_ms() * 1000.0,
    }
}

fn is_first_resolve(event: &TraceEvent, corr: CorrId) -> bool {
    matches!(event, TraceEvent::MessageSend { kind: "Resolve", from, .. } if *from == corr.origin)
}

fn is_answer(event: &TraceEvent, corr: CorrId) -> bool {
    matches!(event, TraceEvent::MessageRecv { kind: "Located", by, .. } if *by == corr.origin)
}
