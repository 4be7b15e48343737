//! Shared experiment metrics, recorded by workload agents.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use agentrack_sim::{Histogram, SimDuration, SimTime};

/// Everything an experiment measures, accumulated during a run.
#[derive(Debug, Default)]
pub struct MetricsInner {
    /// Locates issued before the measurement window (warmup ramp); they
    /// exercise the system but are not part of the reported statistics.
    pub warmup_locates: u64,
    /// Location times of completed locate operations (issue → answer), the
    /// paper's headline metric.
    pub locate_times: Histogram,
    /// Locates issued.
    pub locates_issued: u64,
    /// Locates that gave up after exhausting their retry budget.
    pub locate_failures: u64,
    /// Completed locates answered from a replica (`stale: true`) rather
    /// than the authoritative record — the freshness-bounded degraded
    /// path. Always `<=` the number of completed locates.
    pub stale_answers: u64,
    /// Largest declared record age (ms) seen on any completed locate;
    /// geo experiments assert it never exceeds the staleness budget.
    pub max_answer_age_ms: u64,
    /// Registrations completed.
    pub registrations: u64,
    /// TAgent moves performed.
    pub moves: u64,
    /// TAgents born (initial population plus churn successors).
    pub births: u64,
    /// TAgents that died (churn).
    pub deaths: u64,
}

/// Shared handle to the run's metrics; workload agents hold clones.
///
/// Locate statistics only count operations issued at or after the
/// measurement start: the query workload ramps up during warmup so the
/// measured window sees a steady state, not the regime change.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Arc<Mutex<MetricsInner>>,
    measure_start: SimTime,
}

impl Metrics {
    /// Creates zeroed metrics measuring from time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed metrics that only count locates issued at or after
    /// `measure_start`.
    #[must_use]
    pub fn starting_at(measure_start: SimTime) -> Self {
        Metrics {
            inner: Arc::default(),
            measure_start,
        }
    }

    fn measured(&self, issued: SimTime) -> bool {
        issued >= self.measure_start
    }

    /// Records a completed locate.
    pub fn record_locate(&self, issued: SimTime, elapsed: SimDuration) {
        if self.measured(issued) {
            self.inner.lock().locate_times.record(elapsed);
        }
    }

    /// Records an issued locate.
    pub fn record_issue(&self, at: SimTime) {
        let mut inner = self.inner.lock();
        if self.measured(at) {
            inner.locates_issued += 1;
        } else {
            inner.warmup_locates += 1;
        }
    }

    /// Records a locate that gave up.
    pub fn record_failure(&self, issued: SimTime) {
        if self.measured(issued) {
            self.inner.lock().locate_failures += 1;
        }
    }

    /// Records the staleness of a completed locate's answer: whether it
    /// came from a replica and the record age it declared.
    pub fn record_answer_age(&self, issued: SimTime, stale: bool, age_ms: u64) {
        if !self.measured(issued) {
            return;
        }
        let mut inner = self.inner.lock();
        if stale {
            inner.stale_answers += 1;
        }
        inner.max_answer_age_ms = inner.max_answer_age_ms.max(age_ms);
    }

    /// Records a completed registration.
    pub fn record_registration(&self) {
        self.inner.lock().registrations += 1;
    }

    /// Records one TAgent move.
    pub fn record_move(&self) {
        self.inner.lock().moves += 1;
    }

    /// Records a TAgent birth.
    pub fn record_birth(&self) {
        self.inner.lock().births += 1;
    }

    /// Records a TAgent death.
    pub fn record_death(&self) {
        self.inner.lock().deaths += 1;
    }

    /// Mean location time over the run.
    #[must_use]
    pub fn mean_locate_time(&self) -> SimDuration {
        self.inner.lock().locate_times.mean()
    }

    /// Applies `f` to the full metrics (for report extraction).
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsInner) -> R) -> R {
        f(&mut self.inner.lock())
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Metrics")
            .field("locates", &inner.locate_times.len())
            .field("failures", &inner.locate_failures)
            .field("moves", &inner.moves)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_through_clones() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.record_issue(SimTime::ZERO);
        m2.record_locate(SimTime::ZERO, SimDuration::from_millis(3));
        m2.record_move();
        m.record_registration();
        m.record_failure(SimTime::ZERO);
        assert_eq!(m.mean_locate_time(), SimDuration::from_millis(3));
        m.with(|inner| {
            assert_eq!(inner.locates_issued, 1);
            assert_eq!(inner.locate_failures, 1);
            assert_eq!(inner.registrations, 1);
            assert_eq!(inner.moves, 1);
        });
    }

    #[test]
    fn warmup_locates_are_excluded_from_statistics() {
        let start = SimTime::ZERO + SimDuration::from_secs(10);
        let m = Metrics::starting_at(start);
        let early = SimTime::ZERO + SimDuration::from_secs(5);
        m.record_issue(early);
        m.record_locate(early, SimDuration::from_secs(2));
        m.record_failure(early);
        m.record_issue(start);
        m.record_locate(start, SimDuration::from_millis(4));
        m.with(|inner| {
            assert_eq!(inner.warmup_locates, 1);
            assert_eq!(inner.locates_issued, 1);
            assert_eq!(inner.locate_failures, 0);
            assert_eq!(inner.locate_times.len(), 1);
        });
        assert_eq!(m.mean_locate_time(), SimDuration::from_millis(4));
    }
}
