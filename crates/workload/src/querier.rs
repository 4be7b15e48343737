//! Querier agents: issue locate operations and measure location time.
//!
//! The paper's metric is "the average response time of a query for the
//! location of a mobile agent (TAgent) selected randomly from all the
//! mobile agents in the system". A querier starts after the warmup, issues
//! a configured number of locates at a configured pace, and records
//! issue-to-answer times into the shared [`Metrics`].

use std::collections::HashMap;

use agentrack_core::{ClientEvent, DirectoryClient, Freshness};
use agentrack_platform::{Agent, AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{DurationDist, SimDuration, SimTime, Zipf};

use crate::metrics::Metrics;
use crate::population::Population;

/// Where a querier draws its targets from.
#[derive(Debug, Clone)]
pub enum Targets {
    /// A fixed roster (the paper's experiments: the population is static).
    Fixed(Vec<AgentId>),
    /// The live roster, under churn.
    Live(Population),
}

impl Targets {
    fn len(&self) -> usize {
        match self {
            Targets::Fixed(v) => v.len(),
            Targets::Live(p) => p.len(),
        }
    }
}

/// How a querier picks its next target.
#[derive(Debug, Clone)]
pub enum TargetSelector {
    /// Uniformly random over the population (the paper's model).
    Uniform,
    /// Zipf-skewed popularity: some agents are queried far more often
    /// (extension experiment E6).
    Zipf(Zipf),
}

impl TargetSelector {
    /// Builds a selector: uniform, or Zipf when a skew is given.
    #[must_use]
    pub fn new(population: usize, skew: Option<f64>) -> Self {
        match skew {
            Some(s) if s > 0.0 => TargetSelector::Zipf(Zipf::new(population, s)),
            _ => TargetSelector::Uniform,
        }
    }

    fn pick(&self, ctx: &mut AgentCtx<'_>, targets: &Targets) -> Option<AgentId> {
        match targets {
            Targets::Fixed(v) => Some(match self {
                TargetSelector::Uniform => v[ctx.rng().index(v.len())],
                TargetSelector::Zipf(zipf) => {
                    let rng = ctx.rng();
                    v[zipf.sample(rng).min(v.len() - 1)]
                }
            }),
            // Under churn, Zipf ranks follow roster order: the oldest
            // survivors stay the hot keys while the population turns over.
            Targets::Live(p) => match self {
                TargetSelector::Uniform => p.sample(ctx.rng()),
                TargetSelector::Zipf(zipf) => p.sample_zipf(ctx.rng(), zipf),
            },
        }
    }
}

/// Behaviour of a querying agent.
pub struct QuerierBehavior {
    client: Box<dyn DirectoryClient>,
    targets: Targets,
    selector: TargetSelector,
    start_after: SimDuration,
    interval: DurationDist,
    remaining: u64,
    metrics: Metrics,
    freshness: Freshness,
    next_token: u64,
    issued_at: HashMap<u64, SimTime>,
    query_timer: Option<TimerId>,
}

impl QuerierBehavior {
    /// Creates a querier that issues `count` locates over the population,
    /// starting `start_after` its creation, spaced by `interval`.
    ///
    /// # Panics
    ///
    /// Panics if the target population is empty.
    #[must_use]
    pub fn new(
        client: Box<dyn DirectoryClient>,
        targets: Targets,
        selector: TargetSelector,
        start_after: SimDuration,
        interval: DurationDist,
        count: u64,
        metrics: Metrics,
    ) -> Self {
        // A live roster may legitimately be empty at construction time
        // (agents register as the run starts); a fixed one may not.
        if let Targets::Fixed(v) = &targets {
            assert!(!v.is_empty(), "querier needs targets");
        }
        QuerierBehavior {
            client,
            targets,
            selector,
            start_after,
            interval,
            remaining: count,
            metrics,
            freshness: Freshness::Any,
            next_token: 0,
            issued_at: HashMap::new(),
            query_timer: None,
        }
    }

    /// Issues every locate under the given freshness requirement instead
    /// of the default [`Freshness::Any`] (the geo experiments' knob).
    #[must_use]
    pub fn with_freshness(mut self, freshness: Freshness) -> Self {
        self.freshness = freshness;
        self
    }

    fn schedule_next(&mut self, ctx: &mut AgentCtx<'_>, delay: SimDuration) {
        if self.remaining > 0 {
            self.query_timer = Some(ctx.set_timer(delay));
        }
    }

    fn issue(&mut self, ctx: &mut AgentCtx<'_>) {
        self.remaining -= 1;
        let Some(target) = self.selector.pick(ctx, &self.targets) else {
            return; // roster momentarily empty under churn
        };
        let token = self.next_token;
        self.next_token += 1;
        self.issued_at.insert(token, ctx.now());
        self.metrics.record_issue(ctx.now());
        self.client.locate_with(ctx, target, token, self.freshness);
    }
}

impl Agent for QuerierBehavior {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let delay = self.start_after;
        self.schedule_next(ctx, delay);
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, _lost_soft_state: bool) {
        // Pre-crash timers (pacing and any locate retries) are void;
        // locates that were in flight stay unanswered and count against
        // the completion ratio. Resume the query schedule.
        let gap = ctx.rng().sample(&self.interval);
        self.schedule_next(ctx, gap);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.query_timer == Some(timer) {
            self.query_timer = None;
            self.issue(ctx);
            let gap = ctx.rng().sample(&self.interval);
            self.schedule_next(ctx, gap);
            return;
        }
        self.handle_event(ctx, |client, ctx| client.on_timer(ctx, timer));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        self.handle_event(ctx, |client, ctx| client.on_message(ctx, from, payload));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        self.handle_event(ctx, |client, ctx| {
            client.on_delivery_failed(ctx, to, node, payload)
        });
    }
}

impl QuerierBehavior {
    fn handle_event(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        f: impl FnOnce(&mut dyn DirectoryClient, &mut AgentCtx<'_>) -> ClientEvent,
    ) {
        match f(self.client.as_mut(), ctx) {
            ClientEvent::Located {
                token,
                stale,
                age_ms,
                ..
            } => {
                if let Some(issued) = self.issued_at.remove(&token) {
                    self.metrics.record_locate(issued, ctx.now() - issued);
                    self.metrics.record_answer_age(issued, stale, age_ms);
                }
            }
            ClientEvent::Failed { token, .. } => {
                if let Some(issued) = self.issued_at.remove(&token) {
                    self.metrics.record_failure(issued);
                }
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for QuerierBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerierBehavior")
            .field("targets", &self.targets.len())
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}
