//! The client-side locate lifecycle, shared by every scheme's client.
//!
//! A locate is the same operation in every scheme; only where its query
//! goes differs. [`LocateTracker`] owns everything else: it starts the
//! operation, arms the timeout guarding each attempt, retries on negative
//! answers (`NotFound`, `NotResponsible`) and on timeouts up to the
//! configured budget, traces every retry (`RetryAttempt`) and the give-up
//! (`RetryGiveUp`), charges a give-up to the `giveup_*` counters of the
//! tracker the final attempt was sent to, and completes a `Located`
//! answer by recording the end-to-end latency in the scheme registry.
//!
//! A scheme supplies only how one attempt is sent — a closure handed to
//! [`LocateTracker::start`], [`LocateTracker::on_negative`] and
//! [`LocateTracker::on_timer`] that receives the [`Attempt`] and returns
//! the tracker it addressed, if it knows it yet — plus whatever it does
//! around these calls (the hashed client feeds its reachability map and
//! audits freshness bounds).
//!
//! The subtlety is that answers and timeouts race: an answer that already
//! triggered a retry must not let the (now stale) timeout trigger a
//! second one, or the budget burns twice as fast as intended. The tracker
//! therefore stamps each armed timer with the attempt number it guards
//! and ignores timers whose attempt has already progressed.
//!
//! The three baseline clients (centralized, home registry, forwarding)
//! also share their registration handling here: [`on_register_ack`] and
//! [`on_update_bounce`]. The hashed client keeps its own, which adds a
//! registration watchdog and IAgent-cache repair.

use std::collections::HashMap;

use agentrack_platform::{AgentCtx, AgentId, NodeId, Payload, TimerId};
use agentrack_sim::{CorrId, GiveUpCause, MetricsRegistry, SimDuration, SimTime, TraceEvent};

use crate::config::LocationConfig;
use crate::scheme::ClientEvent;
use crate::wire::{Freshness, Wire};

/// One attempt of a locate, handed to the scheme's send function.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    /// The locate's correlation token.
    pub token: u64,
    /// The agent being located.
    pub target: AgentId,
    /// 1 for the first attempt, then 2, 3, … for retries.
    pub number: u32,
    /// The freshness requirement the locate was issued with; every
    /// attempt re-sends the same bound.
    pub freshness: Freshness,
}

impl Attempt {
    /// The correlation id every message of this locate carries.
    #[must_use]
    pub fn corr(&self, ctx: &AgentCtx<'_>) -> Option<CorrId> {
        Some(CorrId::new(ctx.self_id().raw(), self.token))
    }

    /// The `Locate` query for this attempt, answered to this node.
    #[must_use]
    pub fn locate(&self, ctx: &AgentCtx<'_>) -> Wire {
        Wire::Locate {
            target: self.target,
            token: self.token,
            reply_node: ctx.node(),
            corr: self.corr(ctx),
            freshness: self.freshness,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Op {
    target: AgentId,
    attempts: u32,
    started: SimTime,
    /// Raw id and node of the tracker the current attempt was sent to, if
    /// known.
    tracker: Option<(u64, NodeId)>,
    freshness: Freshness,
}

/// What a consumed attempt leads to.
#[derive(Debug, PartialEq, Eq)]
enum Retry {
    /// Send attempt number `attempt`.
    Again { attempt: u32, target: AgentId },
    /// Budget exhausted; the operation is no longer tracked. `cause` is
    /// what ended the final attempt: a timeout (no answer at all) or an
    /// explicit negative answer.
    GiveUp { op: Op, cause: GiveUpCause },
    /// Operation already finished, or stale timer.
    Nothing,
}

/// A client's in-flight locates: their retry budgets, timers, give-up
/// accounting and completion.
#[derive(Debug)]
pub(crate) struct LocateTracker {
    ops: HashMap<u64, Op>,
    /// timer → (token, attempt it guards).
    timers: HashMap<TimerId, (u64, u32)>,
    max_attempts: u32,
    timeout: SimDuration,
    registry: MetricsRegistry,
}

impl LocateTracker {
    /// Creates an empty tracker with the configured retry budget
    /// (`max_locate_attempts`) and per-attempt timeout
    /// (`locate_retry_timeout`), reporting latencies and give-ups into
    /// `registry`.
    #[must_use]
    pub fn new(config: &LocationConfig, registry: MetricsRegistry) -> Self {
        LocateTracker {
            ops: HashMap::new(),
            timers: HashMap::new(),
            max_attempts: config.max_locate_attempts,
            timeout: config.locate_retry_timeout,
            registry,
        }
    }

    /// Starts locating `target` under `token`: sends attempt 1 through
    /// `send` and arms its timeout.
    pub fn start(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        target: AgentId,
        freshness: Freshness,
        send: impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)>,
    ) {
        self.track(token, target, ctx.now(), freshness);
        self.send_attempt(ctx, token, send);
    }

    fn track(&mut self, token: u64, target: AgentId, now: SimTime, freshness: Freshness) {
        self.ops.insert(
            token,
            Op {
                target,
                attempts: 1,
                started: now,
                tracker: None,
                freshness,
            },
        );
    }

    /// Sends the current attempt of `token`, notes the tracker `send`
    /// reports, and arms the attempt's timeout.
    fn send_attempt(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        send: impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)>,
    ) {
        let Some(op) = self.ops.get(&token) else {
            return;
        };
        let attempt = Attempt {
            token,
            target: op.target,
            number: op.attempts,
            freshness: op.freshness,
        };
        if let Some((tracker, node)) = send(ctx, attempt) {
            self.note_tracker(token, tracker.raw(), node);
        }
        self.arm_timer(ctx, self.timeout, token);
    }

    /// Records which tracker (and its node) the current attempt of
    /// `token` was sent to, so a give-up can be charged to that tracker's
    /// metrics and split by remote-vs-local destination.
    pub fn note_tracker(&mut self, token: u64, tracker: u64, node: NodeId) {
        if let Some(op) = self.ops.get_mut(&token) {
            op.tracker = Some((tracker, node));
        }
    }

    /// The tracker (raw id and node) the current attempt of `token` was
    /// sent to, when noted.
    #[must_use]
    pub fn noted_tracker(&self, token: u64) -> Option<(u64, NodeId)> {
        self.ops.get(&token)?.tracker
    }

    /// Arms a timer guarding the current attempt of `token`, firing after
    /// `delay`.
    pub fn arm_timer(&mut self, ctx: &mut AgentCtx<'_>, delay: SimDuration, token: u64) {
        let Some(op) = self.ops.get(&token) else {
            return;
        };
        let attempt = op.attempts;
        let timer = ctx.set_timer(delay);
        self.timers.insert(timer, (token, attempt));
    }

    /// A negative answer arrived for `token`: consumes one attempt, then
    /// retries through `send` or gives up ([`ClientEvent::Failed`]).
    pub fn on_negative(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        send: impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)>,
    ) -> ClientEvent {
        let decision = self.consume_attempt(token, GiveUpCause::Negative);
        self.act(ctx, token, decision, send)
    }

    /// A timer fired. [`ClientEvent::NotMine`] if this tracker did not arm
    /// it; a timer whose attempt already progressed is stale and does
    /// nothing; otherwise the attempt timed out, and the locate retries
    /// through `send` or gives up.
    pub fn on_timer(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        timer: TimerId,
        send: impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)>,
    ) -> ClientEvent {
        let Some((token, attempt)) = self.timers.remove(&timer) else {
            return ClientEvent::NotMine;
        };
        let decision = match self.ops.get(&token) {
            Some(op) if op.attempts == attempt => self.consume_attempt(token, GiveUpCause::Timeout),
            _ => Retry::Nothing,
        };
        self.act(ctx, token, decision, send)
    }

    /// The node of the tracker whose attempt `timer` guards, when the
    /// timer is live (armed here, attempt not yet progressed) and that
    /// tracker was noted: its firing will time the attempt out.
    #[must_use]
    pub fn expiring(&self, timer: TimerId) -> Option<NodeId> {
        let &(token, attempt) = self.timers.get(&timer)?;
        let op = self.ops.get(&token).filter(|op| op.attempts == attempt)?;
        op.tracker.map(|(_, node)| node)
    }

    /// Consumes one attempt of `token`; a give-up carries the cause of
    /// the event that burned the final attempt.
    fn consume_attempt(&mut self, token: u64, cause: GiveUpCause) -> Retry {
        let Some(op) = self.ops.get_mut(&token) else {
            return Retry::Nothing;
        };
        op.attempts += 1;
        if op.attempts > self.max_attempts {
            let op = self.ops.remove(&token).expect("op is tracked");
            Retry::GiveUp { op, cause }
        } else {
            Retry::Again {
                attempt: op.attempts,
                target: op.target,
            }
        }
    }

    /// Carries out a retry decision for `token`: traces and sends the
    /// retry, or traces the give-up and charges it to the tracker the
    /// final attempt hit, split by cause (timeout = it never answered;
    /// negative = it answered `NotFound`/`NotResponsible`). The remote
    /// counters tally the subset whose tracker sat on another node than
    /// the querier.
    fn act(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        token: u64,
        decision: Retry,
        send: impl FnOnce(&mut AgentCtx<'_>, Attempt) -> Option<(AgentId, NodeId)>,
    ) -> ClientEvent {
        let me = ctx.self_id().raw();
        let corr = Some(CorrId::new(me, token));
        match decision {
            Retry::Again { attempt, target } => {
                ctx.trace().emit(ctx.now(), || TraceEvent::RetryAttempt {
                    corr,
                    client: me,
                    target: target.raw(),
                    attempt,
                });
                self.send_attempt(ctx, token, send);
                ClientEvent::Consumed
            }
            Retry::GiveUp { op, cause } => {
                ctx.trace().emit(ctx.now(), || TraceEvent::RetryGiveUp {
                    corr,
                    client: me,
                    target: op.target.raw(),
                    attempts: self.max_attempts,
                    cause,
                });
                if let Some((tracker, node)) = op.tracker {
                    let remote = u64::from(node != ctx.node());
                    self.registry.update_tracker(tracker, |t| match cause {
                        GiveUpCause::Timeout => {
                            t.giveup_timeout += 1;
                            t.giveup_timeout_remote += remote;
                        }
                        GiveUpCause::Negative => {
                            t.giveup_negative += 1;
                            t.giveup_negative_remote += remote;
                        }
                    });
                }
                ClientEvent::Failed {
                    token,
                    target: op.target,
                }
            }
            Retry::Nothing => ClientEvent::Consumed,
        }
    }

    /// A `Located` answer arrived: stops tracking its locate and records
    /// the end-to-end latency. Returns [`ClientEvent::Located`], or
    /// [`ClientEvent::Consumed`] for an answer to a locate no longer
    /// tracked (a duplicate, or one that already gave up).
    pub fn on_located(&mut self, ctx: &AgentCtx<'_>, answer: Wire) -> ClientEvent {
        let Wire::Located {
            target,
            node,
            stale,
            age_ms,
            token,
            ..
        } = answer
        else {
            return ClientEvent::NotMine;
        };
        let Some(started) = self.complete(token) else {
            return ClientEvent::Consumed;
        };
        self.registry
            .record_locate(ctx.now().saturating_since(started));
        ClientEvent::Located {
            token,
            target,
            node,
            stale,
            age_ms,
        }
    }

    /// Stops tracking `token`; returns when the locate started, if it was
    /// still tracked.
    fn complete(&mut self, token: u64) -> Option<SimTime> {
        self.ops.remove(&token).map(|op| op.started)
    }

    /// The target of an in-flight locate, if still tracked.
    #[must_use]
    pub fn target(&self, token: u64) -> Option<AgentId> {
        self.ops.get(&token).map(|op| op.target)
    }

    /// The freshness requirement an in-flight locate was issued with, if
    /// still tracked.
    #[must_use]
    pub fn freshness(&self, token: u64) -> Option<Freshness> {
        self.ops.get(&token).map(|op| op.freshness)
    }
}

/// A baseline client received a `RegisterAck` for `agent`: the first ack
/// of its own registration sets `registered` and reports
/// [`ClientEvent::Registered`]; a duplicate or foreign ack is consumed.
pub(crate) fn on_register_ack(
    ctx: &AgentCtx<'_>,
    agent: AgentId,
    registered: &mut bool,
) -> ClientEvent {
    if agent == ctx.self_id() && !*registered {
        *registered = true;
        ClientEvent::Registered
    } else {
        ClientEvent::Consumed
    }
}

/// A baseline client's message bounced. Their trackers never move, so
/// only injected faults bounce: a lost `Update` or `Register` is
/// re-announced through `announce`, anything else is consumed (a lost
/// locate recovers through its retry timer).
pub(crate) fn on_update_bounce(payload: &Payload, announce: impl FnOnce()) -> ClientEvent {
    match Wire::from_payload(payload) {
        Some(Wire::Update { .. } | Wire::Register { .. }) => {
            announce();
            ClientEvent::Consumed
        }
        Some(_) => ClientEvent::Consumed,
        None => ClientEvent::NotMine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(max_locate_attempts: u32) -> LocateTracker {
        let config = LocationConfig {
            max_locate_attempts,
            ..LocationConfig::default()
        };
        LocateTracker::new(&config, MetricsRegistry::new())
    }

    #[test]
    fn negative_answers_consume_the_budget() {
        let mut t = tracker(3);
        t.track(1, AgentId::new(9), SimTime::ZERO, Freshness::BoundedMs(500));
        t.note_tracker(1, 42, NodeId::new(3));
        assert_eq!(t.freshness(1), Some(Freshness::BoundedMs(500)));
        assert_eq!(t.noted_tracker(1), Some((42, NodeId::new(3))));
        for attempt in [2, 3] {
            assert_eq!(
                t.consume_attempt(1, GiveUpCause::Negative),
                Retry::Again {
                    attempt,
                    target: AgentId::new(9)
                }
            );
        }
        assert_eq!(
            t.consume_attempt(1, GiveUpCause::Negative),
            Retry::GiveUp {
                op: Op {
                    target: AgentId::new(9),
                    attempts: 4,
                    started: SimTime::ZERO,
                    tracker: Some((42, NodeId::new(3))),
                    freshness: Freshness::BoundedMs(500),
                },
                cause: GiveUpCause::Negative,
            }
        );
        assert_eq!(t.consume_attempt(1, GiveUpCause::Negative), Retry::Nothing);
        assert_eq!(t.target(1), None);
    }

    #[test]
    fn completion_stops_tracking() {
        let mut t = tracker(3);
        let issued = SimTime::ZERO + SimDuration::from_millis(5);
        t.track(7, AgentId::new(1), issued, Freshness::Any);
        assert_eq!(t.target(7), Some(AgentId::new(1)));
        assert_eq!(t.ops[&7].attempts, 1);
        assert_eq!(t.complete(7), Some(issued));
        assert_eq!(t.complete(7), None);
        assert_eq!(t.consume_attempt(7, GiveUpCause::Negative), Retry::Nothing);
    }

    // Timers, sends and answers need an `AgentCtx`, which only the runtime
    // can construct; `tests/locate_lifecycle.rs` drives them through the
    // platform for every scheme.
}
