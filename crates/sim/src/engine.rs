//! The discrete-event engine.
//!
//! [`Engine`] owns the clock and the pending-event queue. Simulation
//! components schedule payloads of a user-chosen event type `E`; the run loop
//! pops them in deterministic `(time, scheduling-order)` order and hands them
//! to a handler which may schedule further events.

use crate::queue::{EventId, EventQueue, Firing};
use crate::time::{SimDuration, SimTime};
use core::fmt;

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The configured horizon was reached; later events remain queued.
    HorizonReached,
    /// The configured event-count budget was exhausted.
    BudgetExhausted,
    /// The handler requested a stop via [`Control::Stop`].
    HandlerStopped,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::QueueEmpty => "event queue empty",
            StopReason::HorizonReached => "time horizon reached",
            StopReason::BudgetExhausted => "event budget exhausted",
            StopReason::HandlerStopped => "stopped by handler",
        };
        f.write_str(s)
    }
}

/// Handler verdict after processing one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Control {
    /// Keep running.
    #[default]
    Continue,
    /// Stop the run loop after this event.
    Stop,
}

/// A deterministic discrete-event simulation engine.
///
/// # Examples
///
/// Counting ping-pong events until the queue drains:
///
/// ```
/// use bcbpt_sim::{Control, Engine, SimDuration, StopReason};
///
/// #[derive(Debug)]
/// enum Ev { Ping(u32) }
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_millis(1), Ev::Ping(0));
/// let mut seen = 0;
/// let reason = engine.run(|engine, ev| {
///     let Ev::Ping(n) = ev;
///     seen += 1;
///     if n < 9 {
///         engine.schedule_in(SimDuration::from_millis(1), Ev::Ping(n + 1));
///     }
///     Control::Continue
/// });
/// assert_eq!(reason, StopReason::QueueEmpty);
/// assert_eq!(seen, 10);
/// ```
#[derive(Debug, Clone)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    /// Cancellations that hit a live event (tombstones created).
    cancelled: u64,
    /// Largest live queue length seen since the last metrics flush.
    queue_hw: usize,
    /// `processed` / `cancelled` values already published to the metrics
    /// registry; cloned with the engine so warmed-snapshot replays report
    /// only the events they drain themselves.
    obs_processed: u64,
    obs_cancelled: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            cancelled: 0,
            queue_hw: 0,
            obs_processed: 0,
            obs_cancelled: 0,
        }
    }

    /// Creates an engine with queue capacity pre-allocated for `capacity`
    /// pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        Engine {
            queue: EventQueue::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
            cancelled: 0,
            queue_hw: 0,
            obs_processed: 0,
            obs_cancelled: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of live pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total number of events ever scheduled.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.queue.scheduled_total()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to *now*: the event fires at the
    /// current instant, after events already queued for it. This makes
    /// zero-latency messages safe without letting the clock run backwards.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        let id = self.queue.schedule(at, payload);
        self.queue_hw = self.queue_hw.max(self.queue.len());
        id
    }

    /// Schedules `payload` after delay `d`.
    pub fn schedule_in(&mut self, d: SimDuration, payload: E) -> EventId {
        let id = self.queue.schedule(self.now + d, payload);
        self.queue_hw = self.queue_hw.max(self.queue.len());
        id
    }

    /// [`schedule_in`](Self::schedule_in) for a train of periodic timers:
    /// callers that all pass the same `d` and re-arm as they fire schedule
    /// in non-decreasing time order, which the queue serves from its FIFO
    /// lane instead of the heap (see [`EventQueue::schedule_monotone`]).
    /// Firing order is identical to `schedule_in`.
    pub fn schedule_in_monotone(&mut self, d: SimDuration, payload: E) -> EventId {
        let id = self.queue.schedule_monotone(self.now + d, payload);
        self.queue_hw = self.queue_hw.max(self.queue.len());
        id
    }

    /// Cancels a pending event. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.queue.cancel(id);
        if hit {
            self.cancelled += 1;
        }
        hit
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// Prefer [`run`](Engine::run)/[`run_until`](Engine::run_until); this is
    /// the single-step primitive they are built from.
    pub fn step(&mut self) -> Option<Firing<E>> {
        let firing = self.queue.pop()?;
        debug_assert!(firing.time >= self.now, "time must be monotone");
        self.now = firing.time;
        self.processed += 1;
        Some(firing)
    }

    /// Firing time of the next live event, without advancing.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs until the queue drains or the handler stops the loop.
    pub fn run<F>(&mut self, handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E) -> Control,
    {
        self.run_inner(SimTime::MAX, u64::MAX, handler)
    }

    /// Runs until `horizon` (exclusive), the queue drains, or the handler
    /// stops the loop. Events at exactly `horizon` or later stay queued, and
    /// the clock is left at `min(horizon, last fired event time)`.
    pub fn run_until<F>(&mut self, horizon: SimTime, handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E) -> Control,
    {
        self.run_inner(horizon, u64::MAX, handler)
    }

    /// Runs at most `budget` further events (or to drain/horizon).
    pub fn run_with_budget<F>(&mut self, horizon: SimTime, budget: u64, handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E) -> Control,
    {
        self.run_inner(horizon, budget, handler)
    }

    fn run_inner<F>(&mut self, horizon: SimTime, budget: u64, handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E) -> Control,
    {
        let reason = self.run_loop(horizon, budget, handler);
        self.flush_obs();
        reason
    }

    fn run_loop<F>(&mut self, horizon: SimTime, budget: u64, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E) -> Control,
    {
        let mut remaining = budget;
        loop {
            if remaining == 0 {
                return StopReason::BudgetExhausted;
            }
            match self.queue.peek_time() {
                None => return StopReason::QueueEmpty,
                Some(t) if t >= horizon => {
                    // Leave the event queued; park the clock at the horizon.
                    self.now = self.now.max(horizon);
                    return StopReason::HorizonReached;
                }
                Some(_) => {}
            }
            let firing = self.queue.pop().expect("peek said non-empty");
            self.now = firing.time;
            self.processed += 1;
            remaining -= 1;
            if handler(self, firing.payload) == Control::Stop {
                return StopReason::HandlerStopped;
            }
        }
    }

    /// Drops all pending events (the clock and counters are kept).
    pub fn clear_pending(&mut self) {
        self.queue.clear();
    }

    /// Publishes locally accumulated counts (events drained, cancellations,
    /// queue high-water) to the `bcbpt-obs` global registry.
    ///
    /// The run loops call this on exit; external steppers that drive the
    /// engine through [`step`](Engine::step) (like `bcbpt-net`'s warmup
    /// loop) should call it once after their loop finishes. Idempotent:
    /// each count is published exactly once, and flush markers clone with
    /// the engine so warmed-snapshot replays report only their own events.
    /// Publishing is a wall-clock side channel — it never feeds back into
    /// simulation state.
    pub fn flush_obs(&mut self) {
        let drained = self.processed - self.obs_processed;
        if drained > 0 {
            crate::obs::events_drained().add(drained);
            self.obs_processed = self.processed;
        }
        let cancelled = self.cancelled - self.obs_cancelled;
        if cancelled > 0 {
            crate::obs::cancellations().add(cancelled);
            self.obs_cancelled = self.cancelled;
        }
        if self.queue_hw > 0 {
            crate::obs::queue_depth_highwater().record_max(self.queue_hw as i64);
            self.queue_hw = self.queue.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(5), Ev::Tick(1));
        e.schedule_at(SimTime::from_millis(9), Ev::Tick(2));
        let mut times = Vec::new();
        e.run(|engine, _| {
            times.push(engine.now());
            Control::Continue
        });
        assert_eq!(
            times,
            vec![SimTime::from_millis(5), SimTime::from_millis(9)]
        );
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(10), Ev::Tick(0));
        let mut fired_at = None;
        e.run(|engine, ev| {
            match ev {
                Ev::Tick(0) => {
                    engine.schedule_in(SimDuration::from_millis(5), Ev::Tick(1));
                }
                Ev::Tick(_) => fired_at = Some(engine.now()),
            }
            Control::Continue
        });
        assert_eq!(fired_at, Some(SimTime::from_millis(15)));
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(10), Ev::Tick(0));
        let mut second = None;
        e.run(|engine, ev| {
            if ev == Ev::Tick(0) {
                engine.schedule_at(SimTime::from_millis(1), Ev::Tick(1));
            } else {
                second = Some(engine.now());
            }
            Control::Continue
        });
        assert_eq!(second, Some(SimTime::from_millis(10)), "clamped to now");
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(1), Ev::Tick(1));
        e.schedule_at(SimTime::from_millis(100), Ev::Tick(2));
        let reason = e.run_until(SimTime::from_millis(50), |_, _| Control::Continue);
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.now(), SimTime::from_millis(50), "clock parks at horizon");
    }

    #[test]
    fn event_at_horizon_does_not_fire() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(50), Ev::Tick(1));
        let mut count = 0;
        e.run_until(SimTime::from_millis(50), |_, _| {
            count += 1;
            Control::Continue
        });
        assert_eq!(count, 0, "horizon is exclusive");
    }

    #[test]
    fn handler_can_stop_the_loop() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime::from_millis(i), Ev::Tick(i as u32));
        }
        let mut count = 0;
        let reason = e.run(|_, _| {
            count += 1;
            if count == 3 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        assert_eq!(reason, StopReason::HandlerStopped);
        assert_eq!(count, 3);
        assert_eq!(e.pending(), 7);
    }

    #[test]
    fn budget_limits_event_count() {
        let mut e = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime::from_millis(i), Ev::Tick(i as u32));
        }
        let reason = e.run_with_budget(SimTime::MAX, 4, |_, _| Control::Continue);
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(e.processed(), 4);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut e = Engine::new();
        let id = e.schedule_at(SimTime::from_millis(1), Ev::Tick(1));
        e.schedule_at(SimTime::from_millis(2), Ev::Tick(2));
        assert!(e.cancel(id));
        let mut seen = Vec::new();
        e.run(|_, ev| {
            seen.push(ev);
            Control::Continue
        });
        assert_eq!(seen, vec![Ev::Tick(2)]);
    }

    #[test]
    fn empty_engine_reports_queue_empty() {
        let mut e: Engine<Ev> = Engine::new();
        assert_eq!(e.run(|_, _| Control::Continue), StopReason::QueueEmpty);
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    fn step_pops_single_event() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(3), Ev::Tick(7));
        let firing = e.step().unwrap();
        assert_eq!(firing.payload, Ev::Tick(7));
        assert_eq!(e.now(), SimTime::from_millis(3));
        assert!(e.step().is_none());
    }

    #[test]
    fn stop_reason_display_nonempty() {
        for r in [
            StopReason::QueueEmpty,
            StopReason::HorizonReached,
            StopReason::BudgetExhausted,
            StopReason::HandlerStopped,
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn clear_pending_drains_queue() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_millis(1), Ev::Tick(1));
        e.clear_pending();
        assert_eq!(e.pending(), 0);
    }
}
