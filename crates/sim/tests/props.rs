//! Property-based tests for the event engine invariants.

use bcbpt_sim::{Control, Engine, EventQueue, RngHub, SimDuration, SimTime};
use proptest::prelude::*;
use rand::RngCore;

proptest! {
    /// Events always pop in non-decreasing time order, whatever the insert order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(f) = q.pop() {
            prop_assert!(f.time >= last, "time went backwards");
            last = f.time;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Equal-time events preserve scheduling order (FIFO within an instant).
    #[test]
    fn queue_is_fifo_within_instant(
        times in proptest::collection::vec(0u64..50, 1..300)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(f) = q.pop() {
            if let Some((lt, li)) = last {
                if lt == f.time {
                    prop_assert!(li < f.payload, "FIFO violated within an instant");
                }
            }
            last = Some((f.time, f.payload));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100)
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let cancel = cancel_mask.get(i).copied().unwrap_or(false);
            if cancel {
                prop_assert!(q.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some(f) = q.pop() {
            got.push(f.payload);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// The engine clock is monotone for any workload of relative reschedules.
    #[test]
    fn engine_clock_is_monotone(delays in proptest::collection::vec(0u64..5_000, 1..150)) {
        let mut e = Engine::new();
        e.schedule_at(SimTime::ZERO, 0usize);
        let mut last = SimTime::ZERO;
        let mut idx = 0usize;
        let delays2 = delays.clone();
        e.run(|engine, _| {
            assert!(engine.now() >= last);
            last = engine.now();
            if idx < delays2.len() {
                engine.schedule_in(SimDuration::from_micros(delays2[idx]), idx + 1);
                idx += 1;
            }
            Control::Continue
        });
        prop_assert_eq!(idx, delays.len());
    }

    /// Two engines fed the same seed produce identical event streams.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>()) {
        fn run(seed: u64) -> Vec<(u64, u64)> {
            let hub = RngHub::new(seed);
            let mut rng = hub.stream("load");
            let mut e = Engine::new();
            for _ in 0..50 {
                let t = rng.next_u64() % 1_000_000;
                let v = rng.next_u64();
                e.schedule_at(SimTime::from_micros(t), v);
            }
            let mut out = Vec::new();
            e.run(|engine, v| {
                out.push((engine.now().as_micros(), v));
                Control::Continue
            });
            out
        }
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Horizon-bounded runs never process an event at or past the horizon.
    #[test]
    fn horizon_is_respected(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        horizon in 1u64..1_000
    ) {
        let mut e = Engine::new();
        for &t in &times {
            e.schedule_at(SimTime::from_micros(t), t);
        }
        let horizon_t = SimTime::from_micros(horizon);
        e.run_until(horizon_t, |engine, _| {
            assert!(engine.now() < horizon_t);
            Control::Continue
        });
        let expected = times.iter().filter(|&&t| t < horizon).count() as u64;
        prop_assert_eq!(e.processed(), expected);
    }

    /// Duration arithmetic round-trips through milliseconds within 0.5 µs.
    #[test]
    fn duration_float_round_trip(ms in 0.0f64..1.0e9) {
        let d = SimDuration::from_millis_f64(ms);
        let back = d.as_millis_f64();
        prop_assert!((back - ms).abs() <= 0.000_5 + ms * 1e-12);
    }
}

proptest! {
    /// Tombstone semantics under arbitrary interleavings of schedule,
    /// cancel and pop: cancel-after-pop and double-cancel always report
    /// `false`, and the live count tracks exactly the outstanding events.
    #[test]
    fn cancel_tombstone_semantics(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000), 1..300)
    ) {
        let mut q = EventQueue::new();
        // (id, finished) — finished means popped or cancelled already.
        let mut ids: Vec<(bcbpt_sim::EventId, bool)> = Vec::new();
        let mut live = 0usize;
        for (op, t) in ops {
            match op {
                0 | 1 => {
                    let id = q.schedule(SimTime::from_micros(t), t);
                    ids.push((id, false));
                    live += 1;
                }
                2 => {
                    if !ids.is_empty() {
                        let k = (t as usize) % ids.len();
                        let (id, finished) = ids[k];
                        let expect_cancel = !finished;
                        prop_assert_eq!(q.cancel(id), expect_cancel,
                            "cancel of {:?} (finished: {})", id, finished);
                        if expect_cancel {
                            ids[k].1 = true;
                            live -= 1;
                        }
                        prop_assert!(!q.cancel(id), "double cancel must be false");
                    }
                }
                _ => {
                    if let Some(firing) = q.pop() {
                        live -= 1;
                        for entry in ids.iter_mut() {
                            if entry.0 == firing.id {
                                prop_assert!(!entry.1, "popped an already-finished event");
                                entry.1 = true;
                            }
                        }
                        prop_assert!(!q.cancel(firing.id), "cancel-after-pop must be false");
                    } else {
                        prop_assert_eq!(live, 0, "empty pop with live events outstanding");
                    }
                }
            }
            prop_assert_eq!(q.len(), live);
            prop_assert_eq!(q.is_empty(), live == 0);
        }
        // Drain: every remaining live event pops exactly once, in time order.
        let mut popped = 0usize;
        let mut last = SimTime::ZERO;
        while let Some(firing) = q.pop() {
            prop_assert!(firing.time >= last);
            last = firing.time;
            popped += 1;
        }
        prop_assert_eq!(popped, live);
    }

    /// Cancelling everything leaves an empty queue whose tombstoned heap
    /// slots never resurface through pop or peek.
    #[test]
    fn cancel_all_yields_empty_queue(times in proptest::collection::vec(0u64..10_000, 1..120)) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .map(|&t| q.schedule(SimTime::from_micros(t), t))
            .collect();
        for id in &ids {
            prop_assert!(q.cancel(*id));
        }
        prop_assert_eq!(q.len(), 0);
        prop_assert_eq!(q.peek_time(), None);
        prop_assert!(q.pop().is_none());
        prop_assert_eq!(q.scheduled_total(), times.len() as u64);
    }
}

proptest! {
    /// The FIFO lane is invisible: a queue that schedules some events
    /// through `schedule_monotone` (mostly in time order, sometimes not, so
    /// both the lane and its heap fallback run) fires, counts and cancels
    /// exactly like a heap-only queue fed the same script.
    #[test]
    fn lane_queue_matches_heap_only_queue(
        ops in proptest::collection::vec((0u8..8, 0u64..400), 1..400)
    ) {
        let mut heap_only = EventQueue::new();
        let mut laned = EventQueue::new();
        let mut ids = Vec::new();
        let mut rising = 0u64;
        for (step, (op, t)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    let at = SimTime::from_micros(t);
                    let a = heap_only.schedule(at, step);
                    let b = laned.schedule(at, step);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                2..=4 => {
                    // A periodic train: times never decrease (ties included).
                    rising += t % 3;
                    let at = SimTime::from_micros(rising);
                    let a = heap_only.schedule(at, step);
                    let b = laned.schedule_monotone(at, step);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                5 => {
                    // An arbitrary time: usually behind the lane's back.
                    let at = SimTime::from_micros(t);
                    let a = heap_only.schedule(at, step);
                    let b = laned.schedule_monotone(at, step);
                    prop_assert_eq!(a, b);
                    ids.push(a);
                }
                6 => {
                    if !ids.is_empty() {
                        let id = ids[(t as usize) % ids.len()];
                        prop_assert_eq!(heap_only.cancel(id), laned.cancel(id));
                    }
                }
                _ => {
                    prop_assert_eq!(heap_only.peek_time(), laned.peek_time());
                    prop_assert_eq!(heap_only.pop(), laned.pop());
                }
            }
            prop_assert_eq!(heap_only.len(), laned.len());
            prop_assert_eq!(heap_only.scheduled_total(), laned.scheduled_total());
        }
        loop {
            prop_assert_eq!(heap_only.peek_time(), laned.peek_time());
            let (a, b) = (heap_only.pop(), laned.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(laned.is_empty());
    }
}
