//! The pending-event queue.
//!
//! A binary heap plus a FIFO lane that together guarantee **deterministic
//! ordering**: events fire in `(time, sequence-number)` order, so two events
//! scheduled for the same instant fire in the order they were scheduled,
//! independent of which container holds them.
//!
//! The lane exists for periodic trains. Timers that all share one period
//! and re-arm themselves as they fire are scheduled in non-decreasing time
//! order, so a `VecDeque` keeps them sorted for free; the heap then holds
//! only the aperiodic events and stays shallow
//! ([`EventQueue::schedule_monotone`]).

use crate::time::SimTime;
use core::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Identifier of a scheduled event, usable to cancel it later.
///
/// Ids are unique within one [`EventQueue`] (and therefore within one
/// engine run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number backing this id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// An event popped from the queue: when it fires, its id, and its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing<E> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// The id under which the event was scheduled.
    pub id: EventId,
    /// The scheduled payload.
    pub payload: E,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

/// Dense bitset indexed by event sequence number.
///
/// Sequence numbers are allocated contiguously from zero, so per-event
/// state is two bits in flat `u64` blocks instead of a `HashSet` probe on
/// the pop path — the event queue is the innermost loop of every
/// experiment, and hashing each popped seq dominated its profile.
#[derive(Debug, Clone, Default)]
struct SeqBitSet {
    blocks: Vec<u64>,
}

impl SeqBitSet {
    #[inline]
    fn set(&mut self, seq: u64) {
        let block = (seq >> 6) as usize;
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        self.blocks[block] |= 1u64 << (seq & 63);
    }

    #[inline]
    fn clear(&mut self, seq: u64) {
        if let Some(block) = self.blocks.get_mut((seq >> 6) as usize) {
            *block &= !(1u64 << (seq & 63));
        }
    }

    #[inline]
    fn get(&self, seq: u64) -> bool {
        self.blocks
            .get((seq >> 6) as usize)
            .is_some_and(|block| block & (1u64 << (seq & 63)) != 0)
    }

    fn clear_all(&mut self) {
        self.blocks.clear();
    }
}

// Manual impls: order by (time, seq) only, ignoring the payload, and invert
// so that `BinaryHeap` (a max-heap) pops the *earliest* event first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic pending-event queue.
///
/// # Examples
///
/// ```
/// use bcbpt_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "late");
/// q.schedule(SimTime::from_millis(1), "early");
/// assert_eq!(q.pop().unwrap().payload, "early");
/// assert_eq!(q.pop().unwrap().payload, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Events scheduled through [`schedule_monotone`](Self::schedule_monotone)
    /// in non-decreasing time order: sorted by `(time, seq)` by
    /// construction, so the front is the lane's earliest event.
    lane: VecDeque<Entry<E>>,
    /// Bit per seq: scheduled and not yet fired or cancelled.
    pending: SeqBitSet,
    /// Bit per seq: cancelled but still occupying a heap or lane slot (the
    /// slot is a tombstone, dropped lazily on pop/peek).
    cancelled: SeqBitSet,
    /// Number of live (pending) events.
    live: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            pending: SeqBitSet::default(),
            cancelled: SeqBitSet::default(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            lane: VecDeque::new(),
            pending: SeqBitSet::default(),
            cancelled: SeqBitSet::default(),
            live: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` and returns its cancellation id.
    ///
    /// Events scheduled for the same instant fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.admit();
        self.heap.push(Entry { time, seq, payload });
        EventId(seq)
    }

    /// [`schedule`](Self::schedule) for callers whose firing times never
    /// decrease from one call to the next — a train of periodic timers that
    /// share one period and re-arm as they fire.
    ///
    /// Such events go onto a FIFO lane (O(1) push and pop) instead of the
    /// heap. The firing order is exactly that of `schedule`: the event takes
    /// the next sequence number either way, and `pop` merges lane and heap
    /// on `(time, seq)`. A `time` earlier than the lane's last entry falls
    /// back to the heap, so a caller that breaks the monotone pattern loses
    /// only the speed-up.
    pub fn schedule_monotone(&mut self, time: SimTime, payload: E) -> EventId {
        if self.lane.back().is_some_and(|last| time < last.time) {
            return self.schedule(time, payload);
        }
        let seq = self.admit();
        self.lane.push_back(Entry { time, seq, payload });
        EventId(seq)
    }

    /// Takes the next sequence number and marks it live.
    fn admit(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.set(seq);
        self.live += 1;
        seq
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` when the event was still pending, `false` when it has
    /// already fired, was already cancelled, or was never scheduled here.
    /// Cancellation flips two bits; the heap or lane slot becomes a
    /// tombstone dropped lazily on pop.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.get(id.0) {
            self.pending.clear(id.0);
            self.cancelled.set(id.0);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// `(time, seq, in the lane?)` of whichever front entry — live or
    /// tombstone — comes first in `(time, seq)` order; `None` when both
    /// containers are empty.
    fn front(&self) -> Option<(SimTime, u64, bool)> {
        let heap = self.heap.peek().map(|e| (e.time, e.seq, false));
        let lane = self.lane.front().map(|e| (e.time, e.seq, true));
        match (heap, lane) {
            // Sequence numbers are unique, so the flag never decides.
            (Some(heap), Some(lane)) => Some(heap.min(lane)),
            (heap, lane) => heap.or(lane),
        }
    }

    /// Removes the front entry of the lane or of the heap.
    fn take_front(&mut self, lane: bool) -> Entry<E> {
        if lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }
        .expect("front() named a non-empty container")
    }

    /// Removes and returns the earliest pending event, skipping tombstones.
    // `pop` and `peek_time` are the inner loop of every experiment. Left to
    // its own judgement the compiler stops inlining them into large callers
    // once they merge two containers, which costs a bare-heap timer cascade
    // a third of its speed (15 -> 24 ns/event in the benchmark's probe).
    #[inline(always)]
    pub fn pop(&mut self) -> Option<Firing<E>> {
        loop {
            let (_, _, lane) = self.front()?;
            let entry = self.take_front(lane);
            if self.cancelled.get(entry.seq) {
                self.cancelled.clear(entry.seq);
                continue;
            }
            self.pending.clear(entry.seq);
            self.live -= 1;
            return Some(Firing {
                time: entry.time,
                id: EventId(entry.seq),
                payload: entry.payload,
            });
        }
    }

    /// The firing instant of the earliest live event, if any.
    #[inline(always)]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (time, seq, lane) = self.front()?;
            if !self.cancelled.get(seq) {
                return Some(time);
            }
            // Drop the tombstone so the peek is accurate.
            self.take_front(lane);
            self.cancelled.clear(seq);
        }
    }

    /// Number of live pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.pending.clear_all();
        self.cancelled.clear_all();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_pending_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(!q.cancel(a), "double cancel reports false");
        assert!(!q.cancel(b), "cancelling a fired event reports false");
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 2, "history survives clear");
    }

    #[test]
    fn non_monotone_lane_schedule_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_monotone(t(10), 'a');
        q.schedule_monotone(t(20), 'b');
        q.schedule_monotone(t(15), 'c'); // earlier than the lane's back
        q.schedule_monotone(t(20), 'd'); // equal to the back: still monotone
        assert_eq!(q.lane.len(), 3);
        assert_eq!(q.heap.len(), 1, "the out-of-order event went to the heap");
        assert_eq!(q.len(), 4);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec!['a', 'c', 'b', 'd']);
    }

    #[test]
    fn equal_time_events_across_lane_and_heap_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(if i % 3 == 0 {
                q.schedule(t(5), i)
            } else {
                q.schedule_monotone(t(5), i)
            });
        }
        assert!(!q.lane.is_empty() && !q.heap.is_empty());
        assert_eq!(q.peek_time(), Some(t(5)));
        let fired: Vec<Firing<i32>> = std::iter::from_fn(|| q.pop()).collect();
        let order: Vec<i32> = fired.iter().map(|f| f.payload).collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
        let fired_ids: Vec<EventId> = fired.iter().map(|f| f.id).collect();
        assert_eq!(fired_ids, ids, "ids are handed out in scheduling order");
    }

    #[test]
    fn cancelling_a_lane_entry_tombstones_it() {
        let mut q = EventQueue::new();
        let a = q.schedule_monotone(t(1), "a");
        let b = q.schedule_monotone(t(2), "b");
        q.schedule(t(3), "c");
        assert!(q.cancel(b));
        assert_eq!(q.len(), 2);
        assert_eq!(q.lane.len(), 2, "the slot stays until it reaches the front");
        assert!(!q.cancel(b), "double cancel reports false");
        assert!(q.cancel(a));
        assert_eq!(
            q.peek_time(),
            Some(t(3)),
            "both lane tombstones are skipped"
        );
        assert!(q.lane.is_empty());
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn clear_empties_the_lane_too() {
        let mut q = EventQueue::new();
        q.schedule_monotone(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
        q.schedule_monotone(t(0), ());
        assert_eq!(q.lane.len(), 1, "a cleared lane accepts any time again");
    }

    #[test]
    fn firing_reports_time_and_id() {
        let mut q = EventQueue::new();
        let id = q.schedule(t(7), 'x');
        let firing = q.pop().unwrap();
        assert_eq!(firing.time, t(7));
        assert_eq!(firing.id, id);
        assert_eq!(firing.payload, 'x');
    }
}
