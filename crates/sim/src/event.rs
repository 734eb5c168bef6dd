//! The pending-event set: a time-ordered priority queue with stable
//! tie-breaking and O(log n) cancellation.
//!
//! Determinism requires that events scheduled for the same instant fire in
//! the order they were scheduled, regardless of heap internals. Each event
//! therefore carries a monotonically increasing sequence number that breaks
//! ties.
//!
//! Liveness is a slab, not a set: each pending event owns a slot, and its
//! [`EventId`] records the slot's generation at scheduling time. Firing or
//! cancelling bumps the generation and frees the slot, so an id is live
//! exactly while its generation matches — one indexed compare, no hashing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle identifying a scheduled event; used for cancellation.
///
/// Packs the event's slot (low 32 bits) and that slot's generation when
/// the event was scheduled (high 32 bits). Ids are unique until one slot
/// is reused 2^32 times.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

impl EventId {
    fn new(slot: u32, generation: u32) -> Self {
        EventId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// An event in the queue: a firing time plus an arbitrary payload.
#[derive(Debug)]
pub struct ScheduledEvent<T> {
    pub time: SimTime,
    pub id: EventId,
    seq: u64,
    pub payload: T,
}

impl<T> PartialEq for ScheduledEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for ScheduledEvent<T> {}

// BinaryHeap is a max-heap; invert the ordering so the earliest event (and
// among equals, the earliest-scheduled) pops first.
impl<T> Ord for ScheduledEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for ScheduledEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue with lazy cancellation.
///
/// A cancelled event stays in the heap as a tombstone (its id no longer
/// live) and is skipped when it surfaces. This keeps cancellation O(1)
/// plus amortized compaction, without heap surgery.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<ScheduledEvent<T>>,
    /// Current generation of each slot; an id is live while it matches.
    generations: Vec<u32>,
    /// Slots whose event fired or was cancelled, ready for reuse.
    free: Vec<u32>,
    /// Generation a new slot starts at: above every id issued before the
    /// last [`EventQueue::discard`], so none of those comes back to life.
    fresh_generation: u32,
    /// Number of live pending events.
    len: usize,
    /// Sequence number of the next event: also the total ever scheduled.
    next_seq: u64,
    /// High-water mark of live pending events (queue-pressure diagnostic).
    hwm: usize,
    /// Number of eager heap compactions performed.
    compactions: u64,
    /// Number of successful cancellations.
    cancels: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            generations: Vec::new(),
            free: Vec::new(),
            fresh_generation: 0,
            len: 0,
            next_seq: 0,
            hwm: 0,
            compactions: 0,
            cancels: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle usable with
    /// [`EventQueue::cancel`].
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot =
                u32::try_from(self.generations.len()).expect("fewer than 2^32 pending events");
            self.generations.push(self.fresh_generation);
            slot
        });
        let id = EventId::new(slot, self.generations[slot as usize]);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
        self.heap.push(ScheduledEvent {
            time,
            id,
            seq,
            payload,
        });
        id
    }

    fn is_live(&self, id: EventId) -> bool {
        self.generations.get(id.slot()) == Some(&id.generation())
    }

    /// End a live event's life (fired or cancelled): bump its slot's
    /// generation and free the slot. False if `id` was not live.
    fn release(&mut self, id: EventId) -> bool {
        match self.generations.get_mut(id.slot()) {
            Some(generation) if *generation == id.generation() => {
                *generation = generation.wrapping_add(1);
                self.free.push(id.slot() as u32);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (i.e., not yet fired or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.release(id) {
            return false;
        }
        self.cancels += 1;
        // Eager compaction: once tombstones outnumber live events, rebuild
        // the heap without them. O(n) here, amortized O(1) per
        // cancellation, and it bounds the garbage pop/peek must skip —
        // the invariant cancelled_len() * 2 <= raw_len() holds on exit.
        if self.cancelled_len() * 2 > self.heap.len() {
            self.compact();
        }
        true
    }

    /// Rebuild the heap without tombstones.
    fn compact(&mut self) {
        self.compactions += 1;
        let generations = &self.generations;
        self.heap
            .retain(|ev| generations.get(ev.id.slot()) == Some(&ev.id.generation()));
    }

    /// Drop every pending event without returning it, and free the
    /// heap and the slot tables. Every id issued so far is dead from here
    /// on. No counter moves: a dropped event was neither fired nor
    /// cancelled.
    pub fn discard(&mut self) {
        if let Some(&newest) = self.generations.iter().max() {
            self.fresh_generation = newest.wrapping_add(1);
        }
        self.heap = BinaryHeap::new();
        self.generations = Vec::new();
        self.free = Vec::new();
        self.len = 0;
    }

    /// Remove and return the earliest live event, skipping tombstones.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        while let Some(ev) = self.heap.pop() {
            if self.release(ev.id) {
                return Some(ev);
            }
        }
        None
    }

    /// Firing time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Prune tombstones at the head so the reported time is live.
        while let Some(ev) = self.heap.peek() {
            if self.is_live(ev.id) {
                return Some(ev.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of events in the heap, including not-yet-pruned cancellations.
    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of not-yet-pruned cancelled events still in the heap
    /// (diagnostics; the compaction bound keeps this ≤ `raw_len` / 2).
    pub fn cancelled_len(&self) -> usize {
        self.heap.len() - self.len
    }

    /// High-water mark of live pending events over the queue's lifetime.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Number of eager heap compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total events ever scheduled (fired, pending, or cancelled).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total successful cancellations over the queue's lifetime.
    pub fn cancelled_total(&self) -> u64 {
        self.cancels
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::OracleQueue;
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(a), "a fired event is no longer pending");
        assert!(q.is_empty());
    }

    #[test]
    fn compaction_bounds_cancelled_backlog() {
        // Cancel-heavy workload: the lazily-cancelled backlog must never
        // exceed half the heap, at every step — the eager-compaction bound.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..1_000).map(|i| q.schedule(t(i as f64), i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                assert!(q.cancel(*id));
            }
            assert!(
                q.cancelled_len() * 2 <= q.raw_len(),
                "tombstones {} exceed half of heap {} after {} cancels",
                q.cancelled_len(),
                q.raw_len(),
                i / 2 + 1
            );
        }
        assert_eq!(q.len(), 500);
        // Survivors still pop complete and in order.
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            got.push(ev.payload);
        }
        let expect: Vec<usize> = (0..1_000).filter(|i| i % 2 == 1).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn health_counters_track_queue_churn() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..8).map(|i| q.schedule(t(i as f64), i)).collect();
        assert_eq!(q.high_water_mark(), 8);
        assert_eq!(q.scheduled_total(), 8);
        // Pop below the high-water mark: the mark must not recede.
        q.pop();
        q.pop();
        assert_eq!(q.high_water_mark(), 8);
        // Cancel past the eager-compaction threshold and check the tallies.
        let mut cancelled = 0;
        for id in &ids[2..] {
            if q.cancel(*id) {
                cancelled += 1;
            }
        }
        assert_eq!(cancelled, 6);
        assert_eq!(q.cancelled_total(), 6);
        assert!(
            q.compactions() >= 1,
            "cancelling 6 of 6 live events must trigger eager compaction"
        );
        assert!(!q.cancel(ids[0]), "already-fired cancel must not count");
        assert_eq!(q.cancelled_total(), 6);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.raw_len(), 2); // lazy: still in the heap
    }

    proptest! {
        /// Events always pop in non-decreasing time order, and equal-time
        /// events pop in scheduling order.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u32..100, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &tt) in times.iter().enumerate() {
                q.schedule(t(tt as f64), i);
            }
            let mut last_time = None;
            let mut last_seq_at_time: Option<(f64, usize)> = None;
            while let Some(ev) = q.pop() {
                if let Some(lt) = last_time {
                    prop_assert!(ev.time >= lt);
                }
                if let Some((lt, ls)) = last_seq_at_time {
                    if ev.time.as_secs() == lt {
                        prop_assert!(ev.payload > ls, "FIFO violated for ties");
                    }
                }
                last_seq_at_time = Some((ev.time.as_secs(), ev.payload));
                last_time = Some(ev.time);
            }
        }

        /// Cancelling a random subset removes exactly those events.
        #[test]
        fn prop_cancellation(n in 1usize..100, cancel_mask in proptest::collection::vec(any::<bool>(), 100)) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = (0..n).map(|i| q.schedule(t(i as f64), i)).collect();
            let mut expect: Vec<usize> = vec![];
            for (i, id) in ids.iter().enumerate() {
                if cancel_mask[i] {
                    q.cancel(*id);
                } else {
                    expect.push(i);
                }
            }
            let mut got = vec![];
            while let Some(ev) = q.pop() {
                got.push(ev.payload);
            }
            prop_assert_eq!(got, expect);
        }
    }

    /// One step of a random queue workload.
    #[derive(Clone, Debug)]
    enum Op {
        /// Schedule at this whole second; 12 instants force many ties.
        Schedule(u8),
        /// Cancel the id issued at this position (modulo the issue count):
        /// pending, fired or already cancelled.
        Cancel(usize),
        /// Cancel an id neither queue ever issued.
        CancelUnknown(u32),
        Pop,
        Peek,
    }

    /// Weighted draw: schedules 5, cancels 3, unknown cancels 1, pops 3,
    /// peeks 1 (out of 13).
    fn op() -> impl Strategy<Value = Op> {
        (0u32..13, any::<usize>()).prop_map(|(k, x)| match k {
            0..=4 => Op::Schedule((x % 12) as u8),
            5..=7 => Op::Cancel(x),
            8 => Op::CancelUnknown((x % 4) as u32),
            9..=11 => Op::Pop,
            _ => Op::Peek,
        })
    }

    /// Shallow by default so `cargo test` stays fast; the chaos-smoke CI
    /// job sets `AIMES_FULL_PROPTEST=1` for the full-depth sweep.
    fn oracle_cases() -> u32 {
        match std::env::var("AIMES_FULL_PROPTEST") {
            Ok(v) if !v.is_empty() && v != "0" => 4096,
            _ => 256,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

        /// The queue and the oracle agree on everything observable after
        /// every step: pop order (ties included), cancel results, peeks,
        /// lengths, the tombstone backlog and every lifetime counter.
        #[test]
        fn queue_matches_oracle(ops in proptest::collection::vec(op(), 0..400)) {
            let mut q = EventQueue::new();
            let mut o = OracleQueue::new();
            // Issue order: (queue id, oracle id), indexed by payload.
            let mut issued: Vec<(EventId, EventId)> = Vec::new();
            for op in ops {
                match op {
                    Op::Schedule(at) => {
                        let n = issued.len();
                        issued.push((q.schedule(t(f64::from(at)), n), o.schedule(t(f64::from(at)), n)));
                    }
                    Op::Cancel(i) if !issued.is_empty() => {
                        let (qi, oi) = issued[i % issued.len()];
                        prop_assert_eq!(q.cancel(qi), o.cancel(oi));
                    }
                    Op::Cancel(_) => {}
                    Op::CancelUnknown(k) => {
                        let id = EventId(u64::from(u32::MAX - k));
                        prop_assert!(!q.cancel(id));
                        prop_assert!(!o.cancel(id));
                    }
                    Op::Pop => match (q.pop(), o.pop()) {
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.time, b.time);
                            prop_assert_eq!(a.payload, b.payload);
                            prop_assert_eq!((a.id, b.id), issued[a.payload]);
                        }
                        (None, None) => {}
                        (a, b) => prop_assert!(false, "pop diverged: {:?} vs {:?}", a, b),
                    },
                    Op::Peek => prop_assert_eq!(q.peek_time(), o.peek_time()),
                }
                prop_assert_eq!(q.len(), o.len());
                prop_assert_eq!(q.is_empty(), o.is_empty());
                prop_assert_eq!(q.raw_len(), o.raw_len());
                prop_assert_eq!(q.cancelled_len(), o.cancelled_len());
                prop_assert_eq!(q.high_water_mark(), o.high_water_mark());
                prop_assert_eq!(q.compactions(), o.compactions());
                prop_assert_eq!(q.scheduled_total(), o.scheduled_total());
                prop_assert_eq!(q.cancelled_total(), o.cancelled_total());
            }
            // Drain: whatever is left pops in the same order.
            loop {
                match (q.pop(), o.pop()) {
                    (Some(a), Some(b)) => prop_assert_eq!((a.time, a.payload), (b.time, b.payload)),
                    (None, None) => break,
                    (a, b) => prop_assert!(false, "drain diverged: {:?} vs {:?}", a, b),
                }
            }
        }
    }
}
