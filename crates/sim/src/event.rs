//! The pending-event set: a time-ordered priority queue with stable
//! tie-breaking and O(log n) cancellation.
//!
//! Determinism requires that events scheduled for the same instant fire in
//! the order they were scheduled, regardless of heap internals. Each event
//! therefore carries a monotonically increasing sequence number that breaks
//! ties.
//!
//! A heap entry is 32 bytes for a two-word payload: an order-preserving
//! `u64` key of its time, an [`EventId`] that packs the sequence number
//! with a slot, and the payload. Entries compare as one integer, key then
//! sequence number. Liveness is a slab, not a set: each pending event owns
//! a slot, and the slot holds the sequence number of the event that owns
//! it. Firing or cancelling frees the slot, so an entry or id is live
//! exactly while its sequence number is its slot's — one indexed compare,
//! no hashing.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

/// Bits of an [`EventId`] that hold the slot; the sequence number takes
/// the other 40.
const SLOT_BITS: u32 = 24;
/// One past the largest sequence number an id can hold.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);
/// Set in a slot's tag when its event was scheduled at `-0.0`, the one
/// time whose key (shared with `+0.0`, so the two tie) loses its sign.
const NEG_ZERO: u64 = 1 << 63;
/// Set in the tag of a free slot, whose low 32 bits then link to the
/// next free slot. No sequence number has it, so a free slot matches no
/// id.
const FREE: u64 = 1 << 62;
/// The end of the free list.
const NO_SLOT: u32 = u32::MAX;

/// Opaque handle identifying a scheduled event; used for cancellation.
///
/// Packs the event's sequence number (high 40 bits) and its slot (low 24
/// bits), and stores the packed value plus one, so that it is never zero
/// and an `Option<EventId>` is 8 bytes. Adding one keeps the order, so
/// ids still rank by sequence number. Sequence numbers are never reused,
/// so an id names one event for the queue's whole life.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Option<EventId>>() == 8);

impl EventId {
    /// The id of event `seq` in `slot`. The last sequence number in the
    /// last slot is the one packed value with no successor; it is refused
    /// as an exhausted sequence, like every number past it.
    fn new(seq: u64, slot: u32) -> Self {
        let stored = (seq << SLOT_BITS | u64::from(slot)).wrapping_add(1);
        EventId(NonZeroU64::new(stored).expect("event sequence numbers exhausted (2^40)"))
    }

    /// The packed sequence number and slot.
    fn packed(self) -> u64 {
        self.0.get() - 1
    }

    fn slot(self) -> usize {
        (self.packed() & ((1 << SLOT_BITS) - 1)) as usize
    }

    fn seq(self) -> u64 {
        self.packed() >> SLOT_BITS
    }
}

/// Order-preserving key of a time: `a < b` as `f64` iff `key(a) <
/// key(b)`, and `-0.0` keys as `+0.0` so the two zeros tie, as they do
/// under `f64` comparison. NaN never reaches here ([`SimTime`] rejects it).
fn time_key(time: SimTime) -> u64 {
    // Adding `+0.0` turns `-0.0` into `+0.0` and leaves any other value.
    let bits = (time.as_secs() + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The time a key was made from, but for the sign of a zero.
fn key_time(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The tag of `id`'s slot in `slots` if `id` is live.
fn live_tag(slots: &[u64], id: EventId) -> Option<u64> {
    slots
        .get(id.slot())
        .copied()
        .filter(|tag| tag & !NEG_ZERO == id.seq())
}

/// A heap entry: the time key, the id and the payload.
#[derive(Debug)]
pub(crate) struct Entry<T> {
    key: u64,
    id: EventId,
    payload: T,
}

impl<T> Entry<T> {
    /// Key then sequence number; the id's high bits are its sequence
    /// number, which is unique, so its low bits never decide. The id's
    /// stored value is its packed value plus one, which orders alike.
    #[inline]
    fn rank(&self) -> u128 {
        u128::from(self.key) << 64 | u128::from(self.id.0.get())
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl<T> Eq for Entry<T> {}

// BinaryHeap is a max-heap; invert the ordering so the earliest event (and
// among equals, the earliest-scheduled) pops first.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.rank().cmp(&self.rank())
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event taken off the queue: its firing time, exactly as scheduled,
/// its id and its payload.
#[derive(Debug)]
pub struct ScheduledEvent<T> {
    pub time: SimTime,
    pub id: EventId,
    pub payload: T,
}

/// Time-ordered event queue with lazy cancellation.
///
/// A cancelled event stays in the heap as a tombstone (its slot freed or
/// owned by a later event) and is skipped when it surfaces. This keeps
/// cancellation O(1) plus amortized compaction, without heap surgery.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Per slot: the sequence number of the event that owns it (plus the
    /// [`NEG_ZERO`] flag), or, for a slot whose event fired or was
    /// cancelled, [`FREE`] and the next free slot.
    slots: Vec<u64>,
    /// The most recently freed slot, the head of the free list threaded
    /// through `slots`; [`NO_SLOT`] if none is free.
    free_head: u32,
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
            slots: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            next_seq: 0,
            hwm: 0,
            compactions: 0,
            cancels: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle usable with
    /// [`EventQueue::cancel`]. Panics past 2^40 events scheduled or 2^24
    /// pending.
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "event sequence numbers exhausted (2^40)");
        let slot = if self.free_head == NO_SLOT {
            let slot = self.slots.len();
            assert!(slot < 1 << SLOT_BITS, "fewer than 2^24 pending events");
            self.slots.push(FREE);
            slot as u32
        } else {
            let slot = self.free_head;
            self.free_head = self.slots[slot as usize] as u32;
            slot
        };
        let neg_zero = time.as_secs().to_bits() == (-0.0f64).to_bits();
        self.slots[slot as usize] = if neg_zero { seq | NEG_ZERO } else { seq };
        let id = EventId::new(seq, slot);
        self.next_seq += 1;
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
        self.heap.push(Entry {
            key: time_key(time),
            id,
            payload,
        });
        id
    }

    /// End a live event's life (fired or cancelled): free its slot.
    /// Returns the slot's tag, or `None` if `id` was not live.
    fn release(&mut self, id: EventId) -> Option<u64> {
        let tag = live_tag(&self.slots, id)?;
        self.free_slot(id);
        Some(tag)
    }

    /// Free the slot of `id`, which is live.
    fn free_slot(&mut self, id: EventId) {
        self.slots[id.slot()] = FREE | u64::from(self.free_head);
        self.free_head = id.slot() as u32;
        self.len -= 1;
    }

    /// The time `key` was scheduled at, bit for bit, given its slot's tag.
    fn time_of(key: u64, tag: u64) -> SimTime {
        SimTime::from_secs(if tag & NEG_ZERO != 0 {
            -0.0
        } else {
            key_time(key)
        })
    }

    /// Cancel a previously scheduled event. Returns true if the event was
    /// still pending (i.e., not yet fired or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.release(id).is_none() {
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
        let slots = &self.slots;
        self.heap.retain(|e| live_tag(slots, e.id).is_some());
    }

    /// Drop every pending event without returning it, and free the
    /// heap and the slot table. Every id issued so far is dead from here
    /// on: sequence numbers are never reused. No counter moves: a dropped
    /// event was neither fired nor cancelled.
    pub fn discard(&mut self) {
        self.heap = BinaryHeap::new();
        self.slots = Vec::new();
        self.free_head = NO_SLOT;
        self.len = 0;
    }

    /// Remove and return the earliest live event, skipping tombstones.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        // Every key is at most `+inf`'s (NaN never reaches the queue).
        self.pop_until(SimTime::from_secs(f64::INFINITY))
    }

    /// Remove and return the earliest live event if it fires at or before
    /// `until`, pruning tombstones at the head and checking the head's
    /// liveness once.
    pub fn pop_until(&mut self, until: SimTime) -> Option<ScheduledEvent<T>> {
        let limit = time_key(until);
        loop {
            let head = self.heap.peek()?;
            let Some(tag) = live_tag(&self.slots, head.id) else {
                self.heap.pop();
                continue;
            };
            if head.key > limit {
                return None;
            }
            let e = self.heap.pop().expect("peeked entry exists");
            self.free_slot(e.id);
            return Some(ScheduledEvent {
                time: Self::time_of(e.key, tag),
                id: e.id,
                payload: e.payload,
            });
        }
    }

    /// Firing time of the earliest live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Prune tombstones at the head so the reported time is live.
        while let Some(e) = self.heap.peek() {
            if let Some(tag) = live_tag(&self.slots, e.id) {
                return Some(Self::time_of(e.key, tag));
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
    fn ids_round_trip_their_sequence_number_and_slot_at_the_extremes() {
        let last_slot = (1 << SLOT_BITS) - 1;
        let first = EventId::new(0, 0);
        assert_eq!((first.seq(), first.slot()), (0, 0));
        let last = EventId::new(SEQ_LIMIT - 1, last_slot - 1);
        assert_eq!(
            (last.seq(), last.slot()),
            (SEQ_LIMIT - 1, last_slot as usize - 1)
        );
        let before = EventId::new(SEQ_LIMIT - 2, last_slot);
        assert_eq!(
            (before.seq(), before.slot()),
            (SEQ_LIMIT - 2, last_slot as usize)
        );
        // Ids rank by sequence number, then slot, as their packed values.
        assert!(first < before && before < last);
    }

    #[test]
    #[should_panic(expected = "event sequence numbers exhausted")]
    fn the_last_sequence_number_in_the_last_slot_is_refused() {
        EventId::new(SEQ_LIMIT - 1, (1 << SLOT_BITS) - 1);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId::new(0, 99)));
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

    /// Times the oracle workload schedules at: twelve whole seconds, so
    /// many events tie, and the edges of the time key's order (negative
    /// times, both zeros at one instant, the smallest subnormals, the
    /// infinities and neighbouring doubles).
    const INSTANTS: [f64; 24] = [
        0.0,
        1.0,
        2.0,
        3.0,
        4.0,
        5.0,
        6.0,
        7.0,
        8.0,
        9.0,
        10.0,
        11.0,
        -0.0,
        -1.0,
        -1e300,
        -5e-324,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        1.0 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        -1.0 - f64::EPSILON,
    ];

    /// One step of a random queue workload.
    #[derive(Clone, Debug)]
    enum Op {
        /// Schedule at `INSTANTS[i]`.
        Schedule(usize),
        /// Cancel the id issued at this position (modulo the issue count):
        /// pending, fired or already cancelled.
        Cancel(usize),
        /// Cancel an id neither queue ever issued.
        CancelUnknown(u32),
        Pop,
        /// Pop if the head fires at or before `INSTANTS[i]`.
        PopUntil(usize),
        Peek,
    }

    /// Weighted draw: schedules 5, cancels 3, unknown cancels 1, pops 3,
    /// bounded pops 2, peeks 1 (out of 15).
    fn op() -> impl Strategy<Value = Op> {
        (0u32..15, any::<usize>()).prop_map(|(k, x)| match k {
            0..=4 => Op::Schedule(x % INSTANTS.len()),
            5..=7 => Op::Cancel(x),
            8 => Op::CancelUnknown((x % 4) as u32),
            9..=11 => Op::Pop,
            12..=13 => Op::PopUntil(x % INSTANTS.len()),
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
        /// every step: pop order (ties, and the two zeros, broken by
        /// sequence number), popped and peeked times bit for bit, cancel
        /// results, lengths, the tombstone backlog and every lifetime
        /// counter.
        #[test]
        fn queue_matches_oracle(ops in proptest::collection::vec(op(), 0..400)) {
            let mut q = EventQueue::new();
            let mut o = OracleQueue::new();
            // Issue order: (queue id, oracle id, time), indexed by payload.
            let mut issued: Vec<(EventId, EventId, f64)> = Vec::new();
            for op in ops {
                match op {
                    Op::Schedule(i) => {
                        let (n, at) = (issued.len(), INSTANTS[i]);
                        issued.push((q.schedule(t(at), n), o.schedule(t(at), n), at));
                    }
                    Op::Cancel(i) if !issued.is_empty() => {
                        let (qi, oi, _) = issued[i % issued.len()];
                        prop_assert_eq!(q.cancel(qi), o.cancel(oi));
                    }
                    Op::Cancel(_) => {}
                    Op::CancelUnknown(k) => {
                        let id = EventId::new(255, (1 << SLOT_BITS) - 1 - k);
                        prop_assert!(!q.cancel(id));
                        prop_assert!(!o.cancel(id));
                    }
                    Op::PopUntil(i) => {
                        let until = t(INSTANTS[i]);
                        let want = match o.peek_time() {
                            Some(at) if at <= until => o.pop(),
                            _ => None,
                        };
                        match (q.pop_until(until), want) {
                            (Some(a), Some(b)) => {
                                prop_assert_eq!(a.payload, b.payload);
                                let at = issued[a.payload].2;
                                prop_assert_eq!(a.time.as_secs().to_bits(), at.to_bits());
                            }
                            (None, None) => {}
                            (a, b) => prop_assert!(false, "pop_until diverged: {:?} vs {:?}", a, b),
                        }
                    }
                    Op::Pop => match (q.pop(), o.pop()) {
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.payload, b.payload);
                            let (qi, oi, at) = issued[a.payload];
                            prop_assert_eq!((a.id, b.id), (qi, oi));
                            prop_assert_eq!(a.time.as_secs().to_bits(), at.to_bits());
                            prop_assert_eq!(b.time.as_secs().to_bits(), at.to_bits());
                        }
                        (None, None) => {}
                        (a, b) => prop_assert!(false, "pop diverged: {:?} vs {:?}", a, b),
                    },
                    Op::Peek => prop_assert_eq!(
                        q.peek_time().map(|t| t.as_secs().to_bits()),
                        o.peek_time().map(|t| t.as_secs().to_bits())
                    ),
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
            // Drain: whatever is left pops in the same order, at the same
            // times bit for bit.
            loop {
                match (q.pop(), o.pop()) {
                    (Some(a), Some(b)) => prop_assert_eq!(
                        (a.time.as_secs().to_bits(), a.payload),
                        (b.time.as_secs().to_bits(), b.payload)
                    ),
                    (None, None) => break,
                    (a, b) => prop_assert!(false, "drain diverged: {:?} vs {:?}", a, b),
                }
            }
        }
    }

    #[test]
    fn time_key_orders_like_f64() {
        let mut sorted = INSTANTS;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in sorted.windows(2) {
            let (a, b) = (time_key(t(pair[0])), time_key(t(pair[1])));
            assert_eq!(
                a.cmp(&b),
                pair[0].partial_cmp(&pair[1]).unwrap(),
                "{pair:?}"
            );
        }
        for x in INSTANTS {
            assert_eq!(key_time(time_key(t(x))).to_bits(), (x + 0.0).to_bits());
        }
    }

    #[test]
    fn both_zeros_tie_and_keep_their_sign() {
        let mut q = EventQueue::new();
        q.schedule(t(0.0), "plus");
        q.schedule(t(-0.0), "minus");
        q.schedule(t(0.0), "plus again");
        assert_eq!(q.peek_time().unwrap().as_secs().to_bits(), 0);
        for (sign, name) in [(false, "plus"), (true, "minus"), (false, "plus again")] {
            let ev = q.pop().unwrap();
            assert_eq!(ev.payload, name);
            assert_eq!(ev.time.as_secs().is_sign_negative(), sign, "{name}");
        }
    }

    #[test]
    fn id_packs_sequence_and_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        let b = q.schedule(t(1.0), ());
        assert_eq!((a.seq(), a.slot()), (0, 0));
        assert_eq!((b.seq(), b.slot()), (1, 1));
        q.pop();
        // The freed slot is reused under a new sequence number, and the
        // fired id stays dead.
        let c = q.schedule(t(2.0), ());
        assert_eq!((c.seq(), c.slot()), (2, 0));
        assert!(!q.cancel(a));
        assert!(q.cancel(c));
    }

    #[test]
    fn last_sequence_number_is_usable() {
        let mut q = EventQueue::new();
        q.next_seq = SEQ_LIMIT - 1;
        let id = q.schedule(t(0.0), ());
        assert_eq!(id.seq(), SEQ_LIMIT - 1);
        assert_eq!(q.pop().unwrap().id, id);
    }

    #[test]
    #[should_panic(expected = "sequence numbers exhausted")]
    fn sequence_overflow_is_caught() {
        // A 41st bit would fall off the id; the queue refuses to issue
        // it.
        let mut q = EventQueue::new();
        q.next_seq = SEQ_LIMIT;
        q.schedule(t(0.0), ());
    }
}
