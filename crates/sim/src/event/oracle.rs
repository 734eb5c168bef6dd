//! The event queue as it was before the generation-tagged slab: two
//! hashed id sets track liveness and cancellation. Kept verbatim as the
//! differential oracle the slab queue is checked against.

use super::EventId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

#[derive(Debug)]
pub struct OracleEvent<T> {
    pub time: SimTime,
    pub id: EventId,
    seq: u64,
    pub payload: T,
}

impl<T> PartialEq for OracleEvent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for OracleEvent<T> {}

impl<T> Ord for OracleEvent<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for OracleEvent<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
pub struct OracleQueue<T> {
    heap: BinaryHeap<OracleEvent<T>>,
    live: HashSet<EventId>,
    cancelled: HashSet<EventId>,
    next_seq: u64,
    next_id: u64,
    hwm: usize,
    compactions: u64,
    cancels: u64,
}

impl<T> OracleQueue<T> {
    pub fn new() -> Self {
        OracleQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            next_id: 0,
            hwm: 0,
            compactions: 0,
            cancels: 0,
        }
    }

    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventId {
        let id = EventId::new(self.next_id, 0);
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(id);
        if self.live.len() > self.hwm {
            self.hwm = self.live.len();
        }
        self.heap.push(OracleEvent {
            time,
            id,
            seq,
            payload,
        });
        id
    }

    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.live.remove(&id) {
            return false;
        }
        self.cancels += 1;
        self.cancelled.insert(id);
        if self.cancelled.len() * 2 > self.heap.len() {
            self.compact();
        }
        true
    }

    fn compact(&mut self) {
        self.compactions += 1;
        let mut events = std::mem::take(&mut self.heap).into_vec();
        events.retain(|ev| !self.cancelled.remove(&ev.id));
        self.heap = BinaryHeap::from(events);
    }

    pub fn pop(&mut self) -> Option<OracleEvent<T>> {
        while let Some(ev) = self.heap.pop() {
            if self.cancelled.remove(&ev.id) {
                continue;
            }
            self.live.remove(&ev.id);
            return Some(ev);
        }
        None
    }

    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(ev) = self.heap.peek() {
            if self.cancelled.contains(&ev.id) {
                let ev = self.heap.pop().expect("peeked event exists");
                self.cancelled.remove(&ev.id);
                continue;
            }
            return Some(ev.time);
        }
        None
    }

    pub fn raw_len(&self) -> usize {
        self.heap.len()
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    pub fn cancelled_len(&self) -> usize {
        self.cancelled.len()
    }

    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    pub fn scheduled_total(&self) -> u64 {
        self.next_id
    }

    pub fn cancelled_total(&self) -> u64 {
        self.cancels
    }
}
