//! The global event queue and message types.
//!
//! Pending events wait in one FIFO per timestamp, the timestamps kept in
//! order: the earliest instant's oldest event pops first. Simultaneous
//! events therefore run in the order they were scheduled, which is what
//! makes whole-system runs reproducible from a seed. It is a calendar
//! queue (Brown, CACM 1988) whose buckets are exact instants — and
//! instants are shared at scale: every reporter's round timer of a
//! federation falls due at once.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::ids::{Endpoint, HostId, Pid};
use crate::time::SimTime;

/// An opaque, typed message payload. Applications and managers exchange
/// their own struct types; receivers downcast with [`Payload::get`].
///
/// Payload types must be `Clone` so the fault-injection layer can model
/// at-least-once delivery (duplicated messages) without knowing the
/// concrete type: the constructor captures a monomorphised clone
/// function alongside the erased value.
pub struct Payload {
    value: Box<dyn Any + Send>,
    clone_fn: fn(&(dyn Any + Send)) -> Box<dyn Any + Send>,
}

fn clone_boxed<T: Any + Send + Clone>(any: &(dyn Any + Send)) -> Box<dyn Any + Send> {
    match any.downcast_ref::<T>() {
        Some(v) => Box::new(v.clone()),
        // clone_fn is only ever paired with the value it was created
        // from, so the downcast cannot fail.
        None => unreachable!("payload clone_fn type mismatch"),
    }
}

impl Payload {
    /// Wrap a value as a payload.
    pub fn new<T: Any + Send + Clone>(value: T) -> Self {
        Payload {
            value: Box::new(value),
            clone_fn: clone_boxed::<T>,
        }
    }

    /// An empty payload (pure byte traffic, e.g. cross traffic).
    pub fn empty() -> Self {
        Payload::new(())
    }

    /// Borrow the payload as `T`, if it is one.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.value.downcast_ref::<T>()
    }

    /// Consume the payload, returning `T` if it is one.
    pub fn take<T: Any>(self) -> Result<T, Payload> {
        let clone_fn = self.clone_fn;
        match self.value.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(b) => Err(Payload { value: b, clone_fn }),
        }
    }

    /// True if the payload is of type `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.value.is::<T>()
    }
}

impl Clone for Payload {
    fn clone(&self) -> Self {
        Payload {
            value: (self.clone_fn)(&*self.value),
            clone_fn: self.clone_fn,
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Payload(..)")
    }
}

/// A message in flight or queued in a socket buffer. `Clone` exists so
/// the fault layer can inject duplicate deliveries.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Wire size in bytes; drives transmission/queueing delay and socket
    /// buffer occupancy.
    pub bytes: u32,
    /// Time the sender issued the send.
    pub sent_at: SimTime,
    /// Typed payload.
    pub payload: Payload,
}

/// Events a process receives through its [`crate::proc::ProcessLogic`]
/// callback.
#[derive(Debug)]
pub enum ProcEvent {
    /// The process's requested CPU burst has completed.
    BurstDone,
    /// A timer set with `set_timer` fired; carries the caller's tag.
    Timer(u64),
    /// One message arrived on the given port. The contract is one
    /// `Readable` per delivered message: a `recv` on that port is
    /// guaranteed to return a message if the process only receives in
    /// response to `Readable` events.
    Readable(crate::ids::Port),
    /// First event a process ever receives.
    Start,
}

/// World-level events processed by the simulation loop.
pub(crate) enum Event {
    /// A CPU's current time slice ends (quantum expiry or burst completion).
    /// Stale ticks are filtered by `token`.
    CpuTick { host: HostId, token: u64 },
    /// Deliver one pending [`ProcEvent`] to a waiting process.
    Deliver { pid: Pid },
    /// A process timer fires.
    Timer { pid: Pid, tag: u64 },
    /// A message finishes traversing the network and arrives at its
    /// destination host.
    NetArrive { msg: Message },
    /// Periodic per-host bookkeeping: load average sampling and
    /// time-sharing starvation boost.
    HostTick { host: HostId },
    /// A scheduled fault-injection kill of a process.
    FaultKill { pid: Pid },
}

/// The largest FIFO, in events, an emptied instant hands on to a new
/// one. Most instants hold a few events; one that held thousands (a
/// federation round's timers) is freed instead, or passed from instant
/// to instant it would leave every kept FIFO that large.
const SPARE_CAPACITY: usize = 16;

/// Deterministic time-ordered event queue: one FIFO per pending
/// timestamp. Within a timestamp, push order is pop order, so events pop
/// in `(time, scheduling order)` without a sequence number to compare.
pub(crate) struct EventQueue {
    /// Pending events by instant, each instant's in push order. No FIFO
    /// in the map is empty.
    by_time: BTreeMap<SimTime, VecDeque<Event>>,
    /// Emptied FIFOs of at most [`SPARE_CAPACITY`], kept for the next
    /// new instant.
    spare: Vec<VecDeque<Event>>,
    /// Events queued, over every instant.
    len: usize,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            by_time: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, event: Event) {
        self.by_time
            .entry(time)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push_back(event);
        self.len += 1;
    }

    /// The oldest event due at `time`, if `time` is the earliest
    /// pending instant.
    pub fn pop_at(&mut self, time: SimTime) -> Option<Event> {
        let mut front = self.by_time.first_entry().filter(|f| *f.key() == time)?;
        let event = front.get_mut().pop_front()?;
        if front.get().is_empty() {
            let fifo = front.remove();
            if fifo.capacity() <= SPARE_CAPACITY {
                self.spare.push(fifo);
            }
        }
        self.len -= 1;
        Some(event)
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.by_time.first_key_value().map(|(&time, _)| time)
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    /// The earliest instant's oldest event, with its instant.
    fn pop(q: &mut EventQueue) -> Option<(SimTime, Event)> {
        let time = q.peek_time()?;
        q.pop_at(time).map(|e| (time, e))
    }

    fn tick(host: u32) -> Event {
        Event::CpuTick {
            host: HostId(host),
            token: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO;
        q.push(t0 + Dur::from_micros(30), tick(3));
        q.push(t0 + Dur::from_micros(10), tick(1));
        q.push(t0 + Dur::from_micros(20), tick(2));
        let order: Vec<u32> = std::iter::from_fn(|| pop(&mut q))
            .map(|(_, e)| match e {
                Event::CpuTick { host, .. } => host.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.push(t, tick(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| pop(&mut q))
            .map(|(_, e)| match e {
                Event::CpuTick { host, .. } => host.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// The queue against the order it replaced, a binary heap of
    /// `(time, sequence)`: seeded scripts of pushes and pops — pushes at
    /// near and far instants, and at the instant being drained, as a
    /// handler pushes mid-batch; pops at the instant being drained, and
    /// at the next one once it is empty — must pop the same events in the
    /// same order, with the same length after every step.
    #[test]
    fn pops_as_a_time_then_sequence_heap_does() {
        use crate::ids::Pid;
        use crate::rng::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let timer = |tag: u64| Event::Timer {
            pid: Pid {
                host: HostId(0),
                local: 0,
            },
            tag,
        };
        let tag = |e: Event| match e {
            Event::Timer { tag, .. } => tag,
            _ => unreachable!(),
        };
        for seed in 0..200 {
            let mut rng = Rng::new(seed);
            // From mostly pushing (a deep queue) to mostly popping.
            let pop_share = 0.2 + 0.6 * (seed % 4) as f64 / 3.0;
            let mut q = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            for _ in 0..2_000 {
                if rng.chance(pop_share) {
                    // As the world drains: the instant being drained
                    // until it has nothing left, then the next one.
                    let got = match q.pop_at(now) {
                        Some(e) => Some((now, tag(e))),
                        None => pop(&mut q).map(|(t, e)| (t, tag(e))),
                    };
                    let want = heap.pop().map(|Reverse(pair)| pair);
                    assert_eq!(got, want, "seed {seed}, after {seq} pushes");
                    if let Some((t, _)) = got {
                        now = t;
                    }
                } else {
                    let at = match rng.below(4) {
                        0 => now,
                        1 | 2 => now + Dur::from_micros(rng.below(8)),
                        _ => now + Dur::from_micros(rng.below(10_000)),
                    };
                    q.push(at, timer(seq));
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                }
                assert_eq!(q.len(), heap.len(), "seed {seed}");
                assert_eq!(
                    q.peek_time(),
                    heap.peek().map(|Reverse((t, _))| *t),
                    "seed {seed}"
                );
            }
            while let Some(Reverse(want)) = heap.pop() {
                assert_eq!(pop(&mut q).map(|(t, e)| (t, tag(e))), Some(want));
            }
            assert!(pop(&mut q).is_none());
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn payload_downcast_roundtrip() {
        #[derive(Debug, Clone, PartialEq)]
        struct Frame(u32);
        let p = Payload::new(Frame(9));
        assert!(p.is::<Frame>());
        assert_eq!(p.get::<Frame>(), Some(&Frame(9)));
        assert!(p.get::<String>().is_none());
        assert_eq!(p.take::<Frame>().unwrap(), Frame(9));
    }

    #[test]
    fn payload_take_wrong_type_returns_self() {
        let p = Payload::new(42u32);
        let p = p.take::<String>().unwrap_err();
        assert_eq!(p.take::<u32>().unwrap(), 42);
    }

    #[test]
    fn payload_clone_preserves_type_and_value() {
        let p = Payload::new(String::from("dup"));
        let c = p.clone();
        assert_eq!(p.get::<String>().map(String::as_str), Some("dup"));
        assert_eq!(c.take::<String>().unwrap(), "dup");
    }

    #[test]
    fn payload_clone_survives_failed_take() {
        // The clone_fn must travel with the box through the Err path.
        let p = Payload::new(7u8).take::<String>().unwrap_err();
        assert_eq!(*p.clone().get::<u8>().unwrap(), 7);
    }
}
