//! The hand-rolled epoll reactor: every accepted peer multiplexed onto
//! a small worker pool (Linux only, no tokio — raw epoll via [`crate::sys`]).
//!
//! Shape:
//!
//! * one **poller** thread owns the epoll instance and the listener:
//!   `epoll_wait` → accept bursts, drain the wake pipe, and push ready
//!   peer ids onto a shared ready list;
//! * `workers` **worker** threads pop peer ids and run one bounded
//!   *turn* each: drain the peer's write queue (until `WouldBlock` —
//!   EPOLLOUT interest is armed only while writes are pending), then
//!   read up to a byte budget, reassemble frames through
//!   [`PeerReader`] and hand them to the
//!   [`EventSink`] as one run. A peer with work left over is re-queued
//!   at the tail, so one firehose peer cannot starve a thousand quiet
//!   ones;
//! * **the sender writes**: a [`PeerSender`] whose frame lands at the
//!   head of an empty queue, while no turn holds the socket, writes it
//!   on its own thread — a reply costs no poller or worker wakeup. Only
//!   bytes the socket would not take (or a failed write) kick the
//!   reactor, and the peer's turn finishes the job. Both writers run
//!   the one write loop, under the locks in the order `out` → `stream`;
//! * a `scheduled` flag per peer keeps a peer on the ready list at most
//!   once (turns never run concurrently for one peer), and a `kicked`
//!   flag re-schedules peers that received outbound frames mid-turn —
//!   the classic lost-wakeup guard;
//! * **backpressure**: each peer's outbound queue is bounded
//!   ([`OutQueueConfig`]); control frames report `Full`, telemetry
//!   batches evict oldest-first, never the partly written head. A
//!   `WouldBlock` write parks the peer on EPOLLOUT instead of spinning;
//! * **one-shot arming**: peer fds are registered `EPOLLONESHOT`, so a
//!   peer with a turn queued (or running) generates no further poller
//!   wakeups; the turn re-arms the fd — with EPOLLOUT while writes are
//!   pending — only when the peer goes idle. Without this, level-
//!   triggered epoll re-reports every scheduled-but-unread peer on
//!   every `epoll_wait`, and the poller burns the CPU the workers need;
//! * **deterministic shutdown**: `shutdown()` sets the stop flag, wakes
//!   the poller and every worker, joins them all, then closes every
//!   peer socket.
//!
//! Chaos points (no-ops in release / `buggify-off`):
//! `net.epoll.spurious` (schedule a peer with no real readiness),
//! `net.accept.burst` (cut an accept burst short — level-triggered
//! epoll re-reports the rest), `net.write.wouldblock` (treat a write as
//! `WouldBlock`, forcing the EPOLLOUT path). All three are lossless.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread::JoinHandle;
use std::{io, thread};

use parking_lot::Mutex;
use qos_telemetry::{Counter, Gauge, Telemetry};

use crate::peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
use crate::sock::{SockListener, SockStream};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT};

/// Registration token for the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX;
/// Registration token for the listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Where the reactor delivers protocol input. Implementations must be
/// cheap to call from worker threads; blocking (e.g. on a bounded
/// manager queue) is allowed and is how ingest backpressure propagates
/// to the socket.
pub trait EventSink: Send + Sync + 'static {
    /// What one turn read from a peer: a run of one or more complete,
    /// header-validated raw frames laid end to end (walk it with
    /// [`qos_wire::frames`]). At most [`ReactorConfig::read_budget`]
    /// bytes plus one frame. Return `false` to ask the reactor to close
    /// this peer.
    fn on_frames(&self, run: Vec<u8>, peer: &PeerSender) -> bool;

    /// A peer's byte stream was corrupt beyond reframing; the reactor
    /// is closing it.
    fn on_corrupt(&self);
}

/// Outcome of a [`PeerSender`] delivery attempt — mirrors the manager's
/// sink contract: `Full` means retry the same frame later, `Gone` means
/// forget the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerSend {
    /// Written, or queued for writing (possibly after evicting older
    /// telemetry).
    Sent,
    /// The peer's control lane has no room right now.
    Full,
    /// The peer is closed; drop the sender.
    Gone,
}

/// Reactor tunables.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker threads running peer turns (the C10k budget is ≤ 4).
    pub workers: usize,
    /// Max bytes one peer may read per turn before being re-queued at
    /// the tail (fairness under a firehose peer).
    pub read_budget: usize,
    /// Per-peer outbound queue bounds.
    pub out: OutQueueConfig,
    /// Metrics sink for the `net.*` gauges/counters (`None` = no-op).
    pub telemetry: Option<Telemetry>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            read_budget: 64 * 1024,
            out: OutQueueConfig::default(),
            telemetry: None,
        }
    }
}

/// Live counters for the reactor (plain atomics; also mirrored to
/// `net.*` telemetry series when a [`Telemetry`] was configured).
#[derive(Default)]
pub struct NetStats {
    /// Connections accepted over the reactor's lifetime.
    pub accepted: AtomicU64,
    /// Currently connected peers.
    pub peers: AtomicU64,
    /// Complete frames read from peers.
    pub frames_in: AtomicU64,
    /// `epoll_wait` returns that reported at least one event.
    pub wakeups: AtomicU64,
    /// Writes that hit `WouldBlock` (peer parked on EPOLLOUT).
    pub backpressure_stalls: AtomicU64,
    /// Frames whose last byte the sending thread wrote itself, with no
    /// turn and no wakeup.
    pub direct_writes: AtomicU64,
    /// Telemetry frames evicted or refused by bounded peer queues.
    pub telemetry_dropped: AtomicU64,
    /// Chaos-injected spurious schedules (`net.epoll.spurious`).
    pub spurious: AtomicU64,
    /// High-water mark of the ready-list depth.
    pub ready_high_water: AtomicU64,
}

struct Gauges {
    peers: Gauge,
    ready_depth: Gauge,
    wakeups: Counter,
    stalls: Counter,
    direct_writes: Counter,
    spurious: Counter,
    telemetry_dropped: Counter,
}

impl Gauges {
    fn new(t: Option<&Telemetry>) -> Gauges {
        match t {
            Some(t) => Gauges {
                peers: t.gauge("net.peers", "reactor"),
                ready_depth: t.gauge("net.ready_depth", "reactor"),
                wakeups: t.counter("net.wakeups", "reactor"),
                stalls: t.counter("net.backpressure_stalls", "reactor"),
                direct_writes: t.counter("net.direct_writes", "reactor"),
                spurious: t.counter("net.spurious", "reactor"),
                telemetry_dropped: t.counter("net.telemetry_dropped", "reactor"),
            },
            None => Gauges {
                peers: Gauge::noop(),
                ready_depth: Gauge::noop(),
                wakeups: Counter::noop(),
                stalls: Counter::noop(),
                direct_writes: Counter::noop(),
                spurious: Counter::noop(),
                telemetry_dropped: Counter::noop(),
            },
        }
    }
}

struct Slot {
    id: u64,
    fd: RawFd,
    stream: Mutex<SockStream>,
    reader: Mutex<PeerReader>,
    out: Mutex<PeerOutQueue>,
    /// On the ready list or mid-turn (keeps each peer queued at most
    /// once; turns for one peer never run concurrently).
    scheduled: AtomicBool,
    /// Outbound frames arrived mid-turn; re-schedule when the turn ends.
    kicked: AtomicBool,
    closed: AtomicBool,
}

struct Ready {
    queue: StdMutex<VecDeque<u64>>,
    cv: Condvar,
}

struct Shared {
    epoll: Epoll,
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    ready: Ready,
    kicks: Mutex<Vec<u64>>,
    wake_tx: Mutex<UnixStream>,
    stop: AtomicBool,
    next_id: AtomicU64,
    stats: Arc<NetStats>,
    sink: Arc<dyn EventSink>,
    cfg: ReactorConfig,
    gauges: Gauges,
}

impl Shared {
    fn wake(&self) {
        // One pending byte is enough; WouldBlock means a wake is
        // already queued.
        let _ = self.wake_tx.lock().write(&[1u8]);
    }

    /// Put a peer on the ready list (idempotent while scheduled).
    fn schedule(&self, id: u64) {
        let fresh = claim(&self.slots.lock(), id);
        if fresh {
            self.push_ready(std::slice::from_ref(&id));
        }
    }

    /// Put many peers on the ready list under one lock pass — the
    /// poller calls this once per `epoll_wait` batch. `ids` is filtered
    /// in place down to the peers that became ready, so the poller's one
    /// buffer serves every pass.
    fn schedule_batch(&self, ids: &mut Vec<u64>) {
        {
            let slots = self.slots.lock();
            ids.retain(|&id| claim(&slots, id));
        }
        self.push_ready(ids);
    }

    /// Append freshly claimed peers to the ready list and wake one
    /// worker per peer, never more than there are workers.
    fn push_ready(&self, fresh: &[u64]) {
        if fresh.is_empty() {
            return;
        }
        let depth = {
            let mut q = self.ready.queue.lock().expect("ready lock");
            q.extend(fresh.iter().copied());
            q.len() as u64
        };
        self.stats
            .ready_high_water
            .fetch_max(depth, Ordering::Relaxed);
        self.gauges.ready_depth.set(depth as f64);
        for _ in 0..fresh.len().min(self.cfg.workers.max(1)) {
            self.ready.cv.notify_one();
        }
    }

    /// A sender delivered frames to a peer: make sure a turn runs soon.
    fn kick(&self, slot: &Slot) {
        if slot.kicked.swap(true, Ordering::AcqRel) {
            return;
        }
        self.kicks.lock().push(slot.id);
        self.wake();
    }

    fn close_peer(&self, slot: &Slot) {
        if slot.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = self.epoll.del(slot.fd);
        slot.stream.lock().shutdown();
        self.slots.lock().remove(&slot.id);
        let n = self.stats.peers.fetch_sub(1, Ordering::Relaxed) - 1;
        self.gauges.peers.set(n as f64);
    }
}

/// Mark peer `id` scheduled: `true` if it is open and was not already
/// (the caller then puts it on the ready list).
fn claim(slots: &HashMap<u64, Arc<Slot>>, id: u64) -> bool {
    slots.get(&id).is_some_and(|slot| {
        !slot.closed.load(Ordering::Acquire) && !slot.scheduled.swap(true, Ordering::AcqRel)
    })
}

/// How a [`write_queued`] drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drain {
    /// Every queued byte went to the socket.
    Empty,
    /// The socket took no more (`WouldBlock`); the rest stays queued.
    Blocked,
    /// The write failed or the peer stopped reading for good.
    Failed,
}

/// The one write loop, run by a peer's turn and by a sender that finds
/// the socket free: hand the queue's bytes to the socket until the
/// queue is empty, the socket would block, or the write fails. A frame
/// cut short stays at the head, where the queue never evicts it.
/// Returns how the drain ended and how many frames it finished.
fn write_queued(shared: &Shared, out: &mut PeerOutQueue, stream: &mut SockStream) -> (Drain, u64) {
    let mut finished = 0;
    while let Some(chunk) = out.write_chunk() {
        let blocked = if qos_buggify::buggify!("net.write.wouldblock") {
            // Chaos: pretend the kernel buffer is full — the frame
            // stays queued and EPOLLOUT must finish the job.
            true
        } else {
            match stream.write(chunk) {
                Ok(0) => return (Drain::Failed, finished),
                Ok(n) => {
                    finished += out.advance(n) as u64;
                    false
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
                Err(_) => return (Drain::Failed, finished),
            }
        };
        if blocked {
            shared
                .stats
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
            shared.gauges.stalls.inc();
            return (Drain::Blocked, finished);
        }
    }
    (Drain::Empty, finished)
}

/// A cloneable handle the manager uses to push frames to one reactor
/// peer (the reactor twin of the blocking driver's shared write half).
#[derive(Clone)]
pub struct PeerSender {
    slot: Weak<Slot>,
    shared: Weak<Shared>,
}

impl PeerSender {
    /// Queue `frame`; with `inline`, write it on this thread if that left
    /// it alone at the head of the queue.
    fn send(&self, class: SendClass, frame: &[u8], inline: bool) -> PeerSend {
        let (Some(slot), Some(shared)) = (self.slot.upgrade(), self.shared.upgrade()) else {
            return PeerSend::Gone;
        };
        if slot.closed.load(Ordering::Acquire) {
            return PeerSend::Gone;
        }
        let mut out = slot.out.lock();
        let idle = !out.has_pending();
        match out.enqueue(class, frame) {
            Enqueue::Full => return PeerSend::Full,
            Enqueue::DroppedOldest | Enqueue::DroppedNew => {
                shared
                    .stats
                    .telemetry_dropped
                    .fetch_add(1, Ordering::Relaxed);
                shared.gauges.telemetry_dropped.inc();
            }
            // Alone at the head: write it from this thread unless a turn
            // holds the socket (never wait for one). Only what the socket
            // would not take, or a failed write, needs the reactor.
            Enqueue::Queued if idle && inline => {
                if let Some(mut stream) = slot.stream.try_lock() {
                    let (drain, finished) = write_queued(&shared, &mut out, &mut stream);
                    shared
                        .stats
                        .direct_writes
                        .fetch_add(finished, Ordering::Relaxed);
                    shared.gauges.direct_writes.add(finished);
                    if drain == Drain::Empty {
                        return PeerSend::Sent;
                    }
                }
            }
            Enqueue::Queued => {}
        }
        drop(out);
        shared.kick(&slot);
        PeerSend::Sent
    }

    /// Send a protocol reply (sync ack): written on this thread when the
    /// peer's queue is empty and its socket free, queued behind earlier
    /// frames otherwise. `Full` asks the caller to retry later.
    ///
    /// For a caller about to wait for more work. The kernel wakes the
    /// reading peer as if the writer were about to sleep, and may run it
    /// on the writer's CPU; a caller with work already waiting uses
    /// [`PeerSender::queue_control`] and keeps its CPU.
    pub fn send_control(&self, frame: &[u8]) -> PeerSend {
        self.send(SendClass::Control, frame, true)
    }

    /// Send a protocol reply that a reactor turn writes, never this
    /// thread: [`PeerSender::send_control`] for a caller with more work
    /// already waiting for it.
    pub fn queue_control(&self, frame: &[u8]) -> PeerSend {
        self.send(SendClass::Control, frame, false)
    }

    /// Send a telemetry batch, written like a reply (lossy lane:
    /// drop-oldest under pressure — a drop still reports `Sent`, and is
    /// counted in [`NetStats::telemetry_dropped`]).
    pub fn send_telemetry(&self, frame: &[u8]) -> PeerSend {
        self.send(SendClass::Telemetry, frame, true)
    }

    /// The reactor-assigned peer id.
    pub fn peer_id(&self) -> Option<u64> {
        self.slot.upgrade().map(|s| s.id)
    }
}

/// A running reactor; dropping without [`ReactorHandle::shutdown`]
/// leaks the threads, so the owner must call it.
pub struct ReactorHandle {
    shared: Arc<Shared>,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Start a reactor on an already-bound listener. Frames are
    /// delivered to `sink` from worker threads.
    pub fn spawn(
        listener: SockListener,
        sink: Arc<dyn EventSink>,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::create()?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;

        let gauges = Gauges::new(cfg.telemetry.as_ref());
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            epoll,
            slots: Mutex::new(HashMap::new()),
            ready: Ready {
                queue: StdMutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            kicks: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            stats: Arc::new(NetStats::default()),
            sink,
            cfg,
            gauges,
        });

        // Reactor threads inherit the spawner's buggify schedule so
        // chaos tests can arm net.* points deterministically.
        let chaos = qos_buggify::config();

        let poller = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("qos-net-poller".into())
                .spawn(move || {
                    if let Some(c) = chaos {
                        qos_buggify::adopt(c);
                    }
                    poller_loop(&shared, listener, wake_rx);
                })
                .map_err(|e| io::Error::other(format!("spawn poller: {e}")))?
        };

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let shared = Arc::clone(&shared);
            let h = thread::Builder::new()
                .name(format!("qos-net-worker-{i}"))
                .spawn(move || {
                    if let Some(c) = chaos {
                        qos_buggify::adopt(c);
                    }
                    worker_loop(&shared);
                })
                .map_err(|e| io::Error::other(format!("spawn worker: {e}")))?;
            workers.push(h);
        }

        Ok(ReactorHandle {
            shared,
            poller: Some(poller),
            workers,
        })
    }

    /// Live reactor counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stop the reactor deterministically: stop flag → wake poller and
    /// workers → join all threads → close every peer socket.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake();
        self.shared.ready.cv.notify_all();
        if let Some(p) = self.poller.take() {
            let _ = p.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let slots: Vec<Arc<Slot>> = self.shared.slots.lock().values().cloned().collect();
        for slot in slots {
            self.shared.close_peer(&slot);
        }
    }
}

fn poller_loop(shared: &Arc<Shared>, listener: SockListener, mut wake_rx: UnixStream) {
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut drain = [0u8; 64];
    // Peer ids to schedule, reused by every pass.
    let mut batch: Vec<u64> = Vec::with_capacity(events.len());
    while !shared.stop.load(Ordering::Acquire) {
        // The wake pipe bounds the wait; 250 ms is a safety net against
        // a lost wake, not the scheduling latency.
        let n = match shared.epoll.wait(&mut events, 250) {
            Ok(n) => n,
            Err(_) => break,
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        if n > 0 {
            shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            shared.gauges.wakeups.inc();
        }
        batch.clear();
        for ev in &events[..n] {
            let e = *ev;
            let (bits, token) = (e.events, e.data);
            match token {
                TOKEN_WAKE => while wake_rx.read(&mut drain).is_ok_and(|r| r > 0) {},
                TOKEN_LISTENER => accept_burst(shared, &listener),
                id => {
                    if qos_buggify::buggify!("net.epoll.spurious") {
                        // Chaos: wake a peer with no real readiness —
                        // its turn reads WouldBlock and must be a
                        // harmless no-op. Copy the id out first: holding
                        // the slots guard across `schedule` (which locks
                        // slots again) would self-deadlock the poller.
                        let other = shared.slots.lock().keys().next().copied();
                        if let Some(other) = other {
                            shared.stats.spurious.fetch_add(1, Ordering::Relaxed);
                            shared.gauges.spurious.inc();
                            shared.schedule(other);
                        }
                    }
                    let _ = bits & (EPOLLIN | EPOLLOUT | EPOLLERR | EPOLLHUP);
                    batch.push(id);
                }
            }
        }
        // Kicks arrive from sender threads (manager pushing acks or
        // telemetry the socket would not take at once); drain them every
        // pass regardless of what woke us.
        batch.extend(shared.kicks.lock().drain(..));
        // One lock pass per epoll batch.
        shared.schedule_batch(&mut batch);
    }
}

fn accept_burst(shared: &Arc<Shared>, listener: &SockListener) {
    loop {
        match listener.accept() {
            Ok(stream) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                let fd = stream.as_raw_fd();
                let slot = Arc::new(Slot {
                    id,
                    fd,
                    stream: Mutex::new(stream),
                    reader: Mutex::new(PeerReader::new()),
                    out: Mutex::new(PeerOutQueue::new(shared.cfg.out)),
                    scheduled: AtomicBool::new(false),
                    kicked: AtomicBool::new(false),
                    closed: AtomicBool::new(false),
                });
                shared.slots.lock().insert(id, Arc::clone(&slot));
                if shared.epoll.add(fd, EPOLLIN | EPOLLONESHOT, id).is_err() {
                    shared.slots.lock().remove(&id);
                    continue;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let peers = shared.stats.peers.fetch_add(1, Ordering::Relaxed) + 1;
                shared.gauges.peers.set(peers as f64);
                if qos_buggify::buggify!("net.accept.burst") {
                    // Chaos: cut the burst short. Level-triggered epoll
                    // re-reports the listener, so pending connections
                    // are delayed, never lost.
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut q = shared.ready.queue.lock().expect("ready lock");
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = q.pop_front() {
                    break id;
                }
                q = shared.ready.cv.wait(q).expect("ready wait");
            }
        };
        let slot = shared.slots.lock().get(&id).cloned();
        if let Some(slot) = slot {
            run_turn(shared, &slot);
        }
    }
}

/// One bounded unit of work for one peer: drain writes, then read up to
/// the budget. Exactly one worker runs a given peer's turn at a time
/// (the `scheduled` flag).
fn run_turn(shared: &Arc<Shared>, slot: &Arc<Slot>) {
    if slot.closed.load(Ordering::Acquire) {
        slot.scheduled.store(false, Ordering::Release);
        return;
    }
    let mut corrupt = false;
    let mut more = false;

    // --- write drain: until empty or WouldBlock ----------------------
    let mut closed = {
        let mut out = slot.out.lock();
        let mut stream = slot.stream.lock();
        write_queued(shared, &mut out, &mut stream).0 == Drain::Failed
    };

    // --- read up to the fairness budget, every complete frame appended
    // to one run (no read goes past the budget, so the run holds at most
    // the budget plus the one frame left partial by the last turn) -----
    let mut run = Vec::new();
    let mut frames = 0;
    if !closed {
        let mut reader = slot.reader.lock();
        let mut stream = slot.stream.lock();
        let mut budget = shared.cfg.read_budget;
        let mut buf = [0u8; 8192];
        loop {
            if budget == 0 {
                more = true;
                break;
            }
            let want = budget.min(buf.len());
            match stream.read(&mut buf[..want]) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    budget -= n;
                    reader.on_bytes(&buf[..n]);
                    loop {
                        match reader.next_frames(&mut run) {
                            Ok(0) => break,
                            Ok(popped) => frames += popped,
                            Err(_) => {
                                corrupt = true;
                                closed = true;
                                break;
                            }
                        }
                    }
                    if closed {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
    }

    // --- deliver the run with no slot locks held (the sink may block
    // on the manager's bounded queue; senders only need the out lock,
    // so backpressure propagates without deadlock) -------------------
    if frames > 0 {
        shared
            .stats
            .frames_in
            .fetch_add(frames as u64, Ordering::Relaxed);
        let sender = PeerSender {
            slot: Arc::downgrade(slot),
            shared: Arc::downgrade(shared),
        };
        if !shared.sink.on_frames(run, &sender) {
            closed = true;
        }
    }
    if corrupt {
        shared.sink.on_corrupt();
    }

    if closed {
        shared.close_peer(slot);
        slot.scheduled.store(false, Ordering::Release);
        return;
    }

    // --- hand the slot back. The fd is EPOLLONESHOT-disarmed while the
    // peer is scheduled; clear `scheduled` first (so a racing kick can
    // re-queue), then either re-queue at the tail (work left over) or
    // re-arm the fd — with EPOLLOUT only while writes are pending.
    // `epoll_ctl(MOD)` re-checks level-triggered readiness, so bytes
    // that arrived between our last read and the re-arm fire instantly.
    slot.scheduled.store(false, Ordering::Release);
    if more | slot.kicked.swap(false, Ordering::AcqRel) {
        shared.schedule(slot.id);
    } else {
        let want = EPOLLIN
            | EPOLLONESHOT
            | if slot.out.lock().has_pending() {
                EPOLLOUT
            } else {
                0
            };
        let _ = shared.epoll.modify(slot.fd, want, slot.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::SockAddr;
    use qos_wire::WireMsg;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    struct CountSink {
        frames: AtomicU64,
        corrupt: AtomicU64,
        echo: bool,
    }

    impl EventSink for CountSink {
        fn on_frames(&self, run: Vec<u8>, peer: &PeerSender) -> bool {
            let n = qos_wire::frames(&run).count() as u64;
            self.frames.fetch_add(n, Ordering::Relaxed);
            if self.echo {
                // Echo the frames back as one control reply.
                let _ = peer.send_control(&run);
            }
            true
        }
        fn on_corrupt(&self) {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn uds_addr(name: &str) -> SockAddr {
        let dir = std::env::temp_dir().join(format!("qos-net-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        SockAddr::Uds(dir.join(name))
    }

    fn wait_until(d: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + d;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        f()
    }

    #[test]
    fn reactor_echoes_frames_across_many_peers() {
        let addr = uds_addr("echo.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: true,
        });
        let h = ReactorHandle::spawn(
            listener,
            sink.clone(),
            ReactorConfig {
                workers: 2,
                ..ReactorConfig::default()
            },
        )
        .unwrap();

        let mut streams = Vec::new();
        for i in 0..8u64 {
            let mut s = SockStream::connect(&addr).unwrap();
            let f = WireMsg::SyncReq { token: i }.encode_frame();
            s.write_all(&f).unwrap();
            streams.push((s, f));
        }
        // Every peer gets its own frame echoed back.
        for (s, f) in &mut streams {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut got = vec![0u8; f.len()];
            s.read_exact(&mut got).unwrap();
            assert_eq!(&got, f);
        }
        assert_eq!(sink.frames.load(Ordering::Relaxed), 8);
        let stats = h.stats();
        assert_eq!(stats.accepted.load(Ordering::Relaxed), 8);
        assert_eq!(stats.peers.load(Ordering::Relaxed), 8);
        drop(streams);
        assert!(
            wait_until(Duration::from_secs(5), || stats
                .peers
                .load(Ordering::Relaxed)
                == 0),
            "closed peers must be reaped"
        );
        h.shutdown();
    }

    #[test]
    fn corrupt_stream_closes_peer_and_reports() {
        let addr = uds_addr("corrupt.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(listener, sink.clone(), ReactorConfig::default()).unwrap();
        let mut s = SockStream::connect(&addr).unwrap();
        let mut bad = WireMsg::Bye.encode_frame();
        bad[0] ^= 0xff;
        s.write_all(&bad).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || sink
                .corrupt
                .load(Ordering::Relaxed)
                == 1),
            "corruption must be reported"
        );
        let stats = h.stats();
        assert!(wait_until(Duration::from_secs(5), || stats
            .peers
            .load(Ordering::Relaxed)
            == 0));
        h.shutdown();
    }

    #[test]
    fn shutdown_joins_threads_deterministically() {
        let addr = uds_addr("shutdown.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(listener, sink, ReactorConfig::default()).unwrap();
        let _s = SockStream::connect(&addr).unwrap();
        let t0 = Instant::now();
        h.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must not hang on the 250ms poll tick"
        );
    }

    #[test]
    fn telemetry_lane_drops_oldest_under_backpressure() {
        let addr = uds_addr("pressure.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(
            listener,
            sink,
            ReactorConfig {
                out: OutQueueConfig {
                    max_bytes: 1 << 20,
                    max_telemetry_frames: 4,
                },
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut s = SockStream::connect(&addr).unwrap();
        s.write_all(&WireMsg::Bye.encode_frame()).unwrap();
        let stats = h.stats();
        assert!(wait_until(Duration::from_secs(5), || stats
            .frames_in
            .load(Ordering::Relaxed)
            == 1));
        // The peer never reads; flood its telemetry lane with frames
        // far larger than the kernel socket buffer so writes park on
        // EPOLLOUT and the 4-frame cap forces drop-oldest eviction.
        // (The queue does not validate frame bytes, and this peer never
        // decodes them.)
        let slot = h.shared.slots.lock().values().next().cloned().unwrap();
        let sender = PeerSender {
            slot: Arc::downgrade(&slot),
            shared: Arc::downgrade(&h.shared),
        };
        let big = vec![0u8; 32 * 1024];
        // Keep flooding until both effects are observed: the worker's
        // write parks on a full kernel buffer (stall), and the bounded
        // queue evicts oldest-first behind it.
        assert!(
            wait_until(Duration::from_secs(10), || {
                assert_eq!(sender.send_telemetry(&big), PeerSend::Sent);
                stats.telemetry_dropped.load(Ordering::Relaxed) > 0
                    && stats.backpressure_stalls.load(Ordering::Relaxed) > 0
            }),
            "flooding a non-reading peer must stall on EPOLLOUT and evict oldest"
        );
        h.shutdown();
        assert_eq!(sender.send_telemetry(&big), PeerSend::Gone);
    }

    /// Hands the reply handle of every run it gets to the test.
    struct HandSink(StdMutex<std::sync::mpsc::Sender<PeerSender>>);

    impl EventSink for HandSink {
        fn on_frames(&self, _run: Vec<u8>, peer: &PeerSender) -> bool {
            let _ = self.0.lock().expect("hand lock").send(peer.clone());
            true
        }
        fn on_corrupt(&self) {}
    }

    /// A reactor with one peer that has said hello: the handle, the
    /// peer's end of the socket and the reactor's reply handle for it.
    fn one_peer(name: &str, out: OutQueueConfig) -> (ReactorHandle, SockStream, PeerSender) {
        let addr = uds_addr(name);
        let listener = SockListener::bind(&addr).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let cfg = ReactorConfig {
            workers: 2,
            out,
            ..ReactorConfig::default()
        };
        let h = ReactorHandle::spawn(listener, Arc::new(HandSink(StdMutex::new(tx))), cfg).unwrap();
        let mut s = SockStream::connect(&addr).unwrap();
        s.write_all(&WireMsg::Bye.encode_frame()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let sender = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("hello delivered");
        (h, s, sender)
    }

    #[test]
    fn reply_to_an_idle_peer_is_written_by_the_sender_with_no_wakeup() {
        let (h, mut s, sender) = one_peer("direct.sock", OutQueueConfig::default());
        let stats = h.stats();
        // Every wakeup the hello caused was counted before its turn
        // delivered it; an idle peer causes none.
        let wakeups = stats.wakeups.load(Ordering::Relaxed);
        let ack = WireMsg::SyncAck { token: 7 }.encode_frame();
        assert_eq!(sender.send_control(&ack), PeerSend::Sent);
        let mut got = vec![0u8; ack.len()];
        s.read_exact(&mut got).unwrap();
        assert_eq!(got, ack);
        assert_eq!(stats.direct_writes.load(Ordering::Relaxed), 1);
        assert_eq!(stats.wakeups.load(Ordering::Relaxed), wakeups);

        // A caller with work waiting leaves the write to a turn.
        let ack = WireMsg::SyncAck { token: 8 }.encode_frame();
        assert_eq!(sender.queue_control(&ack), PeerSend::Sent);
        s.read_exact(&mut got).unwrap();
        assert_eq!(got, ack);
        assert_eq!(stats.direct_writes.load(Ordering::Relaxed), 1);
        h.shutdown();
    }

    #[test]
    fn sends_to_a_stalled_peer_queue_behind_and_arrive_in_order() {
        let (h, mut s, sender) = one_peer(
            "stalled.sock",
            OutQueueConfig {
                max_bytes: 16 * 1024,
                max_telemetry_frames: 4,
            },
        );
        // Distinct bytes per send (the queue does not read them).
        let payload = |i: u32| i.to_le_bytes().repeat(64);
        // The peer reads nothing: its socket fills, then its queue.
        let mut sent = Vec::new();
        let mut next = 0u32;
        loop {
            let p = payload(next);
            match sender.send_control(&p) {
                PeerSend::Sent => sent.extend_from_slice(&p),
                PeerSend::Full => break,
                PeerSend::Gone => panic!("peer closed"),
            }
            next += 1;
        }
        let stats = h.stats();
        assert!(stats.backpressure_stalls.load(Ordering::Relaxed) > 0);
        let later: Vec<Vec<u8>> = (next..next + 256).map(payload).collect();
        let total = sent.len() + later.iter().map(Vec::len).sum::<usize>();
        let reader = thread::spawn(move || {
            let mut got = vec![0u8; total];
            s.read_exact(&mut got).map(|()| got)
        });
        for p in &later {
            loop {
                match sender.send_control(p) {
                    PeerSend::Sent => break,
                    PeerSend::Full => thread::yield_now(),
                    PeerSend::Gone => panic!("peer closed"),
                }
            }
            sent.extend_from_slice(p);
        }
        let got = reader.join().unwrap().expect("every byte arrives");
        assert!(
            got == sent,
            "the peer must read exactly the sends, in order"
        );
        h.shutdown();
    }

    #[test]
    fn a_frame_cut_short_inline_holds_the_head_while_later_telemetry_drops() {
        use qos_wire::messages::LiveRegisterMsg;
        use qos_wire::FrameBuffer;
        let (h, mut s, sender) = one_peer(
            "partial.sock",
            OutQueueConfig {
                max_bytes: 4 << 20,
                max_telemetry_frames: 2,
            },
        );
        let stats = h.stats();
        // Larger than any socket buffer, within one frame's limit.
        let big = WireMsg::LiveRegister(LiveRegisterMsg {
            process: "p".repeat(1000 * 1024),
        });
        let big_frame = big.encode_frame();
        assert_eq!(sender.send_telemetry(&big_frame), PeerSend::Sent);
        let slot = sender.slot.upgrade().unwrap();
        let left = slot.out.lock().pending_bytes();
        assert!(
            left > 0 && left < big_frame.len(),
            "{left} of {} bytes left: the sender wrote part of it",
            big_frame.len()
        );
        assert_eq!(stats.direct_writes.load(Ordering::Relaxed), 0);

        // Each later batch evicts the one before it, never the head.
        for token in 0..6 {
            let f = WireMsg::SyncAck { token }.encode_frame();
            assert_eq!(sender.send_telemetry(&f), PeerSend::Sent);
        }
        assert_eq!(stats.telemetry_dropped.load(Ordering::Relaxed), 5);

        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        while got.len() < 2 {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed early");
            fb.extend(&chunk[..n]);
            while let Some(m) = fb.next().expect("a valid stream") {
                got.push(m);
            }
        }
        assert!(got[0] == big, "the head arrives whole");
        assert_eq!(got[1], WireMsg::SyncAck { token: 5 });
        h.shutdown();
    }

    /// With the sender's every write blocked (buggify forces are per
    /// thread, so the reactor's own writes are not), each reply takes
    /// the queued path and still arrives.
    #[cfg(debug_assertions)]
    #[test]
    fn forced_wouldblock_sends_every_reply_through_a_turn() {
        if !qos_buggify::compiled_in() {
            return;
        }
        let (h, mut s, sender) = one_peer("forced.sock", OutQueueConfig::default());
        let stats = h.stats();
        const REPLIES: u64 = 16;
        qos_buggify::force("net.write.wouldblock", REPLIES);
        for token in 0..REPLIES {
            let ack = WireMsg::SyncAck { token }.encode_frame();
            assert_eq!(sender.send_control(&ack), PeerSend::Sent);
            let mut got = vec![0u8; ack.len()];
            s.read_exact(&mut got).unwrap();
            assert_eq!(got, ack);
        }
        qos_buggify::clear("net.write.wouldblock");
        assert_eq!(stats.direct_writes.load(Ordering::Relaxed), 0);
        assert!(!qos_buggify::points_hit().is_empty(), "the sender tried");
        h.shutdown();
    }
}
