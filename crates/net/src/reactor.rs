//! The hand-rolled epoll reactor: every accepted peer served by one
//! thread that waits on the epoll set itself (Linux only, no tokio —
//! raw epoll via [`crate::sys`]).
//!
//! Shape:
//!
//! * one **reactor thread** owns the epoll set. It loops: `epoll_wait`
//!   for a batch of events, then handles each. The stop fd ends the
//!   loop; the one-shot listener accepts a burst and is re-armed; a
//!   peer's event runs that peer's *turn*: drain the peer's write
//!   queue (until `WouldBlock`), then read up to a byte budget,
//!   reassemble frames through [`PeerReader`] and hand them to the
//!   [`EventSink`] as one run. One thread never overlaps two turns, so
//!   nothing guards against that. Every arriving event wakes that one
//!   thread, never an idle one of a pool;
//! * **one-shot arming**: peer fds are registered `EPOLLONESHOT`, so an
//!   event disarms the fd, and the turn re-arms it at its end — with
//!   EPOLLOUT while writes are pending. A peer that used its whole read
//!   budget is still readable, so re-arming puts it at the tail of the
//!   kernel's ready list, behind the peers already waiting: one
//!   firehose peer cannot starve a thousand quiet ones;
//! * **the sender writes**: a [`PeerSender`] whose frame lands at the
//!   head of an empty queue, while no turn holds the socket, writes it
//!   on its own thread — a reply costs no reactor wakeup. Only bytes
//!   the socket would not take (or a failed write) arm the fd with
//!   EPOLLOUT, and a socket with room reports at once. Both writers run
//!   the one write loop, under the locks in the order `out` → `stream`.
//!   Both arms, the sender's and the turn's, are issued while holding
//!   the peer's `out` lock ([`crate::handoff`], model-checked);
//! * **backpressure**: each peer's outbound queue is bounded
//!   ([`OutQueueConfig`]); control frames report `Full`, telemetry
//!   batches evict oldest-first, never the partly written head. A
//!   `WouldBlock` write parks the peer on EPOLLOUT instead of spinning;
//! * **deterministic shutdown**: `shutdown()` makes the stop fd
//!   readable (it is level-triggered and never drained), joins the
//!   reactor thread, then closes every peer socket.
//!
//! Chaos points (no-ops in release / `buggify-off`):
//! `net.epoll.spurious` (run a turn for a peer with no real readiness),
//! `net.accept.burst` (cut an accept burst short — the re-armed
//! listener reports the rest), `net.write.wouldblock` (treat a write as
//! `WouldBlock`, forcing the EPOLLOUT path). All three are lossless.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::{io, thread};

use parking_lot::{Mutex, MutexGuard};
use qos_telemetry::{Counter, Gauge, Telemetry};

use crate::handoff::{self, Arm, Drain, Handoff, Step};
use crate::peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
use crate::sock::{SockListener, SockStream};
use crate::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLONESHOT, EPOLLOUT};

/// Registration token for the stop fd.
const TOKEN_STOP: u64 = u64::MAX;
/// Registration token for the listener.
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Where the reactor delivers protocol input. Implementations must be
/// cheap to call from the reactor thread; blocking (e.g. on a bounded
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
    /// Max bytes one peer may read per turn before its fd is re-armed
    /// behind the peers already ready (fairness under a firehose peer).
    pub read_budget: usize,
    /// Per-peer outbound queue bounds.
    pub out: OutQueueConfig,
    /// Metrics sink for the `net.*` gauges/counters (`None` = no-op).
    pub telemetry: Option<Telemetry>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
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
    /// Chaos-injected turns with no readiness (`net.epoll.spurious`).
    pub spurious: AtomicU64,
}

struct Gauges {
    peers: Gauge,
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
                wakeups: t.counter("net.wakeups", "reactor"),
                stalls: t.counter("net.backpressure_stalls", "reactor"),
                direct_writes: t.counter("net.direct_writes", "reactor"),
                spurious: t.counter("net.spurious", "reactor"),
                telemetry_dropped: t.counter("net.telemetry_dropped", "reactor"),
            },
            None => Gauges {
                peers: Gauge::noop(),
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
    closed: AtomicBool,
}

struct Shared {
    epoll: Epoll,
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
    next_id: AtomicU64,
    stats: Arc<NetStats>,
    sink: Arc<dyn EventSink>,
    cfg: ReactorConfig,
    gauges: Gauges,
}

impl Shared {
    /// Run the write loop, counting a stall.
    fn drain(&self, out: &mut PeerOutQueue, stream: &mut SockStream) -> (Drain, u64) {
        let (drain, finished) = handoff::write_queued(out, stream);
        if drain == Drain::Blocked {
            self.stats
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
            self.gauges.stalls.inc();
        }
        (drain, finished)
    }

    /// Arm `slot`'s fd and release its `out` lock, in the hand-off's
    /// order: the MOD first.
    fn arm(&self, slot: &Slot, out: MutexGuard<'_, PeerOutQueue>, arm: Arm) {
        let mut out = Some(out);
        for step in Handoff::default().arm(arm) {
            match step {
                Step::Mod(arm) => {
                    let write = if arm == Arm::ReadWrite { EPOLLOUT } else { 0 };
                    let _ = self
                        .epoll
                        .modify(slot.fd, EPOLLIN | EPOLLONESHOT | write, slot.id);
                }
                Step::Unlock => drop(out.take()),
            }
        }
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

/// A cloneable handle the manager uses to push frames to one reactor
/// peer.
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
            Enqueue::Queued => {}
            Enqueue::DroppedOldest | Enqueue::DroppedNew => {
                shared
                    .stats
                    .telemetry_dropped
                    .fetch_add(1, Ordering::Relaxed);
                shared.gauges.telemetry_dropped.inc();
            }
        }
        // Alone at the head: write it from this thread unless a turn
        // holds the socket (never wait for one). Only what the socket
        // would not take, or a failed write, needs the reactor.
        let arm = handoff::after_enqueue(idle, inline).or_else(|| {
            let drain = slot.stream.try_lock().map(|mut stream| {
                let (drain, finished) = shared.drain(&mut out, &mut stream);
                shared
                    .stats
                    .direct_writes
                    .fetch_add(finished, Ordering::Relaxed);
                shared.gauges.direct_writes.add(finished);
                drain
            });
            handoff::after_inline(drain)
        });
        if let Some(arm) = arm {
            shared.arm(&slot, out, arm);
        }
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
}

/// A running reactor; dropping without [`ReactorHandle::shutdown`]
/// leaks the thread, so the owner must call it.
pub struct ReactorHandle {
    shared: Arc<Shared>,
    stop: UnixStream,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Start a reactor on an already-bound listener. Frames are
    /// delivered to `sink` from the reactor thread.
    pub fn spawn(
        listener: SockListener,
        sink: Arc<dyn EventSink>,
        cfg: ReactorConfig,
    ) -> io::Result<ReactorHandle> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::create()?;
        let (stop_rx, stop) = UnixStream::pair()?;
        epoll.add(stop_rx.as_raw_fd(), EPOLLIN, TOKEN_STOP)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLONESHOT, TOKEN_LISTENER)?;

        let gauges = Gauges::new(cfg.telemetry.as_ref());
        let shared = Arc::new(Shared {
            epoll,
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            stats: Arc::new(NetStats::default()),
            sink,
            cfg,
            gauges,
        });

        // The reactor thread inherits the spawner's buggify schedule so
        // chaos tests can arm net.* points deterministically.
        let chaos = qos_buggify::config();
        let thread = {
            let shared = Arc::clone(&shared);
            // The name files its CPU under the workers in the
            // benchmark's thread ledger.
            thread::Builder::new()
                .name("qos-net-worker-0".into())
                .spawn(move || {
                    if let Some(c) = chaos {
                        qos_buggify::adopt(c);
                    }
                    reactor_loop(&shared, &listener);
                    drop(stop_rx);
                })
                .map_err(|e| io::Error::other(format!("spawn reactor: {e}")))?
        };

        Ok(ReactorHandle {
            shared,
            stop,
            thread: Some(thread),
        })
    }

    /// Live reactor counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stop the reactor deterministically: make the stop fd readable →
    /// join the reactor thread → close every peer socket.
    pub fn shutdown(mut self) {
        let _ = self.stop.write_all(&[1u8]);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let slots: Vec<Arc<Slot>> = self.shared.slots.lock().values().cloned().collect();
        for slot in slots {
            self.shared.close_peer(&slot);
        }
    }
}

fn reactor_loop(shared: &Arc<Shared>, listener: &SockListener) {
    let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
    let mut buf = vec![0u8; 8192];
    loop {
        // No timeout, so every return reports an event: every arm that
        // matters is an fd event, and the stop fd ends the wait.
        let n = match shared.epoll.wait(&mut events, -1) {
            Ok(n) => n,
            Err(_) => return,
        };
        shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
        shared.gauges.wakeups.inc();
        for ev in &events[..n] {
            let token = ev.data;
            match token {
                TOKEN_STOP => return,
                TOKEN_LISTENER => {
                    accept_burst(shared, listener);
                    let _ = shared.epoll.modify(
                        listener.as_raw_fd(),
                        EPOLLIN | EPOLLONESHOT,
                        TOKEN_LISTENER,
                    );
                }
                id => {
                    if qos_buggify::buggify!("net.epoll.spurious") {
                        // Chaos: a turn for a peer with no real
                        // readiness — it reads WouldBlock and must be a
                        // harmless no-op. Copy the slot out first: the
                        // turn may lock slots again to close it.
                        let other = shared.slots.lock().values().next().cloned();
                        if let Some(other) = other {
                            shared.stats.spurious.fetch_add(1, Ordering::Relaxed);
                            shared.gauges.spurious.inc();
                            run_turn(shared, &other, &mut buf);
                        }
                    }
                    let slot = shared.slots.lock().get(&id).cloned();
                    if let Some(slot) = slot {
                        run_turn(shared, &slot, &mut buf);
                    }
                }
            }
        }
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
                    // Chaos: cut the burst short. The caller re-arms
                    // the listener, which reports the pending
                    // connections again: delayed, never lost.
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// One bounded unit of work for one peer: drain writes, then read up to
/// the budget through `buf`, deliver, and re-arm the fd.
fn run_turn(shared: &Arc<Shared>, slot: &Arc<Slot>, buf: &mut [u8]) {
    if slot.closed.load(Ordering::Acquire) {
        return;
    }
    let mut corrupt = false;

    // --- write drain: until empty or WouldBlock ----------------------
    let mut closed = {
        let mut out = slot.out.lock();
        let mut stream = slot.stream.lock();
        shared.drain(&mut out, &mut stream).0 == Drain::Failed
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
        while budget > 0 {
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
                    // A short read emptied the socket: the re-arm
                    // reports whatever arrives after it.
                    if closed || n < want {
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
        return;
    }

    // --- re-arm, with EPOLLOUT only while writes are pending. A peer
    // with bytes left over is still readable, so `epoll_ctl(MOD)` puts
    // it at the tail of the ready list at once -------------------------
    let out = slot.out.lock();
    let arm = handoff::after_turn(out.has_pending());
    shared.arm(slot, out, arm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sock::SockAddr;
    use qos_wire::WireMsg;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;
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
        let h = ReactorHandle::spawn(listener, sink.clone(), ReactorConfig::default()).unwrap();

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

    /// The token of the fairness test's firehose frames.
    const FIREHOSE: u64 = u64::MAX;

    /// Logs every run it gets: the token of its first frame and its
    /// length, in delivery order. A firehose run takes a millisecond, as
    /// if the manager's queue were full, so that a quiet peer's wait is
    /// counted in turns, not in how soon the host runs a woken thread.
    #[derive(Default)]
    struct TurnLog(StdMutex<Vec<(u64, usize)>>);

    impl TurnLog {
        fn runs(&self) -> std::sync::MutexGuard<'_, Vec<(u64, usize)>> {
            self.0.lock().expect("log lock")
        }
    }

    impl EventSink for TurnLog {
        fn on_frames(&self, run: Vec<u8>, _peer: &PeerSender) -> bool {
            let token = match qos_wire::frames(&run).next().map(WireMsg::decode_frame) {
                Some(Ok(WireMsg::SyncReq { token })) => token,
                other => panic!("unexpected run head {other:?}"),
            };
            self.runs().push((token, run.len()));
            if token == FIREHOSE {
                thread::sleep(Duration::from_millis(1));
            }
            true
        }
        fn on_corrupt(&self) {}
    }

    /// One peer that always has bytes waiting, beside many quiet ones:
    /// every quiet frame is handled within a bounded number of the
    /// firehose's turns, because a turn that ends on the read budget
    /// puts the firehose behind the peers that are already ready.
    #[test]
    fn a_firehose_peer_cannot_starve_quiet_peers() {
        const QUIET: u64 = 32;
        // Firehose turns a quiet frame may wait behind, counted from the
        // moment its bytes are in the socket. One turn may be running
        // then, and one may be ready ahead of it; the rest is slack for
        // a busy host.
        const MAX_TURNS_BEHIND: usize = 3;
        const BUDGET: usize = 4096;
        let addr = uds_addr("fairness.sock");
        let listener = SockListener::bind(&addr).unwrap();
        let log = Arc::new(TurnLog::default());
        let h = ReactorHandle::spawn(
            listener,
            log.clone(),
            ReactorConfig {
                read_budget: BUDGET,
                ..ReactorConfig::default()
            },
        )
        .unwrap();
        let mut quiet: Vec<SockStream> = (0..QUIET)
            .map(|_| SockStream::connect(&addr).unwrap())
            .collect();
        let frame = WireMsg::SyncReq { token: FIREHOSE }.encode_frame();
        let stop = Arc::new(AtomicBool::new(false));
        let firehose = {
            let mut s = SockStream::connect(&addr).unwrap();
            let stop = Arc::clone(&stop);
            let chunk = frame.repeat(1024);
            thread::spawn(move || {
                // Ends on the flag, or when shutdown closes the peer.
                while !stop.load(Ordering::Relaxed) && s.write_all(&chunk).is_ok() {}
            })
        };
        let firehose_turns =
            |runs: &[(u64, usize)]| runs.iter().filter(|r| r.0 == FIREHOSE).count();
        assert!(
            wait_until(Duration::from_secs(10), || firehose_turns(&log.runs())
                >= 16),
            "the firehose is served"
        );
        // Each quiet frame's bytes are in its socket before the log's
        // length is read, so every run logged past `written[i]` started
        // no earlier than the one running when the frame arrived.
        let mut written = Vec::new();
        for (token, s) in (0..QUIET).zip(&mut quiet) {
            s.write_all(&WireMsg::SyncReq { token }.encode_frame())
                .unwrap();
            written.push(log.runs().len());
        }
        assert!(
            wait_until(Duration::from_secs(10), || {
                log.runs().iter().filter(|r| r.0 < QUIET).count() == QUIET as usize
            }),
            "every quiet frame is handled"
        );
        let seen = log.runs().len();
        assert!(
            wait_until(Duration::from_secs(10), || firehose_turns(
                &log.runs()[seen..]
            ) >= 16),
            "the firehose is still served once the quiet peers are"
        );
        stop.store(true, Ordering::Relaxed);
        let runs = log.runs().clone();
        h.shutdown();
        let _ = firehose.join();

        for (token, &from) in (0..QUIET).zip(&written) {
            let at = runs
                .iter()
                .position(|r| r.0 == token)
                .expect("quiet frame logged");
            let behind = firehose_turns(&runs[from.min(at)..at]);
            assert!(
                behind <= MAX_TURNS_BEHIND,
                "quiet frame {token} waited behind {behind} firehose turns"
            );
        }
        // The firehose had a whole budget waiting at its turns: they end
        // on the budget (all but a partial frame read), not on an empty
        // socket.
        let full = runs
            .iter()
            .filter(|r| r.0 == FIREHOSE && r.1 + frame.len() > BUDGET)
            .count();
        assert!(
            full * 2 >= firehose_turns(&runs),
            "{full} of {} firehose turns used the whole budget",
            firehose_turns(&runs)
        );
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
            "shutdown must not wait for a poll tick"
        );
    }

    /// With every `net.accept.burst` roll firing, each listener event
    /// accepts one connection and cuts the burst: the re-armed one-shot
    /// listener must report the rest until every one is accepted.
    #[test]
    fn a_cut_accept_burst_still_accepts_every_pending_connection() {
        if !qos_buggify::compiled_in() {
            return;
        }
        const PENDING: u64 = 16;
        let addr = uds_addr("burst.sock");
        let listener = SockListener::bind(&addr).unwrap();
        // Connected before the reactor starts, so all are pending at
        // its first wait.
        let _conns: Vec<SockStream> = (0..PENDING)
            .map(|_| SockStream::connect(&addr).unwrap())
            .collect();
        // The reactor thread adopts a schedule in which every roll fires.
        qos_buggify::enable_with(0xB0257, 1.0);
        let sink = Arc::new(CountSink {
            frames: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            echo: false,
        });
        let h = ReactorHandle::spawn(listener, sink, ReactorConfig::default()).unwrap();
        qos_buggify::disable();
        let stats = h.stats();
        assert!(
            wait_until(Duration::from_secs(5), || stats
                .accepted
                .load(Ordering::Relaxed)
                == PENDING),
            "accepted {} of {PENDING}",
            stats.accepted.load(Ordering::Relaxed)
        );
        // One accept per listener event: the burst was cut every time.
        assert!(stats.wakeups.load(Ordering::Relaxed) >= PENDING);
        h.shutdown();
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
        // Keep flooding until both effects are observed: the reactor's
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
