//! Pluggable transports for the management plane.
//!
//! One protocol ([`qos_wire`]), three carriers:
//!
//! * **Simulator** — [`send_ctrl`]/[`decode_ctrl`] move encoded frames
//!   through `qos_sim` messages, charging the network the *real* encoded
//!   byte length of each control message.
//! * **In-proc channel** — [`ChannelTransport`] feeds a
//!   [`LiveHostManager`](crate::live::LiveHostManager) thread over a
//!   bounded crossbeam channel, as before, but carrying encoded frames.
//! * **Real sockets** — [`SocketTransport`] speaks the same frames over
//!   TCP or a Unix-domain socket, so the manager and its instrumented
//!   processes can be separate OS processes. It survives peer death with
//!   a handshake/backoff idiom: doubling reconnect backoff, and a
//!   stored greeting (the registration frame) replayed after every
//!   reconnect so a restarted manager re-learns the process.
//!
//! The protocol logic behind the socket carrier — *when* to redial,
//! *what* to replay, *what* to count — lives in the sans-io
//! [`qos_net::ClientConn`] state machine; [`SocketTransport`] is the
//! blocking driver around it. The socket primitives ([`SockAddr`],
//! [`SockStream`], [`SockListener`]), the jittered [`Backoff`] envelope
//! and the [`ReconnectPolicy`] seed are re-exported from `qos-net`,
//! where the epoll reactor that serves the manager's socket peers
//! shares them.

use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender, TrySendError};
use qos_net::ClientConn;
use qos_sim::{Ctx, Endpoint, Message, Port};
use qos_wire::messages::{TelemetryBatchMsg, TelemetrySubscribeMsg};
use qos_wire::{FrameBuffer, WireBytes, WireError, WireMsg, WireMsgRef};

pub use qos_net::{Backoff, ReconnectPolicy, SockAddr, SockListener, SockStream};

// ---------------------------------------------------------------------
// Simulator backend
// ---------------------------------------------------------------------

/// Send a management-plane message through the simulated network: encode
/// it, charge the network its real encoded length, send the frame.
pub fn send_ctrl(ctx: &mut Ctx<'_>, dst: Endpoint, src_port: Port, msg: WireMsg) {
    send_frame(ctx, dst, src_port, WireBytes::encode(&msg));
}

/// Send an encoded frame through the simulated network, charging it the
/// frame's length.
pub fn send_frame(ctx: &mut Ctx<'_>, dst: Endpoint, src_port: Port, frame: WireBytes) {
    let n = frame.len_bytes();
    ctx.send(dst, src_port, n, frame);
}

/// Interpret a simulated message as a management-plane message: it is
/// one iff its payload is a [`WireBytes`] frame.
///
/// `Ok(Some(..))` — a decoded control message. `Ok(None)` — not a control
/// message (application payloads such as video frames pass through
/// untouched). `Err(..)` — the payload was a wire frame but corrupt; the
/// caller should count it, not panic.
pub fn decode_ctrl(msg: &Message) -> Result<Option<WireMsg>, WireError> {
    msg.payload
        .get::<WireBytes>()
        .map(WireBytes::decode)
        .transpose()
}

/// [`decode_ctrl`] for a receiver that reads violations at rate: the
/// same three outcomes, with the message as a view borrowing the frame
/// `msg` carries — a violation decodes without allocating, a batch is
/// walked in place, control-rate kinds arrive owned inside the view.
pub fn decode_ctrl_ref(msg: &Message) -> Result<Option<WireMsgRef<'_>>, WireError> {
    msg.payload
        .get::<WireBytes>()
        .map(WireBytes::decode_ref)
        .transpose()
}

// ---------------------------------------------------------------------
// Live backends: what the manager thread consumes
// ---------------------------------------------------------------------

/// Where a live manager writes reply frames (sync acks) for a peer.
#[derive(Clone)]
pub(crate) enum ReplySink {
    /// In-proc peer: a bounded channel.
    Chan(Sender<Vec<u8>>),
    /// Socket peer, served by the epoll reactor: the sending thread
    /// writes the frame itself when the peer's bounded, classed outbound
    /// queue is empty, no reactor turn holds the socket and the sender
    /// is not busy; otherwise the frame queues and the peer's next turn
    /// writes it on readiness.
    #[cfg(target_os = "linux")]
    Net(qos_net::PeerSender),
}

/// Outcome of a non-blocking delivery attempt on a [`ReplySink`] —
/// `Full` and `Gone` are different decisions for the sender: retry the
/// same frame later versus forget the peer entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SinkSend {
    /// Delivered (or handed to the OS send buffer).
    Sent,
    /// The peer's queue has no room right now; keep the frame and retry.
    Full,
    /// The peer is gone for good; drop the sink.
    Gone,
}

impl ReplySink {
    /// Best-effort frame delivery; a dead peer is the peer's problem.
    /// `busy`: more work already waits for the calling thread, so a
    /// reactor peer's frame is left for a reactor turn to write
    /// ([`qos_net::PeerSender::queue_control`]); a channel delivers the
    /// same way either way.
    pub(crate) fn send(&self, frame: &[u8], busy: bool) -> bool {
        match self {
            ReplySink::Chan(tx) => tx.try_send(frame.to_vec()).is_ok(),
            // Control lane: a full queue is a drop here (sync acks are
            // re-requested by the peer's next barrier, never queued
            // indefinitely by the manager).
            #[cfg(target_os = "linux")]
            ReplySink::Net(p) => {
                let sent = if busy {
                    p.queue_control(frame)
                } else {
                    p.send_control(frame)
                };
                sent == qos_net::PeerSend::Sent
            }
        }
    }

    /// Non-blocking delivery with a typed outcome, for senders that keep
    /// per-peer queues (the manager's telemetry publisher). A reactor
    /// peer never blocks the sender: its telemetry lane evicts its
    /// oldest batch instead.
    pub(crate) fn try_send_frame(&self, frame: &[u8]) -> SinkSend {
        match self {
            ReplySink::Chan(tx) => match tx.try_send(frame.to_vec()) {
                Ok(()) => SinkSend::Sent,
                Err(TrySendError::Full(_)) => SinkSend::Full,
                Err(TrySendError::Disconnected(_)) => SinkSend::Gone,
            },
            // Telemetry lane: the reactor's bounded queue absorbs the
            // batch (evicting oldest under pressure — lossy by the
            // same contract as the manager's subscriber queues).
            #[cfg(target_os = "linux")]
            ReplySink::Net(p) => match p.send_telemetry(frame) {
                qos_net::PeerSend::Sent => SinkSend::Sent,
                qos_net::PeerSend::Full => SinkSend::Full,
                qos_net::PeerSend::Gone => SinkSend::Gone,
            },
        }
    }
}

/// What arrives on a live manager's inbound queue. Reactor turns split
/// a socket peer's byte stream into raw frames; the *decode* happens
/// centrally in the manager thread so malformed frames are counted in
/// one place.
pub(crate) enum Inbound {
    /// A run of one or more complete frames laid end to end (headers
    /// validated by the reactor, payloads not yet decoded): what one
    /// reactor turn produced, handed over in one message. An in-proc
    /// peer's run is the one frame it sent; where a header does not
    /// split, the rest of the run counts as one malformed frame.
    Frames {
        /// The raw frame bytes.
        run: Vec<u8>,
        /// Where acks for this peer go, if the carrier supports replies.
        reply: Option<ReplySink>,
    },
    /// A connection's byte stream was corrupt beyond reframing (bad
    /// header); the connection was dropped.
    StreamCorrupt,
    /// Stop the manager thread. Only the owning handle sends this — a
    /// socket peer cannot shut the manager down.
    Shutdown,
}

/// A client-side carrier for management-plane frames. Implementations
/// must not block the instrumented process on a slow or dead manager:
/// `try_send` drops rather than waits.
pub trait WireTransport: Send {
    /// Best-effort frame delivery. `false` = dropped (queue full, peer
    /// down, connection refused) — the caller counts it and moves on.
    fn try_send(&mut self, frame: &[u8]) -> bool;

    /// Barrier: deliver a `SyncReq` and wait for the matching ack,
    /// bounded by `timeout`. `true` once everything sent before this call
    /// has been processed by the manager.
    fn sync(&mut self, timeout: Duration) -> bool;

    /// Install the frame to replay after a reconnect (the registration
    /// greeting). Carriers without reconnect ignore it.
    fn set_greeting(&mut self, frame: Vec<u8>) {
        let _ = frame;
    }

    /// Successful reconnects after a lost connection. Carriers without
    /// reconnect report zero.
    fn reconnects(&self) -> u64 {
        0
    }
}

/// In-proc carrier: frames over a bounded crossbeam channel into the
/// manager thread (the original live-mode transport, now frame-typed).
pub struct ChannelTransport {
    tx: Sender<Inbound>,
    next_token: u64,
}

impl ChannelTransport {
    /// Wrap a manager inbound queue.
    pub(crate) fn new(tx: Sender<Inbound>) -> Self {
        ChannelTransport { tx, next_token: 1 }
    }
}

impl WireTransport for ChannelTransport {
    fn try_send(&mut self, frame: &[u8]) -> bool {
        self.tx
            .try_send(Inbound::Frames {
                run: frame.to_vec(),
                reply: None,
            })
            .is_ok()
    }

    fn sync(&mut self, timeout: Duration) -> bool {
        let token = self.next_token;
        self.next_token += 1;
        let (ack_tx, ack_rx) = bounded(1);
        let req = WireMsg::SyncReq { token }.encode_frame();
        if self
            .tx
            .send(Inbound::Frames {
                run: req,
                reply: Some(ReplySink::Chan(ack_tx)),
            })
            .is_err()
        {
            return false;
        }
        match ack_rx.recv_timeout(timeout) {
            Ok(frame) => matches!(
                WireMsg::decode_frame(&frame),
                Ok(WireMsg::SyncAck { token: t }) if t == token
            ),
            Err(_) => false,
        }
    }
}

// ---------------------------------------------------------------------
// Socket backend: the blocking driver over qos-net's ClientConn machine
// ---------------------------------------------------------------------

/// Builds a [`SocketTransport`]: the dial address plus the
/// [`ReconnectPolicy`] jitter seed, the one setting.
///
/// ```no_run
/// use qos_manager::transport::{ReconnectPolicy, SocketTransport};
/// use qos_manager::SockAddr;
/// let t = SocketTransport::builder(SockAddr::Tcp("127.0.0.1:7401".into()))
///     .reconnect(ReconnectPolicy::seeded(7))
///     .connect();
/// ```
#[derive(Debug, Clone)]
pub struct SocketTransportBuilder {
    addr: SockAddr,
    reconnect: ReconnectPolicy,
}

impl SocketTransportBuilder {
    /// Replace the reconnect jitter seed (default: seeded per process
    /// and transport; the envelope is always 50 ms doubling to 2 s).
    pub fn reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = policy;
        self
    }

    fn build(self, stream: SockStream) -> SocketTransport {
        SocketTransport {
            addr: self.addr,
            stream: Some(stream),
            fb: FrameBuffer::new(),
            conn: ClientConn::connected(&self.reconnect),
        }
    }

    /// Connect now; error if the manager is unreachable.
    pub fn connect(self) -> io::Result<SocketTransport> {
        let stream = SockStream::connect(&self.addr)?;
        Ok(self.build(stream))
    }

    /// Connect, retrying with short sleeps until `deadline` elapses —
    /// for processes racing a manager that is still binding its socket.
    pub fn connect_retry(self, deadline: Duration) -> io::Result<SocketTransport> {
        let give_up = Instant::now() + deadline;
        loop {
            match SockStream::connect(&self.addr) {
                Ok(stream) => return Ok(self.build(stream)),
                Err(e) if Instant::now() >= give_up => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

/// Socket carrier: the manager is another OS process. Failed sends drop
/// the connection and arm a doubling-backoff reconnect; the greeting
/// frame (registration) is replayed after every successful reconnect so
/// a restarted manager re-learns this process — the same
/// handshake/backoff shape the robustness PR gave in-sim registration.
///
/// Every frame is written in the `try_send` call that hands it over:
/// the transport buffers nothing, so `true` means the frame reached the
/// socket and `false` means it was dropped. Coalescing happens above the
/// carrier: report batching
/// ([`LiveProcess::enable_report_batching`](crate::live::LiveProcess::enable_report_batching))
/// packs reports into one [`BatchBuilder`](qos_wire::BatchBuilder) frame.
///
/// The reconnect decisions live in the sans-io [`ClientConn`] machine;
/// this type is the blocking driver: it owns the socket, performs the
/// writes the machine asks for, and reports outcomes back.
pub struct SocketTransport {
    addr: SockAddr,
    stream: Option<SockStream>,
    /// Reassembly state of `stream`'s read side. It lives as long as the
    /// connection does: bytes a barrier read past its ack, or a partial
    /// frame buffered when a barrier timed out, belong to the next read.
    fb: FrameBuffer,
    conn: ClientConn,
}

impl SocketTransport {
    /// Start building a transport for `addr` (the reconnect seed
    /// defaults as documented on [`SocketTransportBuilder`]).
    pub fn builder(addr: SockAddr) -> SocketTransportBuilder {
        SocketTransportBuilder {
            addr,
            reconnect: ReconnectPolicy::default(),
        }
    }

    /// Connect now with default policies; error if the manager is
    /// unreachable. Shorthand for `builder(addr).connect()`.
    pub fn connect(addr: SockAddr) -> io::Result<SocketTransport> {
        SocketTransport::builder(addr).connect()
    }

    /// Connect with default policies, retrying until `deadline` elapses.
    /// Shorthand for `builder(addr).connect_retry(deadline)`.
    pub fn connect_retry(addr: SockAddr, deadline: Duration) -> io::Result<SocketTransport> {
        SocketTransport::builder(addr).connect_retry(deadline)
    }

    fn disconnect(&mut self) {
        if let Some(s) = self.stream.take() {
            s.shutdown();
        }
        self.fb = FrameBuffer::new();
        self.conn.on_disconnect(Instant::now());
    }

    fn ensure_connected(&mut self) -> bool {
        if self.stream.is_some() {
            return true;
        }
        let now = Instant::now();
        if !self.conn.connect_due(now) {
            return false;
        }
        match SockStream::connect(&self.addr) {
            Ok(s) => {
                self.stream = Some(s);
                if let Some(g) = self.conn.on_connected(Instant::now()) {
                    // Replayed registration: restores the manager's view
                    // of this process after either side restarted.
                    self.write_frame(&g);
                }
                true
            }
            Err(_) => {
                self.conn.on_connect_failed(now);
                false
            }
        }
    }

    fn write_frame(&mut self, frame: &[u8]) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        if frame.len() > 1 && qos_buggify::buggify!("sock.write.tear") {
            // Chaos: the process dies (or is preempted forever) halfway
            // through a write. The connection stays up, so the peer's
            // next read sees a misaligned stream — exactly the torn
            // frame a crash between two write() calls produces.
            let _ = stream.write_all(&frame[..frame.len() / 2]);
            return true;
        }
        if qos_buggify::buggify!("sock.write.corrupt") {
            // Chaos: the frame arrives bit-flipped (bad magic) — the
            // peer must fail it as a typed error and drop us, never
            // panic.
            let mut bad = frame.to_vec();
            bad[0] ^= 0xff;
            let _ = stream.write_all(&bad);
            return true;
        }
        let written = if frame.len() > 1 && qos_buggify::buggify!("sock.write.split_batch") {
            // Chaos: the kernel (or a preemption) splits the write in
            // two. Frames must survive — the peer's FrameBuffer
            // reassembles across write boundaries.
            let (lo, hi) = frame.split_at(frame.len() / 2);
            stream.write_all(lo).and_then(|()| stream.write_all(hi))
        } else {
            stream.write_all(frame)
        };
        if written.is_ok() {
            true
        } else {
            self.disconnect();
            false
        }
    }
}

impl WireTransport for SocketTransport {
    fn try_send(&mut self, frame: &[u8]) -> bool {
        self.ensure_connected() && self.write_frame(frame)
    }

    fn sync(&mut self, timeout: Duration) -> bool {
        if !self.ensure_connected() {
            return false;
        }
        let token = self.conn.next_sync_token();
        let req = WireMsg::SyncReq { token }.encode_frame();
        if !self.write_frame(&req) {
            return false;
        }
        let Some(stream) = self.stream.as_mut() else {
            return false;
        };
        // Stale acks and pushes sharing the stream are skipped.
        let acked = read_until(stream, &mut self.fb, Instant::now() + timeout, |m| {
            matches!(m, WireMsg::SyncAck { token: t } if t == token).then_some(())
        });
        match acked {
            Ok(ack) => ack.is_some(),
            Err(_) => {
                self.disconnect();
                false
            }
        }
    }

    fn set_greeting(&mut self, frame: Vec<u8>) {
        self.conn.set_greeting(frame);
    }

    fn reconnects(&self) -> u64 {
        self.conn.reconnects()
    }
}

// ---------------------------------------------------------------------
// Telemetry tap: the read side of the manager's live stream
// ---------------------------------------------------------------------

/// A subscriber's end of the manager's telemetry stream: dial the
/// manager, announce the subscription (`TelemetrySubscribe`), then pull
/// decoded [`TelemetryBatchMsg`]es as they are published. Used by
/// `qosctl tail` / `record`; deliberately pull-based and bounded so a
/// slow consumer backs up into the manager's drop-oldest queue instead
/// of into unbounded memory here.
pub struct TelemetryTap {
    stream: SockStream,
    fb: FrameBuffer,
}

impl TelemetryTap {
    /// Connect and subscribe. The manager starts publishing to this
    /// connection on its next tick.
    pub fn connect(
        addr: &SockAddr,
        subscriber: &str,
        want_events: bool,
        want_metrics: bool,
    ) -> io::Result<TelemetryTap> {
        let mut stream = SockStream::connect(addr)?;
        let sub = WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
            subscriber: subscriber.to_string(),
            want_events,
            want_metrics,
        })
        .encode_frame();
        stream.write_all(&sub)?;
        Ok(TelemetryTap {
            stream,
            fb: FrameBuffer::new(),
        })
    }

    /// The next batch, waiting at most `timeout`. `Ok(None)` means
    /// nothing arrived in time (the stream is still healthy); `Err`
    /// means the manager closed the connection or the stream corrupted.
    pub fn next_batch(&mut self, timeout: Duration) -> io::Result<Option<TelemetryBatchMsg>> {
        // Acks and other push kinds may share the stream.
        read_until(
            &mut self.stream,
            &mut self.fb,
            Instant::now() + timeout,
            |m| match m {
                WireMsg::TelemetryBatch(b) => Some(b),
                _ => None,
            },
        )
    }
}

/// The one deadline read loop of the blocking socket carriers: pop
/// decoded frames off `fb` until `pick` takes one, reading more from
/// `stream` while `deadline` allows. `Ok(None)` means the deadline passed
/// first — whatever was read stays in `fb`, so a frame cut by the timeout
/// completes on the next call. `Err` means the peer closed, the read
/// failed, or the stream is corrupt beyond reframing.
fn read_until<T>(
    stream: &mut SockStream,
    fb: &mut FrameBuffer,
    deadline: Instant,
    mut pick: impl FnMut(WireMsg) -> Option<T>,
) -> io::Result<Option<T>> {
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(msg) = fb
            .next()
            .map_err(|e| io::Error::other(format!("stream corrupt: {e}")))?
        {
            if let Some(picked) = pick(msg) {
                return Ok(Some(picked));
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Ok(None);
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => fb.extend(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::AdaptMsg;

    fn sim_message<T: std::any::Any + Send + Clone>(payload: T) -> Message {
        let at = Endpoint::new(qos_sim::HostId(0), 1);
        Message {
            src: at,
            dst: at,
            bytes: 64,
            sent_at: qos_sim::SimTime::ZERO,
            payload: qos_sim::Payload::new(payload),
        }
    }

    #[test]
    fn decode_ctrl_takes_wire_frames_and_nothing_else() {
        let adapt = AdaptMsg {
            actuator: "decoder".into(),
            command: "set-quality".into(),
            value: 0.5,
        };
        let frame = WireMsg::Adapt(adapt.clone()).encode_frame();

        let valid = sim_message(WireBytes::new(frame.clone()));
        assert_eq!(decode_ctrl(&valid), Ok(Some(WireMsg::Adapt(adapt.clone()))));

        let mut torn = frame;
        torn.pop();
        assert!(decode_ctrl(&sim_message(WireBytes::new(torn))).is_err());

        // An application payload is not a control message, and is left
        // for the application to take.
        let app = sim_message(vec![7u8; 16]);
        assert_eq!(decode_ctrl(&app), Ok(None));
        assert_eq!(app.payload.get::<Vec<u8>>(), Some(&vec![7u8; 16]));

        // Nor is a bare message struct: only encoded frames are control
        // traffic.
        assert_eq!(decode_ctrl(&sim_message(adapt)), Ok(None));
    }

    #[test]
    fn read_until_skips_stale_frames_and_keeps_a_frame_cut_by_the_deadline() {
        use std::os::unix::net::UnixStream;
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let mut stream = SockStream::Uds(ours);
        let mut fb = FrameBuffer::new();
        let ack = |want: u64| {
            move |m: WireMsg| matches!(m, WireMsg::SyncAck { token } if token == want).then_some(())
        };
        let trickle = |to: &mut UnixStream, bytes: &[u8]| {
            for b in bytes {
                to.write_all(std::slice::from_ref(b)).unwrap();
            }
        };
        let soon = || Instant::now() + Duration::from_secs(5);

        // A stale ack ahead of the wanted one is skipped.
        trickle(&mut theirs, &WireMsg::SyncAck { token: 1 }.encode_frame());
        trickle(&mut theirs, &WireMsg::SyncAck { token: 2 }.encode_frame());
        assert_eq!(
            read_until(&mut stream, &mut fb, soon(), ack(2)).unwrap(),
            Some(())
        );
        assert!(fb.is_empty());

        // The deadline hits mid-frame: not an error, and the half that
        // arrived is kept, so the next call completes the same frame.
        let third = WireMsg::SyncAck { token: 3 }.encode_frame();
        let (head, tail) = third.split_at(third.len() / 2);
        trickle(&mut theirs, head);
        let cut = Instant::now() + Duration::from_millis(30);
        assert_eq!(read_until(&mut stream, &mut fb, cut, ack(3)).unwrap(), None);
        assert_eq!(fb.len(), head.len());
        trickle(&mut theirs, tail);
        assert_eq!(
            read_until(&mut stream, &mut fb, soon(), ack(3)).unwrap(),
            Some(())
        );

        // A closed peer is an error, not a timeout.
        drop(theirs);
        assert!(read_until(&mut stream, &mut fb, soon(), ack(4)).is_err());
    }

    #[test]
    fn channel_transport_delivers_frames() {
        let (tx, rx) = bounded(4);
        let mut t = ChannelTransport::new(tx);
        let frame = WireMsg::Bye.encode_frame();
        assert!(t.try_send(&frame));
        match rx.recv().unwrap() {
            Inbound::Frames { run, reply } => {
                assert!(reply.is_none());
                assert_eq!(WireMsg::decode_frame(&run).unwrap(), WireMsg::Bye);
            }
            _ => panic!("expected frame"),
        }
    }

    #[test]
    fn channel_sync_acks_through_reply_sink() {
        let (tx, rx) = bounded(4);
        let h = std::thread::spawn(move || {
            // Minimal manager loop: ack the sync.
            if let Ok(Inbound::Frames { run, reply }) = rx.recv() {
                if let Ok(WireMsg::SyncReq { token }) = WireMsg::decode_frame(&run) {
                    let ack = WireMsg::SyncAck { token }.encode_frame();
                    assert!(reply.unwrap().send(&ack, false));
                }
            }
        });
        let mut t = ChannelTransport::new(tx);
        assert!(t.sync(Duration::from_secs(5)));
        h.join().unwrap();
    }

    #[test]
    fn channel_sync_fails_when_manager_gone() {
        let (tx, rx) = bounded(4);
        drop(rx);
        let mut t = ChannelTransport::new(tx);
        assert!(!t.sync(Duration::from_millis(50)));
    }

    #[test]
    fn socket_transport_reconnects_with_greeting() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("reconnect.sock");
        let addr = SockAddr::Uds(path.clone());

        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::connect(addr.clone()).unwrap();
        let greeting = WireMsg::Adapt(AdaptMsg {
            actuator: "a".into(),
            command: "greet".into(),
            value: 1.0,
        })
        .encode_frame();
        t.set_greeting(greeting.clone());

        // First connection: accept, then kill it server-side.
        let first = listener.accept().unwrap();
        first.shutdown();
        drop(first);

        // The next sends hit the dead connection, then reconnect (after
        // backoff) and replay the greeting.
        let frame = WireMsg::Bye.encode_frame();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !t.try_send(&frame) {
            assert!(Instant::now() < deadline, "reconnect never succeeded");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut second = listener.accept().unwrap();
        let mut fb = FrameBuffer::new();
        let mut chunk = [0u8; 1024];
        let got_greeting = loop {
            let n = second.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed before greeting");
            fb.extend(&chunk[..n]);
            if let Some(msg) = fb.next().unwrap() {
                break msg;
            }
        };
        assert!(
            matches!(got_greeting, WireMsg::Adapt(ref m) if m.command == "greet"),
            "greeting must be replayed first after reconnect, got {got_greeting:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn socket_connect_refused_is_error_not_panic() {
        let addr = SockAddr::Uds(std::path::PathBuf::from("/nonexistent/qos-no-such.sock"));
        assert!(SocketTransport::connect(addr).is_err());
    }

    // The Backoff envelope's own tests moved with it into qos-net; what
    // this crate pins is that the builder threads the policy through to
    // the driver's reconnect schedule.
    #[test]
    fn builder_reconnect_policy_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("qos-sock-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("seeded.sock");
        let addr = SockAddr::Uds(path.clone());
        let listener = SockListener::bind(&addr).unwrap();
        let mut t = SocketTransport::builder(addr)
            .reconnect(ReconnectPolicy::seeded(7))
            .connect()
            .unwrap();
        let first = listener.accept().unwrap();
        first.shutdown();
        drop(first);
        drop(listener);
        let _ = std::fs::remove_file(&path);
        // Two failed sends: the first discovers the dead stream and arms
        // the seeded backoff window; inside the window no dial happens.
        let frame = WireMsg::Bye.encode_frame();
        while t.stream.is_some() {
            let _ = t.try_send(&frame);
        }
        assert!(!t.try_send(&frame), "listener is gone; dial must fail");
        assert_eq!(t.reconnects(), 0);
    }
}
