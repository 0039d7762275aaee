//! The three live workloads: instrumented processes on real threads
//! reporting violations over Unix sockets to a `LiveHostManager` served
//! by the epoll reactor, builder defaults throughout. UDS loopback, not a
//! real link.
//!
//! Every workload is a closed loop: a client issues a window of reports,
//! then blocks on the `sync` barrier until the manager has diagnosed all
//! of them. The three differ in window size and framing only (see
//! [`SHAPES`]), so a difference between them is a difference in how the
//! wire, net and manager layers are used, not in what is asked of them.
//!
//! A run is one untraced session — the end-to-end numbers and the thread
//! ledger — and, with tracing on, a second session in which the
//! generator makes the calls `LiveProcess::report` makes under one span
//! each, followed by a replay of the frames it sent through the stages
//! the manager thread runs (reassembly, decode, inference) on the
//! harness thread.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qos_core::inference::prelude::*;
use qos_core::instrument::ViolationReport;
use qos_core::manager::live::{
    standard_live_repo, Driver, ListenSpec, LiveHostManager, LiveProcess, ReportBatchPolicy,
};
use qos_core::manager::rules::{host_base_facts, host_rules_fair};
use qos_core::manager::transport::{SockAddr, SocketTransport, WireTransport};
use qos_core::repository::Registration;
use qos_core::wire::messages::LiveRegisterMsg;
use qos_core::wire::{BatchBuilder, WireMsg, WireMsgRef};
use qos_net::PeerReader;

use crate::ledger::{self, Class, Ledger, Snapshot};
use crate::measure::{self, Outcome, Params, Rng, Sample, Timing, Values, SUB_WINDOWS};
use crate::meta;
use crate::stats;
use crate::trace::{Stage, Tracer};

/// One live workload: how many clients, how many reports per barrier,
/// and whether reports are coalesced into batch frames.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Generator threads, one connection each (≤ the 2 cores here).
    pub clients: usize,
    /// Reports between two `sync` barriers.
    pub window: usize,
    /// `enable_report_batching` policy, if any.
    pub batch: Option<ReportBatchPolicy>,
}

/// The live workloads of `BENCHMARK.json`.
pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "live_rtt",
        clients: 1,
        window: 1,
        batch: None,
    },
    Shape {
        name: "live_storm",
        clients: 2,
        window: 256,
        batch: None,
    },
    Shape {
        name: "live_storm_batched",
        clients: 2,
        window: 4096,
        batch: Some(ReportBatchPolicy {
            max_msgs: 64,
            max_delay: Duration::from_millis(2),
        }),
    },
];

/// Set-ups per run; each takes about half a millisecond.
const SETUP_REPS: usize = 51;
/// Distinct reports each client cycles through.
const POOL: usize = 1024;
/// Violations whose frames the traced generator keeps for the replay.
const REPLAY_VIOLATIONS: usize = 4096;
/// Violations per replay span of the sub-microsecond stages, so the two
/// clock reads around a span stay below 1 % of it. Equal to the batch
/// size, so a span covers one batch frame or 64 plain ones.
const REPLAY_GROUP: usize = 64;
/// Socket read size of the program's peer loops, reused by the replay.
const READ_CHUNK: usize = 4096;
/// Barrier timeout (the program's own `SYNC_TIMEOUT`).
const SYNC_TIMEOUT: Duration = Duration::from_secs(5);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

fn problem(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// A fresh socket path under `out/`, relative to the working directory
/// when possible: `sun_path` holds 107 bytes and a checkout may be deep.
fn socket_path() -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = format!(
        "s{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    );
    let path = meta::out_dir()?.join(name);
    let cwd = std::env::current_dir()?;
    let path = path
        .strip_prefix(&cwd)
        .map_or(path.clone(), |p| p.to_path_buf());
    let _ = std::fs::remove_file(&path);
    Ok(path)
}

fn spawn_manager() -> io::Result<(LiveHostManager, SockAddr)> {
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(socket_path()?)))
        .driver(Driver::Reactor)
        .spawn()
        .map_err(problem)?;
    let addr = mgr
        .local_addr()
        .ok_or_else(|| problem("manager is not listening"))?;
    Ok((mgr, addr))
}

fn process_name(client: usize) -> String {
    format!("bench:{client}")
}

fn registration(client: usize) -> Registration {
    Registration {
        process: process_name(client),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    }
}

/// The reports client `client` cycles through, from the seed. Every one
/// is a frame rate below the 25 ± 2 band, so the manager's rule base
/// fires exactly one rule and one `adjust-cpu` per report; the buffer
/// reading decides which of the two local-CPU rules it is.
fn report_pool(seed: u64, client: usize) -> Vec<ViolationReport> {
    let mut rng = Rng::new(seed, client as u64);
    (0..POOL)
        .map(|_| {
            let buffer = if rng.next_u64() & 1 == 0 {
                rng.uniform(0.0, 1_000.0)
            } else {
                rng.uniform(1_001.0, 100_000.0)
            };
            ViolationReport {
                policy: "NotifyQoSViolation".into(),
                process: process_name(client),
                at_us: 0,
                corr: 0,
                readings: vec![
                    ("frame_rate".into(), rng.uniform(5.0, 22.9)),
                    ("jitter_rate".into(), rng.uniform(0.0, 3.0)),
                    ("buffer_size".into(), buffer.floor()),
                ],
            }
        })
        .collect()
}

/// Correlation ids are per client and start at 1: 0 would make the
/// manager mint its own.
fn corr_of(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 40) | seq
}

/// Manager spawn + connect + `LiveProcess::start` + registration
/// acknowledged, `reps` times over, each on a manager of its own;
/// returns the seconds each took. `LiveProcess::start` alone is the
/// `instrument.init` span (the paper's ≈400 µs).
fn measure_setup(shape: &Shape, reps: usize, tracer: &mut Tracer) -> io::Result<Vec<f64>> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let (repo, mut agent) = standard_live_repo();
        let (mgr, addr) = spawn_manager()?;
        let mut procs = Vec::with_capacity(shape.clients);
        for c in 0..shape.clients {
            let tr = SocketTransport::connect_retry(addr.clone(), CONNECT_TIMEOUT)?;
            let t_init = Instant::now();
            let mut p = LiveProcess::start(&registration(c), &repo, &mut agent, Box::new(tr))
                .map_err(problem)?;
            tracer.span(0, Stage::Init, t_init, Instant::now(), 0, 1);
            if let Some(policy) = shape.batch {
                p.enable_report_batching(policy);
            }
            procs.push(p);
        }
        for p in &mut procs {
            if !p.sync() {
                return Err(problem("set-up barrier failed"));
            }
        }
        secs.push(t0.elapsed().as_secs_f64());
        drop(procs);
        mgr.shutdown();
    }
    Ok(secs)
}

/// What a generator thread hands back.
#[derive(Debug, Default)]
struct GenOut {
    attempted: u64,
    sent: u64,
    dropped: u64,
    syncs: u64,
    failed_syncs: u64,
    /// Window durations (first report → barrier ack) in the measured
    /// phase, ns.
    window_ns: Vec<f64>,
    tracer: Option<Tracer>,
    capture: Option<Capture>,
}

/// The frames a traced generator sent, for the replay.
#[derive(Debug, Default)]
struct Capture {
    bytes: Vec<u8>,
    /// `(frame length, violations in the frame)`.
    frames: Vec<(usize, u32)>,
    violations: usize,
}

impl Capture {
    fn keep(&mut self, frame: &[u8], violations: u32) {
        if self.violations < REPLAY_VIOLATIONS {
            self.bytes.extend_from_slice(frame);
            self.frames.push((frame.len(), violations));
            self.violations += violations as usize;
        }
    }
}

/// What a generator thread needs.
struct GenCtx<'a> {
    client: usize,
    shape: &'a Shape,
    seed: u64,
    addr: SockAddr,
    phase: &'a AtomicU8,
    /// Generators that have connected and registered.
    connected: &'a AtomicUsize,
    origin: Instant,
}

/// The untraced generator: an instrumented process as the program ships
/// it — `LiveProcess::report` per violation, `LiveProcess::sync` per
/// window.
fn generate(ctx: &GenCtx<'_>) -> io::Result<GenOut> {
    let pool = report_pool(ctx.seed, ctx.client);
    let (repo, mut agent) = standard_live_repo();
    let tr = SocketTransport::connect_retry(ctx.addr.clone(), CONNECT_TIMEOUT)?;
    let mut p = LiveProcess::start(&registration(ctx.client), &repo, &mut agent, Box::new(tr))
        .map_err(problem)?;
    if let Some(policy) = ctx.shape.batch {
        p.enable_report_batching(policy);
    }
    ctx.connected.fetch_add(1, Ordering::Release);
    let mut out = GenOut::default();
    let mut seq = 0u64;
    loop {
        let phase = ctx.phase.load(Ordering::Relaxed);
        if phase == STOP {
            break;
        }
        let t0 = Instant::now();
        for _ in 0..ctx.shape.window {
            seq += 1;
            let mut report = pool[seq as usize % POOL].clone();
            report.corr = corr_of(ctx.client, seq);
            report.at_us = seq;
            p.report(report);
        }
        let ok = p.sync();
        if phase == MEASURE {
            out.window_ns.push(t0.elapsed().as_nanos() as f64);
        }
        out.attempted += ctx.shape.window as u64;
        out.syncs += 1;
        out.failed_syncs += u64::from(!ok);
    }
    out.sent = p.reports_sent();
    out.dropped = p.reports_dropped();
    Ok(out)
}

/// The traced generator's instrumented process: the three public calls
/// `LiveProcess::report` makes — `ViolationReport::to_wire`,
/// `WireMsg::encode_frame` (or `BatchBuilder::push` + `append_frame_to`),
/// `SocketTransport::try_send` — and `sync`, each under a span, on a
/// transport the harness owns.
struct TracedProcess {
    tr: SocketTransport,
    batch: Option<ReportBatchPolicy>,
    builder: BatchBuilder,
    frame_buf: Vec<u8>,
    /// When the oldest report of the pending batch was pushed.
    oldest: Option<Instant>,
    tracer: Tracer,
    capture: Capture,
    sent: u64,
    dropped: u64,
}

impl TracedProcess {
    /// `LiveProcess::report`, under the `window` span.
    fn report(&mut self, report: &ViolationReport, window: u64) {
        let corr = report.corr;
        let id = self.tracer.open();
        let t0 = Instant::now();
        let wire = report.to_wire();
        let t1 = Instant::now();
        self.tracer.span(id, Stage::ToWire, t0, t1, corr, 1);
        let msg = WireMsg::LiveViolation(wire);
        let end = match self.batch {
            None => {
                let frame = msg.encode_frame();
                let t2 = Instant::now();
                let ok = self.tr.try_send(&frame);
                let t3 = Instant::now();
                self.tracer.span(id, Stage::Encode, t1, t2, corr, 1);
                self.tracer.span(id, Stage::Send, t2, t3, corr, 1);
                self.count(ok, 1);
                self.capture.keep(&frame, 1);
                t3
            }
            Some(policy) => {
                let oldest = *self.oldest.get_or_insert(t1);
                self.builder.push(&msg);
                let t2 = Instant::now();
                self.tracer.span(id, Stage::BatchPush, t1, t2, corr, 1);
                let due = t2.duration_since(oldest) >= policy.max_delay;
                if self.builder.len() >= policy.max_msgs || due {
                    self.flush(id, corr)
                } else {
                    t2
                }
            }
        };
        self.tracer
            .close(id, window, Stage::Report, t0, end, corr, 1);
    }

    /// `LiveProcess::flush_reports`: finish the pending batch frame and
    /// send it; returns when the send ended. Both spans cover every
    /// report in the frame.
    fn flush(&mut self, parent: u64, corr: u64) -> Instant {
        let n = self.builder.len() as u32;
        let t0 = Instant::now();
        if n == 0 {
            return t0;
        }
        self.frame_buf.clear();
        self.builder.append_frame_to(&mut self.frame_buf);
        self.oldest = None;
        let t1 = Instant::now();
        let ok = self.tr.try_send(&self.frame_buf);
        let t2 = Instant::now();
        self.tracer.span(parent, Stage::BatchFrame, t0, t1, corr, n);
        self.tracer.span(parent, Stage::Send, t1, t2, corr, n);
        self.count(ok, n);
        self.capture.keep(&self.frame_buf, n);
        t2
    }

    /// `LiveProcess::sync`, under the `window` span.
    fn sync(&mut self, window: u64, corr: u64) -> (bool, Instant) {
        self.flush(window, corr);
        let t0 = Instant::now();
        let ok = self.tr.sync(SYNC_TIMEOUT);
        let t1 = Instant::now();
        self.tracer.span(window, Stage::Sync, t0, t1, corr, 1);
        (ok, t1)
    }

    fn count(&mut self, sent: bool, n: u32) {
        if sent {
            self.sent += u64::from(n);
        } else {
            self.dropped += u64::from(n);
        }
    }
}

/// The traced generator: [`generate`] with a [`TracedProcess`] in the
/// place of the `LiveProcess`.
fn generate_traced(ctx: &GenCtx<'_>) -> io::Result<GenOut> {
    let pool = report_pool(ctx.seed, ctx.client);
    let mut tr = SocketTransport::connect_retry(ctx.addr.clone(), CONNECT_TIMEOUT)?;
    let hello = WireMsg::LiveRegister(LiveRegisterMsg {
        process: process_name(ctx.client),
    })
    .encode_frame();
    if !tr.try_send(&hello) {
        return Err(problem("registration refused"));
    }
    ctx.connected.fetch_add(1, Ordering::Release);
    let mut p = TracedProcess {
        tr,
        batch: ctx.shape.batch,
        builder: BatchBuilder::new(),
        frame_buf: Vec::new(),
        oldest: None,
        tracer: Tracer::new(ctx.origin, ctx.client as u64 + 1),
        capture: Capture::default(),
        sent: 0,
        dropped: 0,
    };
    let mut out = GenOut::default();
    let mut seq = 0u64;
    loop {
        let phase = ctx.phase.load(Ordering::Relaxed);
        if phase == STOP {
            break;
        }
        let window = p.tracer.open();
        let first_corr = corr_of(ctx.client, seq + 1);
        let t0 = Instant::now();
        for _ in 0..ctx.shape.window {
            seq += 1;
            let mut report = pool[seq as usize % POOL].clone();
            report.corr = corr_of(ctx.client, seq);
            report.at_us = seq;
            p.report(&report, window);
        }
        let (ok, t1) = p.sync(window, first_corr);
        let n = ctx.shape.window as u32;
        p.tracer
            .close(window, 0, Stage::Window, t0, t1, first_corr, n);
        if phase == MEASURE {
            out.window_ns.push(t1.duration_since(t0).as_nanos() as f64);
        }
        out.attempted += ctx.shape.window as u64;
        out.syncs += 1;
        out.failed_syncs += u64::from(!ok);
    }
    out.sent = p.sent;
    out.dropped = p.dropped;
    out.tracer = Some(p.tracer);
    out.capture = Some(p.capture);
    Ok(out)
}

/// The manager's public counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    violations: u64,
    rules_fired: u64,
    boost_level: i64,
    frames: u64,
    wire_bytes: u64,
    decode_errors: u64,
    registrations: u64,
    net_frames_in: u64,
    net_wakeups: u64,
}

impl Counters {
    fn read(mgr: &LiveHostManager) -> Counters {
        let s = &mgr.stats;
        let net = mgr.net_stats();
        let net = |f: fn(&qos_net::NetStats) -> &AtomicU64| {
            net.as_ref().map_or(0, |n| f(n).load(Ordering::Relaxed))
        };
        Counters {
            violations: s.violations.load(Ordering::Relaxed),
            rules_fired: s.rules_fired.load(Ordering::Relaxed),
            boost_level: s.boost_level.load(Ordering::Relaxed),
            frames: s.frames.load(Ordering::Relaxed),
            wire_bytes: s.wire_bytes.load(Ordering::Relaxed),
            decode_errors: s.decode_errors.load(Ordering::Relaxed),
            registrations: s.registrations.load(Ordering::Relaxed),
            net_frames_in: net(|n| &n.frames_in),
            net_wakeups: net(|n| &n.wakeups),
        }
    }
}

/// One manager's life: warm-up, measured window, stop.
#[derive(Debug)]
struct Session {
    samples: Vec<Sample>,
    ledger: Ledger,
    /// Counters at the start and the end of the measured window.
    window: (Counters, Counters),
    /// Counters after every generator has stopped and synced.
    total: Counters,
    gens: Vec<GenOut>,
}

fn session(
    shape: &Shape,
    seed: u64,
    t: Timing,
    traced: bool,
    origin: Instant,
) -> io::Result<Session> {
    let (mgr, addr) = spawn_manager()?;
    let phase = AtomicU8::new(WARMUP);
    let connected = AtomicUsize::new(0);
    let (measured, gens) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.clients)
            .map(|client| {
                let ctx = GenCtx {
                    client,
                    shape,
                    seed,
                    addr: addr.clone(),
                    phase: &phase,
                    connected: &connected,
                    origin,
                };
                std::thread::Builder::new()
                    .name(format!("bench-gen-{client}"))
                    .spawn_scoped(s, move || {
                        if traced {
                            generate_traced(&ctx)
                        } else {
                            generate(&ctx)
                        }
                    })
            })
            .collect();
        // A generator that could not connect has already returned its
        // error; stop waiting for the others and report it.
        while connected.load(Ordering::Acquire) < shape.clients
            && !handles
                .iter()
                .any(|h| h.as_ref().map_or(true, |h| h.is_finished()))
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let measured = (|| {
            std::thread::sleep(t.warmup);
            let violations = || mgr.stats.violations.load(Ordering::Relaxed);
            let before = Snapshot::take()?;
            let c0 = Counters::read(&mgr);
            let mut samples = vec![Sample::now(violations())?];
            phase.store(MEASURE, Ordering::Relaxed);
            for _ in 0..SUB_WINDOWS {
                std::thread::sleep(t.window / SUB_WINDOWS as u32);
                samples.push(Sample::now(violations())?);
            }
            let c1 = Counters::read(&mgr);
            let after = Snapshot::take()?;
            Ok::<_, io::Error>((samples, Ledger::between(&before, &after), (c0, c1)))
        })();
        phase.store(STOP, Ordering::Relaxed);
        let gens: io::Result<Vec<GenOut>> = handles
            .into_iter()
            .map(|h| h?.join().map_err(|_| problem("generator panicked"))?)
            .collect();
        (measured, gens)
    });
    // Every generator ended on a barrier, so the counters are final.
    let total = Counters::read(&mgr);
    mgr.shutdown();
    let (samples, ledger, window) = measured?;
    Ok(Session {
        samples,
        ledger,
        window,
        total,
        gens: gens?,
    })
}

impl Session {
    fn sum(&self, f: fn(&GenOut) -> u64) -> u64 {
        self.gens.iter().map(f).sum()
    }

    fn window_violations(&self) -> u64 {
        self.window.1.violations - self.window.0.violations
    }

    /// Sorted window durations of every client, µs.
    fn window_us(&self) -> Vec<f64> {
        stats::sorted(
            self.gens
                .iter()
                .flat_map(|g| g.window_ns.iter().map(|ns| ns / 1e3))
                .collect(),
        )
    }

    /// The output checks of the issue: nothing lost, nothing malformed,
    /// one rule and one 10-step boost per violation.
    fn check(&self, shape: &Shape, what: &str, out: &mut Outcome) {
        let t = &self.total;
        let sent = self.sum(|g| g.sent);
        let name = shape.name;
        out.check(t.violations == sent, || {
            format!(
                "{name} ({what}): manager counted {} violations, clients sent {sent}",
                t.violations
            )
        });
        out.check(t.decode_errors == 0, || {
            format!("{name} ({what}): {} decode errors", t.decode_errors)
        });
        out.check(t.rules_fired == t.violations, || {
            format!(
                "{name} ({what}): {} rules fired for {} violations",
                t.rules_fired, t.violations
            )
        });
        out.check(t.boost_level == 10 * t.violations as i64, || {
            format!(
                "{name} ({what}): boost level {} for {} violations",
                t.boost_level, t.violations
            )
        });
        out.check(t.registrations == shape.clients as u64, || {
            format!(
                "{name} ({what}): {} registrations for {} clients",
                t.registrations, shape.clients
            )
        });
        let failed_syncs = self.sum(|g| g.failed_syncs);
        out.check(failed_syncs == 0, || {
            format!("{name} ({what}): {failed_syncs} sync barriers failed")
        });
        out.attempted += self.sum(|g| g.attempted) + self.sum(|g| g.syncs);
        out.failed += self.sum(|g| g.dropped) + failed_syncs + sent.saturating_sub(t.violations);
    }
}

/// The paper's §7 numbers on this machine: `buffer_pass` and `frame_pass`
/// with QoS met, against an in-process manager of their own so the few
/// edge reports a frame pass raises stay out of the workload's counters.
fn instrumentation_probe(tracer: &mut Tracer) -> io::Result<()> {
    const PASSES: usize = 1_000;
    let mgr = LiveHostManager::builder().spawn().map_err(problem)?;
    let (repo, mut agent) = standard_live_repo();
    let mut p =
        LiveProcess::start(&registration(0), &repo, &mut agent, mgr.connect()).map_err(problem)?;
    for round in 0..2 * PASSES {
        let t0 = Instant::now();
        for i in 0..REPLAY_GROUP as u64 {
            std::hint::black_box(p.buffer_pass(100 + (i & 0xff)));
        }
        let t1 = Instant::now();
        for _ in 0..REPLAY_GROUP {
            std::hint::black_box(p.frame_pass());
        }
        let t2 = Instant::now();
        // The first half warms caches and lets the fps sensor settle.
        if round >= PASSES {
            tracer.span(0, Stage::Pass, t0, t1, 0, REPLAY_GROUP as u32);
            tracer.span(0, Stage::FramePass, t1, t2, 0, REPLAY_GROUP as u32);
        }
    }
    drop(p);
    mgr.shutdown();
    Ok(())
}

/// What the replay counted.
#[derive(Debug, Default)]
struct Replayed {
    violations: u64,
    fired: u64,
    boosts: u64,
    join_work: u64,
}

/// Run the captured frames through the stages the manager thread runs,
/// on this thread, through public calls only: `PeerReader` reassembly,
/// `WireMsgRef::decode_frame` + `to_owned_msg`, and an `Engine` loaded
/// with the manager's rule base asserting the `violation` fact
/// `ManagerCore` asserts.
fn replay(capture: &Capture, tracer: &mut Tracer) -> io::Result<Replayed> {
    let mut engine = Engine::new();
    for rule in parse_program(&host_rules_fair())
        .map_err(|e| problem(e.0))?
        .rules
    {
        engine.add_rule(rule);
    }
    for fact in parse_program(&host_base_facts())
        .map_err(|e| problem(e.0))?
        .facts
    {
        engine.assert_fact(fact);
    }
    let mut reader = PeerReader::new();
    let mut out = Replayed::default();
    let mut offset = 0;
    let mut frames = capture.frames.iter().peekable();
    while frames.peek().is_some() {
        let start = offset;
        let mut expected = 0u32;
        while expected < REPLAY_GROUP as u32 {
            let Some(&(len, n)) = frames.next() else {
                break;
            };
            offset += len;
            expected += n;
        }
        let t0 = Instant::now();
        let mut raw = Vec::new();
        for chunk in capture.bytes[start..offset].chunks(READ_CHUNK) {
            reader.on_bytes(chunk);
            while let Some(frame) = reader.next_frame().map_err(problem)? {
                raw.push(frame);
            }
        }
        let t1 = Instant::now();
        let mut msgs = Vec::with_capacity(expected as usize);
        for frame in &raw {
            match WireMsgRef::decode_frame(frame).map_err(problem)? {
                WireMsgRef::Batch(batch) => msgs.extend(batch.iter().map(|m| m.to_owned_msg())),
                view => msgs.push(view.to_owned_msg()),
            }
        }
        let t2 = Instant::now();
        if msgs.len() != expected as usize {
            return Err(problem(format!(
                "replay decoded {} messages where {expected} were sent",
                msgs.len()
            )));
        }
        let corr = match msgs.first() {
            Some(WireMsg::LiveViolation(v)) => v.corr,
            _ => 0,
        };
        tracer.span(0, Stage::Reassemble, t0, t1, corr, expected);
        tracer.span(0, Stage::Decode, t1, t2, corr, expected);
        for msg in msgs {
            let WireMsg::LiveViolation(v) = msg else {
                return Err(problem("replay met a frame that is not a violation"));
            };
            let t0 = Instant::now();
            let fps = v.readings.first().map_or(0.0, |&(_, x)| x);
            let buffer = v
                .readings
                .iter()
                .find(|(a, _)| a == "buffer_size")
                .map_or(0.0, |&(_, x)| x);
            engine.assert_fact(
                Fact::new("violation")
                    .with("pid", Value::str(&v.process))
                    .with("fps", fps)
                    .with("lo", 23.0)
                    .with("hi", 27.0)
                    .with("buffer", buffer)
                    .with("weight", 1.0)
                    .with("has-upstream", false),
            );
            let t1 = Instant::now();
            let run = engine.run(100);
            let t2 = Instant::now();
            let invocations = engine.take_invocations();
            let t3 = Instant::now();
            tracer.span(0, Stage::Assert, t0, t1, v.corr, 1);
            tracer.span(0, Stage::Run, t1, t2, v.corr, 1);
            tracer.span(0, Stage::TakeInvocations, t2, t3, v.corr, 1);
            out.violations += 1;
            out.fired += run.fired;
            out.boosts += invocations
                .iter()
                .filter(|i| i.command == "adjust-cpu")
                .count() as u64;
        }
    }
    out.join_work = engine.join_work_total();
    Ok(out)
}

/// Per-layer metrics of a live workload, in `spec::PER_LAYER` order
/// where they apply; the caller fills in zeros for the rest.
fn per_layer(
    shape: &Shape,
    plain: &Session,
    traced: &Session,
    tracer: &Tracer,
    replayed: &Replayed,
    out: &mut Outcome,
) {
    let mut m = Values::new();
    let violations = plain.window_violations();
    let v = violations.max(1) as f64;
    measure::ledger_metrics(&plain.ledger, violations, &mut m);

    let p50 = |s: Stage| tracer.p50_ns(s);
    let batched = shape.batch.is_some();
    let (decode, batch_decode) = if batched {
        (0.0, p50(Stage::Decode))
    } else {
        (p50(Stage::Decode), 0.0)
    };
    m.extend([
        ("instrument.to_wire_ns", p50(Stage::ToWire)),
        ("instrument.pass_ns", p50(Stage::Pass)),
        ("instrument.frame_pass_ns", p50(Stage::FramePass)),
        ("instrument.init_us", p50(Stage::Init) / 1e3),
        ("wire.encode_ns", p50(Stage::Encode)),
        ("wire.decode_ns", decode),
        (
            "wire.batch_encode_ns",
            p50(Stage::BatchPush) + p50(Stage::BatchFrame),
        ),
        ("wire.batch_decode_ns", batch_decode),
        ("net.send_p50_ns", p50(Stage::Send)),
        ("net.send_p99_ns", tracer.percentile_ns(Stage::Send, 0.99)),
        ("net.reassemble_ns", p50(Stage::Reassemble)),
        ("net.sync_wait_us", p50(Stage::Sync) / 1e3),
        ("inference.assert_ns", p50(Stage::Assert)),
        ("inference.run_ns", p50(Stage::Run)),
        ("inference.take_invocations_ns", p50(Stage::TakeInvocations)),
    ]);

    // What the replay explains of the manager thread's time; the rest
    // is queue receive, TraceEvent emission, stats and the pump.
    let manager_us = plain.ledger.class(Class::Manager).run_ns as f64 / 1e3 / v;
    let inference = p50(Stage::Assert) + p50(Stage::Run) + p50(Stage::TakeInvocations);
    let attributed_us = (p50(Stage::Decode) + inference) / 1e3;
    m.extend([
        ("manager.unattributed_us", manager_us - attributed_us),
        (
            "manager.attributed_share",
            if manager_us > 0.0 {
                attributed_us / manager_us
            } else {
                0.0
            },
        ),
    ]);

    let windows = plain.window_us();
    let rtt_p50 = stats::percentile(&windows, 0.5);
    // With one report per window every stage blocks the result, so what
    // the stages do not explain is the wakeup chain. With a queue the
    // stages overlap across threads and the subtraction means nothing.
    let chain_us = if shape.window == 1 {
        let client = p50(Stage::ToWire) + p50(Stage::Encode) + p50(Stage::Send);
        rtt_p50 - (client + p50(Stage::Reassemble) + p50(Stage::Decode) + inference) / 1e3
    } else {
        0.0
    };
    let tail = |q: f64| stats::percentile(&windows, stats::supported_q(windows.len(), q));
    m.extend([
        ("live.rtt_unattributed_us", chain_us),
        ("live.rtt_p99_us", tail(0.99)),
        ("live.rtt_p999_us", tail(0.999)),
        ("live.rtt_samples", windows.len() as f64),
    ]);
    if let Some((label, q)) = stats::highest_supported(windows.len()) {
        out.notes.push(format!(
            "{}: window round trip p50 {:.1} us, {label} {:.1} us over {} samples \
             ({label} is the highest percentile with >= {} samples beyond it)",
            shape.name,
            rtt_p50,
            stats::percentile(&windows, q),
            windows.len(),
            stats::MIN_TAIL_SAMPLES,
        ));
    }

    m.push((
        "trace.overhead_share",
        measure::overhead_share(&plain.samples, &traced.samples),
    ));

    let (c0, c1) = plain.window;
    let frames = (c1.frames - c0.frames) as f64;
    m.extend([
        (
            "wire.bytes_per_violation",
            (c1.wire_bytes - c0.wire_bytes) as f64 / v,
        ),
        ("wire.frames_per_violation", frames / v),
        ("wire.decode_errors", plain.total.decode_errors as f64),
        (
            "net.wakeups_per_frame",
            (c1.net_wakeups - c0.net_wakeups) as f64
                / ((c1.net_frames_in - c0.net_frames_in).max(1)) as f64,
        ),
        (
            "inference.fired_per_violation",
            replayed.fired as f64 / replayed.violations.max(1) as f64,
        ),
        (
            "inference.join_work_per_violation",
            replayed.join_work as f64 / replayed.violations.max(1) as f64,
        ),
    ]);
    out.per_layer = m;
}

/// Run one live workload.
pub fn run(shape: &Shape, p: &Params) -> io::Result<Outcome> {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(origin, 0);

    let setup = measure_setup(shape, p.setup_reps(SETUP_REPS), &mut tracer)?;
    let plain = session(shape, p.seed, p.plain(), false, origin)?;
    plain.check(shape, "untraced", &mut out);
    let windows = plain.window_us();
    out.end_to_end = vec![
        ("setup_s", stats::median_of(&setup)),
        (
            "violations_per_s",
            measure::violations_per_s(&plain.samples),
        ),
        (
            "cpu_us_per_violation",
            measure::cpu_us_per_violation(&plain.samples),
        ),
        ("rtt_p50_us", stats::percentile(&windows, 0.5)),
    ];
    let peak_rss_mb = ledger::peak_rss_mb()?;
    out.notes.push(format!(
        "{}: {} violations in the measured window, {} window round trips, {} set-ups",
        shape.name,
        plain.window_violations(),
        windows.len(),
        setup.len()
    ));
    if !p.trace {
        return Ok(out);
    }

    instrumentation_probe(&mut tracer)?;
    let mut traced = session(shape, p.seed, p.traced(), true, origin)?;
    traced.check(shape, "traced", &mut out);
    let mut capture = None;
    for g in &mut traced.gens {
        if let Some(t) = g.tracer.take() {
            tracer.merge(t);
        }
        capture = capture.or(g.capture.take());
    }
    let capture = capture.ok_or_else(|| problem("traced session captured no frames"))?;
    let replayed = replay(&capture, &mut tracer)?;
    // The replay stands in for ManagerCore; if the two ever disagree on
    // what a violation fires, its timings describe other work.
    let t = &traced.total;
    out.check(
        replayed.fired * t.violations == t.rules_fired * replayed.violations
            && replayed.boosts == replayed.violations,
        || {
            format!(
                "{}: replay fired {} rules and {} boosts for {} violations, the manager {} for {}",
                shape.name,
                replayed.fired,
                replayed.boosts,
                replayed.violations,
                t.rules_fired,
                t.violations
            )
        },
    );
    per_layer(shape, &plain, &traced, &tracer, &replayed, &mut out);
    out.per_layer.push(("mem.peak_rss_mb", peak_rss_mb));
    out.tracer = Some(tracer);
    Ok(out)
}
