//! The video streaming workload: an MPEG-player-style client and a frame
//! server, standing in for the Berkeley software MPEG decoder the paper's
//! evaluation used.
//!
//! The client is a fully *instrumented process*: it embeds the
//! `qos-instrument` sensors (fps, jitter, socket buffer), a coordinator
//! with the Example 1 policy, and it registers with its QoS Host Manager
//! at initialisation. Frames arrive over the (simulated) network into its
//! socket buffer; each is decoded (a CPU burst) and displayed (firing the
//! frame probe of Example 2).
//!
//! The dynamics that matter for Figure 3 arise naturally: while the
//! client keeps up it sleeps between frames and retains its interactive
//! scheduling boost; once decode demand exceeds its CPU share the socket
//! buffer backs up, the client stops sleeping, loses the boost, decays to
//! a CPU-bound priority and collapses — unless the QoS Host Manager's CPU
//! resource manager intervenes.

use qos_instrument::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use qos_telemetry::{Counter, Gauge, Histogram, Name, Stage, Telemetry, TraceEvent};

use qos_manager::host::pid_name;
use qos_manager::messages::{
    AgentRequest, RegisterMsg, Upstream, ViolationMsg, WireMsg, REGISTRATION_HEARTBEAT_PERIOD,
};
use qos_manager::transport::{decode_ctrl, send_ctrl};
use qos_policy::compile::CompiledPolicy;
use qos_sim::prelude::*;
use qos_sim::stats::Series;

/// Port a video client receives frames on.
pub const VIDEO_PORT: Port = 100;

/// A video frame on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Sequence number.
    pub seq: u64,
    /// Capture timestamp at the server.
    pub sent_us: u64,
}

/// Timer tags used by the video processes.
const TAG_NEXT_FRAME: u64 = 1;
const TAG_POLL: u64 = 2;
const TAG_AGENT_RETRY: u64 = 3;
const TAG_HEARTBEAT: u64 = 4;

// Field keys of the client's stage events.
const SENSOR_VALUE: Name = Name::from_static("sensor_value");
const MTTR_US: Name = Name::from_static("mttr_us");

/// First retry delay of the Policy Agent handshake; doubles per attempt.
const AGENT_RETRY_INITIAL: Dur = Dur::from_millis(200);
/// Unanswered Policy Agent requests tolerated before the client gives up
/// on distribution and falls back to its built-in Example 1 policy.
const AGENT_MAX_ATTEMPTS: u32 = 5;

/// Configuration of a [`VideoServer`].
#[derive(Debug, Clone)]
pub struct VideoServerConfig {
    /// Destination client endpoint.
    pub client: Endpoint,
    /// Frames per second offered.
    pub fps: f64,
    /// Frame size on the wire, bytes.
    pub frame_bytes: u32,
    /// CPU cost to produce one frame.
    pub cpu_per_frame: Dur,
    /// Frames emitted per production tick (1 = smooth pacing; higher
    /// values deliver the same mean rate in bursts, degrading jitter
    /// while leaving the frame rate intact — exercises the jitter leg of
    /// Example 1's policy).
    pub burst: u32,
}

impl Default for VideoServerConfig {
    fn default() -> Self {
        VideoServerConfig {
            client: Endpoint::new(HostId(0), VIDEO_PORT),
            fps: 30.0,
            frame_bytes: 12_000,
            cpu_per_frame: Dur::from_micros(2_000),
            burst: 1,
        }
    }
}

/// The frame server: produces frames at a fixed rate, each costing CPU.
/// If the server host is overloaded, frames fall behind schedule — the
/// "server machine problem" fault mode of Section 7.
pub struct VideoServer {
    cfg: VideoServerConfig,
    seq: u64,
    next_due: SimTime,
    /// Frames sent.
    pub sent: u64,
}

impl VideoServer {
    /// New server.
    pub fn new(cfg: VideoServerConfig) -> Self {
        VideoServer {
            cfg,
            seq: 0,
            next_due: SimTime::ZERO,
            sent: 0,
        }
    }

    /// Change the per-frame CPU cost at run time (fault injection: a
    /// degraded encode path makes the server CPU-hungry).
    pub fn set_cpu_per_frame(&mut self, cost: Dur) {
        self.cfg.cpu_per_frame = cost;
    }

    fn interval(&self) -> Dur {
        Dur::from_secs_f64(self.cfg.burst.max(1) as f64 / self.cfg.fps)
    }
}

impl ProcessLogic for VideoServer {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                self.next_due = ctx.now() + self.interval();
                ctx.set_timer(self.interval(), TAG_NEXT_FRAME);
            }
            ProcEvent::Timer(TAG_NEXT_FRAME) => {
                // Produce the frame (CPU), then ship it on completion.
                ctx.run(self.cfg.cpu_per_frame);
            }
            ProcEvent::BurstDone => {
                for _ in 0..self.cfg.burst.max(1) {
                    self.seq += 1;
                    self.sent += 1;
                    ctx.send(
                        self.cfg.client,
                        VIDEO_PORT,
                        self.cfg.frame_bytes,
                        Frame {
                            seq: self.seq,
                            sent_us: ctx.now().as_micros(),
                        },
                    );
                }
                // Keep to the schedule, absorbing any processing delay.
                self.next_due += self.interval();
                let delay = self.next_due.since(ctx.now());
                ctx.set_timer(delay, TAG_NEXT_FRAME);
            }
            _ => {}
        }
    }
}

/// Configuration of a [`VideoClient`].
#[derive(Debug, Clone)]
pub struct VideoClientConfig {
    /// Port frames arrive on.
    pub video_port: Port,
    /// CPU cost to decode + display one frame.
    pub decode_cost: Dur,
    /// Relative jitter of the decode cost (0.1 = ±10% 1σ).
    pub decode_jitter: f64,
    /// The host manager endpoint to register and report to.
    pub host_manager: Option<Endpoint>,
    /// The upstream server identity (for escalation).
    pub upstream: Option<Upstream>,
    /// Application name used at registration.
    pub application: String,
    /// User role / weight for administrative policies.
    pub role: String,
    /// Relative importance under differentiated administrative rules.
    pub weight: f64,
    /// Interval of the housekeeping timer (sensor ticks, coordinator
    /// poll, buffer sampling).
    pub poll_interval: Dur,
    /// Install the proactive buffer-growth trend sensor (the Section 10
    /// proactive-QoS extension).
    pub proactive: bool,
    /// Policy Agent endpoint: when set (and no policies were passed at
    /// construction), the client registers over the network at startup
    /// and loads whatever the agent resolves for its role — the full
    /// Section 6 distribution path inside the simulation.
    pub policy_agent: Option<Endpoint>,
    /// Telemetry handle (inert by default). When enabled the client
    /// mints a correlation id per violation episode, emits
    /// Detect/Report/BackInSpec stage events and samples `video.*`
    /// gauges each poll.
    pub telemetry: Telemetry,
}

impl Default for VideoClientConfig {
    fn default() -> Self {
        VideoClientConfig {
            video_port: VIDEO_PORT,
            decode_cost: Dur::from_micros(30_000),
            decode_jitter: 0.05,
            host_manager: None,
            upstream: None,
            application: "VideoPlayback".into(),
            role: "*".into(),
            weight: 1.0,
            poll_interval: Dur::from_millis(500),
            proactive: false,
            policy_agent: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Client-side metrics for experiments.
#[derive(Debug, Default)]
pub struct VideoClientStats {
    /// Frames decoded and displayed.
    pub displayed: u64,
    /// Frames received.
    pub received: u64,
    /// Violation reports sent to the host manager.
    pub reports: u64,
    /// When the coordinator finished loading its policies (µs), for the
    /// in-sim registration-latency measurement. 0 until loaded.
    pub policies_loaded_at_us: u64,
    /// Housekeeping polls executed.
    pub polls: u64,
    /// Policies re-notified by poll.
    pub poll_renotifies: u64,
    /// Policy Agent requests re-sent after a timeout (lost request or
    /// lost reply).
    pub agent_retries: u64,
    /// True when the agent never answered and the client loaded its
    /// built-in fallback policy instead.
    pub used_policy_fallback: bool,
    /// Heartbeat re-registrations sent to the host manager.
    pub heartbeats: u64,
    /// Displayed-fps series, one point per poll interval.
    pub fps_series: Series,
}

/// Decode-cost multipliers per quality level (0 = full quality). The
/// quality actuator walks down this ladder when the manager asks the
/// application to adapt under overload (Section 10).
pub const QUALITY_LADDER: [f64; 3] = [1.0, 0.65, 0.45];

/// The instrumented video client.
pub struct VideoClient {
    cfg: VideoClientConfig,
    sensors: SensorSet,
    coordinator: Coordinator,
    actuators: ActuatorSet,
    /// Current quality level (index into [`QUALITY_LADDER`]); shared with
    /// the quality actuator.
    quality: Arc<AtomicU8>,
    policies: Vec<CompiledPolicy>,
    decoding: Option<Frame>,
    policies_loaded: bool,
    agent_attempts: u32,
    agent_backoff: Dur,
    /// Metrics.
    pub stats: VideoClientStats,
    displayed_at_last_poll: u64,
    last_poll: SimTime,
    /// Resolved telemetry series (None while telemetry is disabled).
    probes: Option<VideoProbes>,
    /// Detect timestamp per open correlation id, for the MTTR histogram.
    detected_at: HashMap<u64, u64>,
}

/// The client's resolved telemetry series, one registry lookup each at
/// setup instead of per sample.
struct VideoProbes {
    fps: Gauge,
    quality: Gauge,
    observations: Gauge,
    suppressions: Gauge,
    reports: Counter,
    mttr: Histogram,
}

impl VideoClient {
    /// A client that will enforce the given compiled policies (as
    /// delivered by the Policy Agent).
    pub fn new(cfg: VideoClientConfig, policies: Vec<CompiledPolicy>) -> Self {
        let mut sensors = SensorSet::video_standard();
        if cfg.proactive {
            sensors.add(AnySensor::Trend(TrendSensor::new(
                "trend_sensor",
                "buffer_growth",
                2_000_000,
            )));
        }
        // The quality actuator (Section 5.1): the management plane's
        // handle for application-level adaptation.
        let quality = Arc::new(AtomicU8::new(0));
        let mut actuators = ActuatorSet::new();
        let q = Arc::clone(&quality);
        actuators.add(FnActuator::new(
            "quality_actuator",
            move |command, _value| match command {
                "degrade" => {
                    let cur = q.load(Ordering::Relaxed);
                    if (cur as usize) < QUALITY_LADDER.len() - 1 {
                        q.store(cur + 1, Ordering::Relaxed);
                    }
                    true
                }
                "restore" => {
                    q.store(0, Ordering::Relaxed);
                    true
                }
                _ => false,
            },
        ));
        VideoClient {
            cfg,
            sensors,
            coordinator: Coordinator::new(String::new()),
            actuators,
            quality,
            policies,
            decoding: None,
            policies_loaded: false,
            agent_attempts: 0,
            agent_backoff: AGENT_RETRY_INITIAL,
            stats: VideoClientStats::default(),
            displayed_at_last_poll: 0,
            last_poll: SimTime::ZERO,
            probes: None,
            detected_at: HashMap::new(),
        }
    }

    /// Current quality level (0 = full).
    pub fn quality(&self) -> u8 {
        self.quality.load(Ordering::Relaxed)
    }

    /// The client's sensor set (for inspection in tests/experiments).
    pub fn sensors(&self) -> &SensorSet {
        &self.sensors
    }

    /// The client's coordinator.
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Idempotent: the agent handshake is at-least-once (retries can
    /// cross a slow reply in flight), so a duplicate delivery must not
    /// double-load policies into the coordinator.
    fn load_policies(&mut self, policies: Vec<CompiledPolicy>, now_us: u64) {
        if self.policies_loaded {
            return;
        }
        self.policies_loaded = true;
        for p in policies {
            self.coordinator.load_policy(p);
        }
        let missing = self.sensors.configure(self.coordinator.global_conditions());
        debug_assert!(missing.is_empty(), "unmonitorable attributes: {missing:?}");
        self.stats.policies_loaded_at_us = now_us;
    }

    fn registration(&self, ctx: &Ctx<'_>) -> RegisterMsg {
        RegisterMsg {
            pid: ctx.pid(),
            control_port: self.cfg.video_port,
            executable: "VideoApplication".into(),
            application: self.cfg.application.clone(),
            role: self.cfg.role.clone(),
            weight: self.cfg.weight,
            heartbeat: Some(REGISTRATION_HEARTBEAT_PERIOD),
        }
    }

    fn send_agent_request(&mut self, ctx: &mut Ctx<'_>) {
        let Some(agent) = self.cfg.policy_agent else {
            return;
        };
        self.agent_attempts += 1;
        send_ctrl(
            ctx,
            agent,
            self.cfg.video_port,
            WireMsg::AgentRequest(AgentRequest {
                pid: ctx.pid(),
                reply_port: self.cfg.video_port,
                registration: self.registration(ctx),
            }),
        );
        ctx.set_timer(self.agent_backoff, TAG_AGENT_RETRY);
        self.agent_backoff = self.agent_backoff.mul_f64(2.0);
    }

    fn setup(&mut self, ctx: &mut Ctx<'_>) {
        // Initialise instrumentation: load policies (or request them from
        // the Policy Agent), configure sensors, register with the QoS
        // Host Manager (the ~400 µs the paper measures in the prototype
        // happens here).
        self.coordinator = Coordinator::new(qos_manager::host::pid_to_string(ctx.pid()));
        if self.policies.is_empty() && self.cfg.policy_agent.is_some() {
            self.send_agent_request(ctx);
        } else {
            let policies = std::mem::take(&mut self.policies);
            self.load_policies(policies, ctx.now().as_micros());
        }
        if let Some(hm) = self.cfg.host_manager {
            let reg = self.registration(ctx);
            send_ctrl(ctx, hm, VIDEO_PORT, WireMsg::Register(reg));
            ctx.set_timer(REGISTRATION_HEARTBEAT_PERIOD, TAG_HEARTBEAT);
        }
        if self.cfg.telemetry.is_enabled() {
            let label = qos_manager::host::pid_to_string(ctx.pid());
            let t = &self.cfg.telemetry;
            self.probes = Some(VideoProbes {
                fps: t.gauge("video.fps", &label),
                quality: t.gauge("video.quality_level", &label),
                observations: t.gauge("video.sensor_observations", &label),
                suppressions: t.gauge("video.spike_suppressions", &label),
                reports: t.counter("video.reports", &label),
                mttr: t.histogram("video.mttr_us", &label),
            });
        }
        ctx.set_timer(self.cfg.poll_interval, TAG_POLL);
    }

    fn dispatch_alarms(&mut self, ctx: &mut Ctx<'_>, alarms: Vec<AlarmEvent>, now_us: u64) {
        let mut triggered = Vec::new();
        for a in &alarms {
            let newly = self.coordinator.on_alarm(a);
            if self.cfg.telemetry.is_enabled() {
                // A violation episode begins here: mint the correlation
                // id that detection, diagnosis and adaptation will share.
                for &pix in &newly {
                    let corr = self.cfg.telemetry.next_corr();
                    self.coordinator.set_corr(pix, corr);
                    self.detected_at.insert(corr, now_us);
                    self.cfg.telemetry.stage(
                        now_us,
                        corr,
                        Stage::Detect,
                        pid_name(ctx.pid()),
                        &self.coordinator.policy(pix).name,
                        &[(SENSOR_VALUE, a.value)],
                    );
                }
            }
            triggered.extend(newly);
        }
        for pix in triggered {
            self.notify(ctx, pix, now_us);
        }
        self.note_recoveries(ctx, now_us);
    }

    /// Emit BackInSpec events (and the MTTR histogram sample) for every
    /// episode the coordinator closed since the last alarm batch.
    fn note_recoveries(&mut self, ctx: &Ctx<'_>, now_us: u64) {
        let recovered = self.coordinator.take_recovered();
        if !self.cfg.telemetry.is_enabled() {
            return;
        }
        for (pix, corr) in recovered {
            if corr == 0 {
                continue;
            }
            let detect_us = self.detected_at.remove(&corr);
            if let (Some(d), Some(p)) = (detect_us, self.probes.as_ref()) {
                p.mttr.record(now_us.saturating_sub(d));
            }
            let mttr = detect_us.map(|d| (MTTR_US, now_us.saturating_sub(d) as f64));
            self.cfg.telemetry.stage(
                now_us,
                corr,
                Stage::BackInSpec,
                pid_name(ctx.pid()),
                &self.coordinator.policy(pix).name,
                mttr.as_slice(),
            );
        }
    }

    fn notify(&mut self, ctx: &mut Ctx<'_>, policy_ix: usize, now_us: u64) {
        let Some(report) = self
            .coordinator
            .execute_actions(policy_ix, &self.sensors, now_us)
        else {
            return;
        };
        let Some(hm) = self.cfg.host_manager else {
            return;
        };
        // Requirement bounds on the primary attribute, for the manager's
        // severity computation.
        let compiled = self.coordinator.policy(policy_ix);
        let primary = report.readings.first().map(|(a, _)| a.clone());
        let bounds = primary.as_ref().map(|attr| {
            let mut lo = f64::NEG_INFINITY;
            let mut hi = f64::INFINITY;
            for c in compiled.conditions.iter().filter(|c| &c.attr == attr) {
                use qos_policy::ast::CmpOp::*;
                match c.op {
                    Gt | Ge => lo = lo.max(c.value),
                    Lt | Le => hi = hi.min(c.value),
                    _ => {}
                }
            }
            (attr.clone(), lo, hi)
        });
        self.stats.reports += 1;
        if let Some(p) = self.probes.as_ref() {
            p.reports.inc();
        }
        if self.cfg.telemetry.is_enabled() {
            self.cfg.telemetry.event(|| TraceEvent {
                at_us: now_us,
                corr: report.corr,
                stage: Stage::Report,
                component: pid_name(ctx.pid()),
                name: (&report.policy).into(),
                fields: report.readings.iter().map(|(a, v)| (a, *v)).collect(),
            });
        }
        send_ctrl(
            ctx,
            hm,
            VIDEO_PORT,
            WireMsg::Violation(ViolationMsg {
                pid: ctx.pid(),
                proc_name: "VideoApplication".into(),
                policy: report.policy.clone(),
                corr: report.corr,
                readings: report.readings,
                bounds,
                upstream: self.cfg.upstream,
            }),
        );
    }

    fn sample_buffer(&mut self, ctx: &mut Ctx<'_>, now_us: u64) {
        let (_, bytes) = ctx.buffer_len(self.cfg.video_port);
        if let Some(b) = self.sensors.buffer() {
            let alarms = b.sample(bytes as f64, now_us);
            self.dispatch_alarms(ctx, alarms, now_us);
        }
        if let Some(t) = self.sensors.trend() {
            let alarms = t.sample(bytes as f64, now_us);
            self.dispatch_alarms(ctx, alarms, now_us);
        }
    }
}

impl ProcessLogic for VideoClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        let now_us = ctx.now().as_micros();
        match ev {
            ProcEvent::Start => self.setup(ctx),
            ProcEvent::Readable(port) if port == self.cfg.video_port => {
                // Example 5's probe: the socket queue length *before*
                // consuming, i.e. including this frame.
                self.sample_buffer(ctx, now_us);
                let Some(msg) = ctx.recv(port) else { return };
                match decode_ctrl(&msg) {
                    Ok(Some(WireMsg::Adapt(adapt))) => {
                        // Management-directed application adaptation.
                        self.actuators
                            .actuate(&adapt.actuator, &adapt.command, adapt.value);
                        return;
                    }
                    Ok(Some(WireMsg::AgentReply(reply))) => {
                        // Policies arriving from the Policy Agent.
                        self.load_policies(reply.policies, now_us);
                        return;
                    }
                    // Other control messages aren't meant for a client;
                    // corrupt frames are dropped (the manager counts its
                    // own — here there is nothing to do but move on).
                    Ok(Some(_)) | Err(_) => return,
                    // Not a control message: fall through to app payloads.
                    Ok(None) => {}
                }
                let Some(&frame) = msg.payload.get::<Frame>() else { return };
                self.stats.received += 1;
                debug_assert!(self.decoding.is_none(), "serial decode pipeline");
                self.decoding = Some(frame);
                let quality = QUALITY_LADDER
                    [self.quality.load(Ordering::Relaxed) as usize % QUALITY_LADDER.len()];
                let jitter = self.cfg.decode_jitter;
                let cost = if jitter > 0.0 {
                    let k = ctx.rng().normal(1.0, jitter).clamp(0.5, 2.0);
                    self.cfg.decode_cost.mul_f64(k * quality)
                } else {
                    self.cfg.decode_cost.mul_f64(quality)
                };
                ctx.run(cost);
            }
            ProcEvent::BurstDone
                // Frame decoded + displayed: Example 2's probe fires.
                if self.decoding.take().is_some() => {
                    self.stats.displayed += 1;
                    let mut alarms = Vec::new();
                    if let Some(f) = self.sensors.fps() {
                        alarms.extend(f.frame_displayed(now_us));
                    }
                    if let Some(j) = self.sensors.jitter() {
                        alarms.extend(j.frame_displayed(now_us));
                    }
                    self.dispatch_alarms(ctx, alarms, now_us);
                }
            ProcEvent::Timer(TAG_POLL) => {
                self.stats.polls += 1;
                // Housekeeping: stalled-stream detection, buffer sample,
                // persistent-violation renotification, fps recording.
                let mut alarms = Vec::new();
                if let Some(f) = self.sensors.fps() {
                    alarms.extend(f.tick(now_us));
                }
                self.dispatch_alarms(ctx, alarms, now_us);
                self.sample_buffer(ctx, now_us);
                for pix in self.coordinator.poll(now_us) {
                    self.stats.poll_renotifies += 1;
                    self.notify(ctx, pix, now_us);
                }
                // Record displayed fps over the poll window. Poll timers
                // can bunch when the process was starved (they are
                // delivered signal-like, ahead of queued I/O): windows
                // shorter than half the poll interval are folded into the
                // next one rather than producing inflated rate points.
                let dt = ctx.now().since(self.last_poll).as_secs_f64();
                if dt >= self.cfg.poll_interval.as_secs_f64() / 2.0 {
                    let frames = self.stats.displayed - self.displayed_at_last_poll;
                    let fps = frames as f64 / dt;
                    self.stats.fps_series.push(ctx.now(), fps);
                    self.displayed_at_last_poll = self.stats.displayed;
                    self.last_poll = ctx.now();
                    if let Some(p) = self.probes.as_ref() {
                        p.fps.set(fps);
                        p.quality.set(self.quality.load(Ordering::Relaxed) as f64);
                        p.observations.set(self.sensors.total_observations() as f64);
                        p.suppressions.set(self.sensors.total_suppressions() as f64);
                    }
                }
                ctx.set_timer(self.cfg.poll_interval, TAG_POLL);
            }
            ProcEvent::Timer(TAG_AGENT_RETRY) => {
                // The registration handshake is a retrying protocol: a
                // lost request or reply costs one backoff interval, not
                // the whole management plane. After AGENT_MAX_ATTEMPTS
                // silent rounds the Policy Agent is declared unreachable
                // and the client falls back to its built-in local policy
                // — degraded (no role-specific policies) but managed.
                if self.policies_loaded {
                    // Reply arrived before the timer; nothing to do.
                } else if self.agent_attempts < AGENT_MAX_ATTEMPTS {
                    self.stats.agent_retries += 1;
                    self.send_agent_request(ctx);
                } else {
                    self.stats.used_policy_fallback = true;
                    self.load_policies(vec![example1_policy()], now_us);
                }
            }
            ProcEvent::Timer(TAG_HEARTBEAT) => {
                // Periodic re-registration: liveness heartbeat for the
                // host manager, and state repair — a manager that crashed
                // and restarted rebuilds its registry from these within
                // one period (registration is idempotent on the manager
                // side, so at-least-once delivery is safe).
                if let Some(hm) = self.cfg.host_manager {
                    self.stats.heartbeats += 1;
                    let reg = self.registration(ctx);
                    send_ctrl(ctx, hm, VIDEO_PORT, WireMsg::Register(reg));
                    ctx.set_timer(REGISTRATION_HEARTBEAT_PERIOD, TAG_HEARTBEAT);
                }
            }
            _ => {}
        }
    }
}

/// Compile the paper's Example 1 policy (the standard video QoS
/// requirement: 25 ± 2 fps, jitter < 1.25).
pub fn example1_policy() -> CompiledPolicy {
    let src = r#"
    oblig NotifyQoSViolation {
      subject (...)/VideoApplication/qosl_coordinator
      target fps_sensor, jitter_sensor, buffer_sensor, (...)QoSHostManager
      on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25)
      do fps_sensor->read(out frame_rate);
         jitter_sensor->read(out jitter_rate);
         buffer_sensor->read(out buffer_size);
         (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size);
    }"#;
    qos_policy::compile::compile(&qos_policy::parser::parse_policy(src).expect("static policy"))
        .expect("static policy compiles")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-host world with a fast LAN between them.
    fn world() -> (World, HostId, HostId) {
        let mut w = World::new(42);
        let server_host = w.add_host("server", 1 << 16);
        let client_host = w.add_host("client", 1 << 16);
        let hop = w
            .net_mut()
            .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
        w.net_mut()
            .set_route_symmetric(server_host, client_host, vec![hop]);
        (w, server_host, client_host)
    }

    #[test]
    fn unloaded_client_displays_at_stream_rate() {
        let (mut w, sh, ch) = world();
        let client = w.spawn(
            ch,
            ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 20),
            VideoClient::new(VideoClientConfig::default(), vec![example1_policy()]),
        );
        w.spawn(
            sh,
            ProcConfig::new("VideoServer"),
            VideoServer::new(VideoServerConfig {
                client: Endpoint::new(ch, VIDEO_PORT),
                ..VideoServerConfig::default()
            }),
        );
        w.run_for(Dur::from_secs(30));
        let c: &VideoClient = w.logic(client).unwrap();
        // 30 fps offered, decode 30 ms -> keeps up (just barely).
        let fps = c
            .stats
            .fps_series
            .mean_from(SimTime::from_micros(5_000_000));
        assert!(
            fps > 25.0,
            "unloaded client should display ~30 fps, got {fps}"
        );
        // At most the in-flight frame separates received from displayed.
        assert!(c.stats.received - c.stats.displayed <= 1);
    }

    #[test]
    fn slow_decoder_backs_up_buffer_and_reports() {
        let (mut w, sh, ch) = world();
        let cfg = VideoClientConfig {
            decode_cost: Dur::from_millis(60), // can only do ~16 fps
            ..VideoClientConfig::default()
        };
        let client = w.spawn(
            ch,
            ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 20),
            VideoClient::new(cfg, vec![example1_policy()]),
        );
        w.spawn(
            sh,
            ProcConfig::new("VideoServer"),
            VideoServer::new(VideoServerConfig {
                client: Endpoint::new(ch, VIDEO_PORT),
                ..VideoServerConfig::default()
            }),
        );
        w.run_for(Dur::from_secs(20));
        let c: &VideoClient = w.logic(client).unwrap();
        let fps = c
            .stats
            .fps_series
            .mean_from(SimTime::from_micros(5_000_000));
        assert!(fps < 20.0, "overloaded decoder, got {fps}");
        // The coordinator noticed (no host manager configured, so reports
        // are counted but unsent — violation tracking still works).
        assert!(c.coordinator().violation_count(0) >= 1);
        // Socket buffer backed up at some point.
        let buf_max = c.sensors().read_attr("buffer_size").unwrap_or(0.0);
        assert!(buf_max > 0.0);
    }

    #[test]
    fn server_keeps_schedule_when_unloaded() {
        let (mut w, sh, ch) = world();
        let client = w.spawn(
            ch,
            ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 20),
            VideoClient::new(VideoClientConfig::default(), vec![example1_policy()]),
        );
        let server = w.spawn(
            sh,
            ProcConfig::new("VideoServer"),
            VideoServer::new(VideoServerConfig {
                client: Endpoint::new(ch, VIDEO_PORT),
                fps: 30.0,
                ..VideoServerConfig::default()
            }),
        );
        w.run_for(Dur::from_secs(10));
        let s: &VideoServer = w.logic(server).unwrap();
        assert!((s.sent as i64 - 300).abs() <= 2, "sent {}", s.sent);
        let c: &VideoClient = w.logic(client).unwrap();
        assert!(c.stats.received >= s.sent - 5);
    }
}
