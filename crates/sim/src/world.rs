//! The simulation world: hosts + network + the global event loop.
//!
//! `World` owns everything and processes events in deterministic order:
//! by time, and simultaneous events in the order they were scheduled
//! (see [`crate::event`]). All scheduling transitions (dispatch,
//! preemption, quantum expiry, starvation boost) happen here, against the
//! state stored in [`crate::host::Host`].
//!
//! A process callback runs against a [`Ctx`] that records its syscalls;
//! the world carries them out once the callback returns. The syscall
//! list is a buffer the world keeps and lends to each callback, so
//! running a process allocates nothing of the world's own.

use crate::event::{Event, EventQueue, Message, ProcEvent};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::host::{Host, ProcSlot, ProcState, Running, SocketPush};
use crate::ids::{Endpoint, HostId, Pid};
use crate::net::Network;
use crate::proc::{Ctx, PriocntlCmd, ProcConfig, ProcessLogic, Syscall};
use crate::rng::Rng;
use crate::sched::{SchedClass, TsState, RT_QUANTUM};
use crate::time::{Dur, SimTime};
use qos_telemetry::{Counter, Gauge, Telemetry};

/// Interval of per-host bookkeeping (load sampling, starvation boost, RT
/// budget windows).
const HOST_TICK: Dur = Dur::from_secs(1);

/// The complete simulated distributed system.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    hosts: Vec<Host>,
    net: Network,
    rng: Rng,
    events_processed: u64,
    /// Hosts whose CPU needs a dispatch/preemption decision at the end of
    /// the current timestamp's event batch. Deferring the decision until
    /// every simultaneous event has been processed lets a process that
    /// finishes a burst and immediately issues another one keep the CPU
    /// (it is one logical stretch of computation), instead of leaking a
    /// full quantum to a competitor through a zero-width gap.
    need_dispatch: Vec<u32>,
    /// The syscall list lent to each process callback's [`Ctx`], empty
    /// between callbacks.
    syscalls: Vec<Syscall>,
    /// Optional bounded event trace filled by [`Ctx::log`]; `None` keeps
    /// logging free.
    trace: Option<Trace>,
    /// Optional fault-injection schedule; `None` keeps sends free.
    fault: Option<FaultInjector>,
    /// Pre-resolved telemetry handles; `None` keeps the event loop free
    /// of probe overhead.
    probes: Option<SimProbes>,
}

/// Simulator-side telemetry: sampled once per host tick (event-queue
/// depth, events/sec, per-class scheduler occupancy) and incremented on
/// the cold fault paths, so the hot event loop carries no probe cost
/// beyond one `Option` check at sites that already branch.
struct SimProbes {
    telemetry: Telemetry,
    queue_depth: Gauge,
    events_per_sec: Gauge,
    events_total: Counter,
    fault_dropped: Counter,
    fault_duplicated: Counter,
    fault_delayed: Counter,
    fault_kills: Counter,
    /// Per-host (time-share, real-time) runnable-occupancy gauges.
    occupancy: Vec<(Gauge, Gauge)>,
    last_events: u64,
    last_at: SimTime,
}

/// A bounded trace of process log lines, for debugging scenarios.
#[derive(Debug, Default)]
pub struct Trace {
    entries: std::collections::VecDeque<(SimTime, Pid, String)>,
    capacity: usize,
}

impl Trace {
    pub(crate) fn push(&mut self, t: SimTime, pid: Pid, line: String) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((t, pid, line));
    }

    /// Recorded entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &(SimTime, Pid, String)> {
        self.entries.iter()
    }

    /// Render the trace as text, one line per entry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, pid, line) in &self.entries {
            out.push_str(&format!(
                "[{t}] {pid}: {line}
"
            ));
        }
        out
    }
}

impl World {
    /// Create an empty world. Every random draw in the run derives from
    /// `seed`, so identical setups replay identically.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let net_rng = rng.fork();
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            hosts: Vec::new(),
            net: Network::new(net_rng),
            rng,
            events_processed: 0,
            need_dispatch: Vec::new(),
            syscalls: Vec::new(),
            trace: None,
            fault: None,
            probes: None,
        }
    }

    /// Attach a telemetry handle: the world then samples event-queue
    /// depth, events/sec and per-class scheduler occupancy into the
    /// registry on every host tick, and counts injected faults as
    /// `sim.fault.*` series. A disabled handle detaches the probes.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.probes = t.is_enabled().then(|| SimProbes {
            telemetry: t.clone(),
            queue_depth: t.gauge("sim.queue_depth", ""),
            events_per_sec: t.gauge("sim.events_per_sec", ""),
            events_total: t.counter("sim.events", ""),
            fault_dropped: t.counter("sim.fault.msgs_dropped", ""),
            fault_duplicated: t.counter("sim.fault.msgs_duplicated", ""),
            fault_delayed: t.counter("sim.fault.msgs_delayed", ""),
            fault_kills: t.counter("sim.fault.kills", ""),
            occupancy: Vec::new(),
            last_events: self.events_processed,
            last_at: self.now,
        });
    }

    /// Enable process logging into a bounded trace of `capacity` lines
    /// (oldest entries are evicted). Disabled by default: [`Ctx::log`] is
    /// then free. Idempotent: re-enabling keeps recorded entries and
    /// only adjusts the capacity (shrinking evicts the oldest lines).
    pub fn enable_trace(&mut self, capacity: usize) {
        let capacity = capacity.max(1);
        match self.trace.as_mut() {
            Some(t) => {
                t.capacity = capacity;
                while t.entries.len() > capacity {
                    t.entries.pop_front();
                }
            }
            None => {
                self.trace = Some(Trace {
                    entries: std::collections::VecDeque::with_capacity(capacity),
                    capacity,
                })
            }
        }
    }

    /// The recorded trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Install a seeded fault-injection schedule. Scheduled kills are
    /// enqueued immediately; message faults apply to every subsequent
    /// send. The injector draws from a stream forked off the world seed,
    /// so a faulted run replays exactly. Installing a new plan replaces
    /// the old one and resets [`World::fault_stats`].
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for &(at, pid) in plan.kills() {
            self.queue.push(at, Event::FaultKill { pid });
        }
        let rng = self.rng.fork();
        self.fault = Some(FaultInjector::new(plan, rng));
    }

    /// Counters of faults injected so far (zero if no plan installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Forcibly terminate a process, as if it crashed: it loses the CPU,
    /// its pending events and timers die with it, its memory is released
    /// and its ports close. Idempotent; unknown pids are ignored.
    pub fn kill(&mut self, pid: Pid) {
        self.kill_proc(pid);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Add a host with `frames` pages of physical memory.
    pub fn add_host(&mut self, name: impl Into<String>, frames: u32) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host::new(id, name.into(), frames));
        self.queue
            .push(self.now + HOST_TICK, Event::HostTick { host: id });
        id
    }

    /// Shared network (topology building, fault injection, statistics).
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable network access.
    pub fn net_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Immutable host access.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Spawn a process. It receives [`ProcEvent::Start`] at the current
    /// simulation time.
    pub fn spawn(
        &mut self,
        host: HostId,
        config: ProcConfig,
        logic: impl ProcessLogic + 'static,
    ) -> Pid {
        self.spawn_boxed(host, config, Box::new(logic))
    }

    pub(crate) fn spawn_boxed(
        &mut self,
        host: HostId,
        config: ProcConfig,
        logic: Box<dyn ProcessLogic>,
    ) -> Pid {
        let hid = host.0 as usize;
        let pid = Pid {
            host,
            local: self.hosts[hid].procs.len() as u32,
        };
        let proc_rng = self.rng.fork();
        let h = &mut self.hosts[hid];
        h.mem.register(pid, config.working_set);
        for &(port, cap) in &config.ports {
            h.bind(pid, port, cap);
        }
        let mut pending = std::collections::VecDeque::new();
        pending.push_back(ProcEvent::Start);
        h.procs.push(ProcSlot {
            name: config.name,
            state: ProcState::Waiting,
            logic: Some(logic),
            class: config.class,
            ts: TsState::new(),
            quantum_rem: Dur::from_millis(100),
            burst_rem: Dur::ZERO,
            pending,
            deliver_scheduled: true,
            cpu_time: Dur::ZERO,
            waiting_since: self.now,
            rt_used: Dur::ZERO,
            rt_exhausted: false,
            rng: proc_rng,
        });
        self.queue.push(self.now, Event::Deliver { pid });
        pid
    }

    /// Downcast a process's logic for post-run metric extraction.
    pub fn logic<T: 'static>(&self, pid: Pid) -> Option<&T> {
        self.hosts[pid.host.0 as usize]
            .slot(pid)?
            .logic
            .as_deref()?
            .as_any()
            .downcast_ref()
    }

    /// Mutable variant of [`World::logic`].
    pub fn logic_mut<T: 'static>(&mut self, pid: Pid) -> Option<&mut T> {
        self.hosts[pid.host.0 as usize]
            .slot_mut(pid)?
            .logic
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut()
    }

    /// Run the simulation up to (and including) time `t`.
    ///
    /// Events sharing a timestamp are processed as one batch (in
    /// deterministic order); CPU dispatch and preemption decisions run
    /// after the batch, once every simultaneous state change is visible.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(batch_time) = self.queue.peek_time() {
            if batch_time > t {
                break;
            }
            debug_assert!(batch_time >= self.now, "time went backwards");
            self.now = batch_time;
            loop {
                // Drain every event at this timestamp (handlers may add
                // more at the same instant).
                while let Some(event) = self.queue.pop_at(batch_time) {
                    self.events_processed += 1;
                    self.handle(event);
                }
                // Dispatch pass; it can complete bursts at this instant,
                // which queues more events — loop until quiescent.
                if self.need_dispatch.is_empty() {
                    break;
                }
                let hosts = std::mem::take(&mut self.need_dispatch);
                for hid in hosts {
                    self.balance(hid as usize);
                }
            }
        }
        self.now = t;
    }

    /// Run the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: Dur) {
        self.run_until(self.now + d);
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::CpuTick { host, token } => self.on_cpu_tick(host, token),
            Event::Deliver { pid } => self.deliver_one(pid),
            // Timers are signal-like: they jump ahead of queued I/O
            // events, so a backlogged process still gets its periodic
            // housekeeping (sensor ticks, renotification polls) on time.
            Event::Timer { pid, tag } => {
                self.push_pending_front(pid, ProcEvent::Timer(tag));
            }
            Event::NetArrive { msg } => self.on_net_arrive(msg),
            Event::HostTick { host } => self.on_host_tick(host),
            Event::FaultKill { pid } => {
                let alive = self
                    .hosts
                    .get(pid.host.0 as usize)
                    .and_then(|h| h.procs.get(pid.local as usize))
                    .is_some_and(|s| s.state != ProcState::Dead);
                if alive {
                    if let Some(inj) = self.fault.as_mut() {
                        inj.record_kill();
                    }
                    if let Some(p) = &self.probes {
                        p.fault_kills.inc();
                    }
                    self.kill_proc(pid);
                }
            }
        }
    }

    fn on_cpu_tick(&mut self, host: HostId, token: u64) {
        let hid = host.0 as usize;
        if self.hosts[hid].cpu_token != token {
            return; // stale: the slice was preempted or cancelled
        }
        let run = self.hosts[hid]
            .running
            .take()
            .expect("valid CpuTick with no running process");
        self.hosts[hid].cpu_token += 1;
        let elapsed = self.now.since(run.since);
        debug_assert_eq!(elapsed, run.slice, "tick must fire at slice end");
        let burst_done = self.charge(run.pid, elapsed);
        if burst_done {
            self.finish_burst(run.pid);
        } else {
            // Quantum expiry: migrate priority per the dispatch table and
            // requeue at the back of the new level. An RT process that
            // exhausted its budget is parked until the window rolls over.
            let h = &mut self.hosts[hid];
            let slot = h.procs.get_mut(run.pid.local as usize).expect("slot");
            match slot.class {
                SchedClass::TimeShare => {
                    let new_pri = h.table.entry(slot.ts.cpupri).tqexp;
                    slot.ts.cpupri = new_pri;
                    slot.quantum_rem = h.table.entry(new_pri).quantum;
                }
                SchedClass::RealTime { .. } => {
                    slot.quantum_rem = RT_QUANTUM;
                }
            }
            slot.state = ProcState::Ready;
            if slot.rt_exhausted {
                h.parked.push(run.pid);
            } else {
                let level = slot.level();
                h.ready.push_back(level, run.pid, self.now);
            }
        }
        self.mark_dispatch(hid);
    }

    fn on_net_arrive(&mut self, msg: Message) {
        let hid = msg.dst.host.0 as usize;
        if hid >= self.hosts.len() {
            return; // destination host does not exist; drop silently
        }
        match self.hosts[hid].socket_push(msg) {
            SocketPush::Delivered { owner, port } => {
                self.push_pending(owner, ProcEvent::Readable(port));
            }
            SocketPush::BufferFull | SocketPush::NoSuchPort => {}
        }
    }

    fn on_host_tick(&mut self, host: HostId) {
        let hid = host.0 as usize;
        // 1. Starvation boost for long-waiting ready processes.
        let maxwait = self.hosts[hid].table.maxwait;
        let starved = self.hosts[hid].ready.drain_starved(self.now, maxwait);
        for pid in starved {
            let h = &mut self.hosts[hid];
            let slot = h.procs.get_mut(pid.local as usize).expect("slot");
            if let SchedClass::TimeShare = slot.class {
                let lwait = h.table.entry(slot.ts.cpupri).lwait;
                slot.ts.cpupri = lwait;
                slot.quantum_rem = h.table.entry(lwait).quantum;
            }
            let level = slot.level();
            h.ready.push_back(level, pid, self.now);
        }
        // 2. Load-average sample (EMA) and raw runnable-count sample.
        let h = &mut self.hosts[hid];
        let runnable = h.runnable();
        h.load.sample(runnable);
        let load = h.load.value();
        h.load_series.push(self.now, load);
        h.runnable_series.push(self.now, runnable as f64);
        // 3. RT budget window roll-over: replenish budgets and release
        // parked processes back to their RT level.
        for slot in h.procs.iter_mut() {
            if let SchedClass::RealTime {
                budget: Some(_), ..
            } = slot.class
            {
                slot.rt_used = Dur::ZERO;
                slot.rt_exhausted = false;
            }
        }
        for pid in std::mem::take(&mut h.parked) {
            let h = &mut self.hosts[hid];
            let level = h.procs[pid.local as usize].level();
            h.ready.push_back(level, pid, self.now);
        }
        // 4. Telemetry sample: per-class scheduler occupancy for this
        // host; world-wide series once per tick round (host 0).
        if let Some(p) = self.probes.as_mut() {
            while p.occupancy.len() <= hid {
                let n = p.occupancy.len();
                p.occupancy.push((
                    p.telemetry.gauge("sim.occupancy", &format!("h{n}:ts")),
                    p.telemetry.gauge("sim.occupancy", &format!("h{n}:rt")),
                ));
            }
            let (mut ts_n, mut rt_n) = (0u32, 0u32);
            for slot in self.hosts[hid].procs.iter() {
                if matches!(slot.state, ProcState::Ready | ProcState::Running) {
                    match slot.class {
                        SchedClass::TimeShare => ts_n += 1,
                        SchedClass::RealTime { .. } => rt_n += 1,
                    }
                }
            }
            p.occupancy[hid].0.set(ts_n as f64);
            p.occupancy[hid].1.set(rt_n as f64);
            if hid == 0 {
                p.queue_depth.set(self.queue.len() as f64);
                let delta = self.events_processed - p.last_events;
                p.events_total.add(delta);
                let dt = self.now.since(p.last_at).as_secs_f64();
                if dt > 0.0 {
                    p.events_per_sec.set(delta as f64 / dt);
                }
                p.last_events = self.events_processed;
                p.last_at = self.now;
            }
        }
        // 5. The boosts may warrant a preemption.
        self.mark_dispatch(hid);
        // 6. Next tick, with ±10% jitter so the sampler cannot phase-lock
        // with periodic workloads (e.g. a video client whose decode
        // window would otherwise always miss the sampling instant).
        let jitter = self.rng.range_f64(0.9, 1.1);
        self.queue.push(
            self.now + HOST_TICK.mul_f64(jitter),
            Event::HostTick { host },
        );
    }

    // ------------------------------------------------------------------
    // Scheduling primitives
    // ------------------------------------------------------------------

    /// Charge CPU time to a process; returns true when its burst is done.
    fn charge(&mut self, pid: Pid, elapsed: Dur) -> bool {
        let h = &mut self.hosts[pid.host.0 as usize];
        h.cpu_busy += elapsed;
        let slot = h.procs.get_mut(pid.local as usize).expect("slot");
        slot.cpu_time += elapsed;
        slot.burst_rem = slot.burst_rem.saturating_sub(elapsed);
        slot.quantum_rem = slot.quantum_rem.saturating_sub(elapsed);
        if let SchedClass::RealTime {
            budget: Some(b), ..
        } = slot.class
        {
            slot.rt_used += elapsed;
            if slot.rt_used >= b.per_window {
                slot.rt_exhausted = true;
            }
        }
        slot.burst_rem.is_zero()
    }

    /// Transition a process whose burst completed back to waiting and
    /// queue its `BurstDone` event. The completion is delivered *before*
    /// any events that arrived while the burst was running — the process
    /// returns from its computation before it can look at new input.
    fn finish_burst(&mut self, pid: Pid) {
        let h = &mut self.hosts[pid.host.0 as usize];
        let slot = h.procs.get_mut(pid.local as usize).expect("slot");
        slot.state = ProcState::Waiting;
        slot.waiting_since = self.now;
        slot.pending.push_front(ProcEvent::BurstDone);
        if !slot.deliver_scheduled {
            slot.deliver_scheduled = true;
            self.queue.push(self.now, Event::Deliver { pid });
        }
    }

    /// Make a waiting process with a pending burst runnable. A process
    /// that comes back immediately (no real sleep) is continuing one
    /// logical stretch of CPU-bound work, so it keeps its turn at the
    /// front of its level instead of re-queueing behind everyone with a
    /// full quantum of service left.
    fn make_runnable(&mut self, pid: Pid) {
        let hid = pid.host.0 as usize;
        let (level, slept) = self.hosts[hid].wake_level(pid, self.now);
        let h = &mut self.hosts[hid];
        let slot = h.procs.get_mut(pid.local as usize).expect("slot");
        debug_assert_eq!(slot.state, ProcState::Waiting);
        slot.state = ProcState::Ready;
        if slot.rt_exhausted {
            h.parked.push(pid);
        } else {
            if slept {
                h.ready.push_back(level, pid, self.now);
            } else {
                h.ready.push_front(level, pid, self.now);
            }
            self.mark_dispatch(hid);
        }
    }

    /// Note that a host needs a dispatch/preemption decision at the end
    /// of the current event batch.
    fn mark_dispatch(&mut self, hid: usize) {
        let hid32 = hid as u32;
        if !self.need_dispatch.contains(&hid32) {
            self.need_dispatch.push(hid32);
        }
    }

    /// End-of-batch CPU decision: preempt if a stronger process is ready,
    /// then fill an idle CPU.
    fn balance(&mut self, hid: usize) {
        let h = &self.hosts[hid];
        if let (Some(run), Some(best)) = (h.running, h.ready.best_level()) {
            if best > run.level {
                self.preempt_current(hid);
            }
        }
        self.dispatch(hid);
    }

    /// Dispatch the best ready process if the CPU is idle.
    fn dispatch(&mut self, hid: usize) {
        let now = self.now;
        let h = &mut self.hosts[hid];
        if h.running.is_some() {
            return;
        }
        let Some((level, pid)) = h.ready.pop_best() else {
            return;
        };
        let slot = h.procs.get_mut(pid.local as usize).expect("slot");
        debug_assert_eq!(slot.state, ProcState::Ready);
        slot.state = ProcState::Running;
        let slice = slot.quantum_rem.min(slot.burst_rem);
        debug_assert!(!slice.is_zero(), "dispatch with zero slice");
        h.cpu_token += 1;
        let token = h.cpu_token;
        h.running = Some(Running {
            pid,
            level,
            since: now,
            slice,
        });
        self.queue.push(
            now + slice,
            Event::CpuTick {
                host: HostId(hid as u32),
                token,
            },
        );
    }

    /// Take the running process off the CPU, charging it for the time
    /// used. It keeps its remaining quantum and rejoins the front of its
    /// level (it did not voluntarily yield).
    fn preempt_current(&mut self, hid: usize) {
        let Some(run) = self.hosts[hid].running.take() else {
            return;
        };
        self.hosts[hid].cpu_token += 1;
        let elapsed = self.now.since(run.since);
        let done = self.charge(run.pid, elapsed);
        if done {
            self.finish_burst(run.pid);
        } else {
            let h = &mut self.hosts[hid];
            let slot = h.procs.get_mut(run.pid.local as usize).expect("slot");
            slot.state = ProcState::Ready;
            // Preempted at the exact instant its quantum ran out: treat as
            // a quantum expiry so it never re-enters with a zero slice.
            let expired = slot.quantum_rem.is_zero();
            if expired {
                match slot.class {
                    SchedClass::TimeShare => {
                        let new_pri = h.table.entry(slot.ts.cpupri).tqexp;
                        slot.ts.cpupri = new_pri;
                        slot.quantum_rem = h.table.entry(new_pri).quantum;
                    }
                    SchedClass::RealTime { .. } => slot.quantum_rem = RT_QUANTUM,
                }
            }
            if slot.rt_exhausted {
                h.parked.push(run.pid);
            } else {
                let level = slot.level();
                if expired {
                    h.ready.push_back(level, run.pid, self.now);
                } else {
                    h.ready.push_front(level, run.pid, self.now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Process event delivery
    // ------------------------------------------------------------------

    fn push_pending(&mut self, pid: Pid, ev: ProcEvent) {
        self.push_pending_at(pid, ev, false);
    }

    fn push_pending_front(&mut self, pid: Pid, ev: ProcEvent) {
        self.push_pending_at(pid, ev, true);
    }

    fn push_pending_at(&mut self, pid: Pid, ev: ProcEvent, front: bool) {
        let h = &mut self.hosts[pid.host.0 as usize];
        let Some(slot) = h.procs.get_mut(pid.local as usize) else {
            return;
        };
        if slot.state == ProcState::Dead {
            return;
        }
        if front {
            slot.pending.push_front(ev);
        } else {
            slot.pending.push_back(ev);
        }
        if slot.state == ProcState::Waiting && !slot.deliver_scheduled {
            slot.deliver_scheduled = true;
            self.queue.push(self.now, Event::Deliver { pid });
        }
    }

    fn deliver_one(&mut self, pid: Pid) {
        let hid = pid.host.0 as usize;
        let slot = self.hosts[hid]
            .procs
            .get_mut(pid.local as usize)
            .expect("slot");
        slot.deliver_scheduled = false;
        if slot.state != ProcState::Waiting {
            // It became runnable in the meantime; remaining events will be
            // delivered when it next waits.
            return;
        }
        let Some(ev) = slot.pending.pop_front() else {
            return;
        };
        self.invoke(pid, ev);
        let slot = self.hosts[hid]
            .procs
            .get_mut(pid.local as usize)
            .expect("slot");
        if slot.state == ProcState::Waiting && !slot.pending.is_empty() && !slot.deliver_scheduled {
            slot.deliver_scheduled = true;
            self.queue.push(self.now, Event::Deliver { pid });
        }
    }

    fn invoke(&mut self, pid: Pid, ev: ProcEvent) {
        let hid = pid.host.0 as usize;
        let host = &mut self.hosts[hid];
        let slot = host.procs.get_mut(pid.local as usize).expect("slot");
        let mut logic = slot.logic.take().expect("re-entrant process invocation");
        let mut rng = std::mem::replace(&mut slot.rng, Rng::new(0));
        let mut ctx = Ctx {
            now: self.now,
            pid,
            host,
            rng: &mut rng,
            syscalls: std::mem::take(&mut self.syscalls),
            blocking_issued: false,
            log_lines: Vec::new(),
            logging: self.trace.is_some(),
        };
        logic.on_event(&mut ctx, ev);
        let syscalls = ctx.syscalls;
        let log_lines = ctx.log_lines;
        let slot = self.hosts[hid]
            .procs
            .get_mut(pid.local as usize)
            .expect("slot");
        slot.logic = Some(logic);
        slot.rng = rng;
        if let Some(trace) = self.trace.as_mut() {
            for line in log_lines {
                trace.push(self.now, pid, line);
            }
        }
        self.apply_syscalls(pid, syscalls);
    }

    /// Carry out one callback's syscalls, then keep the emptied list for
    /// the next callback.
    fn apply_syscalls(&mut self, pid: Pid, mut syscalls: Vec<Syscall>) {
        for sc in syscalls.drain(..) {
            match sc {
                Syscall::Run(d) => {
                    let hid = pid.host.0 as usize;
                    let penalty = self.hosts[hid].mem.burst_penalty(pid, d);
                    let total = d + penalty;
                    if total.is_zero() {
                        self.push_pending(pid, ProcEvent::BurstDone);
                    } else {
                        let slot = self.hosts[hid]
                            .procs
                            .get_mut(pid.local as usize)
                            .expect("slot");
                        if slot.state == ProcState::Dead {
                            continue;
                        }
                        slot.burst_rem = total;
                        self.make_runnable(pid);
                    }
                }
                Syscall::SetTimer(d, tag) => {
                    self.queue.push(self.now + d, Event::Timer { pid, tag });
                }
                Syscall::Send {
                    dst,
                    src_port,
                    bytes,
                    payload,
                } => {
                    let now = self.now;
                    let verdict = self.fault.as_mut().map(|inj| inj.on_send(&dst, now));
                    if verdict.is_some_and(|v| v.dropped) {
                        if let Some(p) = &self.probes {
                            p.fault_dropped.inc();
                        }
                        continue;
                    }
                    let extra = verdict.map_or(Dur::ZERO, |v| v.extra_delay);
                    if let Some(p) = &self.probes {
                        if verdict.is_some_and(|v| v.duplicate) {
                            p.fault_duplicated.inc();
                        }
                        if !extra.is_zero() {
                            p.fault_delayed.inc();
                        }
                    }
                    let msg = Message {
                        src: Endpoint::new(pid.host, src_port),
                        dst,
                        bytes,
                        sent_at: self.now,
                        payload,
                    };
                    // A duplicated message is a second packet: it takes
                    // its own trip through the network model (own
                    // queueing and jitter draws).
                    if verdict.is_some_and(|v| v.duplicate) {
                        let copy = msg.clone();
                        if let Some(arrival) = self.net.transit(&copy, self.now) {
                            self.queue
                                .push(arrival + extra, Event::NetArrive { msg: copy });
                        }
                    }
                    if let Some(arrival) = self.net.transit(&msg, self.now) {
                        self.queue.push(arrival + extra, Event::NetArrive { msg });
                    }
                }
                Syscall::Exit => self.kill_proc(pid),
                Syscall::Priocntl { target, cmd } => self.do_priocntl(target, cmd),
                Syscall::MemCtl {
                    target,
                    delta_pages,
                } => {
                    self.hosts[target.host.0 as usize]
                        .mem
                        .adjust_resident(target, delta_pages);
                }
                Syscall::Reroute { a, b, hops } => {
                    self.net.set_route_symmetric(a, b, hops);
                }
                Syscall::Spawn {
                    host,
                    config,
                    logic,
                } => {
                    self.spawn_boxed(host, config, logic);
                }
                Syscall::Kill(target) => self.kill_proc(target),
            }
        }
        self.syscalls = syscalls;
    }

    fn do_priocntl(&mut self, target: Pid, cmd: PriocntlCmd) {
        let hid = target.host.0 as usize;
        let Some(slot) = self.hosts[hid].procs.get_mut(target.local as usize) else {
            return;
        };
        if slot.state == ProcState::Dead {
            return;
        }
        match cmd {
            PriocntlCmd::SetUpri(v) => slot.ts.upri = v.clamp(-60, 60),
            PriocntlCmd::AdjustUpri(d) => {
                slot.ts.upri = (slot.ts.upri + d).clamp(-60, 60);
            }
            PriocntlCmd::SetClass(c) => {
                slot.class = c;
                slot.rt_used = Dur::ZERO;
                slot.rt_exhausted = false;
            }
        }
        let new_level = slot.level();
        match slot.state {
            ProcState::Ready => {
                let h = &mut self.hosts[hid];
                let exhausted = h.procs[target.local as usize].rt_exhausted;
                if exhausted {
                    // Still budget-parked; the new priority applies when
                    // the window rolls over.
                } else {
                    // Whether it sat in the ready queues or the RT parking
                    // lot, it re-enters the ready queues at its new level
                    // (a class change clears budget exhaustion).
                    h.unpark(target);
                    h.ready.remove(target);
                    h.ready.push_back(new_level, target, self.now);
                    self.mark_dispatch(hid);
                }
            }
            ProcState::Running => {
                let h = &mut self.hosts[hid];
                if let Some(run) = h.running.as_mut() {
                    if run.pid == target {
                        run.level = new_level;
                    }
                }
                self.mark_dispatch(hid);
            }
            ProcState::Waiting | ProcState::Dead => {}
        }
    }

    fn kill_proc(&mut self, pid: Pid) {
        let hid = pid.host.0 as usize;
        let Some(slot) = self.hosts[hid].procs.get_mut(pid.local as usize) else {
            return;
        };
        if slot.state == ProcState::Dead {
            return;
        }
        // If it is on the CPU, charge what it used and free the CPU.
        if let Some(run) = self.hosts[hid].running {
            if run.pid == pid {
                self.hosts[hid].running = None;
                self.hosts[hid].cpu_token += 1;
                let elapsed = self.now.since(run.since);
                self.charge(pid, elapsed);
            }
        }
        let h = &mut self.hosts[hid];
        let slot = h.procs.get_mut(pid.local as usize).expect("slot");
        slot.state = ProcState::Dead;
        slot.pending.clear();
        h.ready.remove(pid);
        h.unpark(pid);
        h.mem.release(pid);
        h.sockets.retain(|_, s| s.owner != pid);
        self.mark_dispatch(hid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProcEvent;
    use crate::sched::RtBudget;

    /// Runs `bursts` bursts of `burst` CPU each, back to back, counting
    /// completions.
    struct Cruncher {
        burst: Dur,
        bursts: u32,
        done: u32,
    }

    impl ProcessLogic for Cruncher {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.run(self.burst),
                ProcEvent::BurstDone => {
                    self.done += 1;
                    if self.done < self.bursts {
                        ctx.run(self.burst);
                    }
                }
                _ => {}
            }
        }
    }

    /// Periodically does small bursts; records completion latencies.
    struct Interactive {
        period: Dur,
        work: Dur,
        issued_at: SimTime,
        latencies: Vec<Dur>,
    }

    impl ProcessLogic for Interactive {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::Timer(_) => {
                    self.issued_at = ctx.now();
                    ctx.run(self.work);
                }
                ProcEvent::BurstDone => {
                    self.latencies.push(ctx.now().since(self.issued_at));
                    ctx.set_timer(self.period, 0);
                }
                _ => {}
            }
        }
    }

    /// Infinite CPU hog (very long bursts chained).
    struct Hog;
    impl ProcessLogic for Hog {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::BurstDone => ctx.run(Dur::from_secs(100)),
                _ => {}
            }
        }
    }

    #[test]
    fn single_burst_completes_on_time() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        let pid = w.spawn(
            h,
            ProcConfig::new("cruncher"),
            Cruncher {
                burst: Dur::from_millis(10),
                bursts: 1,
                done: 0,
            },
        );
        w.run_for(Dur::from_millis(50));
        let c: &Cruncher = w.logic(pid).unwrap();
        assert_eq!(c.done, 1);
        assert_eq!(w.host(h).proc_cpu_time(pid).unwrap(), Dur::from_millis(10));
    }

    #[test]
    fn two_crunchers_share_cpu() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        let a = w.spawn(
            h,
            ProcConfig::new("a"),
            Cruncher {
                burst: Dur::from_millis(500),
                bursts: 4,
                done: 0,
            },
        );
        let b = w.spawn(
            h,
            ProcConfig::new("b"),
            Cruncher {
                burst: Dur::from_millis(500),
                bursts: 4,
                done: 0,
            },
        );
        w.run_for(Dur::from_secs(10));
        assert_eq!(w.logic::<Cruncher>(a).unwrap().done, 4);
        assert_eq!(w.logic::<Cruncher>(b).unwrap().done, 4);
        // Total CPU consumed is exactly the demand.
        let total = w.host(h).proc_cpu_time(a).unwrap() + w.host(h).proc_cpu_time(b).unwrap();
        assert_eq!(total, Dur::from_secs(4));
    }

    #[test]
    fn interactive_process_preempts_hog() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        w.spawn(h, ProcConfig::new("hog"), Hog);
        let i = w.spawn(
            h,
            ProcConfig::new("inter"),
            Interactive {
                period: Dur::from_millis(100),
                work: Dur::from_millis(2),
                issued_at: SimTime::ZERO,
                latencies: Vec::new(),
            },
        );
        w.run_for(Dur::from_secs(20));
        let inter: &Interactive = w.logic(i).unwrap();
        assert!(inter.latencies.len() > 100, "got {}", inter.latencies.len());
        // After warm-up, sleep-return boosts should give the interactive
        // process low latency most of the time despite the hog.
        let fast = inter
            .latencies
            .iter()
            .skip(20)
            .filter(|&&l| l <= Dur::from_millis(30))
            .count();
        let total = inter.latencies.len() - 20;
        assert!(
            fast * 10 >= total * 7,
            "only {fast}/{total} interactive bursts were fast"
        );
    }

    #[test]
    fn hog_sinks_to_low_priority() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        let hog = w.spawn(h, ProcConfig::new("hog"), Hog);
        w.run_for(Dur::from_secs(5));
        let slot = w.host(h).slot(hog).unwrap();
        assert!(slot.ts.cpupri <= 10, "hog cpupri {}", slot.ts.cpupri);
    }

    #[test]
    fn rt_class_dominates_ts() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        w.spawn(h, ProcConfig::new("hog"), Hog);
        let i = w.spawn(
            h,
            ProcConfig::new("rt").class(SchedClass::RealTime {
                rtpri: 10,
                budget: None,
            }),
            Interactive {
                period: Dur::from_millis(50),
                work: Dur::from_millis(5),
                issued_at: SimTime::ZERO,
                latencies: Vec::new(),
            },
        );
        w.run_for(Dur::from_secs(10));
        let inter: &Interactive = w.logic(i).unwrap();
        assert!(!inter.latencies.is_empty());
        // RT always preempts immediately: every burst takes exactly its
        // own CPU time.
        for &l in &inter.latencies {
            assert_eq!(l, Dur::from_millis(5));
        }
    }

    #[test]
    fn rt_budget_is_enforced() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        // RT process wants 100% CPU but is budgeted to 30% per second.
        let rt = w.spawn(
            h,
            ProcConfig::new("rt").class(SchedClass::RealTime {
                rtpri: 5,
                budget: Some(RtBudget {
                    per_window: Dur::from_millis(300),
                    window: Dur::from_secs(1),
                }),
            }),
            Hog,
        );
        let ts = w.spawn(h, ProcConfig::new("ts"), Hog);
        w.run_for(Dur::from_secs(10));
        let rt_time = w.host(h).proc_cpu_time(rt).unwrap().as_secs_f64();
        let ts_time = w.host(h).proc_cpu_time(ts).unwrap().as_secs_f64();
        assert!(
            (rt_time - 3.0).abs() < 0.5,
            "rt should get ~30%: got {rt_time}s of 10s"
        );
        assert!(ts_time > 6.0, "ts gets the rest: got {ts_time}s");
    }

    #[test]
    fn load_average_tracks_hogs() {
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        for _ in 0..4 {
            w.spawn(h, ProcConfig::new("hog"), Hog);
        }
        w.run_for(Dur::from_secs(300));
        let load = w.host(h).load_avg();
        assert!((load - 4.0).abs() < 0.3, "load {load}");
    }

    #[test]
    fn messages_cross_hosts() {
        struct Pong {
            got: u32,
        }
        impl ProcessLogic for Pong {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Readable(port) = ev {
                    let msg = ctx.recv(port).expect("readable guarantees a message");
                    assert_eq!(msg.payload.get::<u32>(), Some(&7));
                    self.got += 1;
                }
            }
        }
        struct Ping {
            dst: Endpoint,
        }
        impl ProcessLogic for Ping {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Start = ev {
                    for _ in 0..5 {
                        ctx.send(self.dst, 1, 100, 7u32);
                    }
                    ctx.exit();
                }
            }
        }
        let mut w = World::new(1);
        let ha = w.add_host("a", 1 << 16);
        let hb = w.add_host("b", 1 << 16);
        let hop = w
            .net_mut()
            .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
        w.net_mut().set_route_symmetric(ha, hb, vec![hop]);
        let pong = w.spawn(
            hb,
            ProcConfig::new("pong").port(9, 1 << 16),
            Pong { got: 0 },
        );
        let _ping = w.spawn(
            ha,
            ProcConfig::new("ping"),
            Ping {
                dst: Endpoint::new(hb, 9),
            },
        );
        w.run_for(Dur::from_secs(1));
        assert_eq!(w.logic::<Pong>(pong).unwrap().got, 5);
    }

    mod faults {
        use super::*;
        use crate::fault::{FaultPlan, MsgSelector, Window};

        struct Pong {
            got: u32,
        }
        impl ProcessLogic for Pong {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Readable(port) = ev {
                    let _ = ctx.recv(port);
                    self.got += 1;
                }
            }
        }
        struct Ping {
            dst: Endpoint,
            count: u32,
        }
        impl ProcessLogic for Ping {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start | ProcEvent::Timer(_) if self.count > 0 => {
                        self.count -= 1;
                        ctx.send(self.dst, 1, 100, 7u32);
                        ctx.set_timer(Dur::from_millis(10), 0);
                    }
                    _ => {}
                }
            }
        }

        /// Two hosts, a LAN hop, one receiver on port 9, one sender
        /// sending `sends` messages 10 ms apart.
        fn pingpong(seed: u64, sends: u32) -> (World, Pid) {
            let mut w = World::new(seed);
            let ha = w.add_host("a", 1 << 16);
            let hb = w.add_host("b", 1 << 16);
            let hop = w
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
            w.net_mut().set_route_symmetric(ha, hb, vec![hop]);
            let pong = w.spawn(
                hb,
                ProcConfig::new("pong").port(9, 1 << 16),
                Pong { got: 0 },
            );
            w.spawn(
                ha,
                ProcConfig::new("ping"),
                Ping {
                    dst: Endpoint::new(hb, 9),
                    count: sends,
                },
            );
            (w, pong)
        }

        #[test]
        fn certain_loss_drops_everything() {
            let (mut w, pong) = pingpong(1, 20);
            w.install_faults(FaultPlan::new().lose(
                Window::always(),
                MsgSelector::ports(vec![9]),
                1.0,
            ));
            w.run_for(Dur::from_secs(1));
            assert_eq!(w.logic::<Pong>(pong).unwrap().got, 0);
            assert_eq!(w.fault_stats().msgs_dropped, 20);
        }

        #[test]
        fn selector_spares_other_ports() {
            let (mut w, pong) = pingpong(1, 20);
            w.install_faults(FaultPlan::new().lose(
                Window::always(),
                MsgSelector::ports(vec![99]),
                1.0,
            ));
            w.run_for(Dur::from_secs(1));
            assert_eq!(w.logic::<Pong>(pong).unwrap().got, 20);
            assert_eq!(w.fault_stats().msgs_dropped, 0);
        }

        #[test]
        fn duplication_delivers_extra_copies() {
            let (mut w, pong) = pingpong(1, 5);
            w.install_faults(FaultPlan::new().duplicate(Window::always(), MsgSelector::any(), 1.0));
            w.run_for(Dur::from_secs(1));
            assert_eq!(w.logic::<Pong>(pong).unwrap().got, 10);
            assert_eq!(w.fault_stats().msgs_duplicated, 5);
        }

        #[test]
        fn extra_delay_postpones_delivery() {
            let (mut w, pong) = pingpong(1, 1);
            w.install_faults(FaultPlan::new().delay(
                Window::always(),
                MsgSelector::any(),
                1.0,
                Dur::from_millis(500),
            ));
            w.run_for(Dur::from_millis(400));
            assert_eq!(w.logic::<Pong>(pong).unwrap().got, 0, "still in flight");
            w.run_for(Dur::from_millis(200));
            assert_eq!(w.logic::<Pong>(pong).unwrap().got, 1);
            assert_eq!(w.fault_stats().msgs_delayed, 1);
        }

        #[test]
        fn scheduled_kill_fires_once() {
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            let hog = w.spawn(h, ProcConfig::new("hog"), Hog);
            w.install_faults(
                FaultPlan::new()
                    .kill_at(SimTime::from_micros(500_000), hog)
                    // A second kill of the same (then-dead) pid is a no-op.
                    .kill_at(SimTime::from_micros(600_000), hog),
            );
            w.run_for(Dur::from_secs(1));
            assert_eq!(w.host(h).proc_state(hog), Some(ProcState::Dead));
            assert_eq!(w.fault_stats().kills, 1);
            let cpu = w.host(h).proc_cpu_time(hog).unwrap().as_secs_f64();
            assert!((cpu - 0.5).abs() < 0.05, "ran ~0.5s then died: {cpu}");
        }

        #[test]
        fn faulted_runs_replay_from_seed() {
            let run = |seed| {
                let (mut w, pong) = pingpong(seed, 50);
                w.install_faults(FaultPlan::new().lose(Window::always(), MsgSelector::any(), 0.4));
                w.run_for(Dur::from_secs(2));
                (w.logic::<Pong>(pong).unwrap().got, w.fault_stats())
            };
            assert_eq!(run(3), run(3));
            let (got, stats) = run(3);
            assert!(got < 50, "some loss expected");
            assert_eq!(got as u64 + stats.msgs_dropped, 50);
        }
    }

    #[test]
    fn priocntl_boost_rescues_cpu_bound_process() {
        // A continuously-demanding worker (it never sleeps, so it earns no
        // interactivity boost) against 8 hogs gets roughly a fair share.
        // A manager-style +60 upri pins it above the hogs' starvation
        // boosts and it should then dominate the CPU. This is the core
        // mechanism behind the paper's Figure 3.
        struct Booster {
            target: Pid,
        }
        impl ProcessLogic for Booster {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Start = ev {
                    ctx.priocntl(self.target, PriocntlCmd::SetUpri(60));
                    ctx.exit();
                }
            }
        }
        fn run(boost: bool) -> f64 {
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            for _ in 0..8 {
                w.spawn(h, ProcConfig::new("hog"), Hog);
            }
            let worker = w.spawn(h, ProcConfig::new("worker"), Hog);
            if boost {
                w.spawn(h, ProcConfig::new("booster"), Booster { target: worker });
            }
            w.run_for(Dur::from_secs(30));
            w.host(h).proc_cpu_time(worker).unwrap().as_secs_f64() / 30.0
        }
        let without = run(false);
        let with = run(true);
        assert!(
            (0.05..0.25).contains(&without),
            "unboosted worker should get roughly a fair share: {without}"
        );
        assert!(with > 0.8, "boosted worker should dominate: {with}");
    }

    #[test]
    fn kill_frees_cpu_and_memory() {
        struct Killer {
            victim: Pid,
        }
        impl ProcessLogic for Killer {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Timer(_) = ev {
                    ctx.kill(self.victim);
                    ctx.exit();
                } else if let ProcEvent::Start = ev {
                    ctx.set_timer(Dur::from_secs(1), 0);
                }
            }
        }
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        let victim = w.spawn(h, ProcConfig::new("victim").working_set(100), Hog);
        w.spawn(h, ProcConfig::new("killer"), Killer { victim });
        w.run_for(Dur::from_secs(5));
        assert_eq!(w.host(h).proc_state(victim), Some(ProcState::Dead));
        assert!(w.host(h).proc_mem(victim).is_none());
        // CPU time stops accumulating at death (~1s, not 5s).
        let t = w.host(h).proc_cpu_time(victim).unwrap().as_secs_f64();
        assert!((0.9..1.5).contains(&t), "victim cpu {t}");
    }

    #[test]
    fn identical_seeds_replay_identically() {
        fn run(seed: u64) -> (u64, Dur) {
            let mut w = World::new(seed);
            let h = w.add_host("a", 1 << 16);
            for _ in 0..3 {
                w.spawn(h, ProcConfig::new("hog"), Hog);
            }
            let i = w.spawn(
                h,
                ProcConfig::new("inter"),
                Interactive {
                    period: Dur::from_millis(37),
                    work: Dur::from_millis(3),
                    issued_at: SimTime::ZERO,
                    latencies: Vec::new(),
                },
            );
            w.run_for(Dur::from_secs(20));
            (w.events_processed(), w.host(h).proc_cpu_time(i).unwrap())
        }
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, 0);
    }

    mod trace_and_telemetry {
        use super::*;
        use crate::fault::{FaultPlan, MsgSelector, Window};
        use qos_telemetry::Telemetry;

        /// Logs one numbered line per timer tick.
        struct Chatty {
            n: u32,
        }
        impl ProcessLogic for Chatty {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start | ProcEvent::Timer(_) => {
                        let n = self.n;
                        self.n += 1;
                        ctx.log(|| format!("line {n}"));
                        ctx.set_timer(Dur::from_millis(10), 0);
                    }
                    _ => {}
                }
            }
        }

        #[test]
        fn trace_bounded_capacity_evicts_oldest_first() {
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            w.enable_trace(3);
            w.spawn(h, ProcConfig::new("chatty"), Chatty { n: 0 });
            // 10 ticks of logging against capacity 3.
            w.run_for(Dur::from_millis(95));
            let lines: Vec<&str> = w
                .trace()
                .expect("trace enabled")
                .entries()
                .map(|(_, _, l)| l.as_str())
                .collect();
            assert_eq!(
                lines,
                ["line 7", "line 8", "line 9"],
                "only the newest `capacity` lines survive, oldest first"
            );
        }

        #[test]
        fn enable_trace_is_idempotent_and_resizes() {
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            w.enable_trace(10);
            w.spawn(h, ProcConfig::new("chatty"), Chatty { n: 0 });
            w.run_for(Dur::from_millis(45)); // lines 0..=4
                                             // Re-enabling with the same capacity keeps existing entries.
            w.enable_trace(10);
            assert_eq!(w.trace().unwrap().entries().count(), 5);
            // Shrinking evicts the oldest entries but keeps the rest.
            w.enable_trace(2);
            let lines: Vec<&str> = w
                .trace()
                .unwrap()
                .entries()
                .map(|(_, _, l)| l.as_str())
                .collect();
            assert_eq!(lines, ["line 3", "line 4"]);
            // The shrunk capacity governs subsequent pushes.
            w.run_for(Dur::from_millis(20));
            assert_eq!(w.trace().unwrap().entries().count(), 2);
            // Zero capacity is clamped to one.
            w.enable_trace(0);
            w.run_for(Dur::from_millis(10));
            assert_eq!(w.trace().unwrap().entries().count(), 1);
        }

        #[test]
        fn trace_renders_one_line_per_entry() {
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            w.enable_trace(16);
            let pid = w.spawn(h, ProcConfig::new("chatty"), Chatty { n: 0 });
            w.run_for(Dur::from_millis(15));
            let text = w.trace().unwrap().render();
            assert_eq!(text.lines().count(), 2, "two ticks logged:\n{text}");
            assert!(text.contains("line 0") && text.contains("line 1"));
            assert!(
                text.contains(&format!("{pid}")),
                "rendered lines carry the pid: {text}"
            );
        }

        #[test]
        fn host_tick_samples_sim_series() {
            let t = Telemetry::enabled();
            let mut w = World::new(1);
            let h = w.add_host("a", 1 << 16);
            w.set_telemetry(&t);
            w.spawn(h, ProcConfig::new("hog"), Hog);
            w.spawn(
                h,
                ProcConfig::new("rt").class(SchedClass::RealTime {
                    rtpri: 5,
                    budget: None,
                }),
                Hog,
            );
            w.run_for(Dur::from_secs(5));
            #[cfg(not(feature = "telemetry-off"))]
            {
                assert!(
                    t.counter_value("sim.events", "") > 0,
                    "event counter mirrors the loop"
                );
                assert!(t.gauge_value("sim.events_per_sec", "") > 0.0);
                // Two always-runnable hogs, one per class.
                assert_eq!(t.gauge_value("sim.occupancy", "h0:ts"), 1.0);
                assert_eq!(t.gauge_value("sim.occupancy", "h0:rt"), 1.0);
            }
        }

        #[test]
        fn fault_counters_mirror_fault_stats() {
            let t = Telemetry::enabled();
            let mut w = World::new(1);
            let ha = w.add_host("a", 1 << 16);
            let hb = w.add_host("b", 1 << 16);
            let hop = w
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
            w.net_mut().set_route_symmetric(ha, hb, vec![hop]);
            w.set_telemetry(&t);
            struct Spammer {
                dst: Endpoint,
            }
            impl ProcessLogic for Spammer {
                fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                    match ev {
                        ProcEvent::Start | ProcEvent::Timer(_) => {
                            ctx.send(self.dst, 1, 100, 7u32);
                            ctx.set_timer(Dur::from_millis(10), 0);
                        }
                        _ => {}
                    }
                }
            }
            let victim = w.spawn(hb, ProcConfig::new("sink").port(9, 1 << 16), Hog);
            w.spawn(
                ha,
                ProcConfig::new("spam"),
                Spammer {
                    dst: Endpoint::new(hb, 9),
                },
            );
            w.install_faults(
                FaultPlan::new()
                    .lose(Window::always(), MsgSelector::ports(vec![9]), 0.5)
                    .duplicate(Window::always(), MsgSelector::ports(vec![9]), 0.5)
                    .delay(
                        Window::always(),
                        MsgSelector::ports(vec![9]),
                        0.5,
                        Dur::from_millis(2),
                    )
                    .kill_at(SimTime::from_micros(500_000), victim),
            );
            w.run_for(Dur::from_secs(1));
            let stats = w.fault_stats();
            assert!(stats.msgs_dropped > 0 && stats.msgs_duplicated > 0);
            #[cfg(not(feature = "telemetry-off"))]
            {
                assert_eq!(
                    t.counter_value("sim.fault.msgs_dropped", ""),
                    stats.msgs_dropped
                );
                assert_eq!(
                    t.counter_value("sim.fault.msgs_duplicated", ""),
                    stats.msgs_duplicated
                );
                assert_eq!(
                    t.counter_value("sim.fault.msgs_delayed", ""),
                    stats.msgs_delayed
                );
                assert_eq!(t.counter_value("sim.fault.kills", ""), stats.kills);
            }
        }
    }

    #[test]
    fn spawn_syscall_creates_live_process() {
        struct Spawner;
        impl ProcessLogic for Spawner {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                if let ProcEvent::Start = ev {
                    let host = ctx.host_id();
                    ctx.spawn(
                        host,
                        ProcConfig::new("child"),
                        Box::new(Cruncher {
                            burst: Dur::from_millis(5),
                            bursts: 2,
                            done: 0,
                        }),
                    );
                    ctx.exit();
                }
            }
        }
        let mut w = World::new(1);
        let h = w.add_host("a", 1 << 16);
        w.spawn(h, ProcConfig::new("spawner"), Spawner);
        w.run_for(Dur::from_secs(1));
        let child = Pid { host: h, local: 1 };
        assert_eq!(w.logic::<Cruncher>(child).unwrap().done, 2);
    }
}
