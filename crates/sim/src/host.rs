//! A simulated host: process table, CPU scheduler state, socket buffers,
//! physical memory and load statistics.
//!
//! The host holds the state; the global event loop in [`crate::world`]
//! drives the transitions. The methods here are the "kernel services"
//! visible to processes through [`crate::proc::Ctx`].

use std::collections::{HashMap, VecDeque};

use crate::event::{Message, ProcEvent};
use crate::ids::{HostId, Pid, Port};
use crate::memory::{Memory, ProcMem};
use crate::proc::{HostSnapshot, ProcessLogic};
use crate::rng::Rng;
use crate::sched::{DispatchTable, ReadyQueues, SchedClass, TsState, RT_BASE};
use crate::stats::{LoadAvg, Series};
use crate::time::{Dur, SimTime};

/// Lifecycle state of a process slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Waiting for events (not runnable).
    Waiting,
    /// Runnable, queued for the CPU.
    Ready,
    /// Currently on the CPU.
    Running,
    /// Exited or killed. The slot (and its logic) is retained so
    /// experiments can read back accumulated metrics.
    Dead,
}

/// Minimum time a process must have been waiting for its wake-up to count
/// as a "return from sleep" and earn the dispatch table's `slpret` boost.
/// A CPU-bound process that chains bursts back-to-back does not qualify.
const SLEEP_BOOST_MIN: Dur = Dur::from_micros(500);

pub(crate) struct ProcSlot {
    pub name: String,
    pub state: ProcState,
    pub logic: Option<Box<dyn ProcessLogic>>,
    pub class: SchedClass,
    pub ts: TsState,
    /// Remaining quantum at the current level.
    pub quantum_rem: Dur,
    /// Remaining CPU demand of the current burst.
    pub burst_rem: Dur,
    /// Events queued for delivery.
    pub pending: VecDeque<ProcEvent>,
    /// True when a `Deliver` event for this process is already in flight.
    pub deliver_scheduled: bool,
    /// Cumulative CPU time consumed.
    pub cpu_time: Dur,
    /// When the process last entered `Waiting` (for the sleep boost).
    pub waiting_since: SimTime,
    /// RT budget accounting for the current window.
    pub rt_used: Dur,
    pub rt_exhausted: bool,
    /// Private deterministic random stream.
    pub rng: Rng,
}

impl ProcSlot {
    /// Global priority level this process queues at.
    pub fn level(&self) -> u16 {
        match self.class {
            SchedClass::TimeShare => self.ts.level() as u16,
            SchedClass::RealTime { rtpri, .. } => RT_BASE + (rtpri as u16).min(59),
        }
    }
}

/// The process currently holding the CPU.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Running {
    pub pid: Pid,
    pub level: u16,
    pub since: SimTime,
    /// Length of the scheduled slice (min of quantum and burst remainder).
    pub slice: Dur,
}

/// A bound socket with a bounded in-queue.
pub(crate) struct SockBuf {
    pub owner: Pid,
    pub cap_bytes: u64,
    pub queue: VecDeque<Message>,
    pub bytes: u64,
    pub dropped: u64,
}

/// Outcome of delivering a message to a host's socket table.
pub(crate) enum SocketPush {
    Delivered { owner: Pid, port: Port },
    BufferFull,
    NoSuchPort,
}

/// A simulated machine.
pub struct Host {
    pub(crate) id: HostId,
    pub(crate) name: String,
    pub(crate) procs: Vec<ProcSlot>,
    pub(crate) ready: ReadyQueues,
    pub(crate) running: Option<Running>,
    /// Invalidation token for in-flight CpuTick events.
    pub(crate) cpu_token: u64,
    pub(crate) table: DispatchTable,
    pub(crate) sockets: HashMap<Port, SockBuf>,
    /// RT processes suspended until their budget window rolls over.
    pub(crate) parked: Vec<Pid>,
    pub(crate) mem: Memory,
    pub(crate) load: LoadAvg,
    pub(crate) load_series: Series,
    /// Raw runnable-count samples (unbiased, unlike the EMA).
    pub(crate) runnable_series: Series,
    pub(crate) cpu_busy: Dur,
}

impl Host {
    pub(crate) fn new(id: HostId, name: String, frames: u32) -> Self {
        Host {
            id,
            name,
            procs: Vec::new(),
            ready: ReadyQueues::new(),
            running: None,
            cpu_token: 0,
            table: DispatchTable::solaris_like(),
            sockets: HashMap::new(),
            parked: Vec::new(),
            mem: Memory::new(frames),
            load: LoadAvg::one_minute(),
            load_series: Series::new(),
            runnable_series: Series::new(),
            cpu_busy: Dur::ZERO,
        }
    }

    /// Host identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Host name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// 1-minute load average.
    pub fn load_avg(&self) -> f64 {
        self.load.value()
    }

    /// Recorded load-average series (one point per second).
    pub fn load_series(&self) -> &Series {
        &self.load_series
    }

    /// Raw runnable-count samples (one per second) — an unbiased load
    /// measure that does not carry the EMA's warm-up transient.
    pub fn runnable_series(&self) -> &Series {
        &self.runnable_series
    }

    /// Cumulative busy CPU time.
    pub fn cpu_busy(&self) -> Dur {
        self.cpu_busy
    }

    /// Number of runnable processes right now (budget-parked RT processes
    /// count: they have demand, they are just throttled).
    pub fn runnable(&self) -> usize {
        self.ready.len() + self.parked.len() + usize::from(self.running.is_some())
    }

    /// Remove a process from the RT budget parking lot; true if it was
    /// parked.
    pub(crate) fn unpark(&mut self, pid: Pid) -> bool {
        if let Some(ix) = self.parked.iter().position(|&p| p == pid) {
            self.parked.swap_remove(ix);
            true
        } else {
            false
        }
    }

    /// Statistics snapshot for management queries.
    pub fn snapshot(&self) -> HostSnapshot {
        HostSnapshot {
            load_avg: self.load.value(),
            mem_utilization: self.mem.utilization(),
            runnable: self.runnable(),
            cpu_busy: self.cpu_busy,
        }
    }

    /// Cumulative CPU time of a process.
    pub fn proc_cpu_time(&self, pid: Pid) -> Option<Dur> {
        self.slot(pid).map(|s| s.cpu_time)
    }

    /// Memory accounting of a process.
    pub fn proc_mem(&self, pid: Pid) -> Option<ProcMem> {
        self.mem.info(pid)
    }

    /// Name of a process.
    pub fn proc_name(&self, pid: Pid) -> Option<&str> {
        self.slot(pid).map(|s| s.name.as_str())
    }

    /// Lifecycle state of a process.
    pub fn proc_state(&self, pid: Pid) -> Option<ProcState> {
        self.slot(pid).map(|s| s.state)
    }

    /// Current TS user-priority boost of a process.
    pub fn proc_upri(&self, pid: Pid) -> Option<i16> {
        self.slot(pid).map(|s| s.ts.upri)
    }

    /// Messages dropped at a socket because its buffer was full.
    pub fn socket_dropped(&self, port: Port) -> u64 {
        self.sockets.get(&port).map_or(0, |s| s.dropped)
    }

    pub(crate) fn slot(&self, pid: Pid) -> Option<&ProcSlot> {
        debug_assert_eq!(pid.host, self.id);
        self.procs.get(pid.local as usize)
    }

    pub(crate) fn slot_mut(&mut self, pid: Pid) -> Option<&mut ProcSlot> {
        debug_assert_eq!(pid.host, self.id);
        self.procs.get_mut(pid.local as usize)
    }

    pub(crate) fn bind(&mut self, owner: Pid, port: Port, cap_bytes: u32) {
        let prev = self.sockets.insert(
            port,
            SockBuf {
                owner,
                cap_bytes: cap_bytes as u64,
                queue: VecDeque::new(),
                bytes: 0,
                dropped: 0,
            },
        );
        assert!(
            prev.is_none(),
            "port {port} already bound on host {}",
            self.name
        );
    }

    pub(crate) fn socket_push(&mut self, msg: Message) -> SocketPush {
        let Some(sock) = self.sockets.get_mut(&msg.dst.port) else {
            return SocketPush::NoSuchPort;
        };
        if sock.bytes + msg.bytes as u64 > sock.cap_bytes {
            sock.dropped += 1;
            return SocketPush::BufferFull;
        }
        sock.bytes += msg.bytes as u64;
        let owner = sock.owner;
        let port = msg.dst.port;
        sock.queue.push_back(msg);
        SocketPush::Delivered { owner, port }
    }

    pub(crate) fn socket_recv(&mut self, pid: Pid, port: Port) -> Option<Message> {
        let sock = self.sockets.get_mut(&port)?;
        if sock.owner != pid {
            return None;
        }
        let msg = sock.queue.pop_front()?;
        sock.bytes -= msg.bytes as u64;
        Some(msg)
    }

    pub(crate) fn socket_len(&self, port: Port) -> (usize, u64) {
        self.sockets
            .get(&port)
            .map_or((0, 0), |s| (s.queue.len(), s.bytes))
    }

    /// Compute the wake-up level for a process becoming runnable and
    /// refresh its quantum. Applies the `slpret` sleep-return boost when
    /// the process genuinely waited.
    pub(crate) fn wake_level(&mut self, pid: Pid, now: SimTime) -> (u16, bool) {
        debug_assert_eq!(pid.host, self.id);
        let table = &self.table;
        let slot = self
            .procs
            .get_mut(pid.local as usize)
            .expect("wake of unknown pid");
        let slept = now.since(slot.waiting_since) >= SLEEP_BOOST_MIN;
        if let SchedClass::TimeShare = slot.class {
            if slept {
                // A genuine sleep: boost and grant a fresh quantum.
                slot.ts.cpupri = table.entry(slot.ts.cpupri).slpret;
                slot.quantum_rem = table.entry(slot.ts.cpupri).quantum;
            } else if slot.quantum_rem.is_zero() {
                // Back-to-back bursts drained the quantum: this is CPU-bound
                // behaviour, so the quantum-expiry decay applies even though
                // the expiry fell on a burst boundary.
                slot.ts.cpupri = table.entry(slot.ts.cpupri).tqexp;
                slot.quantum_rem = table.entry(slot.ts.cpupri).quantum;
            }
            // Otherwise: keep the remaining quantum — chaining bursts does
            // not launder CPU-bound work into interactive work.
        } else {
            slot.quantum_rem = crate::sched::RT_QUANTUM;
        }
        (slot.level(), slept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Payload;
    use crate::ids::Endpoint;

    fn host() -> Host {
        Host::new(HostId(0), "test".into(), 1024)
    }

    fn push_slot(h: &mut Host, name: &str) -> Pid {
        let pid = Pid {
            host: h.id,
            local: h.procs.len() as u32,
        };
        h.procs.push(ProcSlot {
            name: name.into(),
            state: ProcState::Waiting,
            logic: None,
            class: SchedClass::TimeShare,
            ts: TsState::new(),
            quantum_rem: Dur::from_millis(100),
            burst_rem: Dur::ZERO,
            pending: VecDeque::new(),
            deliver_scheduled: false,
            cpu_time: Dur::ZERO,
            waiting_since: SimTime::ZERO,
            rt_used: Dur::ZERO,
            rt_exhausted: false,
            rng: Rng::new(1),
        });
        pid
    }

    fn msg_to(port: Port, bytes: u32) -> Message {
        Message {
            src: Endpoint::new(HostId(9), 1),
            dst: Endpoint::new(HostId(0), port),
            bytes,
            sent_at: SimTime::ZERO,
            payload: Payload::empty(),
        }
    }

    #[test]
    fn socket_push_recv_roundtrip() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        h.bind(pid, 10, 1000);
        match h.socket_push(msg_to(10, 100)) {
            SocketPush::Delivered { owner, port } => {
                assert_eq!(owner, pid);
                assert_eq!(port, 10);
            }
            _ => panic!("expected delivery"),
        }
        assert_eq!(h.socket_len(10), (1, 100));
        let m = h.socket_recv(pid, 10).unwrap();
        assert_eq!(m.bytes, 100);
        assert_eq!(h.socket_len(10), (0, 0));
    }

    #[test]
    fn socket_tail_drop_when_full() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        h.bind(pid, 10, 150);
        assert!(matches!(
            h.socket_push(msg_to(10, 100)),
            SocketPush::Delivered { .. }
        ));
        assert!(matches!(
            h.socket_push(msg_to(10, 100)),
            SocketPush::BufferFull
        ));
        assert_eq!(h.socket_dropped(10), 1);
        assert_eq!(h.socket_len(10), (1, 100));
    }

    #[test]
    fn socket_unknown_port_and_wrong_owner() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        let other = push_slot(&mut h, "b");
        h.bind(pid, 10, 1000);
        assert!(matches!(
            h.socket_push(msg_to(99, 10)),
            SocketPush::NoSuchPort
        ));
        h.socket_push(msg_to(10, 10));
        assert!(h.socket_recv(other, 10).is_none(), "non-owner cannot read");
        assert!(h.socket_recv(pid, 10).is_some());
    }

    #[test]
    fn wake_level_applies_sleep_boost_only_after_real_wait() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        // No wait: no boost, level stays at the default TS priority.
        let (lvl, slept) = h.wake_level(pid, SimTime::ZERO);
        assert_eq!(lvl, TsState::new().cpupri as u16);
        assert!(!slept);
        // Waited 5 ms: slpret boost applies.
        h.slot_mut(pid).unwrap().waiting_since = SimTime::ZERO;
        let (lvl, slept) = h.wake_level(pid, SimTime::from_micros(5_000));
        assert!(lvl >= 50, "boosted level {lvl}");
        assert!(slept);
    }

    #[test]
    fn rt_level_sits_above_all_ts() {
        let mut h = host();
        let pid = push_slot(&mut h, "rt");
        let slot = h.slot_mut(pid).unwrap();
        slot.class = SchedClass::RealTime {
            rtpri: 10,
            budget: None,
        };
        assert_eq!(slot.level(), RT_BASE + 10);
        slot.class = SchedClass::TimeShare;
        assert!(slot.level() < RT_BASE);
    }

    #[test]
    fn unpark_removes_exactly_once() {
        let mut h = host();
        let pid = push_slot(&mut h, "rt");
        h.parked.push(pid);
        assert!(h.unpark(pid));
        assert!(!h.unpark(pid));
        assert_eq!(h.runnable(), 0);
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        h.mem.register(pid, 100);
        let snap = h.snapshot();
        assert_eq!(snap.runnable, 0);
        assert!(snap.mem_utilization > 0.0);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut h = host();
        let pid = push_slot(&mut h, "a");
        h.bind(pid, 5, 10);
        h.bind(pid, 5, 10);
    }
}
