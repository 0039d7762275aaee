//! CPU scheduling: a Solaris-style time-sharing (TS) class with a dispatch
//! table, plus a fixed-priority real-time (RT) class sitting above it.
//!
//! This models the scheduling surface the paper's prototype manipulated on
//! Solaris 2.8 through `priocntl`: the CPU resource manager either nudges a
//! process's TS *user priority* (`upri`, the per-process boost an
//! administrator may set within bounds) or moves the process into the RT
//! class with an optional CPU budget ("allocating units of real-time CPU
//! cycles").
//!
//! The TS dispatch table captures the three behaviours that produce the
//! phenomenon in the paper's Figure 3:
//!
//! * CPU-bound processes expire quanta and sink to low priorities
//!   (`tqexp`), getting long quanta there;
//! * processes returning from sleep are boosted (`slpret`), favouring
//!   interactive work;
//! * processes that starve on the ready queue longer than `maxwait` are
//!   periodically boosted to `lwait` (Solaris's anti-starvation rule) — it
//!   is precisely this boost that lets a pile of CPU hogs steal the video
//!   player's cycles and collapse its frame rate when no QoS manager
//!   intervenes.

use std::collections::VecDeque;

use crate::ids::Pid;
use crate::time::{Dur, SimTime};

/// Number of TS priority levels (0 = weakest, 59 = strongest), as in
/// Solaris.
pub const TS_LEVELS: u8 = 60;
/// Number of RT priority levels.
pub const RT_LEVELS: u8 = 60;
/// Global priority of RT level 0. All RT priorities dominate all TS ones.
pub const RT_BASE: u16 = 100;
/// Total number of global priority levels (TS occupy 0..59).
pub const GLOBAL_LEVELS: u16 = RT_BASE + RT_LEVELS as u16;

/// Default RT round-robin quantum.
pub const RT_QUANTUM: Dur = Dur::from_millis(100);

/// Scheduling class of a process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedClass {
    /// Time-sharing: priority migrates according to the dispatch table.
    TimeShare,
    /// Fixed-priority real-time, always above TS. An optional budget
    /// limits CPU per accounting window; when exhausted, the process is
    /// scheduled as the weakest TS process until the window rolls over.
    RealTime {
        /// RT priority level, `0..RT_LEVELS`.
        rtpri: u8,
        /// Optional CPU budget (consumed per [`RtBudget::window`]).
        budget: Option<RtBudget>,
    },
}

/// CPU budget for a real-time process: at most `per_window` of CPU within
/// each `window` of wall time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RtBudget {
    /// CPU allowed per window.
    pub per_window: Dur,
    /// Accounting window length.
    pub window: Dur,
}

/// One row of the TS dispatch table.
#[derive(Clone, Copy, Debug)]
pub struct DispatchEntry {
    /// Time slice granted at this level.
    pub quantum: Dur,
    /// New level after the quantum is fully consumed.
    pub tqexp: u8,
    /// New level when returning from sleep.
    pub slpret: u8,
    /// Level granted when starved on the ready queue for `maxwait`.
    pub lwait: u8,
}

/// The TS dispatch table: quantum and priority-migration rules per level.
#[derive(Clone, Debug)]
pub struct DispatchTable {
    entries: Vec<DispatchEntry>,
    /// Ready-queue residence time after which the starvation boost applies.
    pub maxwait: Dur,
}

impl DispatchTable {
    /// A table patterned on the Solaris TS defaults: 200 ms quanta at the
    /// weakest levels shrinking to 20 ms at the strongest, quantum expiry
    /// dropping a process by 10 levels, sleep return boosting into the
    /// 50s, and a starvation boost to level 50 after one second of
    /// waiting.
    pub fn solaris_like() -> Self {
        let entries = (0..TS_LEVELS)
            .map(|p| {
                let quantum_ms = match p {
                    0..=9 => 200,
                    10..=19 => 160,
                    20..=29 => 120,
                    30..=39 => 80,
                    40..=49 => 40,
                    _ => 20,
                };
                DispatchEntry {
                    quantum: Dur::from_millis(quantum_ms),
                    tqexp: p.saturating_sub(10),
                    slpret: (50 + p / 6).min(TS_LEVELS - 1),
                    lwait: 50,
                }
            })
            .collect();
        DispatchTable {
            entries,
            maxwait: Dur::from_secs(1),
        }
    }

    /// Row for a TS level.
    #[inline]
    pub fn entry(&self, level: u8) -> &DispatchEntry {
        &self.entries[level.min(TS_LEVELS - 1) as usize]
    }
}

/// Per-process TS state.
#[derive(Clone, Copy, Debug)]
pub struct TsState {
    /// Table-managed component of the priority.
    pub cpupri: u8,
    /// Administrator/manager-set boost, clamped to `[-60, 60]`
    /// (the `priocntl` user priority). This is the knob the paper's CPU
    /// resource manager turns.
    pub upri: i16,
}

impl TsState {
    /// Default state for a newly created TS process.
    pub fn new() -> Self {
        // New TS processes start in the middle of the range.
        TsState {
            cpupri: 29,
            upri: 0,
        }
    }

    /// Effective TS level: `clamp(cpupri + upri, 0, 59)`.
    #[inline]
    pub fn level(&self) -> u8 {
        (self.cpupri as i16 + self.upri).clamp(0, TS_LEVELS as i16 - 1) as u8
    }
}

impl Default for TsState {
    fn default() -> Self {
        Self::new()
    }
}

/// Multi-level ready queues over the global priority space. Entries carry
/// their enqueue time so the starvation scan can find long-waiting TS
/// processes.
#[derive(Debug)]
pub struct ReadyQueues {
    levels: Vec<VecDeque<(Pid, SimTime)>>,
    len: usize,
}

impl ReadyQueues {
    /// Empty ready queues.
    pub fn new() -> Self {
        ReadyQueues {
            levels: (0..GLOBAL_LEVELS).map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }

    /// Number of queued (ready, not running) processes.
    /// Number of queued (ready, not running) processes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no process is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueue at the back of a level (normal arrival).
    pub fn push_back(&mut self, level: u16, pid: Pid, now: SimTime) {
        self.levels[level as usize].push_back((pid, now));
        self.len += 1;
    }

    /// Enqueue at the front of a level (preempted process keeps its turn).
    pub fn push_front(&mut self, level: u16, pid: Pid, now: SimTime) {
        self.levels[level as usize].push_front((pid, now));
        self.len += 1;
    }

    /// Pop the strongest-priority process, FIFO within a level.
    pub fn pop_best(&mut self) -> Option<(u16, Pid)> {
        if self.len == 0 {
            return None;
        }
        for level in (0..GLOBAL_LEVELS).rev() {
            if let Some((pid, _)) = self.levels[level as usize].pop_front() {
                self.len -= 1;
                return Some((level, pid));
            }
        }
        None
    }

    /// Strongest level with a ready process, if any.
    pub fn best_level(&self) -> Option<u16> {
        if self.len == 0 {
            return None;
        }
        (0..GLOBAL_LEVELS)
            .rev()
            .find(|&l| !self.levels[l as usize].is_empty())
    }

    /// Remove a specific process (e.g. killed while ready, or being
    /// re-prioritised). Returns true if it was queued.
    pub fn remove(&mut self, pid: Pid) -> bool {
        for q in &mut self.levels {
            if let Some(ix) = q.iter().position(|&(p, _)| p == pid) {
                q.remove(ix);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    /// Collect TS processes (levels below [`RT_BASE`]) that have waited at
    /// least `maxwait` and therefore earn the `lwait` starvation boost.
    /// They are removed from their queues; the caller re-inserts them at
    /// their boosted level.
    pub fn drain_starved(&mut self, now: SimTime, maxwait: Dur) -> Vec<Pid> {
        let mut out = Vec::new();
        for level in 0..RT_BASE {
            let q = &mut self.levels[level as usize];
            let mut keep = VecDeque::with_capacity(q.len());
            while let Some((pid, since)) = q.pop_front() {
                if now.since(since) >= maxwait {
                    out.push(pid);
                    self.len -= 1;
                } else {
                    keep.push_back((pid, since));
                }
            }
            *q = keep;
        }
        out
    }
}

impl Default for ReadyQueues {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    fn pid(n: u32) -> Pid {
        Pid {
            host: HostId(0),
            local: n,
        }
    }

    #[test]
    fn table_quanta_shrink_with_priority() {
        let t = DispatchTable::solaris_like();
        assert_eq!(t.entry(0).quantum, Dur::from_millis(200));
        assert_eq!(t.entry(35).quantum, Dur::from_millis(80));
        assert_eq!(t.entry(59).quantum, Dur::from_millis(20));
    }

    #[test]
    fn table_tqexp_sinks_and_slpret_boosts() {
        let t = DispatchTable::solaris_like();
        assert_eq!(t.entry(29).tqexp, 19);
        assert_eq!(t.entry(5).tqexp, 0);
        assert!(t.entry(0).slpret >= 50);
        assert!(t.entry(59).slpret <= 59);
        assert_eq!(t.entry(30).lwait, 50);
    }

    #[test]
    fn ts_state_level_clamps() {
        let mut s = TsState::new();
        assert_eq!(s.level(), 29);
        s.upri = 60;
        assert_eq!(s.level(), 59);
        s.upri = -60;
        assert_eq!(s.level(), 0);
        s.upri = 10;
        s.cpupri = 55;
        assert_eq!(s.level(), 59);
    }

    #[test]
    fn ready_queue_priority_order_and_fifo() {
        let mut rq = ReadyQueues::new();
        let t = SimTime::ZERO;
        rq.push_back(10, pid(1), t);
        rq.push_back(50, pid(2), t);
        rq.push_back(50, pid(3), t);
        rq.push_back(RT_BASE + 5, pid(4), t);
        assert_eq!(rq.len(), 4);
        assert_eq!(rq.pop_best(), Some((RT_BASE + 5, pid(4))), "RT beats TS");
        assert_eq!(rq.pop_best(), Some((50, pid(2))), "FIFO within level");
        assert_eq!(rq.pop_best(), Some((50, pid(3))));
        assert_eq!(rq.pop_best(), Some((10, pid(1))));
        assert_eq!(rq.pop_best(), None);
    }

    #[test]
    fn push_front_takes_precedence_within_level() {
        let mut rq = ReadyQueues::new();
        let t = SimTime::ZERO;
        rq.push_back(20, pid(1), t);
        rq.push_front(20, pid(2), t);
        assert_eq!(rq.pop_best(), Some((20, pid(2))));
    }

    #[test]
    fn remove_unqueues() {
        let mut rq = ReadyQueues::new();
        rq.push_back(5, pid(1), SimTime::ZERO);
        rq.push_back(5, pid(2), SimTime::ZERO);
        assert!(rq.remove(pid(1)));
        assert!(!rq.remove(pid(1)));
        assert_eq!(rq.len(), 1);
        assert_eq!(rq.pop_best(), Some((5, pid(2))));
    }

    #[test]
    fn starvation_scan_only_picks_old_ts_entries() {
        let mut rq = ReadyQueues::new();
        let t0 = SimTime::ZERO;
        let t_late = t0 + Dur::from_millis(1500);
        rq.push_back(3, pid(1), t0); // starved TS
        rq.push_back(3, pid(2), t_late); // fresh TS
        rq.push_back(RT_BASE + 1, pid(3), t0); // RT: never boosted
        let starved = rq.drain_starved(t_late, Dur::from_secs(1));
        assert_eq!(starved, vec![pid(1)]);
        assert_eq!(rq.len(), 2);
        assert_eq!(rq.best_level(), Some(RT_BASE + 1));
    }

    #[test]
    fn best_level_reflects_queue_state() {
        let mut rq = ReadyQueues::new();
        assert_eq!(rq.best_level(), None);
        rq.push_back(7, pid(1), SimTime::ZERO);
        rq.push_back(40, pid(2), SimTime::ZERO);
        assert_eq!(rq.best_level(), Some(40));
    }
}
