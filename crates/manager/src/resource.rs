//! Resource managers (Section 7): "a collection of resource managers that
//! each manage a single system resource" — CPU (time-sharing priorities or
//! real-time CPU units) and memory (resident pages).
//!
//! A resource manager is pure decision logic: it receives the context of a
//! violation and plans concrete kernel commands; the QoS Host Manager
//! issues them. This keeps the managers testable without a simulation.

use std::collections::HashMap;

use qos_sim::{Dur, Pid, PriocntlCmd, RtBudget, SchedClass};

/// Which way a metric missed its requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Below the lower bound: the process needs more resources.
    Under,
    /// Above the upper bound: the allocation can be reduced ("if it
    /// exceeds the specified expectation, the resource allocation is
    /// reduced", Section 2).
    Over,
}

/// How the CPU manager adjusts allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuStrategy {
    /// Nudge the TS user priority up/down (the prototype's
    /// "manipulating time-sharing priorities").
    TsBoost {
        /// Base boost step per adjustment.
        step: i16,
        /// Upper bound on the cumulative boost.
        max_boost: i16,
    },
    /// Move the process into the RT class with a CPU budget
    /// ("allocating units of real-time CPU cycles"); each unit is
    /// `unit` CPU time per second, adjusted up/down by violations.
    RtUnits {
        /// RT priority level used.
        rtpri: u8,
        /// CPU time per unit per second.
        unit: Dur,
        /// Initial units on first adjustment.
        initial_units: u32,
        /// Maximum units.
        max_units: u32,
    },
}

/// Per-process CPU allocation state.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuAllocation {
    /// Current TS boost (TsBoost strategy).
    pub boost: i16,
    /// Current RT units (RtUnits strategy; 0 = still in TS).
    pub units: u32,
    /// Adjustments made.
    pub adjustments: u64,
    /// Consecutive over-achievement reports (drives patient relaxation).
    pub over_streak: u32,
}

/// Over-achievement below this severity is "close enough" to the
/// requirement that no reclamation happens (the paper's own prototype sat
/// steadily at 28 fps against a 27 fps upper bound — reclaiming for a
/// barely-exceeded bound buys nothing and destabilises the loop).
pub const RELAX_DEADBAND: f64 = 0.12;

/// The CPU resource manager.
#[derive(Debug)]
pub struct CpuManager {
    strategy: CpuStrategy,
    allocs: HashMap<Pid, CpuAllocation>,
    /// Consecutive over-achievement reports required before one
    /// relaxation step. Reclaiming resources is deliberately much slower
    /// than granting them: the scheduler's response to a boost is
    /// strongly non-linear (a small reduction can tip the process from
    /// fully served to starved), so eager reclamation oscillates deeply
    /// where the paper's prototype held a steady ~28 fps.
    relax_patience: u32,
}

impl CpuManager {
    /// Manager with the given strategy.
    pub fn new(strategy: CpuStrategy) -> Self {
        CpuManager {
            strategy,
            allocs: HashMap::new(),
            relax_patience: 3,
        }
    }

    /// The prototype's default: TS boosts of 10, capped at +60.
    pub fn ts_default() -> Self {
        CpuManager::new(CpuStrategy::TsBoost {
            step: 10,
            max_boost: 60,
        })
    }

    /// Change how many consecutive over-reports trigger one relaxation.
    pub fn set_relax_patience(&mut self, n: u32) {
        self.relax_patience = n.max(1);
    }

    /// Plan the kernel command, if any, for a violation of `severity` (0 = barely
    /// missed, 1 = missed by 100% of the target) in the given direction,
    /// scaled by the administrative `weight` of the process (1.0 under
    /// fair-share rules). "Additional rules are used to determine how
    /// much to increase CPU priority based on how close the policy is to
    /// being satisfied."
    pub fn plan(
        &mut self,
        pid: Pid,
        direction: Direction,
        severity: f64,
        weight: f64,
    ) -> Option<PriocntlCmd> {
        // Barely-over readings are ignored entirely (dead band).
        if direction == Direction::Over && severity < RELAX_DEADBAND {
            return None;
        }
        let patience = self.relax_patience;
        let alloc = self.allocs.entry(pid).or_default();
        alloc.adjustments += 1;
        // Track over-achievement streaks; reclamation needs a sustained
        // streak, and any under-report resets it.
        let relax_now = match direction {
            Direction::Under => {
                alloc.over_streak = 0;
                false
            }
            Direction::Over => {
                alloc.over_streak += 1;
                if alloc.over_streak >= patience {
                    alloc.over_streak = 0;
                    true
                } else {
                    false
                }
            }
        };
        if direction == Direction::Over && !relax_now {
            return None;
        }
        match self.strategy {
            CpuStrategy::TsBoost { step, max_boost } => {
                let scale = (severity.clamp(0.0, 1.0) * 2.0).max(0.25) * weight.max(0.0);
                let delta = match direction {
                    Direction::Under => ((step as f64 * scale).round() as i16).max(1),
                    // Reductions scale with how far above the bound the
                    // metric sits, but stay gentler than increases so the
                    // loop settles instead of oscillating.
                    Direction::Over => {
                        -(1 + (step as f64 * severity.clamp(0.0, 1.0)).round() as i16)
                    }
                };
                // The full priocntl range: negative boosts push an
                // over-achieving interactive process below its competitors
                // (a floor at zero could never reclaim resources from a
                // process whose scheduler-side priority is already high).
                let new_boost = (alloc.boost + delta).clamp(-max_boost, max_boost);
                if new_boost == alloc.boost {
                    return None;
                }
                alloc.boost = new_boost;
                Some(PriocntlCmd::SetUpri(new_boost))
            }
            CpuStrategy::RtUnits {
                rtpri,
                unit,
                initial_units,
                max_units,
            } => {
                let new_units = match direction {
                    Direction::Under => {
                        if alloc.units == 0 {
                            initial_units.max(1)
                        } else {
                            let grow = ((alloc.units as f64 * severity.clamp(0.1, 1.0)).ceil()
                                as u32)
                                .max(1);
                            (alloc.units + grow).min(max_units)
                        }
                    }
                    Direction::Over => alloc.units.saturating_sub(1),
                };
                if new_units == alloc.units {
                    return None;
                }
                alloc.units = new_units;
                Some(PriocntlCmd::SetClass(if new_units == 0 {
                    SchedClass::TimeShare
                } else {
                    SchedClass::RealTime {
                        rtpri,
                        budget: Some(RtBudget {
                            per_window: Dur::from_micros(unit.as_micros() * new_units as u64),
                            window: Dur::from_secs(1),
                        }),
                    }
                }))
            }
        }
    }

    /// Current allocation of a process.
    pub fn allocation(&self, pid: Pid) -> CpuAllocation {
        self.allocs.get(&pid).copied().unwrap_or_default()
    }

    /// Forget a process (exit).
    pub fn release(&mut self, pid: Pid) {
        self.allocs.remove(&pid);
    }
}

/// The memory resource manager: plans resident-set adjustments.
#[derive(Debug, Default)]
pub struct MemoryManager {
    granted: HashMap<Pid, i64>,
}

impl MemoryManager {
    /// New manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan a resident-set change for a process missing `deficit_pages`
    /// of its working set (positive) or holding `-deficit_pages` of
    /// surplus (negative). Grants the full deficit; reclaims surplus
    /// conservatively (half at a time).
    pub fn plan(&mut self, pid: Pid, deficit_pages: i64) -> Option<i64> {
        let delta = if deficit_pages > 0 {
            deficit_pages
        } else if deficit_pages < 0 {
            deficit_pages / 2
        } else {
            return None;
        };
        *self.granted.entry(pid).or_default() += delta;
        Some(delta)
    }

    /// Net pages granted to a process so far.
    pub fn granted(&self, pid: Pid) -> i64 {
        self.granted.get(&pid).copied().unwrap_or(0)
    }

    /// Forget a process (exit): its resident-set grant is reclaimed by
    /// the pageout daemon, not by us, so just drop the book-keeping.
    pub fn release(&mut self, pid: Pid) {
        self.granted.remove(&pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_sim::HostId;

    fn pid(n: u32) -> Pid {
        Pid {
            host: HostId(0),
            local: n,
        }
    }

    #[test]
    fn ts_boost_grows_with_severity_and_caps() {
        let mut m = CpuManager::ts_default();
        let c1 = m.plan(pid(1), Direction::Under, 0.1, 1.0);
        assert_eq!(c1, Some(PriocntlCmd::SetUpri(3)), "mild miss, small step");
        let c2 = m.plan(pid(1), Direction::Under, 1.0, 1.0);
        assert_eq!(c2, Some(PriocntlCmd::SetUpri(23)), "severe miss, big step");
        for _ in 0..20 {
            m.plan(pid(1), Direction::Under, 1.0, 1.0);
        }
        assert_eq!(m.allocation(pid(1)).boost, 60, "capped at +60");
        assert!(
            m.plan(pid(1), Direction::Under, 1.0, 1.0).is_none(),
            "no command when already at cap"
        );
    }

    #[test]
    fn ts_boost_reduces_when_over() {
        let mut m = CpuManager::ts_default();
        m.set_relax_patience(1);
        m.plan(pid(1), Direction::Under, 1.0, 1.0);
        let b = m.allocation(pid(1)).boost;
        m.plan(pid(1), Direction::Over, 1.0, 1.0);
        assert!(m.allocation(pid(1)).boost < b);
        // Bounded below by the priocntl floor.
        for _ in 0..200 {
            m.plan(pid(1), Direction::Over, 1.0, 1.0);
        }
        assert_eq!(m.allocation(pid(1)).boost, -60);
    }

    #[test]
    fn weight_scales_the_boost() {
        let mut m = CpuManager::ts_default();
        let fair = m.plan(pid(1), Direction::Under, 0.5, 1.0);
        let vip = m.plan(pid(2), Direction::Under, 0.5, 2.0);
        let (Some(PriocntlCmd::SetUpri(a)), Some(PriocntlCmd::SetUpri(b))) = (fair, vip) else {
            panic!("expected SetUpri");
        };
        assert!(b > a, "heavier weight, bigger boost: {a} vs {b}");
    }

    #[test]
    fn rt_units_enter_grow_and_leave() {
        let mut m = CpuManager::new(CpuStrategy::RtUnits {
            rtpri: 10,
            unit: Dur::from_millis(100),
            initial_units: 3,
            max_units: 8,
        });
        m.set_relax_patience(1);
        let c = m.plan(pid(1), Direction::Under, 1.0, 1.0);
        match c {
            Some(PriocntlCmd::SetClass(SchedClass::RealTime {
                rtpri: 10,
                budget: Some(b),
            })) => {
                assert_eq!(b.per_window, Dur::from_millis(300));
            }
            other => panic!("unexpected {other:?}"),
        }
        m.plan(pid(1), Direction::Under, 1.0, 1.0);
        assert_eq!(m.allocation(pid(1)).units, 6);
        for _ in 0..5 {
            m.plan(pid(1), Direction::Under, 1.0, 1.0);
        }
        assert_eq!(m.allocation(pid(1)).units, 8, "capped");
        // Shrink back to TS.
        for _ in 0..8 {
            m.plan(pid(1), Direction::Over, 1.0, 1.0);
        }
        assert_eq!(m.allocation(pid(1)).units, 0);
    }

    #[test]
    fn rt_exit_returns_to_timeshare() {
        let mut m = CpuManager::new(CpuStrategy::RtUnits {
            rtpri: 5,
            unit: Dur::from_millis(100),
            initial_units: 1,
            max_units: 4,
        });
        m.set_relax_patience(1);
        m.plan(pid(1), Direction::Under, 1.0, 1.0);
        let c = m.plan(pid(1), Direction::Over, 1.0, 1.0);
        assert_eq!(c, Some(PriocntlCmd::SetClass(SchedClass::TimeShare)));
    }

    #[test]
    fn release_forgets_state() {
        let mut m = CpuManager::ts_default();
        m.plan(pid(1), Direction::Under, 1.0, 1.0);
        m.release(pid(1));
        assert_eq!(m.allocation(pid(1)).boost, 0);
    }

    #[test]
    fn relaxation_requires_sustained_over_achievement() {
        let mut m = CpuManager::ts_default(); // default patience: 3
        m.plan(pid(1), Direction::Under, 1.0, 1.0);
        // Two over-reports: nothing happens.
        for _ in 0..2 {
            assert!(m.plan(pid(1), Direction::Over, 1.0, 1.0).is_none());
        }
        // An under-report resets the streak.
        m.plan(pid(1), Direction::Under, 0.0, 1.0);
        for _ in 0..2 {
            assert!(m.plan(pid(1), Direction::Over, 1.0, 1.0).is_none());
        }
        // The third consecutive over-report finally relaxes.
        let pre_relax = m.allocation(pid(1)).boost;
        let cmd = m.plan(pid(1), Direction::Over, 1.0, 1.0);
        assert!(cmd.is_some());
        assert!(m.allocation(pid(1)).boost < pre_relax);
    }

    #[test]
    fn memory_manager_grants_and_reclaims() {
        let mut m = MemoryManager::new();
        assert_eq!(m.plan(pid(1), 50), Some(50), "full deficit granted");
        assert_eq!(m.plan(pid(1), -20), Some(-10), "half the surplus reclaimed");
        assert_eq!(m.plan(pid(1), 0), None);
        assert_eq!(m.granted(pid(1)), 40);
        assert_eq!(m.granted(pid(9)), 0);
    }

    #[test]
    fn memory_release_forgets_the_grant() {
        let mut m = MemoryManager::new();
        m.plan(pid(1), 50);
        m.release(pid(1));
        assert_eq!(m.granted(pid(1)), 0);
        m.release(pid(1)); // idempotent
    }
}
