//! Resource managers (Section 7): "a collection of resource managers that
//! each manage a single system resource" — CPU (time-sharing priorities or
//! real-time CPU units) and memory (resident pages).
//!
//! A resource manager is a pure decision: it is handed a process's
//! allocation record and the context of a violation, and plans concrete
//! kernel commands; the QoS Host Manager keeps the records and issues the
//! commands. This keeps the managers testable without a simulation.

use qos_sim::{Dur, PriocntlCmd, RtBudget, SchedClass};

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

/// Per-process CPU allocation state: what the CPU manager reads and
/// updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuAllocation {
    /// Current TS boost (TsBoost strategy).
    pub boost: i16,
    /// Current RT units (RtUnits strategy; 0 = still in TS).
    pub units: u32,
    /// Consecutive over-achievement reports (drives patient relaxation).
    pub over_streak: u32,
}

/// Over-achievement below this severity is "close enough" to the
/// requirement that no reclamation happens (the paper's own prototype sat
/// steadily at 28 fps against a 27 fps upper bound — reclaiming for a
/// barely-exceeded bound buys nothing and destabilises the loop).
pub const RELAX_DEADBAND: f64 = 0.12;

/// Consecutive over-achievement reports required before one relaxation
/// step. Reclaiming resources is deliberately much slower than granting
/// them: the scheduler's response to a boost is strongly non-linear (a
/// small reduction can tip the process from fully served to starved), so
/// eager reclamation oscillates deeply where the paper's prototype held a
/// steady ~28 fps.
const RELAX_PATIENCE: u32 = 3;

impl Default for CpuStrategy {
    /// The prototype's default: TS boosts of 10, capped at +60.
    fn default() -> Self {
        CpuStrategy::TsBoost {
            step: 10,
            max_boost: 60,
        }
    }
}

impl CpuStrategy {
    /// The CPU resource manager: plan the kernel command, if any, for a
    /// violation of `severity` (0 = barely missed, 1 = missed by 100% of
    /// the target) in the given direction, scaled by the administrative
    /// `weight` of the process (1.0 under fair-share rules), and record
    /// it in the process's `alloc`. "Additional rules are used to
    /// determine how much to increase CPU priority based on how close
    /// the policy is to being satisfied."
    pub(crate) fn plan(
        &self,
        alloc: &mut CpuAllocation,
        direction: Direction,
        severity: f64,
        weight: f64,
    ) -> Option<PriocntlCmd> {
        // Barely-over readings are ignored entirely (dead band).
        if direction == Direction::Over && severity < RELAX_DEADBAND {
            return None;
        }
        // Track over-achievement streaks; reclamation needs a sustained
        // streak, and any under-report resets it.
        match direction {
            Direction::Under => alloc.over_streak = 0,
            Direction::Over => {
                alloc.over_streak += 1;
                if alloc.over_streak < RELAX_PATIENCE {
                    return None;
                }
                alloc.over_streak = 0;
            }
        }
        match *self {
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
}

/// The memory resource manager: the resident-set change, in pages, for a
/// process missing `deficit_pages` of its working set (positive) or
/// holding `-deficit_pages` of surplus (negative). Grants the full
/// deficit; reclaims surplus conservatively (half at a time, so a
/// one-page surplus is left alone).
pub(crate) fn plan_memory(deficit_pages: i64) -> Option<i64> {
    let delta = if deficit_pages > 0 {
        deficit_pages
    } else {
        deficit_pages / 2
    };
    (delta != 0).then_some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS: CpuStrategy = CpuStrategy::TsBoost {
        step: 10,
        max_boost: 60,
    };

    /// `RELAX_PATIENCE` over-reports: the last one relaxes, if anything
    /// can.
    fn relax(s: &CpuStrategy, a: &mut CpuAllocation) -> Option<PriocntlCmd> {
        for _ in 1..RELAX_PATIENCE {
            assert!(s.plan(a, Direction::Over, 1.0, 1.0).is_none());
        }
        s.plan(a, Direction::Over, 1.0, 1.0)
    }

    #[test]
    fn ts_boost_grows_with_severity_and_caps() {
        let mut a = CpuAllocation::default();
        let c1 = TS.plan(&mut a, Direction::Under, 0.1, 1.0);
        assert_eq!(c1, Some(PriocntlCmd::SetUpri(3)), "mild miss, small step");
        let c2 = TS.plan(&mut a, Direction::Under, 1.0, 1.0);
        assert_eq!(c2, Some(PriocntlCmd::SetUpri(23)), "severe miss, big step");
        for _ in 0..20 {
            TS.plan(&mut a, Direction::Under, 1.0, 1.0);
        }
        assert_eq!(a.boost, 60, "capped at +60");
        assert!(
            TS.plan(&mut a, Direction::Under, 1.0, 1.0).is_none(),
            "no command when already at cap"
        );
        assert_eq!(CpuStrategy::default(), TS, "the prototype's default");
    }

    #[test]
    fn ts_boost_reduces_when_over() {
        let mut a = CpuAllocation::default();
        TS.plan(&mut a, Direction::Under, 1.0, 1.0);
        let b = a.boost;
        relax(&TS, &mut a);
        assert!(a.boost < b);
        // Bounded below by the priocntl floor.
        for _ in 0..200 {
            relax(&TS, &mut a);
        }
        assert_eq!(a.boost, -60);
    }

    #[test]
    fn weight_scales_the_boost() {
        let fair = TS.plan(&mut CpuAllocation::default(), Direction::Under, 0.5, 1.0);
        let vip = TS.plan(&mut CpuAllocation::default(), Direction::Under, 0.5, 2.0);
        let (Some(PriocntlCmd::SetUpri(a)), Some(PriocntlCmd::SetUpri(b))) = (fair, vip) else {
            panic!("expected SetUpri");
        };
        assert!(b > a, "heavier weight, bigger boost: {a} vs {b}");
    }

    #[test]
    fn rt_units_enter_grow_and_leave() {
        let rt = CpuStrategy::RtUnits {
            rtpri: 10,
            unit: Dur::from_millis(100),
            initial_units: 3,
            max_units: 8,
        };
        let mut a = CpuAllocation::default();
        let c = rt.plan(&mut a, Direction::Under, 1.0, 1.0);
        match c {
            Some(PriocntlCmd::SetClass(SchedClass::RealTime {
                rtpri: 10,
                budget: Some(b),
            })) => {
                assert_eq!(b.per_window, Dur::from_millis(300));
            }
            other => panic!("unexpected {other:?}"),
        }
        rt.plan(&mut a, Direction::Under, 1.0, 1.0);
        assert_eq!(a.units, 6);
        for _ in 0..5 {
            rt.plan(&mut a, Direction::Under, 1.0, 1.0);
        }
        assert_eq!(a.units, 8, "capped");
        // Shrink back to TS.
        for _ in 0..8 {
            relax(&rt, &mut a);
        }
        assert_eq!(a.units, 0);
    }

    #[test]
    fn rt_exit_returns_to_timeshare() {
        let rt = CpuStrategy::RtUnits {
            rtpri: 5,
            unit: Dur::from_millis(100),
            initial_units: 1,
            max_units: 4,
        };
        let mut a = CpuAllocation::default();
        rt.plan(&mut a, Direction::Under, 1.0, 1.0);
        let c = relax(&rt, &mut a);
        assert_eq!(c, Some(PriocntlCmd::SetClass(SchedClass::TimeShare)));
    }

    #[test]
    fn relaxation_requires_sustained_over_achievement() {
        let mut a = CpuAllocation::default();
        TS.plan(&mut a, Direction::Under, 1.0, 1.0);
        // Two over-reports: nothing happens.
        for _ in 0..2 {
            assert!(TS.plan(&mut a, Direction::Over, 1.0, 1.0).is_none());
        }
        // An under-report resets the streak.
        TS.plan(&mut a, Direction::Under, 0.0, 1.0);
        for _ in 0..2 {
            assert!(TS.plan(&mut a, Direction::Over, 1.0, 1.0).is_none());
        }
        // The third consecutive over-report finally relaxes.
        let pre_relax = a.boost;
        let cmd = TS.plan(&mut a, Direction::Over, 1.0, 1.0);
        assert!(cmd.is_some());
        assert!(a.boost < pre_relax);
    }

    #[test]
    fn barely_over_is_inside_the_dead_band() {
        let mut a = CpuAllocation::default();
        for _ in 0..2 * RELAX_PATIENCE {
            assert!(TS
                .plan(&mut a, Direction::Over, RELAX_DEADBAND / 2.0, 1.0)
                .is_none());
        }
        assert_eq!(a.over_streak, 0, "a dead-band report is no streak");
    }

    #[test]
    fn memory_manager_grants_and_reclaims() {
        assert_eq!(plan_memory(50), Some(50), "full deficit granted");
        assert_eq!(plan_memory(-20), Some(-10), "half the surplus reclaimed");
        assert_eq!(plan_memory(-3), Some(-1));
        assert_eq!(plan_memory(-1), None, "half of one page is none");
        assert_eq!(plan_memory(0), None);
    }
}
