//! Violation-lifecycle reconstruction: group a trace by correlation id
//! and rebuild each violation's causal chain (detect → report →
//! diagnose → adapt → back-in-spec) with per-stage latencies and MTTR.

use std::collections::BTreeMap;

use crate::events::{Stage, TraceEvent};
use crate::metrics::HistogramSnapshot;

/// One reconstructed violation lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Lifecycle {
    /// Correlation id.
    pub corr: u64,
    /// Policy (or detail) name from the detect event, if seen.
    pub policy: String,
    /// First timestamp observed for each lifecycle stage, in stage
    /// order; stages never observed are absent.
    pub stages: Vec<(Stage, u64)>,
    /// Number of events carrying this correlation id.
    pub events: usize,
}

impl Lifecycle {
    /// First timestamp of `stage`, if observed.
    pub fn stage_at(&self, stage: Stage) -> Option<u64> {
        self.stages
            .iter()
            .find(|&&(s, _)| s == stage)
            .map(|&(_, t)| t)
    }

    /// Did the violation pass through all five lifecycle stages?
    pub fn complete(&self) -> bool {
        Stage::LIFECYCLE.iter().all(|&s| self.stage_at(s).is_some())
    }

    /// Are the observed stage timestamps monotonically non-decreasing
    /// in lifecycle order?
    pub fn monotonic(&self) -> bool {
        let mut ordered: Vec<(u8, u64)> = self
            .stages
            .iter()
            .filter(|(s, _)| *s != Stage::Mark)
            .map(|&(s, t)| (s.order(), t))
            .collect();
        ordered.sort_by_key(|&(o, _)| o);
        ordered.windows(2).all(|w| w[0].1 <= w[1].1)
    }

    /// Mean-time-to-repair: detect → back-in-spec, µs. `None` until the
    /// violation recovers.
    pub fn mttr_us(&self) -> Option<u64> {
        let detect = self.stage_at(Stage::Detect)?;
        let back = self.stage_at(Stage::BackInSpec)?;
        Some(back.saturating_sub(detect))
    }
}

/// Group events by correlation id (ignoring `corr == 0`) and rebuild
/// each lifecycle, ordered by correlation id.
pub fn reconstruct(events: &[TraceEvent]) -> Vec<Lifecycle> {
    let mut by_corr: BTreeMap<u64, Lifecycle> = BTreeMap::new();
    for e in events.iter().filter(|e| e.corr != 0) {
        let lc = by_corr.entry(e.corr).or_insert_with(|| Lifecycle {
            corr: e.corr,
            policy: String::new(),
            stages: Vec::new(),
            events: 0,
        });
        lc.events += 1;
        if e.stage == Stage::Detect && lc.policy.is_empty() {
            lc.policy = e.name.to_string();
        }
        match lc.stages.iter_mut().find(|(s, _)| *s == e.stage) {
            Some((_, t)) => *t = (*t).min(e.at_us),
            None => lc.stages.push((e.stage, e.at_us)),
        }
    }
    let mut out: Vec<Lifecycle> = by_corr.into_values().collect();
    for lc in &mut out {
        lc.stages.sort_by_key(|&(s, t)| (s.order(), t));
    }
    out
}

/// Aggregated per-stage transition latencies over a set of lifecycles,
/// as log-bucketed distributions: detect→report, report→diagnose,
/// diagnose→adapt, adapt→back-in-spec, plus end-to-end MTTR.
#[derive(Clone, Debug)]
pub struct StageLatencies {
    /// (transition name, distribution) in lifecycle order.
    pub transitions: Vec<(&'static str, HistogramSnapshot)>,
    /// Detect → back-in-spec distribution over completed lifecycles.
    pub mttr: HistogramSnapshot,
    /// Lifecycles that recovered (reached back-in-spec).
    pub completed: usize,
    /// Lifecycles still open at the end of the trace.
    pub open: usize,
}

/// Compute per-stage latency distributions for a set of lifecycles.
pub fn stage_latencies(lifecycles: &[Lifecycle]) -> StageLatencies {
    const PAIRS: [(&str, Stage, Stage); 4] = [
        ("detect→report", Stage::Detect, Stage::Report),
        ("report→diagnose", Stage::Report, Stage::Diagnose),
        ("diagnose→adapt", Stage::Diagnose, Stage::Adapt),
        ("adapt→back-in-spec", Stage::Adapt, Stage::BackInSpec),
    ];
    // Accumulate via raw bucket math on HistogramSnapshot by recording
    // into a local core-free accumulator.
    let mut accs: Vec<(&'static str, Vec<u64>)> =
        PAIRS.iter().map(|&(n, _, _)| (n, Vec::new())).collect();
    let mut mttr_vals = Vec::new();
    let mut completed = 0;
    let mut open = 0;
    for lc in lifecycles {
        for (i, &(_, from, to)) in PAIRS.iter().enumerate() {
            if let (Some(a), Some(b)) = (lc.stage_at(from), lc.stage_at(to)) {
                accs[i].1.push(b.saturating_sub(a));
            }
        }
        match lc.mttr_us() {
            Some(m) => {
                completed += 1;
                mttr_vals.push(m);
            }
            None => open += 1,
        }
    }
    let to_hist = |vals: &[u64]| {
        let mut h = HistogramSnapshot::empty();
        for &v in vals {
            let ix = if v == 0 {
                0
            } else {
                64 - v.leading_zeros() as usize
            };
            h.buckets[ix] += 1;
            h.count += 1;
            h.sum += v;
            h.max = h.max.max(v);
        }
        h
    };
    StageLatencies {
        transitions: accs.iter().map(|(n, v)| (*n, to_hist(v))).collect(),
        mttr: to_hist(&mttr_vals),
        completed,
        open,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Fields;

    fn ev(at: u64, corr: u64, stage: Stage, name: &str) -> TraceEvent {
        TraceEvent {
            at_us: at,
            corr,
            stage,
            component: "t".into(),
            name: name.into(),
            fields: Fields::new(),
        }
    }

    #[test]
    fn reconstructs_complete_lifecycle() {
        let events = vec![
            ev(10, 1, Stage::Detect, "example1"),
            ev(10, 1, Stage::Report, "example1"),
            ev(12, 1, Stage::Diagnose, "raise-priority"),
            ev(12, 1, Stage::Adapt, "adjust-cpu"),
            ev(500, 1, Stage::BackInSpec, "example1"),
            // A second, unfinished violation interleaved.
            ev(20, 2, Stage::Detect, "example2"),
            ev(21, 2, Stage::Report, "example2"),
            // corr 0 noise must be ignored.
            ev(1, 0, Stage::Mark, "noise"),
        ];
        let lcs = reconstruct(&events);
        assert_eq!(lcs.len(), 2);
        let a = &lcs[0];
        assert_eq!(a.corr, 1);
        assert_eq!(a.policy, "example1");
        assert!(a.complete());
        assert!(a.monotonic());
        assert_eq!(a.mttr_us(), Some(490));
        let b = &lcs[1];
        assert!(!b.complete());
        assert_eq!(b.mttr_us(), None);
    }

    #[test]
    fn repeated_stage_keeps_earliest_timestamp() {
        let events = vec![
            ev(50, 3, Stage::Report, "p"),
            ev(40, 3, Stage::Report, "p"),
            ev(30, 3, Stage::Detect, "p"),
        ];
        let lcs = reconstruct(&events);
        assert_eq!(lcs[0].stage_at(Stage::Report), Some(40));
        assert_eq!(lcs[0].events, 3);
    }

    #[test]
    fn non_monotonic_chain_is_flagged() {
        let events = vec![
            ev(100, 4, Stage::Detect, "p"),
            ev(90, 4, Stage::Report, "p"),
        ];
        let lcs = reconstruct(&events);
        assert!(!lcs[0].monotonic());
    }

    #[test]
    fn latency_aggregation() {
        let events = vec![
            ev(0, 1, Stage::Detect, "p"),
            ev(100, 1, Stage::Report, "p"),
            ev(150, 1, Stage::Diagnose, "p"),
            ev(150, 1, Stage::Adapt, "p"),
            ev(1150, 1, Stage::BackInSpec, "p"),
            ev(0, 2, Stage::Detect, "p"),
        ];
        let lat = stage_latencies(&reconstruct(&events));
        assert_eq!(lat.completed, 1);
        assert_eq!(lat.open, 1);
        assert_eq!(lat.mttr.count, 1);
        assert_eq!(lat.mttr.max, 1150);
        let dr = &lat.transitions[0];
        assert_eq!(dr.0, "detect→report");
        assert_eq!(dr.1.max, 100);
        let da = &lat.transitions[2];
        assert_eq!(da.1.max, 0, "diagnose and adapt at the same instant");
    }
}
