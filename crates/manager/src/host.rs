//! The QoS Host Manager process (Section 5.3): one per managed host.
//!
//! All decisions live in the sans-io [`HostCore`]. [`QosHostManager`] is
//! its simulator driver: it decodes control frames as views of the
//! frame it received (a violation is never materialised), unpacks
//! batches, feeds the core one message (or timer) at a time, and applies
//! the effects the core returns to the sim's [`Ctx`], in order.

use std::ops::{Deref, DerefMut};

use qos_sim::memory::ProcMem;
use qos_sim::prelude::*;
use qos_sim::proc::HostSnapshot;
use qos_telemetry::Telemetry;
use qos_wire::WireMsgRef;

pub use crate::host_core::{
    pid_from_str, pid_name, pid_to_string, Effect, HostCore, HostInput, HostMgrStats, HostView,
    OVERLOAD_PATIENCE, TAG_LIVENESS_SWEEP,
};
pub use crate::lifecycle::DUP_VIOLATION_WINDOW;
use crate::messages::{HOST_MANAGER_PORT, MANAGER_PROCESSING_COST};
use crate::resource::CpuStrategy;
use crate::transport::{decode_ctrl_ref, send_ctrl};

/// The host manager process: a [`HostCore`] and the buffer its effects
/// pass through. Everything readable of the manager — `stats`, rules,
/// allocations, the engine trace — is the core's, reached through
/// `Deref`.
pub struct QosHostManager {
    core: HostCore,
    /// Reused across callbacks, so a violation costs no allocation here.
    effects: Vec<Effect>,
}

impl Deref for QosHostManager {
    type Target = HostCore;
    fn deref(&self) -> &HostCore {
        &self.core
    }
}

impl DerefMut for QosHostManager {
    fn deref_mut(&mut self) -> &mut HostCore {
        &mut self.core
    }
}

impl HostView for Ctx<'_> {
    fn proc_mem(&self, pid: Pid) -> Option<ProcMem> {
        Ctx::proc_mem(self, pid)
    }
    fn host_stats(&self) -> HostSnapshot {
        Ctx::host_stats(self)
    }
}

impl QosHostManager {
    /// A host manager with the fair-share default rules and the
    /// prototype's TS-boost CPU strategy.
    pub fn new(domain: Option<Endpoint>) -> Self {
        QosHostManager {
            core: HostCore::new(domain),
            effects: Vec::new(),
        }
    }

    /// Discover the domain manager through the discovery server at
    /// `server` instead of hand-wiring it: on start the manager
    /// announces (with `seed`-jittered retry backoff), binds to the
    /// assigned domain manager, renews its lease at half the lease
    /// period, and re-discovers with a fresh epoch when renewals go
    /// unacknowledged. Any endpoint passed to [`QosHostManager::new`]
    /// serves only until the first assignment arrives.
    pub fn with_discovery(mut self, server: Endpoint, seed: u64) -> Self {
        self.core.set_discovery(server, seed);
        self
    }

    /// Replace the CPU strategy (ablation: TS boosts vs RT units).
    pub fn with_cpu_strategy(mut self, cpu: CpuStrategy) -> Self {
        self.core.set_cpu_strategy(cpu);
        self
    }

    /// Attach a telemetry handle; the manager emits Diagnose/Adapt stage
    /// events for correlated violations and mirrors its counters into
    /// the registry under `hm.*`.
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.core.set_telemetry(t);
        self
    }

    /// Step the core once and carry its effects out, in order. Returns
    /// the CPU time the core charged, for the callback to spend in one
    /// blocking `run`.
    fn feed(&mut self, ctx: &mut Ctx<'_>, input: HostInput<'_>) -> Dur {
        self.core
            .step(ctx.now(), ctx.host_id(), input, &*ctx, &mut self.effects);
        let mut charge = Dur::ZERO;
        for effect in self.effects.drain(..) {
            match effect {
                Effect::SetTimer(delay, tag) => ctx.set_timer(delay, tag),
                Effect::Priocntl(pid, cmd) => ctx.priocntl(pid, cmd),
                Effect::Memctl(pid, delta) => ctx.memctl(pid, delta),
                Effect::SendCtrl(dst, msg) => send_ctrl(ctx, dst, HOST_MANAGER_PORT, msg),
                Effect::Charge(cpu) => charge += cpu,
            }
        }
        charge
    }
}

impl ProcessLogic for QosHostManager {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Readable(port) => {
                let Some(msg) = ctx.recv(port) else { return };
                // One decode point for the whole control plane: corrupt
                // frames are counted, never panicked on; non-control
                // payloads cost a look and nothing else.
                let charge = match decode_ctrl_ref(&msg) {
                    Ok(Some(WireMsgRef::Batch(b))) => {
                        self.core.note_batch_frame(ctx.host_id(), b.len());
                        let mut charge = Dur::ZERO;
                        for m in &b {
                            charge += self.feed(ctx, HostInput::Msg(m));
                        }
                        charge
                    }
                    Ok(Some(m)) => self.feed(ctx, HostInput::Msg(m)),
                    Ok(None) => MANAGER_PROCESSING_COST,
                    Err(_) => {
                        self.core.stats.decode_errors += 1;
                        MANAGER_PROCESSING_COST
                    }
                };
                // `Ctx` allows one blocking syscall per callback, so a
                // frame's messages are charged as one burst.
                if !charge.is_zero() {
                    ctx.run(charge);
                }
            }
            ProcEvent::Start => {
                self.feed(ctx, HostInput::Start);
            }
            ProcEvent::Timer(tag) => {
                self.feed(ctx, HostInput::Timer(tag));
            }
            // The end of a burst charged above: nothing has moved.
            ProcEvent::BurstDone => return,
        }
        self.core.mirror_stats(ctx.host_id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{RegisterMsg, RuleUpdateMsg, ViolationMsg, WireMsg};
    use crate::rules::BUFFER_CUTOFF;

    #[test]
    fn pid_string_roundtrip() {
        let p = Pid {
            host: HostId(3),
            local: 17,
        };
        assert_eq!(pid_from_str(&pid_to_string(p)), Some(p));
        assert_eq!(pid_from_str("garbage"), None);
        assert_eq!(pid_from_str("h1:px"), None);
    }

    /// A machine on which every process is this many pages short of its
    /// working set.
    struct Short(u32);

    impl HostView for Short {
        fn proc_mem(&self, _: Pid) -> Option<ProcMem> {
            Some(ProcMem {
                working_set: self.0,
                resident: 0,
                faults: 0,
            })
        }
        fn host_stats(&self) -> HostSnapshot {
            HostSnapshot {
                load_avg: 0.0,
                mem_utilization: 0.0,
                runnable: 0,
                cpu_busy: Dur::ZERO,
            }
        }
    }

    const SEC: u64 = 1_000_000;

    fn pid(local: u32) -> Pid {
        Pid {
            host: HostId(0),
            local,
        }
    }

    /// Everything below goes in through the core's one entry point.
    fn step(hm: &mut HostCore, at_us: u64, view: &Short, input: HostInput) -> Vec<Effect> {
        let mut out = Vec::new();
        hm.step(
            SimTime::from_micros(at_us),
            HostId(0),
            input,
            view,
            &mut out,
        );
        out
    }

    fn register(hm: &mut HostCore, at_us: u64, pid: Pid, heartbeat: Option<Dur>) {
        register_as(hm, at_us, pid, heartbeat, 1.0, 100);
    }

    fn register_as(
        hm: &mut HostCore,
        at_us: u64,
        pid: Pid,
        heartbeat: Option<Dur>,
        weight: f64,
        control_port: u16,
    ) {
        let reg = RegisterMsg {
            pid,
            control_port,
            executable: "vidplayer".into(),
            application: "video".into(),
            role: "student".into(),
            weight,
            heartbeat,
        };
        step(
            hm,
            at_us,
            &Short(0),
            HostInput::Msg(WireMsgRef::Owned(WireMsg::Register(reg))),
        );
    }

    fn sweep(hm: &mut HostCore, at_us: u64) {
        let out = step(hm, at_us, &Short(0), HostInput::Timer(TAG_LIVENESS_SWEEP));
        assert!(
            matches!(out[..], [Effect::SetTimer(_, TAG_LIVENESS_SWEEP)]),
            "a sweep re-arms itself and does nothing else: {out:?}"
        );
    }

    /// A sweep stopped between its declare and reclaim phases.
    fn sweep_partial(hm: &mut HostCore, at_us: u64) {
        qos_buggify::force("hm.reap.partial", 1);
        sweep(hm, at_us);
        // The point only evaluates when something was declared; an
        // unspent force must not leak into the next sweep.
        qos_buggify::clear("hm.reap.partial");
    }

    fn violation(pid: Pid, corr: u64, fps: f64) -> ViolationMsg {
        ViolationMsg {
            pid,
            proc_name: "vidplayer".into(),
            policy: "fps".into(),
            corr,
            readings: vec![("frame_rate".into(), fps)],
            bounds: Some(("frame_rate".into(), 23.0, 27.0)),
            upstream: None,
        }
    }

    fn violate(hm: &mut HostCore, at_us: u64, view: &Short, v: &ViolationMsg) -> Vec<Effect> {
        step(
            hm,
            at_us,
            view,
            HostInput::Msg(WireMsgRef::Violation(v.as_view())),
        )
    }

    #[test]
    fn registration_is_idempotent_per_pid() {
        let mut hm = HostCore::new(None);
        let p = pid(5);
        register(&mut hm, 0, p, None);
        register(&mut hm, 0, p, None);
        register(&mut hm, 0, p, None);
        assert_eq!(hm.stats.registrations, 1, "at-least-once delivery safe");
        assert!(hm.is_registered(p));
    }

    #[test]
    fn silent_heartbeat_process_is_reaped_and_reclaimed() {
        let mut hm = HostCore::new(None);
        let p = pid(5);
        register(&mut hm, 0, p, Some(Dur::from_secs(1)));
        // Give it state a crash would otherwise leak: a boost driven to
        // its cap and a memory grant, then two at-cap reports on the
        // overload streak, then a report no rule consumes.
        let update = RuleUpdateMsg {
            add: Some(crate::rules::overload_rules().into()),
            remove: vec!["unhandled-violation".into()],
        };
        step(
            &mut hm,
            0,
            &Short(0),
            HostInput::Msg(WireMsgRef::Owned(WireMsg::RuleUpdate(update))),
        );
        for corr in 1..=5 {
            violate(&mut hm, SEC / 10, &Short(32), &violation(p, corr, 0.0));
        }
        violate(&mut hm, SEC / 10, &Short(0), &violation(p, 6, 25.0));
        assert!(hm.cpu_allocation(p).boost > 0);
        assert!(hm.mem_granted(p) > 0);
        assert_eq!(hm.overload_streak(p), Some(2));
        assert_eq!(hm.facts_of("violation"), 1);

        // Heartbeats keep it alive...
        register(&mut hm, SEC, p, Some(Dur::from_secs(1)));
        sweep(&mut hm, 2 * SEC);
        assert!(hm.is_registered(p));

        // ...silence past the grace period kills it.
        sweep(&mut hm, 60 * SEC);
        assert_eq!(hm.stats.deaths, 1);
        assert!(!hm.is_registered(p));
        assert_eq!(hm.cpu_allocation(p).boost, 0, "CPU boost reclaimed");
        assert_eq!(hm.mem_granted(p), 0, "memory grant reclaimed");
        assert_eq!(hm.facts_of("violation"), 0, "stale facts retracted");
        assert_eq!(hm.overload_streak(p), None);

        // Reap is one-shot.
        sweep(&mut hm, 120 * SEC);
        assert_eq!(hm.stats.deaths, 1);
    }

    fn update_rules(hm: &mut HostCore, add: Option<&str>, remove: &[&str]) {
        let update = RuleUpdateMsg {
            add: add.map(str::to_string),
            remove: remove.iter().map(|r| r.to_string()).collect(),
        };
        step(
            hm,
            0,
            &Short(0),
            HostInput::Msg(WireMsgRef::Owned(WireMsg::RuleUpdate(update))),
        );
    }

    #[test]
    fn seeded_release_leak_keeps_only_the_grants() {
        // `skip_release_on_reap`: the reap forgets the process but leaves
        // its CPU boost and memory grant behind. Everything else kept of
        // it must still go.
        if !qos_buggify::COMPILED_IN {
            return;
        }
        let mut hm = HostCore::new(None);
        hm.bugs_mut().skip_release_on_reap = true;
        let p = pid(5);
        register(&mut hm, 0, p, Some(Dur::from_secs(1)));
        update_rules(
            &mut hm,
            Some(crate::rules::overload_rules()),
            &["unhandled-violation"],
        );
        for corr in 1..=5 {
            violate(&mut hm, SEC / 10, &Short(32), &violation(p, corr, 0.0));
        }
        violate(&mut hm, SEC / 10, &Short(0), &violation(p, 6, 25.0));
        let (boost, granted) = (hm.cpu_allocation(p).boost, hm.mem_granted(p));
        assert!(boost > 0 && granted > 0);
        assert_eq!(hm.overload_streak(p), Some(2));
        assert_eq!(hm.facts_of("violation"), 1);

        sweep(&mut hm, 60 * SEC);
        assert_eq!(hm.stats.deaths, 1);
        assert!(!hm.is_registered(p));
        assert_eq!(hm.facts_of("violation"), 0, "facts still retracted");
        assert_eq!(
            hm.overload_streak(p).unwrap_or(0),
            0,
            "streak still cleared"
        );
        assert_eq!(hm.cpu_allocation(p).boost, boost, "boost leaked");
        assert_eq!(hm.mem_granted(p), granted, "memory grant leaked");
        assert!(hm.lifecycle().holds_grant(p));
    }

    #[test]
    fn a_one_page_surplus_adapts_nothing() {
        // Reclaiming half of a one-page surplus reclaims no page: no
        // command, no count, no grant for the reap to release.
        let mut hm = HostCore::new(None);
        let p = pid(5);
        register(&mut hm, 0, p, None);
        update_rules(
            &mut hm,
            Some(
                "(defrule shed-one-page (declare (salience 40)) (violation (pid ?p)) \
                 => (call adjust-memory ?p -1))",
            ),
            &[],
        );
        // Inside the band: no CPU rule fires either.
        let out = violate(&mut hm, SEC, &Short(0), &violation(p, 1, 25.0));
        assert_eq!(hm.stats.unhandled, 1, "the rule ran: {out:?}");
        assert!(
            !out.iter().any(|e| matches!(e, Effect::Memctl(..))),
            "{out:?}"
        );
        assert_eq!(hm.stats.mem_adjustments, 0);
        assert_eq!(hm.mem_granted(p), 0);
        assert!(!hm.lifecycle().holds_grant(p));
    }

    #[test]
    fn re_registration_updates_weight_and_control_port() {
        let mut hm = HostCore::new(None);
        // Every rule passes the registered weight to `adjust-cpu`, and
        // every violation also asks for an application adaptation.
        update_rules(
            &mut hm,
            Some(&crate::rules::host_rules_differentiated()),
            &[],
        );
        update_rules(
            &mut hm,
            Some(
                "(defrule always-adapt (declare (salience 40)) (violation (pid ?p)) \
                 => (call adapt-app ?p))",
            ),
            &[],
        );
        let (moved, light, heavy) = (pid(5), pid(6), pid(7));
        register_as(&mut hm, 0, moved, None, 1.0, 100);
        register_as(&mut hm, 0, light, None, 1.0, 100);
        register_as(&mut hm, 0, heavy, None, 2.0, 100);
        register_as(&mut hm, SEC, moved, None, 2.0, 200);
        assert_eq!(hm.stats.registrations, 3);

        // A full buffer: `local-cpu-starvation`, the rule that binds the
        // weight, diagnoses it.
        let starved = |p, corr| {
            let mut v = violation(p, corr, 10.0);
            v.readings.push(("buffer_size".into(), 2.0 * BUFFER_CUTOFF));
            v
        };
        for (corr, p) in [(1, moved), (2, light), (3, heavy)] {
            violate(&mut hm, 2 * SEC, &Short(0), &starved(p, corr));
        }
        let boost = |p| hm.cpu_allocation(p).boost;
        assert_eq!(boost(moved), boost(heavy), "boosted as weight 2");
        assert!(boost(moved) > boost(light));

        let mut adapts = Vec::new();
        for corr in 4..=u64::from(OVERLOAD_PATIENCE) + 2 {
            let out = violate(&mut hm, corr * SEC, &Short(0), &starved(moved, corr));
            adapts.extend(out.into_iter().filter_map(|e| match e {
                Effect::SendCtrl(dst, WireMsg::Adapt(_)) => Some(dst),
                _ => None,
            }));
        }
        assert_eq!(adapts, [Endpoint::new(moved.host, 200)]);
    }

    #[test]
    fn one_process_violation_leaves_anothers_pending_deficit_alone() {
        let mut hm = HostCore::new(None);
        let (a, b) = (pid(5), pid(6));
        register(&mut hm, 0, a, Some(Dur::from_secs(1)));
        register(&mut hm, 0, b, None);
        // `memory-shortfall` consumes every deficit it sees. Swap it for
        // a rule that reads the template and never fires, so deficit
        // facts stay pending (with no reader at all they would not be
        // asserted in the first place).
        update_rules(
            &mut hm,
            Some(
                "(defrule deficit-watch (mem-deficit (pid ?p) (pages ?n)) (test (< ?n 0)) \
                 => (call adjust-memory ?p ?n))",
            ),
            &["memory-shortfall"],
        );
        violate(&mut hm, SEC / 10, &Short(32), &violation(a, 1, 0.0));
        assert_eq!(hm.facts_of("mem-deficit"), 1);
        violate(&mut hm, SEC / 10, &Short(32), &violation(b, 2, 0.0));
        assert_eq!(
            hm.facts_of("mem-deficit"),
            2,
            "a's fact survives b's report"
        );
        // A fresh report replaces the reporter's own fact...
        violate(&mut hm, SEC / 5, &Short(16), &violation(b, 3, 0.0));
        assert_eq!(hm.facts_of("mem-deficit"), 2);
        // ...and a reap drops the dead process's, nobody else's.
        sweep(&mut hm, 60 * SEC);
        assert_eq!(hm.stats.deaths, 1);
        assert!(!hm.is_registered(a));
        assert_eq!(hm.facts_of("mem-deficit"), 1);
    }

    #[test]
    fn alloc_facts_exist_only_while_a_loaded_rule_reads_them() {
        let mut hm = HostCore::new(None);
        let p = pid(5);
        register(&mut hm, 0, p, None);
        let mut corr = 0;
        let mut report = |hm: &mut HostCore| {
            corr += 1;
            violate(hm, corr * SEC, &Short(0), &violation(p, corr, 0.0))
        };
        // No default rule reads `alloc`, so none is asserted.
        report(&mut hm);
        assert_eq!(hm.cpu_allocation(p).boost, 20);
        assert_eq!(hm.facts_of("alloc"), 0);

        // The overload rules arrive mid-run: the next report asserts it.
        update_rules(&mut hm, Some(crate::rules::overload_rules()), &[]);
        report(&mut hm);
        assert_eq!(hm.facts_of("alloc"), 1);
        report(&mut hm);
        assert_eq!(hm.cpu_allocation(p).boost, 60, "at the cap");
        // E10: the application is asked to adapt on the
        // OVERLOAD_PATIENCE-th consecutive at-cap report, not before.
        for at_cap in 1..=OVERLOAD_PATIENCE {
            let adapts = report(&mut hm)
                .iter()
                .filter(|e| matches!(e, Effect::SendCtrl(_, WireMsg::Adapt(_))))
                .count();
            assert_eq!(adapts, usize::from(at_cap == OVERLOAD_PATIENCE));
        }
        assert_eq!(hm.stats.adaptations, 1);
        assert_eq!(hm.facts_of("alloc"), 1);

        // The last reader goes: its facts go with it, at once, and
        // violations keep being diagnosed.
        update_rules(&mut hm, None, &["overload-adapt-application"]);
        assert_eq!(hm.facts_of("alloc"), 0);
        hm.take_engine_trace();
        report(&mut hm);
        assert_eq!(hm.facts_of("alloc"), 0);
        assert_eq!(hm.stats.violations, u64::from(OVERLOAD_PATIENCE) + 4);
        assert_eq!(hm.take_engine_trace(), ["local-fallback"]);
        assert_eq!(hm.facts_of("violation"), 0);
    }

    #[test]
    fn heartbeat_between_reap_phases_cancels_the_reap() {
        // The reap/re-register race: liveness has declared the process
        // dead but the facts/allocations are not yet reclaimed when its
        // heartbeat arrives. Registration must cancel the pending reap
        // entirely — not leave a half-registered process.
        if !qos_buggify::compiled_in() {
            return;
        }
        qos_buggify::disable();
        let mut hm = HostCore::new(None);
        let p = pid(9);
        register(&mut hm, 0, p, Some(Dur::from_secs(1)));
        violate(&mut hm, 0, &Short(0), &violation(p, 1, 0.0));
        assert!(hm.cpu_allocation(p).boost > 0);

        // Freeze the sweep between its declare and reclaim phases.
        sweep_partial(&mut hm, 60 * SEC);
        assert!(!hm.lifecycle().tracks(p), "declared dead");
        assert_eq!(hm.lifecycle().pending_reap(), [p], "reclamation pending");
        assert!(hm.is_registered(p), "not yet reclaimed");

        // The racing heartbeat lands before the next sweep...
        register(&mut hm, 60 * SEC + SEC / 2, p, Some(Dur::from_secs(1)));
        // ...so the sweep that follows must not touch the process.
        sweep(&mut hm, 61 * SEC);
        assert!(hm.is_registered(p), "fully registered, not a zombie");
        assert!(hm.lifecycle().tracks(p), "liveness re-armed");
        assert_eq!(hm.stats.deaths, 0, "a live process is no death");
        assert!(hm.cpu_allocation(p).boost > 0, "allocation survives");
        qos_buggify::disable();
    }

    #[test]
    fn partial_reap_without_heartbeat_reclaims_on_next_sweep() {
        if !qos_buggify::compiled_in() {
            return;
        }
        qos_buggify::disable();
        let mut hm = HostCore::new(None);
        let p = pid(11);
        register(&mut hm, 0, p, Some(Dur::from_secs(1)));
        violate(&mut hm, 0, &Short(0), &violation(p, 1, 0.0));
        sweep_partial(&mut hm, 60 * SEC);
        assert!(hm.is_registered(p), "phase B deferred");
        // Still silent: the next sweep finishes the job exactly once.
        sweep(&mut hm, 61 * SEC);
        assert!(!hm.is_registered(p));
        assert_eq!(hm.stats.deaths, 1);
        assert_eq!(hm.cpu_allocation(p).boost, 0, "boost reclaimed once");
        assert!(hm.lifecycle().pending_reap().is_empty());
        qos_buggify::disable();
    }

    #[test]
    fn identical_redelivery_within_window_is_a_duplicate() {
        let mut hm = HostCore::new(None);
        let v = violation(pid(3), 7, 19.5);
        let fresh_and_dup = |hm: &HostCore| (hm.stats.violations, hm.stats.dup_violations);
        violate(&mut hm, SEC, &Short(0), &v);
        assert_eq!(fresh_and_dup(&hm), (1, 0), "first delivery is fresh");
        violate(&mut hm, SEC + SEC / 5, &Short(0), &v);
        assert_eq!(
            fresh_and_dup(&hm),
            (1, 1),
            "bit-identical redelivery 200 ms later is a transport dup"
        );
        violate(&mut hm, 2 * SEC + SEC / 10, &Short(0), &v);
        assert_eq!(
            fresh_and_dup(&hm),
            (2, 1),
            "a renotify one second later is a genuine repeat"
        );
        let mut changed = v.clone();
        changed.readings[0].1 = 20.5;
        violate(&mut hm, 2 * SEC + SEC / 10 + SEC / 20, &Short(0), &changed);
        assert_eq!(
            fresh_and_dup(&hm),
            (3, 1),
            "different readings are never a dup, however close"
        );
    }

    #[test]
    fn one_shot_registrant_is_never_reaped() {
        let mut hm = HostCore::new(None);
        let p = pid(7);
        register(&mut hm, 0, p, None);
        sweep(&mut hm, 3_600 * SEC);
        assert!(hm.is_registered(p), "no heartbeat promise, no reaping");
        assert_eq!(hm.stats.deaths, 0);
    }

    /// The lifecycle scripts the deleted hand model was replayed
    /// against, with the state each step must leave: `R`egistered,
    /// `T`racked, reap `P`ending, holds a `G`rant, tombstoned (`X`).
    #[test]
    fn scripted_lifecycle_scenarios_reach_their_states() {
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Register,
            Grant,
            Advance,
            Sweep,
            SweepPartial,
            Crash,
        }
        use Op::*;
        if !qos_buggify::compiled_in() {
            return; // SweepPartial needs the buggify point
        }
        let scripts: [&[(Op, &str)]; 5] = [
            &[
                (Register, "RT---"),
                (Grant, "RT-G-"),
                (Advance, "RT-G-"),
                (Sweep, "RT-G-"),
            ],
            &[
                (Register, "RT---"),
                (Grant, "RT-G-"),
                (Advance, "RT-G-"),
                (Advance, "RT-G-"),
                (Advance, "RT-G-"),
                (Advance, "RT-G-"),
                (Advance, "RT-G-"),
                (Sweep, "----X"),
                (Register, "RT---"),
            ],
            &[
                (Register, "RT---"),
                (Advance, "RT---"),
                (Advance, "RT---"),
                (Advance, "RT---"),
                (Advance, "RT---"),
                (Advance, "RT---"),
                (SweepPartial, "R-P--"),
                (Register, "RT---"),
                (Sweep, "RT---"),
            ],
            &[
                (Register, "RT---"),
                (Grant, "RT-G-"),
                (Crash, "-----"),
                (Register, "RT---"),
                (Sweep, "RT---"),
            ],
            &[
                (Grant, "---G-"),
                (Sweep, "---G-"),
                (SweepPartial, "---G-"),
                (Register, "RT-G-"),
                (Crash, "-----"),
                (Advance, "-----"),
                (Sweep, "-----"),
            ],
        ];
        let p = pid(1);
        for (i, script) in scripts.iter().enumerate() {
            qos_buggify::disable();
            let mut hm = HostCore::new(None);
            let mut now = 0;
            for (n, &(op, want)) in script.iter().enumerate() {
                match op {
                    Register => register(&mut hm, now, p, Some(Dur::from_secs(1))),
                    Grant => {
                        violate(&mut hm, now, &Short(0), &violation(p, n as u64, 0.0));
                    }
                    Advance => now += SEC,
                    Sweep => sweep(&mut hm, now),
                    SweepPartial => sweep_partial(&mut hm, now),
                    // A replacement manager takes over with empty
                    // volatile state; the clock keeps running.
                    Crash => hm = HostCore::new(None),
                }
                let l = hm.lifecycle();
                let got: String = [
                    (hm.is_registered(p), 'R'),
                    (l.tracks(p), 'T'),
                    (l.pending_reap().contains(&p), 'P'),
                    (l.holds_grant(p), 'G'),
                    (l.is_tombstoned(p), 'X'),
                ]
                .map(|(set, c)| if set { c } else { '-' })
                .iter()
                .collect();
                assert_eq!(got, want, "script {i}, after step {n} ({op:?})");
                assert_eq!(
                    l.holds_grant(p),
                    hm.cpu_allocation(p).boost > 0,
                    "script {i}, step {n}: the grant bit is the resource ledger's"
                );
            }
        }
    }

    #[test]
    fn rules_load_and_swap() {
        let mut hm = QosHostManager::new(None);
        let names = hm.rule_names();
        assert!(names.iter().any(|n| n == "local-cpu-starvation"));
        assert!(hm.remove_rule("local-cpu-starvation"));
        assert!(!hm.rule_names().iter().any(|n| n == "local-cpu-starvation"));
        assert!(hm.load_rules(&crate::rules::host_rules_differentiated()));
        assert!(hm.rule_names().iter().any(|n| n == "local-cpu-starvation"));
        assert!(!hm.load_rules("(this is (not valid"));
    }
}
