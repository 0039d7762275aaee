//! Default rule sets for the QoS Host Manager and QoS Domain Manager, in
//! the dynamic CLIPS-style text format so they can be distributed,
//! replaced and extended at run time (Section 9: "it is very important to
//! be able to dynamically add or delete rules").
//!
//! ## Host-manager fact vocabulary
//!
//! * `(violation (pid "h0:p2") (attr frame_rate) (fps F) (lo L) (hi H)
//!   (buffer B) (weight W) (has-upstream true|false))` — asserted per
//!   coordinator notification; `attr` is the symbol of the first reading's
//!   attribute, `fps` its value whatever the attribute.
//! * `(mem-deficit (pid "h0:p2") (pages N))` — resident-set shortfall at
//!   notification time, when there is one.
//! * `(alloc (pid "h0:p2") (boost N))` — the process's current CPU boost,
//!   refreshed with each notification.
//! * `(threshold (name buffer-cutoff) (value 1000))` — the Example 5
//!   heuristic's cutoff.
//!
//! The three per-notification templates are keyed by `pid`: a fresh
//! report replaces that process's facts and nobody else's. In
//! [`crate::host_core::HostCore`] each exists only while a loaded rule
//! has a condition element on it — `alloc`, which only
//! [`overload_rules`] read, is not asserted under the default rule base —
//! and is retracted when its last reader is removed. (The live manager
//! asserts `violation` alone.)
//!
//! ## Host-manager commands
//!
//! * `adjust-cpu pid fps lo weight` — grow the CPU allocation.
//! * `relax-cpu pid` — shrink it (metric exceeded the upper bound).
//! * `notify-domain pid fps` — escalate: the cause is not local.
//! * `adjust-memory pid pages` — grow the resident set.

use qos_inference::prelude::{Slot, Template};

/// A per-notification template and the slot holding the pid it is keyed
/// by.
pub(crate) struct PidKeyed {
    pub(crate) template: Template,
    pub(crate) pid: Slot,
}

impl PidKeyed {
    fn new(template: &str) -> Self {
        let template = Template::named(template);
        PidKeyed {
            template,
            pid: template.slot("pid"),
        }
    }
}

/// The host-manager fact vocabulary above as handles, resolved once by
/// whoever asserts it: the templates and the slots a manager writes.
pub(crate) struct HostVocabulary {
    pub(crate) violation: PidKeyed,
    pub(crate) attr: Slot,
    pub(crate) fps: Slot,
    pub(crate) lo: Slot,
    pub(crate) hi: Slot,
    pub(crate) buffer: Slot,
    pub(crate) weight: Slot,
    pub(crate) has_upstream: Slot,
    pub(crate) alloc: PidKeyed,
    pub(crate) boost: Slot,
    pub(crate) mem_deficit: PidKeyed,
    pub(crate) pages: Slot,
}

impl HostVocabulary {
    pub(crate) fn new() -> Self {
        let violation = PidKeyed::new("violation");
        let alloc = PidKeyed::new("alloc");
        let mem_deficit = PidKeyed::new("mem-deficit");
        let v = violation.template;
        HostVocabulary {
            attr: v.slot("attr"),
            fps: v.slot("fps"),
            lo: v.slot("lo"),
            hi: v.slot("hi"),
            buffer: v.slot("buffer"),
            weight: v.slot("weight"),
            has_upstream: v.slot("has-upstream"),
            boost: alloc.template.slot("boost"),
            pages: mem_deficit.template.slot("pages"),
            violation,
            alloc,
            mem_deficit,
        }
    }

    /// The three templates asserted per notification.
    pub(crate) fn per_notification(&self) -> [&PidKeyed; 3] {
        [&self.violation, &self.alloc, &self.mem_deficit]
    }
}

/// The buffer-occupancy cutoff distinguishing "client cannot keep up"
/// (local CPU cause) from "frames are not arriving" (remote/network
/// cause), in bytes.
pub const BUFFER_CUTOFF: f64 = 1000.0;

/// Base facts every host manager starts with.
pub fn host_base_facts() -> String {
    format!("(deffacts thresholds (threshold (name buffer-cutoff) (value {BUFFER_CUTOFF})))")
}

/// The Section 5.3 host-manager rule set, fair-share variant: every
/// process is adjusted with weight 1 regardless of its user, so under
/// contention all applications degrade equally.
pub fn host_rules_fair() -> String {
    host_rules_common("1")
}

/// Differentiated variant: the adjustment is scaled by the process's
/// administrative weight ("adjust the priority based on the user of the
/// video application"), so higher-priority users win under contention.
pub fn host_rules_differentiated() -> String {
    host_rules_common("?w")
}

fn host_rules_common(weight_term: &str) -> String {
    format!(
        r#"
; Large communication buffer: frames are arriving faster than the client
; processes them, so the client is starved of CPU (Section 5.3).
(defrule local-cpu-starvation
  (declare (salience 10))
  (violation (pid ?p) (fps ?f) (lo ?lo) (buffer ?b) (weight ?w))
  (threshold (name buffer-cutoff) (value ?bt))
  (test (< ?f ?lo))
  (test (> ?b ?bt))
  =>
  (call adjust-cpu ?p ?f ?lo {weight_term})
  (retract 0))

; Small buffer and a remote stream: the client keeps up with whatever
; arrives, so the cause is the server or the network -> escalate to the
; QoS Domain Manager (Example 5).
(defrule remote-cause
  (declare (salience 10))
  (violation (pid ?p) (fps ?f) (lo ?lo) (buffer ?b) (has-upstream true))
  (threshold (name buffer-cutoff) (value ?bt))
  (test (< ?f ?lo))
  (test (<= ?b ?bt))
  =>
  (call notify-domain ?p ?f)
  (retract 0))

; Small buffer but no remote stream to blame: fall back to a local CPU
; adjustment (a purely local application that simply is not being
; scheduled often enough also presents an empty queue).
(defrule local-fallback
  (violation (pid ?p) (fps ?f) (lo ?lo) (has-upstream false))
  (test (< ?f ?lo))
  =>
  (call adjust-cpu ?p ?f ?lo {weight_term})
  (retract 0))

; Response-time attributes invert the frame-rate sense: HIGH is bad.
; A slow instrumented server (web server, transaction processor) gets
; its allocation nudged up.
(defrule response-time-slow
  (declare (salience 22))
  (violation (pid ?p) (attr response_time) (fps ?v) (hi ?hi) (weight ?w))
  (test (> ?v ?hi))
  =>
  (call nudge-cpu ?p ?w)
  (retract 0))

; Above the upper bound: give resources back (Section 2's feedback loop
; runs in both directions).
(defrule over-achieving
  (declare (salience 20))
  (violation (pid ?p) (fps ?f) (hi ?hi))
  (test (> ?f ?hi))
  =>
  (call relax-cpu ?p ?f ?hi)
  (retract 0))

; Resident-set shortfall accompanies a violation: grow it via the memory
; resource manager. Independent of the CPU rules (consumes only the
; mem-deficit fact).
(defrule memory-shortfall
  (declare (salience 30))
  (mem-deficit (pid ?p) (pages ?n))
  (test (> ?n 0))
  =>
  (call adjust-memory ?p ?n)
  (retract 0))

; No specific diagnosis matched — e.g. a jitter-only violation whose
; frame rate sits inside the band. Count it and retract it: unmatched
; reports must never accumulate in working memory.
(defrule unhandled-violation
  (declare (salience -10))
  (violation (pid ?p))
  =>
  (call unhandled-violation ?p)
  (retract 0))
"#
    )
}

/// Proactive rules (the Section 10 "proactive QoS" extension): a policy
/// over a *leading indicator* (socket-buffer occupancy) violates while
/// the primary metric is still in specification; the manager nudges the
/// allocation up before the user-visible requirement breaks. Load
/// with [`crate::host_core::HostCore::load_rules`] — inert unless
/// trend-attribute violations arrive.
pub fn proactive_rules() -> &'static str {
    r#"
; The communication buffer is filling: the client is falling behind even
; though the frame rate has not left specification yet. Nudge now.
(defrule proactive-buffer-pressure
  (declare (salience 25))
  (violation (pid ?p) (attr buffer_size) (weight ?w))
  =>
  (call nudge-cpu ?p ?w)
  (retract 0))
"#
}

/// Overload rules (the Section 10 "overload conditions" extension): when
/// a violation persists although the CPU allocation is already at its
/// maximum, no resource adjustment can help — ask the application to
/// adapt its own behaviour through an actuator (Section 5.1), e.g. a
/// video player dropping to a cheaper quality level.
pub fn overload_rules() -> &'static str {
    r#"
(defrule overload-adapt-application
  (declare (salience 15))
  (violation (pid ?p) (fps ?f) (lo ?lo))
  (alloc (pid ?p) (boost ?b))
  (test (< ?f ?lo))
  (test (>= ?b 60))
  =>
  (call adapt-app ?p)
  (retract 0))
"#
}

/// Domain-manager fact vocabulary:
///
/// * `(alert (corr N) (client "h0:p2") (client-host 0) (server "h1:p0")
///   (server-host 1) (fps F))`
/// * `(server-stats (corr N) (load L) (mem M))` — reply to the stats
///   query the domain manager sends on every alert.
/// * `(stats-timeout (corr N))` — asserted instead when the query's
///   deadline fires with no reply.
/// * `(dthreshold (name server-load) (value 1.5))`,
///   `(dthreshold (name server-mem) (value 0.9))`
///
/// Commands: `boost-server pid host`, `boost-server-memory pid host`,
/// `reroute client-host server-host`.
pub fn domain_base_facts() -> &'static str {
    "(deffacts dthresholds
       (dthreshold (name server-load) (value 1.5))
       (dthreshold (name server-mem) (value 0.9)))"
}

/// The Section 5.3 domain-manager rule set: on an alert, ask the
/// server-side host manager for CPU load and memory usage; a high load
/// means the server process is starved (boost it); high memory means a
/// resident-set problem; otherwise the problem is the network — reroute
/// around the congested switch. A query that times out unanswered is
/// indistinguishable from a partition on the path, so it is treated as a
/// network problem too (`stats-timeout-reroute`).
pub fn domain_rules() -> &'static str {
    r#"
(defrule server-cpu-problem
  (declare (salience 10))
  (alert (corr ?c) (server ?s) (server-host ?sh))
  (server-stats (corr ?c) (load ?l))
  (dthreshold (name server-load) (value ?lt))
  (test (> ?l ?lt))
  =>
  (call boost-server ?s ?sh)
  (retract 0)
  (retract 1))

(defrule server-memory-problem
  (declare (salience 5))
  (alert (corr ?c) (server ?s) (server-host ?sh))
  (server-stats (corr ?c) (mem ?m))
  (dthreshold (name server-mem) (value ?mt))
  (test (> ?m ?mt))
  =>
  (call boost-server-memory ?s ?sh)
  (retract 0)
  (retract 1))

(defrule network-problem
  (alert (corr ?c) (client-host ?ch) (server-host ?sh))
  (server-stats (corr ?c) (load ?l) (mem ?m))
  (dthreshold (name server-load) (value ?lt))
  (dthreshold (name server-mem) (value ?mt))
  (test (<= ?l ?lt))
  (test (<= ?m ?mt))
  =>
  (call reroute ?ch ?sh)
  (retract 0)
  (retract 1))

(defrule stats-timeout-reroute
  (alert (corr ?c) (client-host ?ch) (server-host ?sh))
  (stats-timeout (corr ?c))
  =>
  (call reroute ?ch ?sh)
  (retract 0)
  (retract 1))
"#
}

#[cfg(test)]
mod tests {
    use qos_inference::prelude::*;

    fn engine_with(rules: &str, facts: &str) -> Engine {
        let mut e = Engine::new();
        for r in parse_program(rules).unwrap().rules {
            e.add_rule(r);
        }
        for f in parse_program(facts).unwrap().facts {
            e.assert_fact(f);
        }
        e
    }

    fn violation(pid: &str, fps: f64, buffer: f64, upstream: bool) -> Fact {
        Fact::new("violation")
            .with("pid", Value::str(pid))
            .with("fps", fps)
            .with("lo", 23.0)
            .with("hi", 27.0)
            .with("buffer", buffer)
            .with("weight", 2.0)
            .with("has-upstream", upstream)
    }

    #[test]
    fn big_buffer_is_local_cpu_cause() {
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 15.0, 50_000.0, true));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "adjust-cpu");
        assert_eq!(inv[0].args[0], Value::Str("h0:p2".into()));
        // Fair variant pins weight to 1.
        assert_eq!(inv[0].args[3], Value::Int(1));
        // Violation consumed.
        assert_eq!(e.facts().by_template("violation").count(), 0);
    }

    #[test]
    fn differentiated_variant_passes_weight() {
        let mut e = engine_with(
            &super::host_rules_differentiated(),
            &super::host_base_facts(),
        );
        e.assert_fact(violation("h0:p2", 15.0, 50_000.0, true));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv[0].args[3], Value::Float(2.0));
    }

    #[test]
    fn small_buffer_with_upstream_escalates() {
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 15.0, 100.0, true));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "notify-domain");
    }

    #[test]
    fn small_buffer_without_upstream_falls_back_to_cpu() {
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 15.0, 100.0, false));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "adjust-cpu");
    }

    #[test]
    fn over_achievement_relaxes() {
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 31.0, 100.0, true));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "relax-cpu");
    }

    #[test]
    fn jitter_only_violation_is_consumed_by_the_catch_all() {
        // Frame rate inside the band: no diagnosis rule matches (the
        // report came through the jitter leg), but the fact must still
        // be consumed so working memory cannot accumulate.
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 25.0, 50_000.0, true));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "unhandled-violation");
        assert_eq!(e.facts().by_template("violation").count(), 0);
    }

    #[test]
    fn memory_rule_fires_alongside_cpu_rule() {
        let mut e = engine_with(&super::host_rules_fair(), &super::host_base_facts());
        e.assert_fact(violation("h0:p2", 15.0, 50_000.0, true));
        e.assert_fact(
            Fact::new("mem-deficit")
                .with("pid", Value::str("h0:p2"))
                .with("pages", 40),
        );
        e.run(100);
        let cmds: Vec<String> = e
            .take_invocations()
            .into_iter()
            .map(|i| i.command)
            .collect();
        assert!(cmds.contains(&"adjust-cpu".to_string()));
        assert!(cmds.contains(&"adjust-memory".to_string()));
    }

    fn alert(corr: i64) -> Fact {
        Fact::new("alert")
            .with("corr", corr)
            .with("client", Value::str("h0:p2"))
            .with("client-host", 0)
            .with("server", Value::str("h1:p0"))
            .with("server-host", 1)
            .with("fps", 12.0)
    }

    fn stats(corr: i64, load: f64, mem: f64) -> Fact {
        Fact::new("server-stats")
            .with("corr", corr)
            .with("load", load)
            .with("mem", mem)
    }

    #[test]
    fn domain_diagnoses_server_cpu() {
        let mut e = engine_with(super::domain_rules(), super::domain_base_facts());
        e.assert_fact(alert(1));
        e.assert_fact(stats(1, 6.0, 0.2));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "boost-server");
        assert_eq!(inv[0].args, vec![Value::Str("h1:p0".into()), Value::Int(1)]);
    }

    #[test]
    fn domain_diagnoses_server_memory() {
        let mut e = engine_with(super::domain_rules(), super::domain_base_facts());
        e.assert_fact(alert(2));
        e.assert_fact(stats(2, 0.5, 0.97));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv[0].command, "boost-server-memory");
    }

    #[test]
    fn domain_blames_network_by_elimination() {
        let mut e = engine_with(super::domain_rules(), super::domain_base_facts());
        e.assert_fact(alert(3));
        e.assert_fact(stats(3, 0.4, 0.2));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "reroute");
        assert_eq!(inv[0].args, vec![Value::Int(0), Value::Int(1)]);
    }

    #[test]
    fn domain_treats_stats_timeout_as_network_problem() {
        let mut e = engine_with(super::domain_rules(), super::domain_base_facts());
        e.assert_fact(alert(4));
        e.assert_fact(Fact::new("stats-timeout").with("corr", 4));
        e.run(100);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].command, "reroute");
        assert_eq!(inv[0].args, vec![Value::Int(0), Value::Int(1)]);
        assert_eq!(e.facts().by_template("alert").count(), 0, "alert consumed");
        assert_eq!(e.facts().by_template("stats-timeout").count(), 0);
    }

    /// The shipped rule sets, driven through a violation-storm scenario
    /// under both matchers: the incremental Rete-lite engine must fire
    /// exactly the sequence the naive full-rematch oracle fires.
    #[test]
    fn incremental_matcher_matches_naive_oracle_on_shipped_rules() {
        let scenario = |naive: bool| {
            let mut e = Engine::new();
            e.use_naive_matcher(naive);
            e.set_trace_capacity(4096);
            for r in parse_program(&super::host_rules_differentiated())
                .unwrap()
                .rules
            {
                e.add_rule(r);
            }
            for r in parse_program(super::overload_rules()).unwrap().rules {
                e.add_rule(r);
            }
            for r in parse_program(super::proactive_rules()).unwrap().rules {
                e.add_rule(r);
            }
            for f in parse_program(&super::host_base_facts()).unwrap().facts {
                e.assert_fact(f);
            }
            // Persistent per-process allocation facts (as the host
            // manager maintains them), then storms of mixed violations.
            for p in 0..8 {
                e.assert_fact(
                    Fact::new("alloc")
                        .with("pid", Value::str(format!("h0:p{p}")))
                        .with("boost", if p % 2 == 0 { 80 } else { 10 }),
                );
            }
            for round in 0..4u32 {
                for p in 0..8 {
                    let pid = format!("h0:p{p}");
                    let fps = match (p + round as usize) % 4 {
                        0 => 15.0, // below band
                        1 => 31.0, // above band
                        2 => 25.0, // inside band -> catch-all
                        _ => 12.0,
                    };
                    let buffer = if p % 3 == 0 { 50_000.0 } else { 100.0 };
                    e.assert_fact(violation(&pid, fps, buffer, p % 2 == 0));
                    if p == round as usize {
                        e.assert_fact(
                            Fact::new("mem-deficit")
                                .with("pid", Value::str(&pid))
                                .with("pages", 40),
                        );
                    }
                }
                e.run(200);
            }
            (
                e.take_trace(),
                e.take_invocations(),
                e.facts().len(),
                e.join_work_total(),
            )
        };
        let (naive_trace, naive_inv, naive_facts, naive_work) = scenario(true);
        let (rete_trace, rete_inv, rete_facts, rete_work) = scenario(false);
        assert_eq!(naive_trace, rete_trace, "identical firing sequences");
        assert_eq!(naive_inv, rete_inv, "identical command streams");
        assert_eq!(naive_facts, rete_facts);
        assert!(
            rete_work < naive_work,
            "incremental matching examines fewer candidates ({rete_work} vs {naive_work})"
        );
    }

    #[test]
    fn correlation_prevents_cross_matching() {
        let mut e = engine_with(super::domain_rules(), super::domain_base_facts());
        e.assert_fact(alert(1));
        e.assert_fact(stats(2, 6.0, 0.2)); // different correlation
        e.run(100);
        assert!(
            e.take_invocations().is_empty(),
            "mismatched corr must not fire"
        );
    }
}
