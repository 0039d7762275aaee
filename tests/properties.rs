//! Property-based tests (proptest) over the core data structures and
//! invariants: parser/printer round-trips, scheduler-queue invariants,
//! sensor edge-triggering, boolean-expression consistency, directory and
//! LDIF round-trips, and engine refraction.

use proptest::prelude::*;
use qos_core::inference::prelude::*;
use qos_core::instrument::prelude::*;
use qos_core::policy::prelude::*;
use qos_core::repository::prelude::*;
use qos_core::sim::rng::Rng;
use qos_core::sim::sched::{ReadyQueues, GLOBAL_LEVELS};
use qos_core::sim::stats::{LoadAvg, Summary};
use qos_core::sim::{Dur, HostId, Pid, SimTime};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,9}"
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1.0e9..1.0e9f64).prop_map(|x| (x * 100.0).round() / 100.0)
}

proptest! {
    // ------------------------------------------------------------------
    // qos-sim
    // ------------------------------------------------------------------

    #[test]
    fn rng_below_is_always_in_range(seed: u64, bound in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    #[test]
    fn rng_f64_in_unit_interval(seed: u64) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            let x = r.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn dur_arithmetic_never_wraps(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let da = Dur::from_micros(a);
        let db = Dur::from_micros(b);
        prop_assert_eq!((da + db).as_micros(), a.saturating_add(b));
        prop_assert_eq!(da.saturating_sub(db).as_micros(), a.saturating_sub(b));
        let t = SimTime::from_micros(a) + db;
        prop_assert!(t >= SimTime::from_micros(a));
    }

    #[test]
    fn load_avg_stays_within_input_hull(samples in proptest::collection::vec(0usize..64, 1..200)) {
        let mut la = LoadAvg::one_minute();
        let max = *samples.iter().max().expect("nonempty") as f64;
        for &s in &samples {
            la.sample(s);
            prop_assert!(la.value() <= max + 1e-9);
            prop_assert!(la.value() >= 0.0);
        }
    }

    #[test]
    fn summary_matches_naive_mean(xs in proptest::collection::vec(-1.0e6..1.0e6f64, 1..100)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.max() >= s.mean() - 1e-9);
    }

    #[test]
    fn ready_queue_pop_is_monotone_in_level(
        entries in proptest::collection::vec((0u16..GLOBAL_LEVELS, 0u32..64), 0..80)
    ) {
        let mut q = ReadyQueues::new();
        for (i, &(level, n)) in entries.iter().enumerate() {
            q.push_back(level, Pid { host: HostId(0), local: (i as u32) << 8 | n }, SimTime::ZERO);
        }
        prop_assert_eq!(q.len(), entries.len());
        let mut last = u16::MAX;
        let mut popped = 0;
        while let Some((level, _)) = q.pop_best() {
            prop_assert!(level <= last, "levels must be non-increasing");
            last = level;
            popped += 1;
        }
        prop_assert_eq!(popped, entries.len());
        prop_assert_eq!(q.len(), 0);
    }

    // ------------------------------------------------------------------
    // qos-policy
    // ------------------------------------------------------------------

    #[test]
    fn generated_policies_roundtrip_through_the_parser(
        name in "[A-Z][A-Za-z0-9]{0,10}",
        attr in ident(),
        target in 1.0..1000.0f64,
        tol in 0.5..50.0f64,
        jitter_attr in ident(),
        bound in 0.1..100.0f64,
    ) {
        let target = (target * 10.0).round() / 10.0;
        let tol = (tol * 10.0).round() / 10.0;
        let bound = (bound * 100.0).round() / 100.0;
        let src = format!(
            "oblig {name} {{ subject (...)/App/qosl_coordinator \
             target s1, (...)QoSHostManager \
             on not ({attr} = {target}(+{tol})(-{tol}) AND {jitter_attr} < {bound}) \
             do s1->read(out {attr}); (...)QoSHostManager->notify({attr}); }}"
        );
        let ast = parse_policy(&src).expect("generated policy parses");
        prop_assert_eq!(&ast.name, &name);
        // The event round-trips through Display.
        let printed = ast.event.to_string();
        let src2 = format!(
            "oblig {name} {{ subject (...)/App/qosl_coordinator on {printed} do s1->read(out x); }}"
        );
        let ast2 = parse_policy(&src2).expect("printed condition reparses");
        prop_assert_eq!(&ast.event, &ast2.event);
        // Compilation yields the expected interval conditions.
        let compiled = compile(&ast).expect("compiles");
        prop_assert!(compiled.conditions.len() >= 2);
        prop_assert!(compiled.violated(&vec![false; compiled.conditions.len()]));
        prop_assert!(!compiled.violated(&vec![true; compiled.conditions.len()]));
    }

    #[test]
    fn compiled_conditions_agree_with_interval_semantics(
        target in 10.0..100.0f64,
        tol in 1.0..9.0f64,
        sample in 0.0..200.0f64,
    ) {
        let target = target.round();
        let tol = tol.round();
        let src = format!(
            "oblig P {{ subject s on not (m = {target}(+{tol})(-{tol})) do s->read(out m); }}"
        );
        let compiled = compile(&parse_policy(&src).expect("parses")).expect("compiles");
        let vars: Vec<bool> = compiled.conditions.iter().map(|c| c.holds(sample)).collect();
        let in_band = sample > target - tol && sample < target + tol;
        prop_assert_eq!(!compiled.violated(&vars), in_band);
    }

    // ------------------------------------------------------------------
    // qos-repository
    // ------------------------------------------------------------------

    #[test]
    fn dn_roundtrips(parts in proptest::collection::vec((ident(), ident()), 1..6)) {
        let text = parts
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        let dn = Dn::parse(&text).expect("valid DN");
        prop_assert_eq!(dn.to_string(), text);
        let again = Dn::parse(&dn.to_string()).expect("reparses");
        prop_assert_eq!(dn, again);
    }

    #[test]
    fn ldif_roundtrips(
        entries in proptest::collection::vec(
            (ident(), proptest::collection::vec((ident(), "[ -~]{1,30}"), 1..5)),
            1..6
        )
    ) {
        let mut es = Vec::new();
        for (i, (cn, attrs)) in entries.iter().enumerate() {
            let mut e = Entry::new(Dn::parse(&format!("cn={cn}{i}")).expect("valid"));
            for (a, v) in attrs {
                // LDIF values must not begin/end with whitespace, and
                // `dn` is the entry name, not an attribute.
                let v = v.trim();
                if v.is_empty() || a == "dn" {
                    continue;
                }
                e.add(a, v);
            }
            es.push(e);
        }
        let text = to_ldif(&es);
        let parsed = parse_ldif(&text).expect("own output parses");
        prop_assert_eq!(es, parsed);
    }

    #[test]
    fn filter_eq_matches_exactly(attr in ident(), val in "[a-zA-Z0-9]{1,12}", other in "[a-zA-Z0-9]{1,12}") {
        let e = Entry::new(Dn::parse("cn=x").expect("valid")).with(&attr, val.clone());
        let f = Filter::parse(&format!("({attr}={val})")).expect("valid filter");
        prop_assert!(f.matches(&e));
        let g = Filter::parse(&format!("({attr}={other})")).expect("valid filter");
        prop_assert_eq!(g.matches(&e), other == val);
        let notf = Filter::parse(&format!("(!({attr}={val}))")).expect("valid filter");
        prop_assert!(!notf.matches(&e));
    }

    // ------------------------------------------------------------------
    // qos-inference
    // ------------------------------------------------------------------

    #[test]
    fn engine_refraction_is_idempotent(values in proptest::collection::vec(0i64..50, 1..20)) {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("ev").slot_var("x", "x"))
                .then_call("hit", vec![Term::var("x")]),
        );
        let distinct = {
            let mut v = values.clone();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        for &v in &values {
            e.assert_fact(Fact::new("ev").with("x", v));
        }
        let first = e.run(10_000);
        prop_assert_eq!(first.fired, distinct, "one firing per distinct fact");
        // Re-running with no new facts fires nothing.
        let second = e.run(10_000);
        prop_assert_eq!(second.fired, 0);
    }

    #[test]
    fn facts_display_roundtrips_through_sexpr(template in ident(), slots in proptest::collection::vec((ident(), -1000i64..1000), 0..5)) {
        let mut f = Fact::new(&template);
        for (k, v) in &slots {
            // Duplicate keys follow map semantics: last write wins.
            f = f.with(k, Value::Int(*v));
        }
        let text = format!("(deffacts x {f})");
        let prog = parse_program(&text).expect("fact display reparses");
        prop_assert_eq!(prog.facts[0].template().name(), template.as_str());
        prop_assert_eq!(&prog.facts[0], &f);
    }

    // ------------------------------------------------------------------
    // qos-instrument
    // ------------------------------------------------------------------

    #[test]
    fn sensor_alarms_strictly_alternate(samples in proptest::collection::vec(finite_f64(), 1..300)) {
        let s = Sensor::new("s", "a");
        s.add_threshold(0, qos_core::policy::ast::CmpOp::Lt, 0.0);
        let mut expected_next = false; // first transition must be a violation-edge or nothing
        let mut now = 0;
        for &x in &samples {
            now += 1;
            for alarm in s.observe(x, now) {
                prop_assert_eq!(alarm.satisfied, expected_next);
                expected_next = !expected_next;
            }
        }
    }

    #[test]
    fn disabled_sensor_never_alarms(samples in proptest::collection::vec(finite_f64(), 1..100)) {
        let s = Sensor::new("s", "a");
        s.add_threshold(0, qos_core::policy::ast::CmpOp::Lt, 0.0);
        s.set_enabled(false);
        let mut now = 0;
        for &x in &samples {
            now += 1;
            prop_assert!(s.observe(x, now).is_empty());
        }
    }

    #[test]
    fn coordinator_violation_state_is_consistent(
        flips in proptest::collection::vec(proptest::bool::ANY, 1..100)
    ) {
        // A single-condition policy: the coordinator's violated flag must
        // always equal the negation of the last alarm state delivered.
        let src = "oblig P { subject s on not (m > 10) do s->read(out m); }";
        let compiled = compile(&parse_policy(src).expect("parses")).expect("compiles");
        let mut c = Coordinator::new("p");
        c.load_policy(compiled);
        for (i, &sat) in flips.iter().enumerate() {
            c.on_alarm(&AlarmEvent {
                condition: 0,
                satisfied: sat,
                value: 0.0,
                at_us: i as u64,
            });
            prop_assert_eq!(c.is_violated(0), !sat);
        }
    }
}

proptest! {
    #[test]
    fn spike_filter_suppresses_short_excursions(
        filter in 2u32..6,
        excursion in 1u32..6,
    ) {
        let s = Sensor::new("s", "a");
        s.add_threshold(0, qos_core::policy::ast::CmpOp::Lt, 10.0);
        s.set_spike_filter(filter);
        let mut now = 0;
        // Establish the satisfied state.
        for _ in 0..10 {
            now += 1;
            prop_assert!(s.observe(5.0, now).is_empty());
        }
        // An excursion shorter than the filter must never alarm.
        let mut alarms = Vec::new();
        for _ in 0..excursion.min(filter - 1) {
            now += 1;
            alarms.extend(s.observe(50.0, now));
        }
        prop_assert!(alarms.is_empty(), "short excursion alarmed");
        // Returning to normal keeps silence.
        for _ in 0..10 {
            now += 1;
            prop_assert!(s.observe(5.0, now).is_empty());
        }
        // A sustained excursion of exactly `filter` samples alarms once.
        let mut alarms = Vec::new();
        for _ in 0..filter {
            now += 1;
            alarms.extend(s.observe(50.0, now));
        }
        prop_assert_eq!(alarms.len(), 1);
    }

    #[test]
    fn coordinator_interns_shared_conditions(n_policies in 1usize..8) {
        // Distinct policies over the same conditions must not duplicate
        // them: the global table stays at one policy's own size. And
        // re-delivering a policy (same name) must not load a second copy.
        let src = "oblig P { subject s on not (m = 20(+2)(-2) AND j < 1.0) do s->read(out m); }";
        let compiled = compile(&parse_policy(src).expect("parses")).expect("compiles");
        let mut c = Coordinator::new("p");
        for i in 0..n_policies {
            let mut p = compiled.clone();
            p.name = format!("P{i}");
            let ix = c.load_policy(p.clone());
            prop_assert_eq!(c.load_policy(p), ix, "duplicate delivery is a no-op");
        }
        prop_assert_eq!(c.global_conditions().len(), 3);
        prop_assert_eq!(c.policy_count(), n_policies);
        // One alarm violates all of them at once.
        let triggered = c.on_alarm(&AlarmEvent {
            condition: 0,
            satisfied: false,
            value: 0.0,
            at_us: 1,
        });
        prop_assert_eq!(triggered.len(), n_policies);
    }

    #[test]
    fn filter_substring_matches_std(hay in "[a-z]{0,16}", needle in "[a-z]{1,4}") {
        let e = Entry::new(Dn::parse("cn=x").expect("valid")).with("a", hay.clone());
        let f = Filter::parse(&format!("(a=*{needle}*)")).expect("valid");
        prop_assert_eq!(f.matches(&e), hay.contains(&needle));
        let pre = Filter::parse(&format!("(a={needle}*)")).expect("valid");
        prop_assert_eq!(pre.matches(&e), hay.starts_with(&needle));
        let suf = Filter::parse(&format!("(a=*{needle})")).expect("valid");
        prop_assert_eq!(suf.matches(&e), hay.ends_with(&needle));
    }

    #[test]
    fn engine_negation_partitions_facts(ids in proptest::collection::vec(0i64..30, 1..15)) {
        // Rules `covered` and `uncovered` split facts exactly by the
        // presence of a matching marker fact.
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("covered")
                .when(Pattern::new("item").slot_var("id", "i"))
                .when(Pattern::new("marker").slot_var("id", "i"))
                .then_call("covered", vec![Term::var("i")]),
        );
        e.add_rule(
            Rule::new("uncovered")
                .when(Pattern::new("item").slot_var("id", "i"))
                .when_not(Pattern::new("marker").slot_var("id", "i"))
                .then_call("uncovered", vec![Term::var("i")]),
        );
        for &i in &distinct {
            e.assert_fact(Fact::new("item").with("id", i));
            if i % 2 == 0 {
                e.assert_fact(Fact::new("marker").with("id", i));
            }
        }
        e.run(10_000);
        let mut covered = 0usize;
        let mut uncovered = 0usize;
        for inv in e.take_invocations() {
            match inv.command.as_str() {
                "covered" => covered += 1,
                "uncovered" => uncovered += 1,
                _ => {}
            }
        }
        let evens = distinct.iter().filter(|i| *i % 2 == 0).count();
        prop_assert_eq!(covered, evens);
        prop_assert_eq!(uncovered, distinct.len() - evens);
    }
}

// ----------------------------------------------------------------------
// Chaos: seeded fault schedules against the full managed testbed
// ----------------------------------------------------------------------

use qos_core::apps::prelude::{spawn_mix, LoadMix};
use qos_core::manager::prelude::{
    QosHostManager, DOMAIN_MANAGER_PORT, HOST_MANAGER_PORT, POLICY_AGENT_PORT,
};
use qos_core::sim::prelude::{FaultPlan, MsgSelector, Window};
use qos_core::system::{Testbed, TestbedConfig};

proptest! {
    // Each case is a ~20-second simulated run of the whole testbed;
    // keep the count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seeded fault schedule on the control plane — up to 50%
    /// message loss, up to 50% duplication, and at most two process
    /// crashes (the client and/or the client's host manager) — leaves
    /// the management plane's invariants intact: registration stays
    /// idempotent under duplicate delivery, the CPU allocation never
    /// leaves the strategy's bounds (and is reclaimed on death), and no
    /// violation fact outlives its handling.
    #[test]
    fn fault_schedules_preserve_management_invariants(
        seed: u64,
        loss in 0.0..0.5f64,
        dup in 0.0..0.5f64,
        restart_hm: bool,
        kill_client: bool,
    ) {
        let cfg = TestbedConfig {
            seed,
            managed: true,
            stream_fps: 25.0,
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(&cfg);
        let control = MsgSelector::ports(vec![
            HOST_MANAGER_PORT,
            DOMAIN_MANAGER_PORT,
            POLICY_AGENT_PORT,
        ]);
        tb.world.install_faults(
            FaultPlan::new()
                .lose(Window::always(), control.clone(), loss)
                .duplicate(Window::always(), control, dup),
        );
        spawn_mix(
            &mut tb.world,
            tb.client_host,
            LoadMix { hogs: 4, fraction: 0.0 },
        );
        tb.world.run_for(Dur::from_secs(3));
        if restart_hm {
            tb.restart_host_manager(tb.client_host).expect("managed testbed");
        }
        tb.world.run_for(Dur::from_secs(3));
        let client = tb.clients[0];
        if kill_client {
            tb.world.kill(client);
        }
        // Long enough for the liveness reap (4 missed 2-second heartbeat
        // periods plus a sweep) after the last crash.
        tb.world.run_for(Dur::from_secs(14));

        let hm_pid = tb.client_hm.expect("managed testbed");
        let hm: &QosHostManager = tb.world.logic(hm_pid).expect("host manager logic");
        let stats = tb.client_hm_stats().expect("managed testbed");
        // Duplicated registrations / heartbeats must not double-count.
        prop_assert!(
            stats.registrations <= 1,
            "registration side effects duplicated: {}",
            stats.registrations
        );
        // The allocation never leaves the TS strategy's bounds, and a
        // dead client's boost is reclaimed by the liveness sweep.
        let boost = hm.cpu_allocation(client).boost;
        prop_assert!((0..=60).contains(&boost), "boost {} out of bounds", boost);
        if kill_client {
            prop_assert_eq!(boost, 0, "dead client keeps no allocation");
            prop_assert!(!hm.is_registered(client), "dead client still registered");
        }
        // Every violation fact was consumed by the rule that handled it
        // (or retracted by the reaper).
        prop_assert_eq!(hm.facts_of("violation"), 0);
    }
}
