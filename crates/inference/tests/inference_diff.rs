//! Differential property test: the incremental compiled matcher must be
//! observationally identical to the naive full-rematch oracle.
//!
//! Each case generates a randomized interleaving of asserts, retracts
//! (by id, by slot value, by template), `run` calls and rule-base changes
//! (a rule added late that probes slots no earlier rule probed, a rule
//! replaced in place) over a rule set that exercises every matcher
//! feature — multi-CE joins, a constant-probed join against a permanent
//! fact, negation, salience, chained assertion, `modify`, self-consuming
//! retract actions and an empty-LHS rule — applies the same script to
//! both engines, and requires identical firing traces, invocation
//! streams, per-run fired counts and final fact populations.
//!
//! A second rule set ([`conflict_rules`]) aims at the conflict-set
//! bookkeeping: which firings file refraction entries (consumed
//! activations do not), removal of activations that share a fact,
//! partial runs that leave activations pending under rule removal and
//! replacement, and the conflict-resolution tie-breaks.

use proptest::prelude::*;
use qos_inference::prelude::*;

/// Rules covering every conflict-resolution and delta-propagation path.
fn diff_rules() -> Vec<Rule> {
    vec![
        // Empty LHS: fires exactly once, ever.
        Rule::new("boot").then_call("boot", vec![]),
        // Two-CE join on a shared variable, above default salience.
        Rule::new("pair")
            .salience(5)
            .when(Pattern::new("task").slot_var("id", "t"))
            .when(Pattern::new("dep").slot_var("id", "t"))
            .then_call("pair", vec![Term::var("t")]),
        // Negation: asserts of `done` remove activations, retracts of
        // `done` restore them.
        Rule::new("uncovered")
            .when(Pattern::new("task").slot_var("id", "t"))
            .when_not(Pattern::new("done").slot_var("id", "t"))
            .then_call("pending", vec![Term::var("t")]),
        // Chained inference: `event` asserts `mark`, which `marked`
        // picks up in a later cycle of the same run.
        Rule::new("chain")
            .when(Pattern::new("event").slot_var("n", "n"))
            .then_assert("mark", vec![("n", Term::var("n"))]),
        Rule::new("marked")
            .when(Pattern::new("mark").slot_var("n", "n"))
            .then_call("marked", vec![Term::var("n")]),
        // Join against the permanent `limit` fact through a constant
        // probe (the shipped rules' `threshold` shape).
        Rule::new("capped")
            .salience(2)
            .when(Pattern::new("task").slot_var("id", "t"))
            .when(
                Pattern::new("limit")
                    .slot_const("name", "cap")
                    .slot_var("value", "c"),
            )
            .test(Test::Cmp(CmpOp::Lt, Term::var("t"), Term::var("c")))
            .then_call("capped", vec![Term::var("t"), Term::var("c")]),
        // `modify` before the call that reads the modified fact's slots:
        // the fact comes back under a fresh id, no longer `new`.
        Rule::new("advance")
            .when(
                Pattern::new("stage")
                    .slot_var("id", "s")
                    .slot_const("state", "new"),
            )
            .then_modify(0, vec![("state", Term::val("seen"))])
            .then_call("advanced", vec![Term::var("s")]),
        // Self-consuming: retracts its own trigger, so re-asserting the
        // same junk fact re-fires (no refraction carry-over).
        Rule::new("consume")
            .salience(-10)
            .when(Pattern::new("junk").slot_var("n", "n"))
            .then_retract(0),
    ]
}

/// Rules distributed at run time, after facts exist. Both probe slots no
/// rule in [`diff_rules`] probes — `task.id` through a variable bound by
/// an earlier CE, `event.n` through a constant — so their equality-join
/// indexes are back-filled from live facts.
fn late_rules() -> Vec<Rule> {
    vec![
        Rule::new("late-join")
            .salience(3)
            .when(Pattern::new("dep").slot_var("id", "d"))
            .when(Pattern::new("task").slot_var("id", "d"))
            .then_call("late-join", vec![Term::var("d")]),
        Rule::new("late-const")
            .when(Pattern::new("event").slot_const("n", 2))
            .then_call("late-const", vec![]),
    ]
}

/// `marked`, redefined: replaces the original in place, keeping its
/// definition order and refraction history.
fn marked_v2() -> Rule {
    Rule::new("marked")
        .salience(1)
        .when(Pattern::new("mark").slot_var("n", "n"))
        .then_call("marked-v2", vec![Term::var("n")])
}

/// Cases per property: 128, or `PROPTEST_CASES` when it is set (CI runs
/// the release build with 1024).
fn cases() -> ProptestConfig {
    let env = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(env.and_then(|v| v.parse().ok()).unwrap_or(128))
}

/// One scripted operation, decoded from a generated `(op, a, b)` triple.
#[derive(Debug, Clone, Copy)]
enum Op {
    Assert(&'static str, i64),
    Retract(usize),
    RetractMatching(&'static str, i64),
    RetractTemplate(&'static str),
    AddLateRules,
    ReplaceRule,
    Run,
}

fn decode(ops: &[(u8, u8, u8)]) -> Vec<Op> {
    ops.iter()
        .map(|&(op, a, b)| match op % 16 {
            // Small id domain (0..4) forces joins, negation overlap and
            // duplicate-fact suppression.
            0 | 1 => Op::Assert("task", (b % 4) as i64),
            2 => Op::Assert("dep", (b % 4) as i64),
            3 => Op::Assert("done", (b % 4) as i64),
            4 => Op::Assert("event", (b % 4) as i64),
            5 => Op::Assert("junk", (b % 4) as i64),
            6 | 7 => Op::Retract(a as usize),
            8 => Op::Assert("stage", (b % 4) as i64),
            9 => Op::RetractMatching("task", (b % 4) as i64),
            10 => Op::RetractMatching("stage", (b % 4) as i64),
            11 => Op::RetractTemplate(if b % 2 == 0 { "done" } else { "mark" }),
            12 => Op::AddLateRules,
            13 => Op::ReplaceRule,
            _ => Op::Run,
        })
        .collect()
}

/// Apply the script to one engine; return every observable output.
fn run_script(ops: &[Op], naive: bool) -> (Vec<String>, Vec<Invocation>, Vec<u64>, usize) {
    let mut e = Engine::new();
    e.use_naive_matcher(naive);
    e.set_trace_capacity(1 << 16);
    for r in diff_rules() {
        e.add_rule(r);
    }
    // The permanent early fact: every later fact churns past it.
    e.assert_fact(Fact::new("limit").with("name", "cap").with("value", 2));
    // Both engines see the same deterministic script, so the FactIds
    // recorded here line up between the two runs.
    let mut live: Vec<FactId> = Vec::new();
    let mut fired = Vec::new();
    for &op in ops {
        match op {
            Op::Assert(tmpl, id) => {
                let slot = if tmpl == "event" || tmpl == "junk" {
                    "n"
                } else {
                    "id"
                };
                let mut fact = Fact::new(tmpl).with(slot, id);
                if tmpl == "stage" {
                    fact = fact.with("state", "new");
                }
                live.push(e.assert_fact(fact));
            }
            Op::Retract(ix) => {
                if !live.is_empty() {
                    // Retracting an already-dead id is a legal no-op and
                    // part of the surface under test.
                    e.retract(live[ix % live.len()]);
                }
            }
            Op::RetractMatching(tmpl, id) => {
                // Int facts probed with a Float: loose equality.
                e.retract_matching(tmpl, "id", &Value::Float(id as f64));
            }
            Op::RetractTemplate(tmpl) => {
                e.retract_template(tmpl);
            }
            Op::AddLateRules => late_rules().into_iter().for_each(|r| e.add_rule(r)),
            Op::ReplaceRule => e.add_rule(marked_v2()),
            Op::Run => fired.push(e.run(100).fired),
        }
    }
    fired.push(e.run(200).fired);
    (e.take_trace(), e.take_invocations(), fired, e.facts().len())
}

proptest! {
    #![proptest_config(cases())]
    #[test]
    fn incremental_matcher_is_observationally_identical_to_naive(
        ops in proptest::collection::vec((0u8..16, 0u8..32, 0u8..8), 4..64),
    ) {
        let script = decode(&ops);
        let (n_trace, n_inv, n_fired, n_facts) = run_script(&script, true);
        let (r_trace, r_inv, r_fired, r_facts) = run_script(&script, false);
        prop_assert_eq!(n_trace, r_trace, "firing sequences diverged");
        prop_assert_eq!(n_inv, r_inv, "invocation streams diverged");
        prop_assert_eq!(n_fired, r_fired, "per-run fired counts diverged");
        prop_assert_eq!(n_facts, r_facts, "final fact stores diverged");
    }
}

/// A permanent early fact under long churn: thousands of facts assert,
/// fire against it and retract while it stays, and both matchers keep
/// agreeing — on what fires and on a working memory that is back to the
/// one permanent fact.
#[test]
fn permanent_fact_survives_long_churn_identically() {
    let churn = |naive: bool| {
        let mut e = Engine::new();
        e.use_naive_matcher(naive);
        e.set_trace_capacity(1 << 16);
        for r in diff_rules() {
            e.add_rule(r);
        }
        e.assert_fact(Fact::new("limit").with("name", "cap").with("value", 2));
        let mut fired = Vec::new();
        for i in 0..3_000i64 {
            let task = e.assert_fact(Fact::new("task").with("id", i % 4));
            let dep = e.assert_fact(Fact::new("dep").with("id", (i / 3) % 4));
            e.assert_fact(Fact::new("junk").with("n", i));
            fired.push(e.run(100).fired);
            e.retract(task);
            e.retract(dep);
        }
        (e.take_trace(), e.take_invocations(), fired, e.facts().len())
    };
    let naive = churn(true);
    assert_eq!(naive.3, 1, "only the permanent fact remains");
    assert!(naive.2.iter().sum::<u64>() > 6_000);
    assert_eq!(naive, churn(false));
}

/// What a position-addressed fact layout can get wrong, run through both
/// matchers: facts of one template carrying different slot sets, slots
/// first named after (and before) the rule that tests them, a `modify`
/// that adds a slot, a pattern on a slot no live fact carries, and
/// Int/Float probes. Returns every observable: trace, invocations, and
/// the final store printed fact by fact.
fn layout_script(naive: bool) -> (Vec<String>, Vec<Invocation>, Vec<String>) {
    // Position 0 of `item` rows is a slot nothing ever carries, so every
    // row is sparse from its first cell.
    Template::named("item").slot("never-carried");
    let mut e = Engine::new();
    e.use_naive_matcher(naive);
    e.set_trace_capacity(1 << 12);
    e.add_rule(
        // Tests `grade`, which no fact carries yet.
        Rule::new("graded")
            .when(
                Pattern::new("item")
                    .slot_var("id", "i")
                    .slot_cmp("grade", CmpOp::Ge, 2),
            )
            .then_call("graded", vec![Term::var("i")]),
    );
    e.add_rule(
        // Tests a slot that stays uncarried to the end.
        Rule::new("ghost")
            .when(Pattern::new("item").slot_var("never-carried", "x"))
            .then_call("ghost", vec![Term::var("x")]),
    );
    e.add_rule(
        // `modify` writes `seen`, a slot the matched fact does not have.
        Rule::new("stamp")
            .salience(5)
            .when(
                Pattern::new("item")
                    .slot_var("id", "i")
                    .slot_const("kind", "raw"),
            )
            .then_modify(
                0,
                vec![("kind", Term::val("done")), ("seen", Term::var("i"))],
            )
            .then_call("stamped", vec![Term::var("i")]),
    );
    e.add_rule(
        // Constant probe: Int pattern, facts hold Int and Float.
        Rule::new("third")
            .when(
                Pattern::new("item")
                    .slot_const("id", 3)
                    .slot_var("kind", "k"),
            )
            .then_call("third", vec![Term::var("k")]),
    );
    e.add_rule(
        // Variable probe across templates: `want.id` is a Float where
        // `item.id` is an Int.
        Rule::new("wanted")
            .salience(-5)
            .when(Pattern::new("want").slot_var("id", "i"))
            .when(
                Pattern::new("item")
                    .slot_var("id", "i")
                    .slot_var("seen", "s"),
            )
            .then_call("wanted", vec![Term::var("i"), Term::var("s")]),
    );

    // One template, four slot sets.
    e.assert_fact(Fact::new("item").with("id", 1));
    e.assert_fact(Fact::new("item").with("id", 2).with("kind", "raw"));
    e.assert_fact(Fact::new("item").with("kind", "raw").with("id", 3.0));
    e.assert_fact(Fact::new("item").with("grade", 2).with("id", 4));
    e.assert_fact(
        Fact::new("item")
            .with("grade", 1)
            .with("id", 5)
            .with("kind", "raw"),
    );
    e.assert_fact(Fact::new("want").with("id", 2.0));
    e.assert_fact(Fact::new("want").with("id", 3));
    e.run(100);

    // A slot first named by a fact, then by a rule distributed later
    // (its index is back-filled from rows that already hold it).
    e.assert_fact(Fact::new("item").with("id", 6).with("origin", "late"));
    e.assert_fact(Fact::new("item").with("id", 7));
    e.add_rule(
        Rule::new("late-origin")
            .when(
                Pattern::new("item")
                    .slot_const("origin", "late")
                    .slot_var("id", "i"),
            )
            .then_call("late-origin", vec![Term::var("i")]),
    );
    e.run(100);
    e.retract_matching("item", "seen", &Value::Float(2.0));
    e.retract_matching("item", "never-carried", &Value::Int(0));
    e.run(100);

    let store = e.facts().iter().map(|(_, f)| f.to_string()).collect();
    (e.take_trace(), e.take_invocations(), store)
}

#[test]
fn facts_with_different_slot_sets_match_identically() {
    let naive = layout_script(true);
    assert_eq!(naive, layout_script(false));
    let (trace, invocations, store) = naive;
    let fired = |rule: &str| trace.iter().filter(|t| *t == rule).count();
    // Items 2, 3 and 5 are raw; 4 carries a passing grade; nothing
    // carries `never-carried`; `stamp` outranks `third`, which so sees
    // item 3 (a Float id) only once it is done.
    assert_eq!(fired("stamp"), 3);
    assert_eq!(fired("graded"), 1);
    assert_eq!(fired("ghost"), 0);
    assert_eq!(fired("third"), 1);
    assert!(invocations.contains(&Invocation {
        command: "third".into(),
        args: vec![Value::sym("done")],
    }));
    assert_eq!(fired("wanted"), 2);
    assert_eq!(fired("late-origin"), 1);
    assert!(invocations.contains(&Invocation {
        command: "wanted".into(),
        args: vec![Value::Int(3), Value::Float(3.0)],
    }));
    assert!(invocations.contains(&Invocation {
        command: "late-origin".into(),
        args: vec![Value::Int(6)],
    }));
    // Slots print in name order whatever order they were first seen in,
    // and item 2 (stamped, then retracted through `seen`) is gone.
    assert!(store.contains(&"(item (id 3) (kind done) (seen 3))".to_string()));
    assert!(store.contains(&"(item (grade 1) (id 5) (kind done) (seen 5))".to_string()));
    assert!(store.contains(&"(item (id 6) (origin late))".to_string()));
    assert!(!store
        .iter()
        .any(|f| f.contains("(id 2)") && f.starts_with("(item")));
}

#[test]
fn a_fact_is_the_same_in_either_build_order() {
    let ab = Fact::new("order").with("a", 1).with("b", "x");
    let ba = Fact::new("order").with("b", "x").with("a", 1);
    assert_eq!(ab, ba);
    assert_eq!(ab.to_string(), "(order (a 1) (b x))");
    assert_eq!(ba.to_string(), ab.to_string());
    // Overwriting keeps one value per slot; a slot never written is not
    // one written and equal.
    assert_eq!(ab.clone().with("a", 2).with("a", 1), ba);
    assert_ne!(ab, Fact::new("order").with("a", 1));
    assert_ne!(ab, Fact::new("disorder").with("a", 1).with("b", "x"));
    assert_eq!(ab.get("b"), Some(&Value::sym("x")));
    assert_eq!(ab.get("c"), None);
    // Both orders are one fact to the store, too.
    let mut store = FactStore::new();
    let (id, fresh) = store.assert_fact(ab);
    assert!(fresh);
    assert_eq!(store.assert_fact(ba), (id, false));
}

/// Rules for the conflict-set bookkeeping: activations consumed through
/// a non-first CE, through a first CE while the partner persists, and by
/// `modify`; a rule that never consumes, so refraction alone stops it
/// re-firing; a rule that asserts a template it negates before it
/// retracts; and equal-salience rules whose ties fall to recency, then
/// rule index, then fact ids.
fn conflict_rules() -> Vec<Rule> {
    vec![
        // Consumes its second CE; the `slot` it joins stays.
        Rule::new("take-second")
            .salience(4)
            .when(Pattern::new("slot").slot_var("id", "s"))
            .when(
                Pattern::new("token")
                    .slot_var("slot", "s")
                    .slot_var("n", "n"),
            )
            .then_call("took", vec![Term::var("s"), Term::var("n")])
            .then_retract(1),
        // Consumes the job and keeps the worker: the next job re-forms
        // the pair with the same worker.
        Rule::new("assign")
            .salience(2)
            .when(Pattern::new("job").slot_var("n", "n"))
            .when(Pattern::new("worker").slot_var("id", "w"))
            .then_call("assign", vec![Term::var("w"), Term::var("n")])
            .then_retract(0),
        watch_rule(),
        // Equal salience on one template: for one fact definition order
        // decides, across facts recency does.
        Rule::new("tie-a")
            .when(Pattern::new("mark").slot_var("n", "n"))
            .then_call("tie-a", vec![Term::var("n")]),
        Rule::new("tie-b")
            .when(Pattern::new("mark").slot_var("n", "n"))
            .then_call("tie-b", vec![Term::var("n")]),
        // One rule, one newest fact, several partners: the id vectors
        // decide, smallest first.
        Rule::new("cross")
            .when(Pattern::new("left").slot_var("n", "l"))
            .when(Pattern::new("right").slot_var("n", "r"))
            .then_call("cross", vec![Term::var("l"), Term::var("r")]),
        // Consumes through `modify`.
        Rule::new("bump")
            .salience(1)
            .when(
                Pattern::new("counter")
                    .slot_var("n", "n")
                    .slot_const("state", "fresh"),
            )
            .then_modify(0, vec![("state", Term::val("bumped"))])
            .then_call("bump", vec![Term::var("n")]),
        // Asserts a template it negates, then retracts its trigger: the
        // mid-firing re-evaluation must not put the firing back.
        Rule::new("guarded")
            .salience(-2)
            .when(Pattern::new("req").slot_var("id", "r"))
            .when_not(Pattern::new("seen").slot_var("id", "r"))
            .then_assert("seen", vec![("id", Term::val(0))])
            .then_retract(0),
    ]
}

/// Never consumes: fires once per live (worker, slot) pair.
fn watch_rule() -> Rule {
    Rule::new("watch")
        .when(Pattern::new("worker").slot_var("id", "w"))
        .when(Pattern::new("slot").slot_var("id", "w"))
        .then_call("watch", vec![Term::var("w")])
}

/// `cross`, redefined in place while its activations may be pending.
fn cross_v2() -> Rule {
    Rule::new("cross")
        .salience(3)
        .when(Pattern::new("left").slot_var("n", "l"))
        .when(Pattern::new("right").slot_var("n", "r"))
        .then_call("cross-v2", vec![Term::var("r"), Term::var("l")])
}

/// `assign`, redefined in place to stop consuming its job: from then on
/// its firings file refraction entries.
fn assign_v2() -> Rule {
    Rule::new("assign")
        .salience(2)
        .when(Pattern::new("job").slot_var("n", "n"))
        .when(Pattern::new("worker").slot_var("id", "w"))
        .then_call("assign-v2", vec![Term::var("w"), Term::var("n")])
}

/// A fact of one of [`conflict_rules`]' templates; `a` and `b` pick the
/// slot values from small domains, so joins, duplicates and re-formed
/// pairs are common.
fn conflict_fact(tmpl: u8, a: u8, b: u8) -> Fact {
    let (x, y) = (i64::from(a % 4), i64::from(b % 3));
    match tmpl {
        0 => Fact::new("slot").with("id", y),
        1 => Fact::new("token").with("slot", y).with("n", x),
        2 => Fact::new("job").with("n", x),
        3 => Fact::new("worker").with("id", y),
        4 => Fact::new("mark").with("n", y),
        5 => Fact::new("left").with("n", y),
        6 => Fact::new("right").with("n", y),
        7 => Fact::new("counter").with("n", y).with("state", "fresh"),
        _ => Fact::new("req").with("id", y),
    }
}

/// Run `script` on a naive and an incremental engine loaded with
/// [`conflict_rules`], require every observable to agree — the script's
/// own result, the trace, the invocations and the final store printed
/// fact by fact — and return the incremental engine's.
fn on_both<T: PartialEq + std::fmt::Debug>(
    script: impl Fn(&mut Engine) -> T,
) -> (T, Vec<String>, Vec<Invocation>) {
    let run = |naive: bool| {
        let mut e = Engine::new();
        e.use_naive_matcher(naive);
        e.set_trace_capacity(1 << 16);
        for r in conflict_rules() {
            e.add_rule(r);
        }
        let out = script(&mut e);
        let store: Vec<String> = e.facts().iter().map(|(_, f)| f.to_string()).collect();
        (out, e.take_trace(), e.take_invocations(), store)
    };
    let naive = run(true);
    let incremental = run(false);
    assert_eq!(naive, incremental);
    let (out, trace, invocations, _) = incremental;
    (out, trace, invocations)
}

fn args(inv: &[Invocation], command: &str) -> Vec<Vec<Value>> {
    inv.iter()
        .filter(|i| i.command == command)
        .map(|i| i.args.clone())
        .collect()
}

#[test]
fn consuming_a_non_first_ce_keeps_its_partner() {
    let (left, _, inv) = on_both(|e| {
        e.assert_fact(Fact::new("slot").with("id", 1));
        for n in 0..3 {
            e.assert_fact(Fact::new("token").with("slot", 1).with("n", n));
        }
        let fired = e.run(100).fired;
        (
            fired,
            e.facts().by_template("token").count(),
            e.facts().by_template("slot").count(),
        )
    });
    assert_eq!(left, (3, 0, 1), "three tokens taken, the slot stays");
    // Newest token first.
    let took = args(&inv, "took");
    assert_eq!(took[0], vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(took[2], vec![Value::Int(1), Value::Int(0)]);
}

#[test]
fn a_consumed_pair_re_forms_with_a_new_partner() {
    let (fired, _, inv) = on_both(|e| {
        e.assert_fact(Fact::new("worker").with("id", 7));
        e.assert_fact(Fact::new("job").with("n", 1));
        let first = e.run(100).fired;
        // Same worker, same job content: a fresh job id, so a fresh
        // activation, with nothing refracted in its way.
        e.assert_fact(Fact::new("job").with("n", 1));
        e.assert_fact(Fact::new("job").with("n", 2));
        (first, e.run(100).fired)
    });
    assert_eq!(fired, (1, 2));
    assert_eq!(args(&inv, "assign").len(), 3);
}

#[test]
fn refraction_holds_for_a_rule_offered_the_same_facts_again() {
    let (fired, _, _) = on_both(|e| {
        let w = e.assert_fact(Fact::new("worker").with("id", 1));
        e.assert_fact(Fact::new("slot").with("id", 1));
        let first = e.run(100).fired;
        // The same facts again: duplicates, so the same ids.
        let again = e.assert_fact(Fact::new("worker").with("id", 1));
        e.assert_fact(Fact::new("slot").with("id", 1));
        assert_eq!(again, w);
        let repeat = e.run(100).fired;
        // Replaced in place, the rule keeps its refraction history.
        e.add_rule(watch_rule());
        let replaced = e.run(100).fired;
        // Removed and re-added, it is a new rule with none.
        e.remove_rule("watch");
        e.add_rule(watch_rule());
        (first, repeat, replaced, e.run(100).fired)
    });
    assert_eq!(fired, (1, 0, 0, 1));
}

#[test]
fn rule_changes_while_activations_are_pending() {
    let (fired, _, inv) = on_both(|e| {
        for n in 0..3 {
            e.assert_fact(Fact::new("left").with("n", n));
        }
        e.assert_fact(Fact::new("right").with("n", 0));
        e.assert_fact(Fact::new("worker").with("id", 1));
        for n in 0..3 {
            e.assert_fact(Fact::new("job").with("n", n));
        }
        // One of each left pending; then swap both rules under them.
        let a = e.run(2).fired;
        e.add_rule(cross_v2());
        e.add_rule(assign_v2());
        let b = e.run(2).fired;
        assert!(e.remove_rule("cross"));
        let c = e.run(100).fired;
        e.add_rule(cross_v2());
        (a, b, c, e.run(100).fired)
    });
    assert_eq!(fired, (2, 2, 1, 3));
    // `assign` (salience 2) took two jobs before `cross` (0) fired; the
    // replacements fired the rest, `cross-v2` again after re-adding.
    let count = |command| args(&inv, command).len();
    assert_eq!(
        ["assign", "assign-v2", "cross", "cross-v2"].map(count),
        [2, 1, 0, 5]
    );
}

#[test]
fn ties_fall_to_recency_then_rule_index_then_fact_ids() {
    let (_, trace, inv) = on_both(|e| {
        e.assert_fact(Fact::new("mark").with("n", 0));
        e.assert_fact(Fact::new("mark").with("n", 1));
        e.run(100);
        e.assert_fact(Fact::new("left").with("n", 0));
        e.assert_fact(Fact::new("left").with("n", 1));
        e.assert_fact(Fact::new("right").with("n", 5));
        e.run(100);
    });
    assert_eq!(
        trace,
        ["tie-a", "tie-b", "tie-a", "tie-b", "cross", "cross"]
    );
    let marks: Vec<Value> = inv.iter().take(4).map(|i| i.args[0].clone()).collect();
    assert_eq!(marks, [1, 1, 0, 0].map(Value::Int));
    assert_eq!(
        args(&inv, "cross"),
        [
            vec![Value::Int(0), Value::Int(5)],
            vec![Value::Int(1), Value::Int(5)]
        ]
    );
}

proptest! {
    #![proptest_config(cases())]
    /// Randomized interleavings over [`conflict_rules`]: asserts,
    /// retracts, partial runs that leave activations pending, and rule
    /// removal, re-adding and in-place replacement under them.
    #[test]
    fn conflict_set_bookkeeping_is_observationally_identical_to_naive(
        ops in proptest::collection::vec((0u8..16, 0u8..32, 0u8..8), 4..64),
    ) {
        let per_run = |e: &mut Engine| {
            let mut live: Vec<FactId> = Vec::new();
            let mut fired = Vec::new();
            for &(op, a, b) in &ops {
                match op {
                    0..=8 => live.push(e.assert_fact(conflict_fact(op, a, b))),
                    9 | 10 => {
                        if !live.is_empty() {
                            e.retract(live[a as usize % live.len()]);
                        }
                    }
                    11 => {
                        e.retract_template(["seen", "slot", "worker"][b as usize % 3]);
                    }
                    12 => match b % 4 {
                        0 => {
                            e.remove_rule("watch");
                        }
                        1 => e.add_rule(watch_rule()),
                        2 => e.add_rule(cross_v2()),
                        _ => e.add_rule(assign_v2()),
                    },
                    13 => fired.push(e.run(1 + u64::from(b % 3)).fired),
                    _ => fired.push(e.run(100).fired),
                }
            }
            fired.push(e.run(200).fired);
            fired
        };
        let run = |naive: bool| {
            let mut e = Engine::new();
            e.use_naive_matcher(naive);
            e.set_trace_capacity(1 << 16);
            for r in conflict_rules() {
                e.add_rule(r);
            }
            let fired = per_run(&mut e);
            let store: Vec<String> = e.facts().iter().map(|(_, f)| f.to_string()).collect();
            (e.take_trace(), e.take_invocations(), fired, store)
        };
        let (n_trace, n_inv, n_fired, n_store) = run(true);
        let (r_trace, r_inv, r_fired, r_store) = run(false);
        prop_assert_eq!(n_trace, r_trace, "firing sequences diverged");
        prop_assert_eq!(n_inv, r_inv, "invocation streams diverged");
        prop_assert_eq!(n_fired, r_fired, "per-run fired counts diverged");
        prop_assert_eq!(n_store, r_store, "final fact stores diverged");
    }
}
