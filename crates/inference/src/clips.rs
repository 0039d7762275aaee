//! A CLIPS-flavoured text format for rules and initial facts, enabling the
//! paper's *dynamic rule distribution*: managers receive rule sets as text
//! at run time, parse them, and load them into their engines without
//! recompilation.
//!
//! Supported forms:
//!
//! ```clips
//! (defrule local-cpu-cause
//!   (declare (salience 10))
//!   (violation (pid ?p) (buffer ?b))
//!   (not (diagnosed (pid ?p)))
//!   (test (> ?b 1000))
//!   =>
//!   (assert (diagnosed (pid ?p) (cause local)))
//!   (retract 0)
//!   (call adjust-cpu ?p 5))
//!
//! (deffacts baseline
//!   (threshold (name buffer) (value 1000)))
//! ```
//!
//! Slot constraints inside patterns may be a literal, a `?variable`, or a
//! comparison list like `(> 5)`.

use crate::fact::Fact;
use crate::pattern::{Pattern, SlotTest, Term, Test};
use crate::rule::{Action, Rule};
use crate::sexpr::{parse_many, ParseError, Sexpr};
use crate::value::{CmpOp, Value};

/// Error translating s-expressions into rules/facts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipsError(pub String);

impl std::fmt::Display for ClipsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "clips error: {}", self.0)
    }
}
impl std::error::Error for ClipsError {}

impl From<ParseError> for ClipsError {
    fn from(e: ParseError) -> Self {
        ClipsError(e.to_string())
    }
}

/// A parsed rule file: rules plus initial facts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Program {
    /// Rules from `defrule` forms, in order.
    pub rules: Vec<Rule>,
    /// Facts from `deffacts` forms.
    pub facts: Vec<Fact>,
}

/// Parse a rule file.
pub fn parse_program(src: &str) -> Result<Program, ClipsError> {
    let mut program = Program::default();
    for form in parse_many(src)? {
        let items = form
            .list()
            .ok_or_else(|| ClipsError("top-level form must be a list".into()))?;
        match items.first().and_then(Sexpr::atom) {
            Some("defrule") => program.rules.push(parse_defrule(items)?),
            Some("deffacts") => {
                // (deffacts name fact...)
                for f in items.iter().skip(2) {
                    program.facts.push(parse_fact(f)?);
                }
            }
            Some(other) => {
                return Err(ClipsError(format!("unknown top-level form '{other}'")));
            }
            None => return Err(ClipsError("empty top-level form".into())),
        }
    }
    Ok(program)
}

/// Parse a single `(defrule ...)` source string into a [`Rule`].
pub fn parse_rule(src: &str) -> Result<Rule, ClipsError> {
    let p = parse_program(src)?;
    match p.rules.len() {
        1 => Ok(p.rules.into_iter().next().expect("len checked")),
        n => Err(ClipsError(format!(
            "expected exactly one defrule, found {n}"
        ))),
    }
}

fn parse_defrule(items: &[Sexpr]) -> Result<Rule, ClipsError> {
    let name = items
        .get(1)
        .and_then(Sexpr::atom)
        .ok_or_else(|| ClipsError("defrule needs a name".into()))?;
    let mut rule = Rule::new(name);
    let mut rhs = false;
    for item in &items[2..] {
        if item.is_atom("=>") {
            rhs = true;
            continue;
        }
        if !rhs {
            // LHS forms.
            let l = item
                .list()
                .ok_or_else(|| ClipsError(format!("bad LHS form in rule {name}")))?;
            match l.first().and_then(Sexpr::atom) {
                Some("declare") => {
                    // (declare (salience N))
                    for d in &l[1..] {
                        if let Some(dl) = d.list() {
                            if dl.first().map(|a| a.is_atom("salience")) == Some(true) {
                                let v = dl
                                    .get(1)
                                    .and_then(Sexpr::atom)
                                    .and_then(|s| s.parse::<i32>().ok())
                                    .ok_or_else(|| {
                                        ClipsError(format!("bad salience in rule {name}"))
                                    })?;
                                rule.salience = v;
                            }
                        }
                    }
                }
                Some("not") => {
                    let inner = l
                        .get(1)
                        .and_then(Sexpr::list)
                        .ok_or_else(|| ClipsError(format!("bad (not ...) in rule {name}")))?;
                    rule.ces.push(crate::rule::Ce::Neg(parse_pattern(inner)?));
                }
                Some("test") => {
                    let t = l
                        .get(1)
                        .ok_or_else(|| ClipsError(format!("empty (test) in rule {name}")))?;
                    rule.ces.push(crate::rule::Ce::Test(parse_test(t)?));
                }
                Some(_) => rule.ces.push(crate::rule::Ce::Pos(parse_pattern(l)?)),
                None => return Err(ClipsError(format!("empty LHS form in rule {name}"))),
            }
        } else {
            rule.actions.push(parse_action(item, name)?);
        }
    }
    if !rhs {
        return Err(ClipsError(format!("rule {name} has no => separator")));
    }
    Ok(rule)
}

fn parse_pattern(items: &[Sexpr]) -> Result<Pattern, ClipsError> {
    let template = items
        .first()
        .and_then(Sexpr::atom)
        .ok_or_else(|| ClipsError("pattern needs a template name".into()))?;
    let mut p = Pattern::new(template);
    for slot_form in &items[1..] {
        let sl = slot_form
            .list()
            .ok_or_else(|| ClipsError(format!("bad slot form in pattern {template}")))?;
        let slot = sl
            .first()
            .and_then(Sexpr::atom)
            .ok_or_else(|| ClipsError(format!("slot needs a name in pattern {template}")))?;
        let constraint = sl
            .get(1)
            .ok_or_else(|| ClipsError(format!("slot {slot} needs a constraint")))?;
        let test = match constraint {
            Sexpr::Atom(a) if a.starts_with('?') => SlotTest::Var(a[1..].to_string()),
            Sexpr::Atom(a) => SlotTest::Const(atom_value(a)),
            Sexpr::Str(s) => SlotTest::Const(Value::str(s)),
            Sexpr::List(cmp) => {
                // (op literal)
                let op = cmp
                    .first()
                    .and_then(Sexpr::atom)
                    .and_then(CmpOp::parse)
                    .ok_or_else(|| {
                        ClipsError(format!("bad comparison in slot {slot} of {template}"))
                    })?;
                let v = cmp.get(1).ok_or_else(|| {
                    ClipsError(format!("comparison in slot {slot} needs a value"))
                })?;
                SlotTest::Cmp(op, sexpr_value(v)?)
            }
        };
        p.tests.push((slot.to_string(), test));
    }
    Ok(p)
}

fn parse_test(e: &Sexpr) -> Result<Test, ClipsError> {
    let l = e
        .list()
        .ok_or_else(|| ClipsError("test condition must be a list".into()))?;
    let head = l
        .first()
        .and_then(Sexpr::atom)
        .ok_or_else(|| ClipsError("test condition needs an operator".into()))?;
    match head {
        "and" => Ok(Test::And(
            l[1..].iter().map(parse_test).collect::<Result<_, _>>()?,
        )),
        "or" => Ok(Test::Or(
            l[1..].iter().map(parse_test).collect::<Result<_, _>>()?,
        )),
        "not" => {
            let inner = l
                .get(1)
                .ok_or_else(|| ClipsError("(not) needs an operand".into()))?;
            Ok(Test::Not(Box::new(parse_test(inner)?)))
        }
        op => {
            let op = CmpOp::parse(op)
                .ok_or_else(|| ClipsError(format!("unknown test operator '{op}'")))?;
            let a = parse_term(
                l.get(1)
                    .ok_or_else(|| ClipsError("comparison needs two operands".into()))?,
            )?;
            let b = parse_term(
                l.get(2)
                    .ok_or_else(|| ClipsError("comparison needs two operands".into()))?,
            )?;
            Ok(Test::Cmp(op, a, b))
        }
    }
}

fn parse_action(e: &Sexpr, rule: &str) -> Result<Action, ClipsError> {
    let l = e
        .list()
        .ok_or_else(|| ClipsError(format!("bad RHS form in rule {rule}")))?;
    match l.first().and_then(Sexpr::atom) {
        Some("assert") => {
            let f = l
                .get(1)
                .and_then(Sexpr::list)
                .ok_or_else(|| ClipsError(format!("(assert) needs a fact in rule {rule}")))?;
            let template = f
                .first()
                .and_then(Sexpr::atom)
                .ok_or_else(|| ClipsError(format!("asserted fact needs a template in {rule}")))?;
            let mut slots = Vec::new();
            for slot_form in &f[1..] {
                let sl = slot_form
                    .list()
                    .ok_or_else(|| ClipsError(format!("bad assert slot in rule {rule}")))?;
                let slot = sl
                    .first()
                    .and_then(Sexpr::atom)
                    .ok_or_else(|| ClipsError(format!("assert slot needs a name in {rule}")))?;
                let term = parse_term(
                    sl.get(1)
                        .ok_or_else(|| ClipsError(format!("assert slot {slot} needs a value")))?,
                )?;
                slots.push((slot.to_string(), term));
            }
            Ok(Action::Assert {
                template: template.to_string(),
                slots,
            })
        }
        Some("modify") => {
            // (modify N (slot term)...)
            let ix = l
                .get(1)
                .and_then(Sexpr::atom)
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| {
                    ClipsError(format!("(modify) needs a pattern index in rule {rule}"))
                })?;
            let mut slots = Vec::new();
            for slot_form in &l[2..] {
                let sl = slot_form
                    .list()
                    .ok_or_else(|| ClipsError(format!("bad modify slot in rule {rule}")))?;
                let slot = sl
                    .first()
                    .and_then(Sexpr::atom)
                    .ok_or_else(|| ClipsError(format!("modify slot needs a name in {rule}")))?;
                let term = parse_term(
                    sl.get(1)
                        .ok_or_else(|| ClipsError(format!("modify slot {slot} needs a value")))?,
                )?;
                slots.push((slot.to_string(), term));
            }
            Ok(Action::Modify {
                pos_index: ix,
                slots,
            })
        }
        Some("retract") => {
            let ix = l
                .get(1)
                .and_then(Sexpr::atom)
                .and_then(|s| s.parse::<usize>().ok())
                .ok_or_else(|| {
                    ClipsError(format!("(retract) needs a pattern index in rule {rule}"))
                })?;
            Ok(Action::Retract(ix))
        }
        Some("call") => {
            let command = l
                .get(1)
                .and_then(Sexpr::atom)
                .ok_or_else(|| ClipsError(format!("(call) needs a command in rule {rule}")))?;
            let args = l[2..]
                .iter()
                .map(parse_term)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Action::Call {
                command: command.to_string(),
                args,
            })
        }
        Some(other) => Err(ClipsError(format!(
            "unknown action '{other}' in rule {rule}"
        ))),
        None => Err(ClipsError(format!("empty action in rule {rule}"))),
    }
}

fn parse_fact(e: &Sexpr) -> Result<Fact, ClipsError> {
    let l = e
        .list()
        .ok_or_else(|| ClipsError("fact must be a list".into()))?;
    let template = l
        .first()
        .and_then(Sexpr::atom)
        .ok_or_else(|| ClipsError("fact needs a template".into()))?;
    let mut fact = Fact::new(template);
    for slot_form in &l[1..] {
        let sl = slot_form
            .list()
            .ok_or_else(|| ClipsError(format!("bad slot in fact {template}")))?;
        let slot = sl
            .first()
            .and_then(Sexpr::atom)
            .ok_or_else(|| ClipsError(format!("slot needs a name in fact {template}")))?;
        let v = sl
            .get(1)
            .ok_or_else(|| ClipsError(format!("slot {slot} needs a value")))?;
        fact = fact.with(slot, sexpr_value(v)?);
    }
    Ok(fact)
}

fn parse_term(e: &Sexpr) -> Result<Term, ClipsError> {
    match e {
        Sexpr::Atom(a) if a.starts_with('?') => Ok(Term::Var(a[1..].to_string())),
        Sexpr::Atom(a) => Ok(Term::Const(atom_value(a))),
        Sexpr::Str(s) => Ok(Term::Const(Value::str(s))),
        Sexpr::List(_) => Err(ClipsError("nested lists are not valid terms".into())),
    }
}

fn sexpr_value(e: &Sexpr) -> Result<Value, ClipsError> {
    match e {
        Sexpr::Atom(a) if a.starts_with('?') => Err(ClipsError(format!(
            "variable ?{} not allowed here",
            &a[1..]
        ))),
        Sexpr::Atom(a) => Ok(atom_value(a)),
        Sexpr::Str(s) => Ok(Value::str(s)),
        Sexpr::List(_) => Err(ClipsError("lists are not values".into())),
    }
}

/// Interpret a bare atom as the most specific value type.
fn atom_value(a: &str) -> Value {
    if let Ok(i) = a.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = a.parse::<f64>() {
        return Value::Float(f);
    }
    match a {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::sym(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    const HOST_RULES: &str = r#"
    ; The paper's Section 5.3 host-manager rules.
    (defrule local-cpu-cause
      (declare (salience 10))
      (violation (pid ?p) (buffer ?b))
      (test (> ?b 1000))
      =>
      (assert (diagnosed (pid ?p) (cause local)))
      (call adjust-cpu ?p))

    (defrule remote-cause
      (violation (pid ?p) (buffer ?b))
      (test (<= ?b 1000))
      =>
      (assert (diagnosed (pid ?p) (cause remote)))
      (call notify-domain ?p))

    (deffacts thresholds
      (threshold (name buffer) (value 1000)))
    "#;

    #[test]
    fn parse_the_paper_rule_set() {
        let p = parse_program(HOST_RULES).unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].name, "local-cpu-cause");
        assert_eq!(p.rules[0].salience, 10);
        assert_eq!(p.facts.len(), 1);
        assert_eq!(p.facts[0].template().name(), "threshold");
    }

    #[test]
    fn parsed_rules_run_in_the_engine() {
        let p = parse_program(HOST_RULES).unwrap();
        let mut e = Engine::new();
        for r in p.rules {
            e.add_rule(r);
        }
        for f in p.facts {
            e.assert_fact(f);
        }
        e.assert_fact(Fact::new("violation").with("pid", 7).with("buffer", 50_000));
        let stats = e.run(100);
        assert_eq!(stats.fired, 1);
        let inv = e.take_invocations();
        assert_eq!(inv[0].command, "adjust-cpu");
        assert_eq!(inv[0].args, vec![Value::Int(7)]);
    }

    #[test]
    fn slot_comparison_constraints() {
        let r = parse_rule("(defrule r (load (value (> 5.0))) => (call overloaded))").unwrap();
        let mut e = Engine::new();
        e.add_rule(r);
        e.assert_fact(Fact::new("load").with("value", 3.0));
        assert_eq!(e.run(10).fired, 0);
        e.assert_fact(Fact::new("load").with("value", 7.5));
        assert_eq!(e.run(10).fired, 1);
    }

    #[test]
    fn negation_and_retract_parse() {
        let r = parse_rule(
            "(defrule once
               (event (id ?i))
               (not (handled (id ?i)))
               =>
               (assert (handled (id ?i)))
               (retract 0))",
        )
        .unwrap();
        let mut e = Engine::new();
        e.add_rule(r);
        e.assert_fact(Fact::new("event").with("id", 1));
        assert_eq!(e.run(10).fired, 1);
        assert_eq!(e.facts().by_template("event").count(), 0);
        assert_eq!(e.facts().by_template("handled").count(), 1);
    }

    #[test]
    fn boolean_test_combinators() {
        let r = parse_rule(
            "(defrule range
               (sample (v ?v))
               (test (and (> ?v 10) (or (< ?v 20) (= ?v 25)) (not (= ?v 15))))
               =>
               (call in-range ?v))",
        )
        .unwrap();
        let mut e = Engine::new();
        e.add_rule(r);
        for v in [5, 12, 15, 25, 30] {
            e.assert_fact(Fact::new("sample").with("v", v as i64));
        }
        e.run(100);
        let mut hits: Vec<i64> = e
            .take_invocations()
            .into_iter()
            .map(|i| match i.args[0] {
                Value::Int(v) => v,
                _ => panic!(),
            })
            .collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![12, 25]);
    }

    #[test]
    fn modify_action_updates_in_place() {
        let r = parse_rule(
            "(defrule escalate
               (ticket (id ?i) (severity ?s))
               (test (< ?s 3))
               =>
               (modify 0 (severity 3) (escalated true)))",
        )
        .unwrap();
        let mut e = Engine::new();
        e.add_rule(r);
        e.assert_fact(Fact::new("ticket").with("id", 7).with("severity", 1));
        let stats = e.run(100);
        // Fires once; the modified fact (severity 3) no longer matches.
        assert_eq!(stats.fired, 1);
        let tickets: Vec<_> = e.facts().by_template("ticket").collect();
        assert_eq!(tickets.len(), 1);
        assert_eq!(tickets[0].1.get("severity"), Some(&Value::Int(3)));
        assert_eq!(tickets[0].1.get("escalated"), Some(&Value::Bool(true)));
        assert_eq!(
            tickets[0].1.get("id"),
            Some(&Value::Int(7)),
            "untouched slots kept"
        );
    }

    #[test]
    fn modify_with_bound_variables() {
        let r = parse_rule(
            "(defrule promote
               (counter (n ?n))
               (test (< ?n 1))
               =>
               (modify 0 (n 1) (prev ?n)))",
        )
        .unwrap();
        let mut e = Engine::new();
        e.add_rule(r);
        e.assert_fact(Fact::new("counter").with("n", 0));
        assert_eq!(e.run(100).fired, 1);
        let c: Vec<_> = e.facts().by_template("counter").collect();
        assert_eq!(c[0].1.get("n"), Some(&Value::Int(1)));
        assert_eq!(c[0].1.get("prev"), Some(&Value::Int(0)));
    }

    #[test]
    fn errors_reported() {
        assert!(
            parse_rule("(defrule broken (a (x ?v)))").is_err(),
            "missing =>"
        );
        assert!(parse_program("(frobnicate)").is_err(), "unknown form");
        assert!(parse_rule("(defrule r (a (x (?? 3))) => (call c))").is_err());
        assert!(parse_program("(defrule r (a (x 1)) => (explode))").is_err());
    }

    #[test]
    fn string_and_bool_literals() {
        let p = parse_program(r#"(deffacts f (cfg (host "alpha") (active true) (weight 2.5)))"#)
            .unwrap();
        let f = &p.facts[0];
        assert_eq!(f.get("host"), Some(&Value::Str("alpha".into())));
        assert_eq!(f.get("active"), Some(&Value::Bool(true)));
        assert_eq!(f.get("weight"), Some(&Value::Float(2.5)));
    }
}
