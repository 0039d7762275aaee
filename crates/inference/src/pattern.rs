//! Patterns: the left-hand-side constraints of rules, matched against
//! facts with variable binding.
//!
//! Two forms live here. The **source** form ([`Pattern`], [`Test`],
//! [`Term`]) is what rules are written in; it evaluates against
//! string-keyed [`Bindings`] and is what the naive oracle and
//! [`crate::rule::Rule::activations`] run. The **compiled** form
//! (`CPattern`, `CTest`, `CTerm`) is what `Engine::add_rule` lowers
//! it to: every variable becomes a `VarRef` — the `(positive CE, slot)`
//! that first bound it — so a partial match is just the ids of the facts
//! matched so far, and a variable is read straight from those facts
//! (`Row`) instead of from a cloned map. Templates and slots are
//! resolved to handles there too, so the compiled form compares no name.

use std::collections::HashMap;

use crate::fact::{Fact, FactId, FactStore, Slot, SlotIndex, TemplateId};
use crate::value::{CmpOp, Value};

/// Variable bindings accumulated while joining a rule's patterns (source
/// form; the compiled matcher carries none).
pub type Bindings = HashMap<String, Value>;

/// Constraint on one slot of a fact.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotTest {
    /// The slot must equal this constant.
    Const(Value),
    /// Bind the slot value to a variable (or require equality if the
    /// variable is already bound — CLIPS join semantics).
    Var(String),
    /// Compare the slot against a constant.
    Cmp(CmpOp, Value),
}

/// A pattern over one fact template.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern {
    /// Template the fact must have.
    pub template: String,
    /// Per-slot constraints; slots not mentioned are unconstrained.
    pub tests: Vec<(String, SlotTest)>,
}

impl Pattern {
    /// A pattern matching any fact of `template`.
    pub fn new(template: impl Into<String>) -> Self {
        Pattern {
            template: template.into(),
            tests: Vec::new(),
        }
    }

    /// Require `slot` to equal a constant.
    pub fn slot_const(mut self, slot: impl Into<String>, v: impl Into<Value>) -> Self {
        self.tests.push((slot.into(), SlotTest::Const(v.into())));
        self
    }

    /// Bind `slot` to variable `var`.
    pub fn slot_var(mut self, slot: impl Into<String>, var: impl Into<String>) -> Self {
        self.tests.push((slot.into(), SlotTest::Var(var.into())));
        self
    }

    /// Compare `slot` against a constant.
    pub fn slot_cmp(mut self, slot: impl Into<String>, op: CmpOp, v: impl Into<Value>) -> Self {
        self.tests.push((slot.into(), SlotTest::Cmp(op, v.into())));
        self
    }

    /// Try to match `fact` under existing `bindings`. On success, returns
    /// the extended bindings; the input is unchanged on failure.
    ///
    /// Verification is allocation-free: joins examine many candidates
    /// and reject most, so the extended binding map is only built once
    /// every test has passed. Variables bound earlier in this same
    /// pattern are visible to later tests.
    pub fn match_fact(&self, fact: &Fact, bindings: &Bindings) -> Option<Bindings> {
        if fact.template().name() != self.template {
            return None;
        }
        let mut fresh: Vec<(&String, &Value)> = Vec::new();
        for (slot, test) in &self.tests {
            let actual = fact.get(slot)?;
            match test {
                SlotTest::Const(v) => {
                    if !actual.loose_eq(v) {
                        return None;
                    }
                }
                SlotTest::Cmp(op, v) => {
                    if !op.apply(actual, v) {
                        return None;
                    }
                }
                SlotTest::Var(name) => {
                    let bound = fresh
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|&(_, v)| v)
                        .or_else(|| bindings.get(name));
                    match bound {
                        Some(bound) => {
                            if !actual.loose_eq(bound) {
                                return None;
                            }
                        }
                        None => fresh.push((name, actual)),
                    }
                }
            }
        }
        if fresh.is_empty() {
            return Some(bindings.clone());
        }
        let mut out = bindings.clone();
        for (name, v) in fresh {
            out.insert(name.clone(), v.clone());
        }
        Some(out)
    }
}

/// A term in a `test` condition or an action argument: a constant or a
/// bound variable.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// Literal value.
    Const(Value),
    /// Variable reference, resolved against the bindings at fire time.
    Var(String),
}

impl Term {
    /// Resolve against bindings. `None` if an unbound variable is named.
    pub fn resolve(&self, bindings: &Bindings) -> Option<Value> {
        match self {
            Term::Const(v) => Some(v.clone()),
            Term::Var(name) => bindings.get(name).cloned(),
        }
    }

    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Constant constructor.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }
}

/// A boolean condition over bound variables (the CLIPS `(test ...)` CE).
#[derive(Clone, Debug, PartialEq)]
pub enum Test {
    /// Binary comparison between two terms.
    Cmp(CmpOp, Term, Term),
    /// Conjunction.
    And(Vec<Test>),
    /// Disjunction.
    Or(Vec<Test>),
    /// Negation.
    Not(Box<Test>),
}

impl Test {
    /// Evaluate under bindings; an unbound variable makes the comparison
    /// false.
    pub fn eval(&self, bindings: &Bindings) -> bool {
        match self {
            Test::Cmp(op, a, b) => match (a.resolve(bindings), b.resolve(bindings)) {
                (Some(a), Some(b)) => op.apply(&a, &b),
                _ => false,
            },
            Test::And(ts) => ts.iter().all(|t| t.eval(bindings)),
            Test::Or(ts) => ts.iter().any(|t| t.eval(bindings)),
            Test::Not(t) => !t.eval(bindings),
        }
    }
}

/// Where a variable's value lives: the `slot` of the fact matched by the
/// rule's `pos`-th positive condition element.
#[derive(Clone, Copy, Debug)]
pub(crate) struct VarRef {
    pub(crate) pos: usize,
    pub(crate) slot: Slot,
}

/// What compiled terms and tests read variables from: the facts matched
/// by the positive CEs so far, plus — while a pattern is being verified —
/// the candidate fact, which stands at position `ids.len()`.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    pub(crate) facts: &'a FactStore,
    pub(crate) ids: &'a [FactId],
    pub(crate) cand: Option<&'a Fact>,
}

impl<'a> Row<'a> {
    fn get(&self, var: VarRef) -> Option<&'a Value> {
        let fact = match self.ids.get(var.pos) {
            Some(&id) => self.facts.get(id)?,
            None => self.cand?,
        };
        fact.at(var.slot)
    }
}

/// Compiled [`Term`].
#[derive(Clone, Debug)]
pub(crate) enum CTerm {
    Const(Value),
    Var(VarRef),
    /// A variable no positive CE binds at this point: resolves to nothing.
    Unbound,
}

impl CTerm {
    pub(crate) fn resolve<'a>(&'a self, row: Row<'a>) -> Option<&'a Value> {
        match self {
            CTerm::Const(v) => Some(v),
            CTerm::Var(var) => row.get(*var),
            CTerm::Unbound => None,
        }
    }
}

/// Compiled [`SlotTest`]. `Const(v)` and `Cmp(Eq, v)` are the same test.
#[derive(Clone, Debug)]
pub(crate) enum CSlotTest {
    Cmp(CmpOp, Value),
    /// First occurrence of a variable: binds, so only presence is tested.
    Bind,
    /// Later occurrence: the slot must loosely equal the bound value.
    EqVar(VarRef),
}

/// Compiled [`Pattern`].
#[derive(Clone, Debug)]
pub(crate) struct CPattern {
    pub(crate) tid: TemplateId,
    pub(crate) tests: Vec<(Slot, CSlotTest)>,
    /// The first slot pinned to a constant or to a variable an *earlier*
    /// CE bound, with its operand: the equality-join index to probe
    /// instead of walking the whole alpha memory. Static, so the index
    /// is maintained for exactly these slots.
    pub(crate) probe: Option<(SlotIndex, CTerm)>,
}

impl CPattern {
    /// The facts to examine under the partial match `ids`. A probe
    /// changes which facts are *examined*, never which activations
    /// result: every candidate is still verified by [`CPattern::matches`].
    pub(crate) fn candidates<'a>(
        &'a self,
        ids: &'a [FactId],
        facts: &'a FactStore,
    ) -> &'a [FactId] {
        let row = Row {
            facts,
            ids,
            cand: None,
        };
        let probed = self.probe.as_ref().and_then(|(slot, operand)| {
            Some(facts.ids_with_slot(self.tid, *slot, operand.resolve(row)?))
        });
        probed.unwrap_or_else(|| facts.ids_of(self.tid))
    }

    /// Does `cand` (already of the right template) extend the partial
    /// match `ids`?
    pub(crate) fn matches(&self, cand: &Fact, ids: &[FactId], facts: &FactStore) -> bool {
        let row = Row {
            facts,
            ids,
            cand: Some(cand),
        };
        self.tests.iter().all(|(slot, test)| {
            let Some(actual) = cand.at(*slot) else {
                return false;
            };
            match test {
                CSlotTest::Cmp(op, v) => op.apply(actual, v),
                CSlotTest::Bind => true,
                CSlotTest::EqVar(var) => row.get(*var).is_some_and(|v| actual.loose_eq(v)),
            }
        })
    }
}

/// Compiled [`Test`].
#[derive(Clone, Debug)]
pub(crate) enum CTest {
    Cmp(CmpOp, CTerm, CTerm),
    And(Vec<CTest>),
    Or(Vec<CTest>),
    Not(Box<CTest>),
}

impl CTest {
    /// Evaluate; an unbound variable makes the comparison false.
    pub(crate) fn eval(&self, row: Row<'_>) -> bool {
        match self {
            CTest::Cmp(op, a, b) => match (a.resolve(row), b.resolve(row)) {
                (Some(a), Some(b)) => op.apply(a, b),
                _ => false,
            },
            CTest::And(ts) => ts.iter().all(|t| t.eval(row)),
            CTest::Or(ts) => ts.iter().any(|t| t.eval(row)),
            CTest::Not(t) => !t.eval(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fact() -> Fact {
        Fact::new("violation")
            .with("pid", 12)
            .with("fps", 18.5)
            .with("host", "alpha")
    }

    #[test]
    fn const_and_cmp_tests() {
        let p = Pattern::new("violation")
            .slot_const("pid", 12)
            .slot_cmp("fps", CmpOp::Lt, 23.0);
        assert!(p.match_fact(&fact(), &Bindings::new()).is_some());

        let p2 = Pattern::new("violation").slot_cmp("fps", CmpOp::Gt, 23.0);
        assert!(p2.match_fact(&fact(), &Bindings::new()).is_none());
    }

    #[test]
    fn wrong_template_or_missing_slot_fails() {
        let p = Pattern::new("cpu-load");
        assert!(p.match_fact(&fact(), &Bindings::new()).is_none());
        let p = Pattern::new("violation").slot_const("nonexistent", 1);
        assert!(p.match_fact(&fact(), &Bindings::new()).is_none());
    }

    #[test]
    fn variable_binds_and_joins() {
        let p = Pattern::new("violation").slot_var("pid", "p");
        let b = p.match_fact(&fact(), &Bindings::new()).unwrap();
        assert_eq!(b.get("p"), Some(&Value::Int(12)));

        // Join: second match must agree with the existing binding.
        let other = Fact::new("violation").with("pid", 13).with("fps", 10.0);
        assert!(
            p.match_fact(&other, &b).is_none(),
            "pid mismatch under join"
        );
        assert!(p.match_fact(&fact(), &b).is_some(), "same pid joins");
    }

    #[test]
    fn failed_match_leaves_input_bindings_unchanged() {
        let p = Pattern::new("violation")
            .slot_var("pid", "p")
            .slot_cmp("fps", CmpOp::Gt, 100.0);
        let empty = Bindings::new();
        assert!(p.match_fact(&fact(), &empty).is_none());
        assert!(empty.is_empty());
    }

    #[test]
    fn test_conditions_evaluate() {
        let mut b = Bindings::new();
        b.insert("x".into(), Value::Float(5.0));
        b.insert("y".into(), Value::Int(10));
        assert!(Test::Cmp(CmpOp::Lt, Term::var("x"), Term::var("y")).eval(&b));
        assert!(Test::And(vec![
            Test::Cmp(CmpOp::Gt, Term::var("x"), Term::val(0)),
            Test::Cmp(CmpOp::Le, Term::var("y"), Term::val(10)),
        ])
        .eval(&b));
        assert!(Test::Or(vec![
            Test::Cmp(CmpOp::Gt, Term::var("x"), Term::val(100)),
            Test::Cmp(CmpOp::Eq, Term::var("y"), Term::val(10)),
        ])
        .eval(&b));
        assert!(Test::Not(Box::new(Test::Cmp(
            CmpOp::Eq,
            Term::var("x"),
            Term::var("y")
        )))
        .eval(&b));
    }

    #[test]
    fn unbound_variable_is_false() {
        let b = Bindings::new();
        assert!(!Test::Cmp(CmpOp::Eq, Term::var("zzz"), Term::val(1)).eval(&b));
    }
}
