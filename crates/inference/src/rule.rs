//! Rules: condition elements (patterns, negations, tests) plus right-hand
//! side actions, the reference join that produces activations, and the
//! compiler that lowers a rule to the form the engine matches and fires
//! (`CompiledRule`).

use std::sync::Arc;

use crate::fact::{FactId, FactStore, Slot, Template, TemplateId};
use crate::pattern::{
    Bindings, CPattern, CSlotTest, CTerm, CTest, Pattern, SlotTest, Term, Test, VarRef,
};
use crate::value::{CmpOp, Value};

/// A condition element on a rule's left-hand side, in CLIPS order.
#[derive(Clone, Debug, PartialEq)]
pub enum Ce {
    /// A fact matching this pattern must exist.
    Pos(Pattern),
    /// No fact matching this pattern may exist (under current bindings).
    Neg(Pattern),
    /// A boolean condition over bound variables.
    Test(Test),
}

/// A right-hand-side action.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Assert a new fact built from terms.
    Assert {
        /// Template of the asserted fact.
        template: String,
        /// Slot values (constants or bound variables).
        slots: Vec<(String, Term)>,
    },
    /// Retract the fact matched by the `n`-th *positive* condition element.
    Retract(usize),
    /// Modify the fact matched by the `n`-th positive condition element:
    /// retract it and re-assert it with the given slots updated (CLIPS
    /// `modify` semantics — the new fact gets a fresh id and re-activates
    /// rules).
    Modify {
        /// Index of the positive condition element.
        pos_index: usize,
        /// Slots to overwrite (terms resolved at fire time).
        slots: Vec<(String, Term)>,
    },
    /// Emit a command invocation to the engine's outbox; the embedding
    /// component (e.g. the QoS Host Manager) interprets it — this is how
    /// rule conclusions reach resource managers.
    Call {
        /// Command name, e.g. `adjust-cpu`.
        command: String,
        /// Arguments resolved at fire time.
        args: Vec<Term>,
    },
}

/// A production rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Unique rule name.
    pub name: String,
    /// Conflict-resolution priority; higher fires first.
    pub salience: i32,
    /// Left-hand side.
    pub ces: Vec<Ce>,
    /// Right-hand side.
    pub actions: Vec<Action>,
}

impl Rule {
    /// New rule with salience 0.
    pub fn new(name: impl Into<String>) -> Self {
        Rule {
            name: name.into(),
            salience: 0,
            ces: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Set salience.
    pub fn salience(mut self, s: i32) -> Self {
        self.salience = s;
        self
    }

    /// Add a positive pattern.
    pub fn when(mut self, p: Pattern) -> Self {
        self.ces.push(Ce::Pos(p));
        self
    }

    /// Add a negated pattern.
    pub fn when_not(mut self, p: Pattern) -> Self {
        self.ces.push(Ce::Neg(p));
        self
    }

    /// Add a test condition.
    pub fn test(mut self, t: Test) -> Self {
        self.ces.push(Ce::Test(t));
        self
    }

    /// Add an assert action.
    pub fn then_assert(mut self, template: impl Into<String>, slots: Vec<(&str, Term)>) -> Self {
        self.actions.push(Action::Assert {
            template: template.into(),
            slots: slots.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self
    }

    /// Add a retract action for the `n`-th positive pattern.
    pub fn then_retract(mut self, pos_index: usize) -> Self {
        self.actions.push(Action::Retract(pos_index));
        self
    }

    /// Add a modify action for the `n`-th positive pattern.
    pub fn then_modify(mut self, pos_index: usize, slots: Vec<(&str, Term)>) -> Self {
        self.actions.push(Action::Modify {
            pos_index,
            slots: slots.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        });
        self
    }

    /// Add a command invocation action.
    pub fn then_call(mut self, command: impl Into<String>, args: Vec<Term>) -> Self {
        self.actions.push(Action::Call {
            command: command.into(),
            args,
        });
        self
    }

    /// Number of positive condition elements — the number of fact ids an
    /// activation of this rule records.
    pub fn pos_ce_count(&self) -> usize {
        self.ces
            .iter()
            .filter(|ce| matches!(ce, Ce::Pos(_)))
            .count()
    }

    /// Compute all complete matches of this rule against working memory.
    /// Each activation records the ids of the facts matched by positive
    /// condition elements, in order. This is the reference (full
    /// recompute) join; the engine normally matches incrementally and
    /// uses this only as its naive-matcher oracle.
    pub fn activations(&self, facts: &FactStore) -> Vec<(Vec<FactId>, Bindings)> {
        self.activations_counting(facts, &mut 0)
    }

    /// [`Rule::activations`], re-deriving every activation from a full
    /// scan of working memory, per condition element, per partial match:
    /// `work` counts each fact visited, template matches and misses alike
    /// (that is what the original matcher examined each cycle).
    pub(crate) fn activations_counting(
        &self,
        facts: &FactStore,
        work: &mut u64,
    ) -> Vec<(Vec<FactId>, Bindings)> {
        // Left-to-right join. `partial` holds (matched positive fact ids,
        // bindings) tuples surviving all CEs so far.
        let mut partial: Vec<(Vec<FactId>, Bindings)> = vec![(Vec::new(), Bindings::new())];
        for ce in &self.ces {
            match ce {
                Ce::Pos(p) => {
                    let mut next = Vec::new();
                    for (ids, b) in &partial {
                        for (fid, fact) in facts.iter() {
                            *work += 1;
                            // A fact may not be matched twice by one rule
                            // instantiation.
                            if ids.contains(&fid) {
                                continue;
                            }
                            if let Some(nb) = p.match_fact(fact, b) {
                                let mut nids = ids.clone();
                                nids.push(fid);
                                next.push((nids, nb));
                            }
                        }
                    }
                    partial = next;
                }
                Ce::Neg(p) => partial.retain(|(_, b)| {
                    !facts.iter().any(|(_, fact)| {
                        *work += 1;
                        p.match_fact(fact, b).is_some()
                    })
                }),
                Ce::Test(t) => partial.retain(|(_, b)| t.eval(b)),
            }
            if partial.is_empty() {
                break;
            }
        }
        partial
    }
}

/// Compiled [`Ce`].
#[derive(Clone, Debug)]
pub(crate) enum CCe {
    Pos(CPattern),
    Neg(CPattern),
    Test(CTest),
}

/// Compiled [`Action`]: terms resolved to where their values live, slot
/// names to positions in the fact they are written to.
#[derive(Clone, Debug)]
pub(crate) enum CAction {
    Assert {
        template: Template,
        slots: Vec<(Slot, CTerm)>,
    },
    Retract(usize),
    /// `slots` are positions in the template of the `pos_index`-th
    /// positive CE; empty when there is no such CE (firing skips it).
    Modify {
        pos_index: usize,
        slots: Vec<(Slot, CTerm)>,
    },
    Call {
        command: String,
        args: Vec<CTerm>,
    },
}

/// What `Engine::add_rule` knows ahead of time about a rule: template
/// symbols, every slot name resolved to its position, every variable to
/// the `(positive CE, slot)` that binds it, and — registered with the
/// store as a side effect — the `(template, slot)` pairs its joins probe.
#[derive(Clone, Debug)]
pub(crate) struct CompiledRule {
    /// Shared with the firing trace, so a firing clones a pointer.
    pub(crate) name: Arc<str>,
    pub(crate) salience: i32,
    pub(crate) ces: Vec<CCe>,
    pub(crate) actions: Vec<CAction>,
    /// Distinct templates of positive CEs (assert-delta triggers).
    pub(crate) pos_tmpls: Vec<TemplateId>,
    /// Distinct templates of negated CEs (re-evaluation triggers).
    pub(crate) neg_tmpls: Vec<TemplateId>,
    /// A firing retracts (or modifies) a fact of its own activation
    /// before anything could re-evaluate this rule, so it files no
    /// refraction entry: fact ids are never reused, the activation can
    /// never re-form, and the entry would be dropped within the firing.
    pub(crate) consumes: bool,
}

/// Variables in scope while compiling, in binding order.
type Scope<'r> = Vec<(&'r str, VarRef)>;

fn lookup(scope: &Scope<'_>, name: &str) -> Option<usize> {
    scope.iter().position(|(n, _)| *n == name)
}

fn compile_term(term: &Term, scope: &Scope<'_>) -> CTerm {
    match term {
        Term::Const(v) => CTerm::Const(v.clone()),
        Term::Var(name) => match lookup(scope, name) {
            Some(i) => CTerm::Var(scope[i].1),
            None => CTerm::Unbound,
        },
    }
}

fn compile_test(test: &Test, scope: &Scope<'_>) -> CTest {
    let all = |ts: &[Test]| ts.iter().map(|t| compile_test(t, scope)).collect();
    match test {
        Test::Cmp(op, a, b) => CTest::Cmp(*op, compile_term(a, scope), compile_term(b, scope)),
        Test::And(ts) => CTest::And(all(ts)),
        Test::Or(ts) => CTest::Or(all(ts)),
        Test::Not(t) => CTest::Not(Box::new(compile_test(t, scope))),
    }
}

/// Compile one pattern standing at positive position `pos` (for a negated
/// pattern: the number of positive CEs before it, where its candidate
/// stands while being verified). Variables it binds are pushed on
/// `scope`; the caller pops a negated pattern's, which are local to it.
fn compile_pattern<'r>(
    p: &'r Pattern,
    pos: usize,
    scope: &mut Scope<'r>,
    facts: &mut FactStore,
) -> CPattern {
    let template = Template::named(&p.template);
    let tid = facts.intern(template);
    let outer = scope.len();
    let mut probe = None;
    let mut tests = Vec::with_capacity(p.tests.len());
    for (slot, test) in &p.tests {
        let slot = template.slot(slot);
        let (test, pinned) = match test {
            SlotTest::Const(v) | SlotTest::Cmp(CmpOp::Eq, v) => (
                CSlotTest::Cmp(CmpOp::Eq, v.clone()),
                Some(CTerm::Const(v.clone())),
            ),
            SlotTest::Cmp(op, v) => (CSlotTest::Cmp(*op, v.clone()), None),
            SlotTest::Var(name) => match lookup(scope, name) {
                // Only a variable an earlier CE bound is known before
                // this pattern's candidate is chosen.
                Some(i) => {
                    let var = scope[i].1;
                    let pinned = (i < outer).then_some(CTerm::Var(var));
                    (CSlotTest::EqVar(var), pinned)
                }
                None => {
                    scope.push((name, VarRef { pos, slot }));
                    (CSlotTest::Bind, None)
                }
            },
        };
        if let (None, Some(operand)) = (&probe, pinned) {
            probe = Some((facts.probe_slot(tid, slot), operand));
        }
        tests.push((slot, test));
    }
    CPattern { tid, tests, probe }
}

impl CompiledRule {
    /// Lower `rule`, interning its templates and registering the slots
    /// its joins probe with `facts` (back-filling their indexes).
    pub(crate) fn compile(rule: &Rule, facts: &mut FactStore) -> Self {
        let mut scope = Scope::new();
        let (mut pos_tmpls, mut neg_tmpls) = (Vec::new(), Vec::new());
        let note = |list: &mut Vec<TemplateId>, tid| {
            if !list.contains(&tid) {
                list.push(tid);
            }
        };
        // The template of each positive CE, in order: what a `modify` of
        // that position writes into.
        let mut modified: Vec<Template> = Vec::new();
        let mut pos = 0;
        let mut ces = Vec::with_capacity(rule.ces.len());
        for ce in &rule.ces {
            ces.push(match ce {
                Ce::Pos(p) => {
                    let p = compile_pattern(p, pos, &mut scope, facts);
                    note(&mut pos_tmpls, p.tid);
                    modified.push(facts.template(p.tid));
                    pos += 1;
                    CCe::Pos(p)
                }
                Ce::Neg(p) => {
                    let outer = scope.len();
                    let p = compile_pattern(p, pos, &mut scope, facts);
                    scope.truncate(outer);
                    note(&mut neg_tmpls, p.tid);
                    CCe::Neg(p)
                }
                Ce::Test(t) => CCe::Test(compile_test(t, &scope)),
            });
        }
        let terms = |template: Template, slots: &[(String, Term)]| {
            slots
                .iter()
                .map(|(slot, t)| (template.slot(slot), compile_term(t, &scope)))
                .collect()
        };
        let actions = rule
            .actions
            .iter()
            .map(|action| match action {
                Action::Assert { template, slots } => {
                    let template = Template::named(template);
                    CAction::Assert {
                        template,
                        slots: terms(template, slots),
                    }
                }
                Action::Retract(pos_index) => CAction::Retract(*pos_index),
                Action::Modify { pos_index, slots } => CAction::Modify {
                    pos_index: *pos_index,
                    slots: modified
                        .get(*pos_index)
                        .map_or_else(Vec::new, |&template| terms(template, slots)),
                },
                Action::Call { command, args } => CAction::Call {
                    command: command.clone(),
                    args: args.iter().map(|t| compile_term(t, &scope)).collect(),
                },
            })
            .collect();
        // The first action that retracts a matched fact consumes the
        // activation, unless an assert before it can reach a template
        // this rule negates: that re-reconciles the rule mid-firing, and
        // only the refraction entry keeps the activation off the agenda.
        let consumes = rule
            .actions
            .iter()
            .find_map(|action| match action {
                Action::Retract(i) | Action::Modify { pos_index: i, .. } if *i < pos => Some(true),
                Action::Assert { template, .. } => Template::lookup(template)
                    .and_then(|t| facts.id_of(t))
                    .is_some_and(|tid| neg_tmpls.contains(&tid))
                    .then_some(false),
                _ => None,
            })
            .unwrap_or(false);
        CompiledRule {
            name: rule.name.as_str().into(),
            salience: rule.salience,
            ces,
            actions,
            pos_tmpls,
            neg_tmpls,
            consumes,
        }
    }
}

/// A command emitted by a fired rule, to be interpreted by the embedding
/// component.
#[derive(Clone, Debug, PartialEq)]
pub struct Invocation {
    /// Command name.
    pub command: String,
    /// Resolved arguments.
    pub args: Vec<Value>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;
    use crate::value::CmpOp;

    fn store() -> FactStore {
        let mut s = FactStore::new();
        s.assert_fact(Fact::new("violation").with("pid", 1).with("fps", 15.0));
        s.assert_fact(Fact::new("violation").with("pid", 2).with("fps", 26.0));
        s.assert_fact(Fact::new("buffer").with("pid", 1).with("len", 9000));
        s.assert_fact(Fact::new("buffer").with("pid", 2).with("len", 10));
        s
    }

    #[test]
    fn single_pattern_activations() {
        let r = Rule::new("r").when(Pattern::new("violation").slot_var("pid", "p"));
        let acts = r.activations(&store());
        assert_eq!(acts.len(), 2);
    }

    #[test]
    fn join_on_shared_variable() {
        let r = Rule::new("local-cause")
            .when(Pattern::new("violation").slot_var("pid", "p"))
            .when(
                Pattern::new("buffer")
                    .slot_var("pid", "p")
                    .slot_cmp("len", CmpOp::Gt, 1000),
            );
        let acts = r.activations(&store());
        // Only pid 1 has a big buffer.
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(1)));
        assert_eq!(acts[0].0.len(), 2, "two positive facts matched");
    }

    #[test]
    fn negation_excludes() {
        let mut s = store();
        let r = Rule::new("undiagnosed")
            .when(Pattern::new("violation").slot_var("pid", "p"))
            .when_not(Pattern::new("diagnosed").slot_var("pid", "p"));
        assert_eq!(r.activations(&s).len(), 2);
        s.assert_fact(Fact::new("diagnosed").with("pid", 1));
        let acts = r.activations(&s);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(2)));
    }

    #[test]
    fn test_ce_filters_joins() {
        let r = Rule::new("low-fps")
            .when(
                Pattern::new("violation")
                    .slot_var("pid", "p")
                    .slot_var("fps", "f"),
            )
            .test(Test::Cmp(CmpOp::Lt, Term::var("f"), Term::val(20.0)));
        let acts = r.activations(&store());
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].1.get("p"), Some(&Value::Int(1)));
    }

    #[test]
    fn same_fact_not_matched_twice() {
        let mut s = FactStore::new();
        s.assert_fact(Fact::new("peer").with("id", 1));
        s.assert_fact(Fact::new("peer").with("id", 2));
        let r = Rule::new("pairs")
            .when(Pattern::new("peer").slot_var("id", "a"))
            .when(Pattern::new("peer").slot_var("id", "b"));
        // 2 ordered pairs (1,2) and (2,1) — never (1,1) or (2,2).
        assert_eq!(r.activations(&s).len(), 2);
    }

    #[test]
    fn consumption_is_decided_once_at_compile_time() {
        let consumes = |r: Rule| CompiledRule::compile(&r, &mut FactStore::new()).consumes;
        let two = || {
            Rule::new("r")
                .when(Pattern::new("a").slot_var("x", "x"))
                .when_not(Pattern::new("blocked").slot_var("x", "x"))
                .when(Pattern::new("b").slot_var("x", "x"))
        };
        assert!(consumes(two().then_call("c", vec![]).then_retract(0)));
        assert!(consumes(two().then_retract(1)), "a non-first CE counts");
        assert!(consumes(two().then_modify(1, vec![("x", Term::val(2))])));
        assert!(!consumes(two().then_call("c", vec![])), "nothing retracted");
        assert!(!consumes(two().then_retract(2)), "no third positive CE");
        assert!(!consumes(Rule::new("boot").then_retract(0)));
        // An assert that re-reconciles the rule before the retract: only
        // a refraction entry keeps the activation off the agenda then.
        assert!(!consumes(
            two()
                .then_assert("blocked", vec![("x", Term::val(9))])
                .then_retract(0)
        ));
        // The same assert after the retract, or of a template the rule
        // does not negate, is harmless.
        assert!(consumes(
            two()
                .then_retract(0)
                .then_assert("blocked", vec![("x", Term::val(9))])
        ));
        assert!(consumes(
            two()
                .then_assert("a", vec![("x", Term::val(9))])
                .then_retract(0)
        ));
    }

    #[test]
    fn empty_lhs_yields_one_activation() {
        let r = Rule::new("boot");
        let acts = r.activations(&FactStore::new());
        assert_eq!(acts.len(), 1, "a rule with no conditions fires once");
    }
}
