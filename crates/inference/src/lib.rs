//! # qos-inference — a forward-chaining expert-system shell
//!
//! The paper's QoS Host Manager and Domain Manager embed the CLIPS expert
//! system shell for diagnosis ("the inference engine, rule set and fact
//! repository are implemented using CLIPS"). This crate is a small,
//! faithful CLIPS subset built from scratch:
//!
//! * structured **facts** (template + named slots) in a working memory
//!   with duplicate suppression and fresh ids ([`fact`]);
//! * **rules** with positive/negated patterns, variable binding and join
//!   semantics, and boolean `test` conditions ([`pattern`], [`rule`]);
//! * a **forward-chaining engine** with salience + recency conflict
//!   resolution and refraction ([`engine`]);
//! * a **CLIPS-style text format** (`defrule` / `deffacts`) so rule sets
//!   are data, addable and removable at run time — the paper's dynamic
//!   rule distribution ([`clips`], [`sexpr`]).
//!
//! Rule conclusions reach the outside world through the engine's command
//! outbox ([`rule::Invocation`]): a fired `(call adjust-cpu ?pid)` is
//! drained by the embedding manager and translated into a resource-manager
//! action.
//!
//! ```
//! use qos_inference::prelude::*;
//!
//! let program = parse_program(r#"
//!     (defrule local-cpu-cause
//!       (violation (pid ?p) (buffer ?b))
//!       (test (> ?b 1000))
//!       =>
//!       (call adjust-cpu ?p))
//! "#).unwrap();
//!
//! let mut engine = Engine::new();
//! for rule in program.rules { engine.add_rule(rule); }
//! engine.assert_fact(Fact::new("violation").with("pid", 12).with("buffer", 9000));
//! engine.run(100);
//! let commands = engine.take_invocations();
//! assert_eq!(commands[0].command, "adjust-cpu");
//! ```

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod clips;
pub mod engine;
pub mod fact;
pub mod hash;
mod idvec;
pub mod pattern;
pub mod rule;
pub mod sexpr;
pub mod value;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::clips::{parse_program, parse_rule, ClipsError, Program};
    pub use crate::engine::{ConflictSet, Engine, PhaseProfile, RunStats, DEFAULT_TRACE_CAPACITY};
    pub use crate::fact::{Fact, FactId, FactStore, Slot, Template, TemplateId};
    pub use crate::pattern::{Bindings, Pattern, SlotTest, Term, Test};
    pub use crate::rule::{Action, Ce, Invocation, InvocationRef, Invocations, Rule};
    pub use crate::value::{CmpOp, Text, Value};
}

pub use prelude::*;
