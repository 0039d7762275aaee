//! The forward-chaining inference engine: match → conflict-resolve → act,
//! with salience, recency and refraction. A small, faithful subset of the
//! CLIPS shell the paper's prototype embedded in its QoS Host Manager.
//!
//! Matching is **incremental**: rather than re-joining every rule against
//! every fact on every cycle, the engine keeps a persistent agenda and
//! updates it from the *delta* of each assert/retract — template-triggered
//! seeded joins for positive condition elements, per-rule re-evaluation
//! when a negated template changes. Rules are **compiled** at
//! [`Engine::add_rule`] (`CompiledRule`): a partial match is the ids of
//! the facts matched so far and variables are read from those facts, so
//! seeding a rule with a new fact, agenda and refraction bookkeeping, and
//! firing allocate nothing in steady state beyond the facts and
//! invocations a firing hands out. The conflict set is hashed, not
//! ordered: pending activations sit in a slab, queued in a binary heap in
//! conflict-resolution order and linked under each of their facts, so
//! inserting, firing and dropping one touches no ordered tree. The
//! original full-rematch algorithm, over the rules' source form and
//! string-keyed bindings, is retained behind [`Engine::use_naive_matcher`]
//! as a differential-testing oracle (and as the "before" arm of the scale
//! benchmark); both matchers produce identical firing sequences.

use std::cmp::Reverse;
use std::collections::BTreeSet; // the refraction memory, `Engine::fired`, only
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

use crate::fact::{Fact, FactId, FactStore, Slot, Template, TemplateId};
use crate::hash::FxMap;
use crate::idvec::{IdVec, InlineVec};
use crate::pattern::{CTerm, Row};
use crate::rule::{CAction, CCe, CompiledRule, Invocation, Rule};
use crate::value::Value;

/// Default bound on the diagnostic firing trace (ring buffer): a
/// long-lived host manager keeps only the most recent entries.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Outcome of a call to [`Engine::run`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of rule firings.
    pub fired: u64,
    /// Number of match-resolve-act cycles executed.
    pub cycles: u64,
    /// Join work: candidate facts the matcher examined. With the default
    /// incremental matcher this counts only *delta* work — candidates
    /// examined while propagating asserts/retracts since the previous
    /// `run` returned (including propagation triggered between runs by
    /// the embedding component) plus propagation from rules fired during
    /// this run. Under [`Engine::use_naive_matcher`] it counts the full
    /// re-match the naive oracle performs every cycle, fact by fact —
    /// the two modes are directly comparable: both count facts actually
    /// examined while matching.
    pub activations: u64,
    /// Largest agenda observed (unfired activations competing in
    /// conflict resolution): the peak of the persistent agenda since the
    /// previous run with the incremental matcher, the largest per-cycle
    /// agenda with the naive oracle.
    pub peak_agenda: u64,
    /// True if the run stopped because the cycle limit was reached (a
    /// runaway rule set) rather than by quiescence.
    pub hit_limit: bool,
}

/// Per-phase wall-clock breakdown of engine work, accumulated while
/// profiling is enabled ([`Engine::enable_phase_profile`]): where does a
/// violation's budget go — matching candidates, maintaining the agenda,
/// or executing right-hand sides? Nanosecond counters are exclusive:
/// match and agenda work triggered by a fired rule's own asserts and
/// retracts is charged to those phases, not to `fire_ns`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Time joining candidate facts against rule patterns.
    pub match_ns: u64,
    /// Time inserting, diffing and popping agenda activations.
    pub agenda_ns: u64,
    /// Time executing rule right-hand sides (exclusive of the match and
    /// agenda work their actions trigger).
    pub fire_ns: u64,
}

/// How much conflict-set bookkeeping the engine holds ([`Engine::conflict_set`]).
/// Each figure is bounded by what is live — pending activations and the
/// facts they mention — never by how many violations have passed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConflictSet {
    /// Activations waiting on the agenda.
    pub pending: usize,
    /// Refraction entries: `(rule, matched facts)` combinations that
    /// fired and may not fire again while those facts live. A firing
    /// that retracts or modifies one of its own facts files none.
    pub refracted: u64,
    /// Facts the agenda's by-fact index has an entry for: exactly those
    /// some pending activation mentions.
    pub indexed_facts: usize,
}

/// Reusable join buffers: the intermediate partial-match vectors are
/// engine-owned and cleared between calls, so a steady stream of
/// violation asserts reuses the same heap spines instead of allocating
/// per propagation.
#[derive(Debug, Default)]
struct JoinScratch {
    partial: Vec<IdVec>,
    next: Vec<IdVec>,
}

/// Interned rule identifier: the rule's stable definition index. Stable
/// across removals (slots are tombstoned, never compacted), so the
/// earliest-defined-rule conflict-resolution tie-break is preserved.
type RuleIx = u32;

/// Agenda ordering key. Field order gives the conflict-resolution total
/// order lexicographically, so the heap's maximum is exactly the
/// activation the naive matcher's `max_by_key` picks: highest salience,
/// then most recent matched fact, then earliest-defined rule, then
/// smallest fact-id vector.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct AgendaKey {
    salience: i32,
    recency: FactId,
    rule: Reverse<RuleIx>,
    ids: Reverse<IdVec>,
}

impl AgendaKey {
    fn new(ix: RuleIx, salience: i32, ids: IdVec) -> Self {
        AgendaKey {
            salience,
            recency: ids.recency(),
            rule: Reverse(ix),
            ids: Reverse(ids),
        }
    }
}

/// A pending activation, as removal needs it.
#[derive(Debug)]
struct Activation {
    rule: RuleIx,
    ids: IdVec,
    /// `at[k]` is this activation's position in the by-fact list of
    /// `ids[k]`, so unlinking it is a swap-remove, never a search.
    at: InlineVec<u32>,
}

/// One slab slot. `gen` counts the slot's occupants, so a heap entry
/// queued for an earlier one reads as a tombstone.
#[derive(Debug, Default)]
struct SlabSlot {
    gen: u32,
    act: Option<Activation>,
}

/// A by-fact index entry: the activation in `slot` mentions the fact at
/// position `k` of its ids.
#[derive(Clone, Copy, Default, Debug)]
struct Link {
    slot: u32,
    k: u32,
}

/// A heap entry: an activation's conflict-resolution key and the slab
/// slot and occupant it was queued for.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Queued {
    key: AgendaKey,
    slot: u32,
    gen: u32,
}

/// The persistent agenda: pending activations in conflict-resolution
/// order, with O(1) removal of any of them.
///
/// An activation lives in a slab slot, is queued in a max-heap under its
/// [`AgendaKey`], and is linked under each of its facts in a hashed
/// by-fact index. Removing one frees its slot and swap-removes its links;
/// its heap entry stays behind as a tombstone (its slot's `gen` has
/// moved on), skipped when popped and swept once tombstones outnumber
/// live entries — each sweep costs at most twice the removals since the
/// last, so the heap stays O(live) and removal O(1) amortized. `live` is
/// exact: it is the agenda size conflict resolution and `peak_agenda`
/// see.
#[derive(Debug, Default)]
struct Agenda {
    slab: Vec<SlabSlot>,
    free: Vec<u32>,
    heap: BinaryHeap<Queued>,
    /// Fact → links of the pending activations that mention it; a fact
    /// no pending activation mentions has no entry.
    by_fact: FxMap<FactId, InlineVec<Link>>,
    live: usize,
}

impl Agenda {
    fn insert(&mut self, rule: RuleIx, salience: i32, ids: IdVec) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(SlabSlot::default());
            self.slab.len() as u32 - 1
        });
        let mut at = InlineVec::new();
        for (k, &id) in ids.as_slice().iter().enumerate() {
            let links = self.by_fact.entry(id).or_default();
            at.push(links.len() as u32);
            links.push(Link { slot, k: k as u32 });
        }
        let entry = &mut self.slab[slot as usize];
        self.heap.push(Queued {
            key: AgendaKey::new(rule, salience, ids.clone()),
            slot,
            gen: entry.gen,
        });
        entry.act = Some(Activation { rule, ids, at });
        self.live += 1;
    }

    /// Take the activation conflict resolution picks.
    fn pop(&mut self) -> Option<(RuleIx, IdVec)> {
        while let Some(Queued { key, slot, gen }) = self.heap.pop() {
            if self.slab[slot as usize].gen == gen {
                self.release(slot, None);
                return Some((key.rule.0, key.ids.0));
            }
        }
        None
    }

    /// Drop every activation that mentions `id`.
    fn remove_fact(&mut self, id: FactId) {
        let Some(links) = self.by_fact.remove(&id) else {
            return;
        };
        for link in links.as_slice() {
            self.release(link.slot, Some(id));
        }
        self.sweep();
    }

    /// Drop the activations of `rule` that `keep` rejects.
    fn retain(&mut self, rule: RuleIx, mut keep: impl FnMut(&IdVec) -> bool) {
        for slot in 0..self.slab.len() {
            let doomed = self.slab[slot]
                .act
                .as_ref()
                .is_some_and(|a| a.rule == rule && !keep(&a.ids));
            if doomed {
                self.release(slot as u32, None);
            }
        }
        self.sweep();
    }

    /// Free `slot` and unlink it from the by-fact lists of its facts
    /// (but `except`'s, whose whole list the caller already took).
    fn release(&mut self, slot: u32, except: Option<FactId>) {
        let entry = &mut self.slab[slot as usize];
        let act = entry.act.take().expect("released slot is occupied");
        entry.gen = entry.gen.wrapping_add(1);
        for (&id, &at) in act.ids.as_slice().iter().zip(act.at.as_slice()) {
            if Some(id) == except {
                continue;
            }
            let links = self.by_fact.get_mut(&id).expect("linked under each fact");
            links.swap_remove(at as usize);
            if let Some(&moved) = links.as_slice().get(at as usize) {
                // The list's last link filled the hole: repoint it.
                let other = self.slab[moved.slot as usize].act.as_mut();
                other.expect("links name occupied slots").at.as_mut_slice()[moved.k as usize] = at;
            } else if links.is_empty() {
                self.by_fact.remove(&id);
            }
        }
        self.free.push(slot);
        self.live -= 1;
    }

    /// Rebuild the heap without its tombstones once they outnumber the
    /// live entries.
    fn sweep(&mut self) {
        if self.live == 0 {
            // Every entry is a tombstone: the common case, after a
            // violation's last activation goes.
            self.heap.clear();
        } else if self.heap.len() > 2 * self.live {
            let slab = &self.slab;
            self.heap.retain(|q| slab[q.slot as usize].gen == q.gen);
        }
    }
}

/// Refraction entries of an activation with no facts (an empty-LHS rule)
/// are filed under this id, which no fact ever has.
const NO_FACT: FactId = FactId(u64::MAX);

/// Bounded diagnostic trace: a ring buffer of the most recent entries.
/// Entries are shared strings so a firing records its rule's name by
/// cloning a pointer.
#[derive(Debug)]
struct TraceBuffer {
    buf: VecDeque<Arc<str>>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer {
            buf: VecDeque::new(),
            capacity: DEFAULT_TRACE_CAPACITY,
            dropped: 0,
        }
    }
}

impl TraceBuffer {
    fn push(&mut self, entry: Arc<str>) {
        while self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(entry);
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.buf.len() > self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    fn take(&mut self) -> Vec<String> {
        self.dropped = 0;
        self.buf.drain(..).map(|s| s.to_string()).collect()
    }
}

/// A fired rule's right-hand side with every term resolved, ready to run.
#[derive(Debug)]
enum Effect {
    Assert(Fact),
    Retract(FactId),
    Modify(FactId, Vec<(Slot, Value)>),
    Call(Invocation),
}

/// The inference engine: rule base + fact repository + persistent agenda.
#[derive(Debug, Default)]
pub struct Engine {
    facts: FactStore,
    /// Rule slots by stable index, in source form (what the naive oracle
    /// matches); removal tombstones (`None`) so indices — and the
    /// definition-order tie-break — never shift.
    rules: Vec<Option<Rule>>,
    /// The same slots compiled (what the incremental matcher runs).
    compiled: Vec<CompiledRule>,
    /// Rule name → stable index (O(1) add/remove/replace by name).
    ix_by_name: HashMap<String, RuleIx>,
    live_rules: usize,
    /// Template → rules with a positive CE on it: which rules to re-seed
    /// when a fact of that template is asserted. Indexed by `TemplateId`.
    pos_triggers: Vec<Vec<RuleIx>>,
    /// Template → rules with a negated CE on it: which rules to
    /// re-evaluate when a fact of that template changes either way.
    neg_triggers: Vec<Vec<RuleIx>>,
    /// The persistent agenda (see [`Agenda`]).
    agenda: Agenda,
    /// Refraction memory: (rule, positive fact ids) combinations that
    /// already fired, filed once under each of their facts (under
    /// [`NO_FACT`] when there are none) so a retraction drops exactly
    /// the entries mentioning the fact — re-asserted facts re-activate
    /// rules, as in CLIPS. A rule that consumes its activation
    /// ([`CompiledRule::consumes`]) files nothing here.
    fired: BTreeSet<(FactId, RuleIx, IdVec)>, // by fact: a retract range-drops its entries
    /// Live refraction entries per rule, so removing a never-fired rule
    /// skips the refraction sweep entirely.
    fired_per_rule: Vec<u64>,
    /// Commands emitted by fired rules, awaiting the embedding component.
    outbox: Vec<Invocation>,
    /// Bounded diagnostic trace of fired rule names (plus warnings).
    trace: TraceBuffer,
    /// Run the naive full-rematch oracle instead of the incremental
    /// matcher.
    naive: bool,
    /// Incremental join work accumulated since the last `run` returned.
    join_work: u64,
    /// Lifetime join work, never reset (benchmark accounting).
    join_work_total: u64,
    /// Peak agenda size observed since the last `run` returned.
    peak_agenda_acc: u64,
    /// Reusable join buffers (see [`JoinScratch`]).
    scratch: JoinScratch,
    /// Reusable activation buffer for seeded joins and reconciliation.
    acts_buf: Vec<IdVec>,
    /// Reusable buffer for a firing's resolved right-hand side.
    effects_buf: Vec<Effect>,
    /// Per-phase wall-clock accumulators; `None` when profiling is off
    /// (the default — no clock reads on the hot path).
    profile: Option<PhaseProfile>,
}

/// The trigger list of one template (empty for a template no rule names).
fn triggers(by_tmpl: &[Vec<RuleIx>], tid: TemplateId) -> &[RuleIx] {
    by_tmpl.get(tid.0 as usize).map_or(&[], Vec::as_slice)
}

impl Engine {
    /// An engine with no rules and no facts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule. Replaces any existing rule with the same name in
    /// place (dynamic rule distribution: managers receive updated rules
    /// at run time), keeping its definition order and refraction history.
    /// The rule is compiled here, once; equality-join indexes for slots
    /// it is the first to probe are built from the facts already present.
    pub fn add_rule(&mut self, rule: Rule) {
        let compiled = CompiledRule::compile(&rule, &mut self.facts);
        let ix = match self.ix_by_name.get(&rule.name).copied() {
            Some(ix) => {
                self.set_triggers(ix, false);
                self.agenda.retain(ix, |_| false);
                self.rules[ix as usize] = Some(rule);
                self.compiled[ix as usize] = compiled;
                ix
            }
            None => {
                let ix = self.rules.len() as RuleIx;
                self.ix_by_name.insert(rule.name.clone(), ix);
                self.rules.push(Some(rule));
                self.compiled.push(compiled);
                self.fired_per_rule.push(0);
                self.live_rules += 1;
                ix
            }
        };
        self.set_triggers(ix, true);
        if !self.naive {
            self.reconcile_rule(ix);
        }
    }

    /// Remove a rule by name; true if it existed. O(name lookup +
    /// pending activations); the refraction memory is swept only if the
    /// rule has live refraction entries.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let Some(ix) = self.ix_by_name.remove(name) else {
            return false;
        };
        self.set_triggers(ix, false);
        self.agenda.retain(ix, |_| false);
        self.rules[ix as usize] = None;
        self.live_rules -= 1;
        if std::mem::take(&mut self.fired_per_rule[ix as usize]) > 0 {
            self.fired.retain(|(_, r, _)| *r != ix);
        }
        true
    }

    /// Number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.live_rules
    }

    /// Names of loaded rules, in definition order.
    pub fn rule_names(&self) -> impl Iterator<Item = &str> {
        self.rules
            .iter()
            .filter_map(|r| r.as_ref().map(|r| r.name.as_str()))
    }

    /// Assert a fact into working memory; the delta propagates through
    /// every rule whose condition elements mention its template.
    pub fn assert_fact(&mut self, fact: Fact) -> FactId {
        let (id, fresh, tid) = self.facts.assert_fact_interned(fact);
        if fresh && !self.naive {
            self.propagate_assert(id, tid);
        }
        id
    }

    /// Retract a fact: its activations leave the agenda, refraction
    /// entries that reference it are dropped (fact ids are never reused,
    /// so they could never match again), and rules with negated patterns
    /// on its template are re-evaluated (a retraction can *satisfy* a
    /// negation).
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        let (fact, tid) = self.facts.retract_interned(id)?;
        while let Some((_, ix, ids)) = self
            .fired
            .range((id, 0, IdVec::new())..)
            .next()
            .filter(|e| e.0 == id)
            .cloned()
        {
            for &other in ids.as_slice() {
                self.fired.remove(&(other, ix, ids.clone()));
            }
            self.fired_per_rule[ix as usize] -= 1;
        }
        if !self.naive {
            self.agenda.remove_fact(id);
            for i in 0..triggers(&self.neg_triggers, tid).len() {
                self.reconcile_rule(self.neg_triggers[tid.0 as usize][i]);
            }
        }
        Some(fact)
    }

    /// Retract all facts of a template (e.g. clearing stale telemetry
    /// before asserting a fresh report).
    pub fn retract_template(&mut self, template: &str) -> usize {
        let ids: Vec<FactId> = self.facts.by_template(template).map(|(id, _)| id).collect();
        let n = ids.len();
        for id in ids {
            self.retract(id);
        }
        n
    }

    /// Retract all facts of `template` whose `slot` equals `value`
    /// (e.g. clearing a process's stale telemetry before asserting a
    /// fresh report). Returns how many facts were retracted. Costs
    /// nothing while the template has no live fact; otherwise looks the
    /// facts up in the equality-join index, registering `(template,
    /// slot)` as probed.
    pub fn retract_where(&mut self, template: Template, slot: Slot, value: &Value) -> usize {
        let Some(tid) = self.facts.id_of(template) else {
            return 0;
        };
        if self.facts.ids_of(tid).is_empty() {
            return 0;
        }
        let index = self.facts.probe_slot(tid, slot);
        let mut ids = IdVec::new();
        for &id in self.facts.ids_with_slot(tid, index, value) {
            let fact = self.facts.get(id).expect("index ids are live");
            // The bucket is keyed by hash: re-verify.
            if fact.at(slot).is_some_and(|v| v.loose_eq(value)) {
                ids.push(id);
            }
        }
        for &id in ids.as_slice() {
            self.retract(id);
        }
        ids.as_slice().len()
    }

    /// [`Engine::retract_where`], by name.
    pub fn retract_matching(&mut self, template: &str, slot: &str, value: &Value) -> usize {
        let Some(template) = Template::lookup(template) else {
            return 0;
        };
        // A slot nobody has named is one no fact carries.
        template
            .find_slot(slot)
            .map_or(0, |slot| self.retract_where(template, slot, value))
    }

    /// Does a loaded rule have a positive or negated condition element
    /// on `template`? While none does, no assert or retract of its facts
    /// can change what fires.
    pub fn reads(&self, template: Template) -> bool {
        self.facts.id_of(template).is_some_and(|tid| {
            !triggers(&self.pos_triggers, tid).is_empty()
                || !triggers(&self.neg_triggers, tid).is_empty()
        })
    }

    /// Working-memory access.
    pub fn facts(&self) -> &FactStore {
        &self.facts
    }

    /// Drain the commands emitted by fired rules since the last drain.
    pub fn take_invocations(&mut self) -> Vec<Invocation> {
        std::mem::take(&mut self.outbox)
    }

    /// The retained diagnostic trace (most recent
    /// [`DEFAULT_TRACE_CAPACITY`] entries unless resized), oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &str> {
        self.trace.buf.iter().map(|s| &**s)
    }

    /// Drain the retained trace, resetting the dropped-entry counter.
    pub fn take_trace(&mut self) -> Vec<String> {
        self.trace.take()
    }

    /// Trace entries evicted from the bounded buffer since the last
    /// [`Engine::take_trace`].
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped
    }

    /// Resize the trace ring buffer (minimum 1), evicting the oldest
    /// entries if it shrinks.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Switch between the incremental matcher (default) and the naive
    /// full-rematch oracle. Switching back to incremental rebuilds the
    /// agenda from scratch, so the toggle is safe at any point; the two
    /// modes produce identical firing sequences.
    pub fn use_naive_matcher(&mut self, on: bool) {
        if self.naive == on {
            return;
        }
        self.naive = on;
        if on {
            self.agenda = Agenda::default();
            self.peak_agenda_acc = 0;
        } else {
            self.rebuild_agenda();
        }
    }

    /// Is the naive full-rematch oracle active?
    pub fn naive_matcher(&self) -> bool {
        self.naive
    }

    /// Lifetime join work — candidate facts examined by the matcher
    /// since the engine was created (never reset; the per-run delta is
    /// [`RunStats::activations`]).
    pub fn join_work_total(&self) -> u64 {
        self.join_work_total
    }

    /// The size of the conflict-set bookkeeping right now.
    pub fn conflict_set(&self) -> ConflictSet {
        ConflictSet {
            pending: self.agenda.live,
            refracted: self.fired_per_rule.iter().sum(),
            indexed_facts: self.agenda.by_fact.len(),
        }
    }

    /// Turn per-phase wall-clock profiling on or off. Off (the default)
    /// costs nothing; on, the engine reads the monotonic clock a handful
    /// of times per propagation and firing. Turning it off discards any
    /// accumulated counters.
    pub fn enable_phase_profile(&mut self, on: bool) {
        if on {
            if self.profile.is_none() {
                self.profile = Some(PhaseProfile::default());
            }
        } else {
            self.profile = None;
        }
    }

    /// The per-phase counters accumulated so far (zero when profiling is
    /// disabled).
    pub fn phase_profile(&self) -> PhaseProfile {
        self.profile.unwrap_or_default()
    }

    /// Drain the per-phase counters, resetting them to zero (profiling
    /// stays enabled if it was).
    pub fn take_phase_profile(&mut self) -> PhaseProfile {
        match self.profile.as_mut() {
            Some(p) => std::mem::take(p),
            None => PhaseProfile::default(),
        }
    }

    #[inline]
    fn prof_now(&self) -> Option<std::time::Instant> {
        self.profile.is_some().then(std::time::Instant::now)
    }

    #[inline]
    fn prof_add_match(&mut self, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t)) = (self.profile.as_mut(), t0) {
            p.match_ns += t.elapsed().as_nanos() as u64;
        }
    }

    #[inline]
    fn prof_add_agenda(&mut self, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t)) = (self.profile.as_mut(), t0) {
            p.agenda_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Fire with exclusive `fire_ns` accounting: match and agenda work
    /// triggered by the rule's own asserts/retracts lands in those
    /// counters while firing, so it is subtracted from the wall time
    /// charged to the fire phase.
    fn fire_timed(&mut self, ix: RuleIx, fact_ids: &[FactId]) {
        let Some(before) = self.profile else {
            self.fire(ix, fact_ids);
            return;
        };
        let t = std::time::Instant::now();
        self.fire(ix, fact_ids);
        let elapsed = t.elapsed().as_nanos() as u64;
        if let Some(p) = self.profile.as_mut() {
            let nested = (p.match_ns - before.match_ns) + (p.agenda_ns - before.agenda_ns);
            p.fire_ns += elapsed.saturating_sub(nested);
        }
    }

    /// Run match-resolve-act cycles until quiescence or `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunStats {
        if self.naive {
            return self.run_naive(max_cycles);
        }
        let mut stats = RunStats::default();
        self.peak_agenda_acc = self.peak_agenda_acc.max(self.agenda.live as u64);
        loop {
            if stats.cycles >= max_cycles {
                stats.hit_limit = true;
                break;
            }
            stats.cycles += 1;
            let t_agenda = self.prof_now();
            let Some((ix, ids)) = self.agenda.pop() else {
                break;
            };
            self.prof_add_agenda(t_agenda);
            self.record_fired(ix, &ids);
            stats.fired += 1;
            self.fire_timed(ix, ids.as_slice());
        }
        stats.activations = std::mem::take(&mut self.join_work);
        stats.peak_agenda = std::mem::take(&mut self.peak_agenda_acc);
        stats
    }

    /// The original per-cycle full-rematch loop, kept as the
    /// differential-testing oracle and benchmark baseline. Join work
    /// counts every fact examined while re-matching each cycle.
    fn run_naive(&mut self, max_cycles: u64) -> RunStats {
        let mut stats = RunStats::default();
        loop {
            if stats.cycles >= max_cycles {
                stats.hit_limit = true;
                return stats;
            }
            stats.cycles += 1;
            let t_match = self.prof_now();
            let mut work = 0u64;
            let mut agenda = 0u64;
            type NaiveKey = (i32, FactId, Reverse<RuleIx>, Reverse<Vec<FactId>>);
            let mut best: Option<NaiveKey> = None;
            for (ix, rule) in self.rules.iter().enumerate() {
                let Some(rule) = rule else { continue };
                let ix = ix as RuleIx;
                for (ids, _) in rule.activations_counting(&self.facts, &mut work) {
                    if self.has_fired(ix, &ids) {
                        continue;
                    }
                    agenda += 1;
                    let recency = ids.iter().copied().max().unwrap_or(FactId(0));
                    let key = (rule.salience, recency, Reverse(ix), Reverse(ids));
                    if best.as_ref().is_none_or(|bk| key > *bk) {
                        best = Some(key);
                    }
                }
            }
            self.prof_add_match(t_match);
            self.join_work_total += work;
            stats.activations += work;
            stats.peak_agenda = stats.peak_agenda.max(agenda);
            let Some((_, _, Reverse(ix), Reverse(ids))) = best else {
                return stats;
            };
            self.record_fired(ix, &IdVec::from_slice(&ids));
            stats.fired += 1;
            self.fire_timed(ix, &ids);
        }
    }

    // --- Incremental matching internals. ---

    /// Enter (`on`) or drop rule `ix` in the trigger lists of the
    /// templates its condition elements name.
    fn set_triggers(&mut self, ix: RuleIx, on: bool) {
        let c = &self.compiled[ix as usize];
        for (tmpls, by_tmpl) in [
            (&c.pos_tmpls, &mut self.pos_triggers),
            (&c.neg_tmpls, &mut self.neg_triggers),
        ] {
            for t in tmpls {
                let t = t.0 as usize;
                if by_tmpl.len() <= t {
                    by_tmpl.resize_with(t + 1, Vec::new);
                }
                by_tmpl[t].retain(|&r| r != ix);
                if on {
                    by_tmpl[t].push(ix);
                }
            }
        }
    }

    fn agenda_insert(&mut self, ix: RuleIx, salience: i32, ids: IdVec) {
        self.agenda.insert(ix, salience, ids);
        self.peak_agenda_acc = self.peak_agenda_acc.max(self.agenda.live as u64);
    }

    fn note_work(&mut self, work: u64) {
        self.join_work += work;
        self.join_work_total += work;
    }

    /// A freshly asserted fact: re-evaluate rules negating its template
    /// (an assert can *invalidate* activations), then run seeded joins
    /// for rules with positive patterns on it — only combinations
    /// containing the new fact are examined.
    fn propagate_assert(&mut self, id: FactId, tid: TemplateId) {
        let t = tid.0 as usize;
        for i in 0..triggers(&self.neg_triggers, tid).len() {
            self.reconcile_rule(self.neg_triggers[t][i]);
        }
        for i in 0..triggers(&self.pos_triggers, tid).len() {
            let ix = self.pos_triggers[t][i];
            if triggers(&self.neg_triggers, tid).contains(&ix) {
                continue; // already fully re-evaluated
            }
            self.seed_rule(ix, tid, id);
        }
    }

    /// Seeded join: compute exactly the activations of `ix` that match
    /// the new fact, once per positive CE of its template (an activation
    /// contains the new fact at exactly one position, so each is
    /// produced exactly once).
    fn seed_rule(&mut self, ix: RuleIx, tid: TemplateId, seed: FactId) {
        let t_match = self.prof_now();
        let mut acts = std::mem::take(&mut self.acts_buf);
        let rule = &self.compiled[ix as usize];
        let salience = rule.salience;
        let mut work = 0u64;
        let mut pos_ix = 0usize;
        for ce in &rule.ces {
            if let CCe::Pos(p) = ce {
                if p.tid == tid {
                    let seed = Some((pos_ix, seed));
                    join(
                        rule,
                        &self.facts,
                        seed,
                        &mut work,
                        &mut self.scratch,
                        &mut acts,
                    );
                }
                pos_ix += 1;
            }
        }
        self.prof_add_match(t_match);
        self.note_work(work);
        let t_agenda = self.prof_now();
        for ids in acts.drain(..) {
            // The activation contains the brand-new fact, so it can be in
            // neither the refraction memory nor the agenda already.
            self.agenda_insert(ix, salience, ids);
        }
        self.acts_buf = acts;
        self.prof_add_agenda(t_agenda);
    }

    /// Fully re-evaluate one rule and diff the result against its agenda
    /// entries (the fallback for negated templates, rule replacement and
    /// matcher-mode switches, where a delta is not monotone).
    fn reconcile_rule(&mut self, ix: RuleIx) {
        let t_match = self.prof_now();
        let mut acts = std::mem::take(&mut self.acts_buf);
        let rule = &self.compiled[ix as usize];
        let salience = rule.salience;
        let mut work = 0u64;
        join(
            rule,
            &self.facts,
            None,
            &mut work,
            &mut self.scratch,
            &mut acts,
        );
        self.prof_add_match(t_match);
        self.note_work(work);
        let t_agenda = self.prof_now();
        acts.sort_unstable();
        // Pending activations still matched stay; the rest go.
        let mut pending = vec![false; acts.len()];
        self.agenda.retain(ix, |ids| match acts.binary_search(ids) {
            Ok(i) => {
                pending[i] = true;
                true
            }
            Err(_) => false,
        });
        for (ids, pending) in acts.drain(..).zip(pending) {
            if !pending && !self.has_fired(ix, ids.as_slice()) {
                self.agenda_insert(ix, salience, ids);
            }
        }
        self.acts_buf = acts;
        self.prof_add_agenda(t_agenda);
    }

    fn rebuild_agenda(&mut self) {
        self.agenda = Agenda::default();
        for ix in 0..self.rules.len() as RuleIx {
            if self.rules[ix as usize].is_some() {
                self.reconcile_rule(ix);
            }
        }
    }

    fn has_fired(&self, ix: RuleIx, ids: &[FactId]) -> bool {
        let anchor = ids.first().copied().unwrap_or(NO_FACT);
        self.fired.contains(&(anchor, ix, IdVec::from_slice(ids)))
    }

    /// Enter `(ix, ids)` in the firing trace and, unless the firing
    /// consumes it, in the refraction memory.
    fn record_fired(&mut self, ix: RuleIx, ids: &IdVec) {
        let rule = &self.compiled[ix as usize];
        self.trace.push(Arc::clone(&rule.name));
        if rule.consumes {
            return;
        }
        for &id in ids.as_slice() {
            self.fired.insert((id, ix, ids.clone()));
        }
        if ids.is_empty() {
            self.fired.insert((NO_FACT, ix, ids.clone()));
        }
        self.fired_per_rule[ix as usize] += 1;
    }

    /// Execute a rule's right-hand side for the activation `fact_ids`.
    /// Every term is resolved from the matched facts *before* any action
    /// runs, so a `retract`/`modify` early in the RHS cannot unbind what
    /// a later action reads; each value is cloned once, into the fact or
    /// invocation that carries it out.
    fn fire(&mut self, ix: RuleIx, fact_ids: &[FactId]) {
        let mut effects = std::mem::take(&mut self.effects_buf);
        let row = Row {
            facts: &self.facts,
            ids: fact_ids,
            cand: None,
        };
        for action in &self.compiled[ix as usize].actions {
            match action {
                CAction::Assert { template, slots } => {
                    let mut fact = Fact::of(*template);
                    for (slot, v) in resolve_slots(slots, row) {
                        match v {
                            Some(v) => fact.set(slot, v),
                            // Unbound variable in RHS: record and skip
                            // the slot rather than aborting the run.
                            None => self.trace.push(
                                format!(
                                    "warning: unbound variable in assert of ({})",
                                    template.name()
                                )
                                .into(),
                            ),
                        }
                    }
                    effects.push(Effect::Assert(fact));
                }
                CAction::Retract(pos_ix) => {
                    if let Some(&id) = fact_ids.get(*pos_ix) {
                        effects.push(Effect::Retract(id));
                    }
                }
                CAction::Modify { pos_index, slots } => {
                    if let Some(&id) = fact_ids.get(*pos_index) {
                        let slots = resolve_slots(slots, row)
                            .filter_map(|(slot, v)| Some((slot, v?)))
                            .collect();
                        effects.push(Effect::Modify(id, slots));
                    }
                }
                CAction::Call { command, args } => effects.push(Effect::Call(Invocation {
                    command: command.clone(),
                    args: args
                        .iter()
                        .filter_map(|t| t.resolve(row).cloned())
                        .collect(),
                })),
            }
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Assert(fact) => {
                    self.assert_fact(fact);
                }
                Effect::Retract(id) => {
                    self.retract(id);
                }
                Effect::Modify(id, slots) => {
                    if let Some(mut fact) = self.retract(id) {
                        for (slot, v) in slots {
                            fact.set(slot, v);
                        }
                        self.assert_fact(fact);
                    }
                }
                Effect::Call(inv) => self.outbox.push(inv),
            }
        }
        self.effects_buf = effects;
    }
}

/// A right-hand side's `(slot, term)` list with each term resolved.
fn resolve_slots<'a>(
    slots: &'a [(Slot, CTerm)],
    row: Row<'a>,
) -> impl Iterator<Item = (Slot, Option<Value>)> + 'a {
    slots
        .iter()
        .map(move |(slot, term)| (*slot, term.resolve(row).cloned()))
}

/// Left-to-right join over the alpha memories, optionally pinning one
/// positive CE position to a single seed fact. A partial match is the ids
/// matched so far; `work` counts every candidate fact examined. Appends
/// complete matches to `out`. The intermediate partial-match vectors
/// live in `scratch` and are reused across calls.
fn join(
    rule: &CompiledRule,
    facts: &FactStore,
    seed: Option<(usize, FactId)>,
    work: &mut u64,
    scratch: &mut JoinScratch,
    out: &mut Vec<IdVec>,
) {
    let JoinScratch { partial, next } = scratch;
    partial.clear();
    partial.push(IdVec::new());
    let mut pos_ix = 0usize;
    for ce in &rule.ces {
        match ce {
            CCe::Pos(p) => {
                let pinned = seed.and_then(|(s_pos, s_id)| (s_pos == pos_ix).then_some(s_id));
                next.clear();
                for ids in partial.iter() {
                    let candidates = match &pinned {
                        Some(s_id) => std::slice::from_ref(s_id),
                        None => p.candidates(ids.as_slice(), facts),
                    };
                    for &fid in candidates {
                        *work += 1;
                        // A fact may not be matched twice by one rule
                        // instantiation; a pinned seed may be long gone.
                        if ids.contains(fid) {
                            continue;
                        }
                        let Some(fact) = facts.get(fid) else { continue };
                        if p.matches(fact, ids.as_slice(), facts) {
                            let mut nids = ids.clone();
                            nids.push(fid);
                            next.push(nids);
                        }
                    }
                }
                std::mem::swap(partial, next);
                pos_ix += 1;
            }
            CCe::Neg(p) => partial.retain(|ids| {
                let ids = ids.as_slice();
                !p.candidates(ids, facts).iter().any(|&fid| {
                    *work += 1;
                    let fact = facts.get(fid).expect("index ids are live");
                    p.matches(fact, ids, facts)
                })
            }),
            CCe::Test(t) => partial.retain(|ids| {
                t.eval(Row {
                    facts,
                    ids: ids.as_slice(),
                    cand: None,
                })
            }),
        }
        if partial.is_empty() {
            return;
        }
    }
    out.append(partial);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, Term, Test};
    use crate::value::CmpOp;

    /// The paper's canonical host-manager rule pair (Section 5.3): a large
    /// communication buffer implies a local CPU problem; a small one
    /// implies the problem is remote.
    fn host_manager_rules() -> Vec<Rule> {
        vec![
            Rule::new("local-cpu-cause")
                .when(
                    Pattern::new("violation")
                        .slot_var("pid", "p")
                        .slot_var("buffer", "b"),
                )
                .test(Test::Cmp(CmpOp::Gt, Term::var("b"), Term::val(1000)))
                .then_call("adjust-cpu", vec![Term::var("p")])
                .then_assert(
                    "diagnosed",
                    vec![("pid", Term::var("p")), ("cause", Term::val("local"))],
                ),
            Rule::new("remote-cause")
                .when(
                    Pattern::new("violation")
                        .slot_var("pid", "p")
                        .slot_var("buffer", "b"),
                )
                .test(Test::Cmp(CmpOp::Le, Term::var("b"), Term::val(1000)))
                .then_call("notify-domain", vec![Term::var("p")])
                .then_assert(
                    "diagnosed",
                    vec![("pid", Term::var("p")), ("cause", Term::val("remote"))],
                ),
        ]
    }

    #[test]
    fn forward_chaining_diagnoses_local_vs_remote() {
        let mut e = Engine::new();
        for r in host_manager_rules() {
            e.add_rule(r);
        }
        e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 50_000));
        e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 12));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        assert!(!stats.hit_limit);
        let inv = e.take_invocations();
        assert_eq!(inv.len(), 2);
        assert!(inv
            .iter()
            .any(|i| i.command == "adjust-cpu" && i.args == vec![Value::Int(1)]));
        assert!(inv
            .iter()
            .any(|i| i.command == "notify-domain" && i.args == vec![Value::Int(2)]));
        // Derived facts exist.
        assert_eq!(e.facts().by_template("diagnosed").count(), 2);
    }

    #[test]
    fn refraction_prevents_refiring() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("a").slot_var("x", "x"))
                .then_call("hit", vec![Term::var("x")]),
        );
        e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1);
        // Re-running without new facts fires nothing.
        assert_eq!(e.run(100).fired, 0);
        // A new fact re-activates.
        e.assert_fact(Fact::new("a").with("x", 2));
        assert_eq!(e.run(100).fired, 1);
        assert_eq!(e.take_invocations().len(), 2);
    }

    #[test]
    fn retract_reassert_refires() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("a").slot_const("x", 1))
                .then_call("hit", vec![]),
        );
        let id = e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1);
        e.retract(id);
        e.assert_fact(Fact::new("a").with("x", 1));
        assert_eq!(e.run(100).fired, 1, "fresh fact id clears refraction");
    }

    #[test]
    fn salience_orders_firing() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("low")
                .salience(-10)
                .when(Pattern::new("go"))
                .then_call("low", vec![]),
        );
        e.add_rule(
            Rule::new("high")
                .salience(10)
                .when(Pattern::new("go"))
                .then_call("high", vec![]),
        );
        e.assert_fact(Fact::new("go"));
        e.run(100);
        let order: Vec<String> = e
            .take_invocations()
            .into_iter()
            .map(|i| i.command)
            .collect();
        assert_eq!(order, vec!["high", "low"]);
    }

    #[test]
    fn chained_inference_via_asserted_facts() {
        // a -> b -> c chain: forward chaining derives transitively.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("a-to-b")
                .when(Pattern::new("a").slot_var("v", "v"))
                .then_assert("b", vec![("v", Term::var("v"))]),
        );
        e.add_rule(
            Rule::new("b-to-c")
                .when(Pattern::new("b").slot_var("v", "v"))
                .then_assert("c", vec![("v", Term::var("v"))]),
        );
        e.assert_fact(Fact::new("a").with("v", 7));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        let c: Vec<_> = e.facts().by_template("c").collect();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1.get("v"), Some(&Value::Int(7)));
    }

    #[test]
    fn retract_action_consumes_trigger() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("consume")
                .when(Pattern::new("event").slot_var("n", "n"))
                .then_retract(0)
                .then_call("handled", vec![Term::var("n")]),
        );
        e.assert_fact(Fact::new("event").with("n", 1));
        e.assert_fact(Fact::new("event").with("n", 2));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        assert_eq!(e.facts().by_template("event").count(), 0, "events consumed");
    }

    #[test]
    fn cycle_limit_stops_runaway_rules() {
        // A rule that keeps asserting new facts forever.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("runaway")
                .when(Pattern::new("n").slot_var("v", "v"))
                .then_retract(0)
                .then_assert("n", vec![("v", Term::var("v"))]),
        );
        // retract+assert same content gets a fresh id each cycle -> loops.
        e.assert_fact(Fact::new("n").with("v", 0));
        let stats = e.run(50);
        assert!(stats.hit_limit);
        assert_eq!(stats.cycles, 50);
    }

    #[test]
    fn dynamic_rule_replacement_and_removal() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("go"))
                .then_call("v1", vec![]),
        );
        // Replace in place (same name).
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("go"))
                .then_call("v2", vec![]),
        );
        assert_eq!(e.rule_count(), 1);
        e.assert_fact(Fact::new("go"));
        e.run(10);
        assert_eq!(e.take_invocations()[0].command, "v2");
        assert!(e.remove_rule("r"));
        assert!(!e.remove_rule("r"));
        assert_eq!(e.rule_count(), 0);
    }

    #[test]
    fn run_stats_count_join_work() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("job").slot_var("id", "i"))
                .then_call("work", vec![Term::var("i")]),
        );
        e.assert_fact(Fact::new("job").with("id", 1));
        e.assert_fact(Fact::new("job").with("id", 2));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        // Delta join work: each assert runs one seeded join examining
        // exactly the new fact; firing asserts nothing, so 1 + 1.
        assert_eq!(stats.activations, 2);
        assert_eq!(stats.peak_agenda, 2);
        // Quiescent re-run does no join work.
        let idle = e.run(100);
        assert_eq!(idle.activations, 0);
        assert_eq!(idle.peak_agenda, 0);
        // The lifetime counter keeps the total.
        assert_eq!(e.join_work_total(), 2);
    }

    #[test]
    fn recency_prefers_newer_facts() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("r")
                .when(Pattern::new("job").slot_var("id", "i"))
                .then_call("work", vec![Term::var("i")]),
        );
        e.assert_fact(Fact::new("job").with("id", 1));
        e.assert_fact(Fact::new("job").with("id", 2));
        e.run(100);
        let order: Vec<Value> = e
            .take_invocations()
            .into_iter()
            .map(|mut i| i.args.remove(0))
            .collect();
        assert_eq!(order, vec![Value::Int(2), Value::Int(1)], "newest first");
    }

    #[test]
    fn empty_lhs_rule_fires_once() {
        let mut e = Engine::new();
        e.add_rule(Rule::new("boot").then_call("boot", vec![]));
        assert_eq!(e.run(10).fired, 1);
        assert_eq!(e.run(10).fired, 0, "refraction holds with no facts");
        assert_eq!(e.take_invocations().len(), 1);
    }

    #[test]
    fn negation_tracks_asserts_and_retracts_incrementally() {
        // Non-monotone deltas: an *assert* can remove an activation and
        // a *retract* can create one.
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("uncovered")
                .when(Pattern::new("task").slot_var("id", "t"))
                .when_not(Pattern::new("done").slot_var("id", "t"))
                .then_call("pending", vec![Term::var("t")]),
        );
        e.assert_fact(Fact::new("task").with("id", 1));
        let done = e.assert_fact(Fact::new("done").with("id", 1));
        assert_eq!(e.run(100).fired, 0, "assert of blocker removed activation");
        e.retract(done);
        assert_eq!(e.run(100).fired, 1, "retract of blocker re-activated");
        // A fresh blocker suppresses the next task before it fires.
        e.assert_fact(Fact::new("done").with("id", 2));
        e.assert_fact(Fact::new("task").with("id", 2));
        assert_eq!(e.run(100).fired, 0);
    }

    #[test]
    fn trace_is_bounded_and_drainable() {
        let mut e = Engine::new();
        e.set_trace_capacity(4);
        e.add_rule(
            Rule::new("consume")
                .when(Pattern::new("event").slot_var("n", "n"))
                .then_retract(0),
        );
        for n in 0..10 {
            e.assert_fact(Fact::new("event").with("n", n));
        }
        assert_eq!(e.run(100).fired, 10);
        assert_eq!(e.trace().count(), 4, "ring buffer keeps the last K");
        assert_eq!(e.trace_dropped(), 6);
        let drained = e.take_trace();
        assert_eq!(drained.len(), 4);
        assert!(drained.iter().all(|t| t == "consume"));
        assert_eq!(e.trace().count(), 0);
        assert_eq!(e.trace_dropped(), 0);
    }

    #[test]
    fn phase_profile_accumulates_and_drains() {
        let mut e = Engine::new();
        e.enable_phase_profile(true);
        for r in host_manager_rules() {
            e.add_rule(r);
        }
        e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 5_000));
        e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 10));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        let p = e.take_phase_profile();
        assert!(
            p.match_ns + p.agenda_ns + p.fire_ns > 0,
            "profiling accumulated some wall time: {p:?}"
        );
        assert_eq!(e.take_phase_profile(), PhaseProfile::default(), "drained");
        // Disabled profiling reports zeros and costs nothing.
        e.enable_phase_profile(false);
        e.assert_fact(Fact::new("violation").with("pid", 3).with("buffer", 70));
        e.run(100);
        assert_eq!(e.phase_profile(), PhaseProfile::default());
    }

    /// `retract_matching` looks its facts up in the equality-join index;
    /// the result must be exactly what a scan of the template's alpha
    /// memory with `loose_eq` finds, Int↔Float coercion included.
    #[test]
    fn retract_matching_agrees_with_an_alpha_memory_scan() {
        let values = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.5),
            Value::str("1"),
            Value::sym("1"),
            Value::Bool(true),
        ];
        for probe in &values {
            let mut e = Engine::new();
            for (n, v) in values.iter().enumerate() {
                e.assert_fact(Fact::new("m").with("k", v.clone()).with("n", n as i64));
            }
            e.assert_fact(Fact::new("m").with("n", 99)); // no `k` at all
            e.assert_fact(Fact::new("other").with("k", probe.clone()));
            let scan: Vec<FactId> = e
                .facts()
                .by_template("m")
                .filter(|(_, f)| f.get("k").is_some_and(|v| v.loose_eq(probe)))
                .map(|(id, _)| id)
                .collect();
            assert!(!scan.is_empty());
            assert_eq!(e.retract_matching("m", "k", probe), scan.len(), "{probe}");
            assert!(scan.iter().all(|&id| e.facts().get(id).is_none()));
            assert_eq!(e.facts().len(), values.len() + 2 - scan.len());
            assert_eq!(e.retract_matching("m", "k", probe), 0, "all gone");
            assert_eq!(e.retract_matching("nothing", "k", probe), 0);
        }
    }

    /// Mirror of the scenario mix in the differential proptest, as a fast
    /// deterministic check: both matchers must fire identically.
    #[test]
    fn naive_oracle_and_incremental_matcher_agree() {
        let build = |naive: bool| {
            let mut e = Engine::new();
            e.use_naive_matcher(naive);
            e.set_trace_capacity(1024);
            for r in host_manager_rules() {
                e.add_rule(r);
            }
            e.add_rule(
                Rule::new("undiagnosed")
                    .salience(-5)
                    .when(Pattern::new("violation").slot_var("pid", "p"))
                    .when_not(Pattern::new("diagnosed").slot_var("pid", "p"))
                    .then_call("undiagnosed", vec![Term::var("p")]),
            );
            let a = e.assert_fact(Fact::new("violation").with("pid", 1).with("buffer", 9000));
            e.assert_fact(Fact::new("violation").with("pid", 2).with("buffer", 10));
            e.run(100);
            e.retract(a);
            e.assert_fact(Fact::new("violation").with("pid", 3).with("buffer", 2_000));
            e.run(100);
            (
                e.take_trace(),
                e.take_invocations(),
                e.facts().by_template("diagnosed").count(),
            )
        };
        let (naive_trace, naive_inv, naive_facts) = build(true);
        let (rete_trace, rete_inv, rete_facts) = build(false);
        assert_eq!(naive_trace, rete_trace);
        assert_eq!(naive_inv, rete_inv);
        assert_eq!(naive_facts, rete_facts);
    }

    /// The agenda's three views agree: every link names an occupied slot
    /// whose activation mentions that fact at that position and points
    /// back at the link, every occupied slot has a live heap entry, and
    /// `live` counts exactly the occupied slots.
    fn assert_agenda_consistent(a: &Agenda) {
        let mut links = 0;
        for (&id, list) in &a.by_fact {
            assert!(!list.is_empty(), "empty list kept for {id:?}");
            for (i, link) in list.as_slice().iter().enumerate() {
                let act = a.slab[link.slot as usize].act.as_ref().expect("occupied");
                assert_eq!(act.ids.as_slice()[link.k as usize], id);
                assert_eq!(act.at.as_slice()[link.k as usize] as usize, i);
                links += 1;
            }
        }
        let occupied: Vec<_> = (0..a.slab.len())
            .filter(|&s| a.slab[s].act.is_some())
            .collect();
        assert_eq!(occupied.len(), a.live);
        let expected_links: usize = occupied
            .iter()
            .map(|&s| a.slab[s].act.as_ref().unwrap().ids.len())
            .sum();
        assert_eq!(links, expected_links);
        for &s in &occupied {
            let gen = a.slab[s].gen;
            assert!(a.heap.iter().any(|q| q.slot as usize == s && q.gen == gen));
        }
        assert!(a.heap.len() <= 2 * a.live, "tombstones are swept");
    }

    /// Many pending activations share one permanent fact; retracting
    /// their partners in a scrambled order swap-removes links under the
    /// shared fact, and what is left still fires in conflict-resolution
    /// order, as the naive oracle fires it.
    #[test]
    fn removals_under_a_shared_fact_keep_the_agenda_consistent() {
        let script = |naive: bool| {
            let mut e = Engine::new();
            e.use_naive_matcher(naive);
            e.set_trace_capacity(1024);
            e.add_rule(
                Rule::new("pair")
                    .when(Pattern::new("anchor"))
                    .when(Pattern::new("partner").slot_var("n", "n"))
                    .then_call("pair", vec![Term::var("n")]),
            );
            e.add_rule(
                Rule::new("solo")
                    .salience(1)
                    .when(Pattern::new("partner").slot_var("n", "n"))
                    .test(Test::Cmp(CmpOp::Lt, Term::var("n"), Term::val(8)))
                    .then_call("solo", vec![Term::var("n")])
                    .then_retract(0),
            );
            let anchor = e.assert_fact(Fact::new("anchor"));
            let ids: Vec<FactId> = (0..64)
                .map(|n| e.assert_fact(Fact::new("partner").with("n", n)))
                .collect();
            if !naive {
                assert_eq!(e.conflict_set().pending, 64 + 8);
                assert_eq!(e.conflict_set().indexed_facts, 65);
            }
            for i in 0..48 {
                e.retract(ids[(i * 37) % 64]);
                if !naive {
                    assert_agenda_consistent(&e.agenda);
                }
            }
            let stats = e.run(1000);
            if !naive {
                assert_agenda_consistent(&e.agenda);
                // `pair` does not consume: one entry per live partner it
                // fired on. `solo` consumed what it fired on.
                let left = e.facts().by_template("partner").count() as u64;
                assert_eq!(e.conflict_set().refracted, left);
                e.retract(anchor);
                assert_eq!(e.conflict_set().refracted, 0);
                assert_eq!(e.conflict_set(), ConflictSet::default());
            }
            (e.take_trace(), e.take_invocations(), stats.fired)
        };
        assert_eq!(script(false), script(true));
    }

    /// A firing that consumes its activation files nothing; one that
    /// asserts a template its own rule negates before retracting must,
    /// or the rule's mid-firing re-reconciliation would put the firing
    /// activation back on the agenda for the rest of the firing.
    #[test]
    fn consumption_and_mid_firing_reconciliation() {
        let mut e = Engine::new();
        e.add_rule(
            Rule::new("guarded")
                .when(Pattern::new("req").slot_var("id", "r"))
                .when_not(Pattern::new("seen").slot_var("id", "r"))
                .then_assert("seen", vec![("id", Term::val(100))])
                .then_retract(0),
        );
        e.add_rule(
            Rule::new("noticed")
                .salience(-1)
                .when(Pattern::new("seen").slot_var("id", "s"))
                .then_call("noticed", vec![Term::var("s")]),
        );
        e.assert_fact(Fact::new("req").with("id", 1));
        let stats = e.run(100);
        assert_eq!(stats.fired, 2);
        // `req 1` fired and went; `seen 100` seeded `noticed`. Had the
        // firing activation come back, the agenda would have held two.
        assert_eq!(stats.peak_agenda, 1);
        assert_eq!(
            e.conflict_set(),
            ConflictSet {
                pending: 0,
                refracted: 1, // `noticed` on the live `seen` fact
                indexed_facts: 0,
            }
        );
    }

    /// Removing a rule, or replacing it in place, while its activations
    /// are pending unlinks them all.
    #[test]
    fn rule_removal_and_replacement_unlink_pending_activations() {
        let mut e = Engine::new();
        let rule = |cmd: &str| {
            Rule::new("r")
                .when(Pattern::new("a").slot_var("x", "x"))
                .when(Pattern::new("b"))
                .then_call(cmd, vec![Term::var("x")])
        };
        e.add_rule(rule("v1"));
        e.assert_fact(Fact::new("b"));
        for x in 0..10 {
            e.assert_fact(Fact::new("a").with("x", x));
        }
        assert_eq!(e.conflict_set().pending, 10);
        e.add_rule(rule("v2"));
        assert_agenda_consistent(&e.agenda);
        assert_eq!(e.conflict_set().pending, 10, "re-derived for v2");
        assert!(e.remove_rule("r"));
        assert_agenda_consistent(&e.agenda);
        assert_eq!(e.conflict_set(), ConflictSet::default());
        assert!(e.agenda.heap.is_empty());
    }
}
