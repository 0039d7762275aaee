//! Facts and the working memory (fact repository).
//!
//! Nothing on the assert → match → fire → retract path is addressed by
//! name. A template name is resolved once to a [`Template`] and each of
//! its slot names once to a [`Slot`] — a position that is the same for
//! every fact of the template, whichever slots it carries and whenever it
//! was built: at `add_rule` for a rule's patterns, variables, probes and
//! right-hand sides, at `Fact::new(..).with(..)` for a fact built by
//! name, ahead of time for a component that keeps the handles. A [`Fact`]
//! is one flat row of values in slot order; names come back only to
//! print it or to answer a by-name read.
//!
//! Facts live in an id-ordered map, so storage is O(live facts) whatever
//! the age of the oldest one: ids are monotonic and **never reused** (the
//! agenda's recency ordering depends on it), and a long-lived early fact
//! (every manager's first is its permanent `threshold`) pins nothing.
//!
//! Three indexes sit beside it, all per template:
//!
//! * the **alpha memory** — the template's symbol maps to the sorted
//!   list of live ids of that template (appending a fresh id keeps it
//!   sorted; removal is a binary search plus a contiguous shift), so
//!   template-scoped access never scans the whole working memory;
//! * the **duplicate index** — row fingerprint → live ids carrying it,
//!   so CLIPS's duplicate-fact suppression is one lookup;
//! * the **equality-join index** (`FactStore::probe_slot`,
//!   `FactStore::ids_with_slot`) — for each `(template, slot)` pair
//!   somebody *registered*, a map from a loose value key to the sorted
//!   live ids holding that value. Only registered pairs are maintained:
//!   the engine registers, at `add_rule`, the slots its compiled joins
//!   can probe (a slot pinned to a constant or an already-bound
//!   variable), and a pair registered late is back-filled from the alpha
//!   memory. A `violation` therefore pays for no index it is never
//!   looked up by. The key hashes Int and Float through the same
//!   normalized f64 bits so it agrees with `loose_eq` (probing with
//!   `Int(3)` finds `Float(3.0)`); collisions only widen the candidate
//!   list, never narrow it, and every candidate is re-verified against
//!   the full pattern.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

use crate::hash::{FxHasher, FxMap};
use crate::idvec::IdVec;
use crate::value::Value;

/// Identifies an asserted fact. Monotonically increasing; used for the
/// agenda's recency ordering.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u64);

/// A store's symbol for a template: a small dense integer, stable for
/// the life of the store (never dropped, even when the template's last
/// fact is retracted). Alpha memories and trigger lists are indexed by
/// it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TemplateId(pub u32);

/// Handle to one maintained equality-join index — a registered
/// `(template, slot)` pair. Obtained from [`FactStore::probe_slot`];
/// valid only with the template it was registered for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SlotIndex(u32);

/// What is known of one template name, process-wide: the slot names seen
/// so far, each at the position it was first seen at and keeps.
struct TemplateDef {
    name: &'static str,
    /// Registration order, for keying store-side tables without a string.
    uid: u32,
    /// Append-only. Read only by name-addressed calls; positions, once
    /// handed out, need no lock.
    slots: RwLock<Vec<&'static str>>,
    /// `slots.len()`, as a capacity hint for a fresh row.
    width: AtomicUsize,
}

/// A template name resolved once: the handle facts, compiled patterns and
/// embedding components hold instead of the string.
///
/// Names are interned process-wide and never dropped (as CLIPS's symbol
/// table is), so memory grows with the number of *distinct* template and
/// slot names ever used — the vocabulary of the loaded rule text — not
/// with facts.
#[derive(Clone, Copy)]
pub struct Template(&'static TemplateDef);

/// The position of one named slot in the rows of its [`Template`]. Only
/// meaningful with the template it was resolved from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Slot(u32);

type Registry = RwLock<HashMap<&'static str, &'static TemplateDef>>;

/// Keyed with the default hasher: template names arrive in rule text
/// from outside the program.
fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Template {
    /// The handle of `name`, interning it on first sight.
    pub fn named(name: &str) -> Template {
        if let Some(t) = Template::lookup(name) {
            return t;
        }
        // Every update under these locks is a single insert or push, so
        // a poisoned lock still guards valid data.
        let mut reg = registry().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&def) = reg.get(name) {
            return Template(def);
        }
        let name: &'static str = Box::leak(name.into());
        let def: &'static TemplateDef = Box::leak(Box::new(TemplateDef {
            name,
            uid: reg.len() as u32,
            slots: RwLock::default(),
            width: AtomicUsize::new(0),
        }));
        reg.insert(name, def);
        Template(def)
    }

    /// The handle of `name` if anything has named it yet.
    pub fn lookup(name: &str) -> Option<Template> {
        let reg = registry().read().unwrap_or_else(PoisonError::into_inner);
        reg.get(name).map(|&def| Template(def))
    }

    /// The template's name.
    pub fn name(self) -> &'static str {
        self.0.name
    }

    /// The position of slot `name`, giving it the next free one on first
    /// sight.
    pub fn slot(self, name: &str) -> Slot {
        if let Some(slot) = self.find_slot(name) {
            return slot;
        }
        let mut slots = self.0.slots.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = slots.iter().position(|&s| s == name) {
            return Slot(pos as u32);
        }
        slots.push(Box::leak(name.into()));
        self.0.width.store(slots.len(), Ordering::Relaxed);
        Slot(slots.len() as u32 - 1)
    }

    /// The position of slot `name` if any fact or rule has named it.
    pub fn find_slot(self, name: &str) -> Option<Slot> {
        let slots = self.0.slots.read().unwrap_or_else(PoisonError::into_inner);
        slots
            .iter()
            .position(|&s| s == name)
            .map(|pos| Slot(pos as u32))
    }
}

impl PartialEq for Template {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Template {}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Template({})", self.0.name)
    }
}

/// A structured fact: a template plus named slots, e.g.
/// `(violation (pid 12) (frame-rate 18.5))`, held as one row of values
/// addressed by the template's slot positions. A slot the fact does not
/// carry is an empty (or missing trailing) cell.
#[derive(Clone)]
pub struct Fact {
    template: Template,
    row: Vec<Option<Value>>,
}

impl Fact {
    /// Start building a fact for a template, by name.
    pub fn new(template: impl AsRef<str>) -> Self {
        Fact::of(Template::named(template.as_ref()))
    }

    /// Start building a fact for a template already resolved.
    pub fn of(template: Template) -> Self {
        Fact {
            template,
            row: Vec::new(),
        }
    }

    /// Builder-style slot insertion, by name.
    pub fn with(self, slot: impl AsRef<str>, value: impl Into<Value>) -> Self {
        let slot = self.template.slot(slot.as_ref());
        self.with_slot(slot, value)
    }

    /// Builder-style slot insertion, by position.
    pub fn with_slot(mut self, slot: Slot, value: impl Into<Value>) -> Self {
        self.set(slot, value.into());
        self
    }

    /// Write a slot in place; `slot` must be one of this fact's template.
    pub fn set(&mut self, slot: Slot, value: Value) {
        let pos = slot.0 as usize;
        if pos >= self.row.len() {
            let width = self.template.0.width.load(Ordering::Relaxed);
            debug_assert!(pos < width, "slot {pos} of another template");
            if self.row.capacity() == 0 {
                self.row.reserve_exact(width.max(pos + 1));
            }
            self.row.resize_with(pos + 1, || None);
        }
        self.row[pos] = Some(value);
    }

    /// The fact's template.
    pub fn template(&self) -> Template {
        self.template
    }

    /// Read a slot by name.
    pub fn get(&self, slot: &str) -> Option<&Value> {
        self.at(self.template.find_slot(slot)?)
    }

    /// Read a slot by position.
    #[inline]
    pub fn at(&self, slot: Slot) -> Option<&Value> {
        self.row.get(slot.0 as usize)?.as_ref()
    }

    /// The slots the fact carries, sorted by name.
    pub fn slots(&self) -> Vec<(&'static str, &Value)> {
        let names = self.template.0.slots.read();
        let names = names.unwrap_or_else(PoisonError::into_inner);
        let mut slots: Vec<_> = self
            .row
            .iter()
            .enumerate()
            .filter_map(|(pos, v)| Some((*names.get(pos)?, v.as_ref()?)))
            .collect();
        drop(names);
        slots.sort_unstable_by_key(|&(name, _)| name);
        slots
    }
}

/// Slot-for-slot equality of two rows of one template: a missing
/// trailing cell is an empty one.
fn same_slots(a: &[Option<Value>], b: &[Option<Value>]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short == &long[..short.len()] && long[short.len()..].iter().all(Option::is_none)
}

impl PartialEq for Fact {
    fn eq(&self, other: &Self) -> bool {
        self.template == other.template && same_slots(&self.row, &other.row)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.template.name())?;
        for (k, v) in self.slots() {
            write!(f, " ({k} {v})")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct(self.template.name());
        for (k, v) in self.slots() {
            s.field(k, v);
        }
        s.finish()
    }
}

/// Hash one slot value for the equality-join index. Consistent with
/// [`Value::loose_eq`]: loosely equal values key equal, so `Int(3)` and
/// `Float(3.0)` share a numeric key (both hash the `f64` view, with
/// `-0.0` normalized to `0.0`). Distinct values may collide — the index
/// returns candidates, and callers re-verify with a slot comparison.
fn loose_value_key(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    match v {
        Value::Sym(s) => {
            0u8.hash(&mut h);
            s.hash(&mut h);
        }
        Value::Str(s) => {
            1u8.hash(&mut h);
            s.hash(&mut h);
        }
        Value::Int(i) => {
            2u8.hash(&mut h);
            norm_f64_bits(*i as f64).hash(&mut h);
        }
        Value::Float(f) => {
            2u8.hash(&mut h);
            norm_f64_bits(*f).hash(&mut h);
        }
        Value::Bool(b) => {
            3u8.hash(&mut h);
            b.hash(&mut h);
        }
    }
    h.finish()
}

fn norm_f64_bits(f: f64) -> u64 {
    (if f == 0.0 { 0.0 } else { f }).to_bits()
}

/// Hash a fact's row for the duplicate index. Consistent with
/// [`same_slots`]: equal rows fingerprint equal, so only the cells that
/// hold a value are hashed, each with its position. Floats need one
/// normalization — `0.0 == -0.0` under `f64` equality, so both must hash
/// to the same bits.
fn slots_fingerprint(row: &[Option<Value>]) -> u64 {
    let mut h = FxHasher::default();
    for (pos, v) in row.iter().enumerate() {
        let Some(v) = v else { continue };
        pos.hash(&mut h);
        match v {
            Value::Sym(s) => {
                0u8.hash(&mut h);
                s.hash(&mut h);
            }
            Value::Str(s) => {
                1u8.hash(&mut h);
                s.hash(&mut h);
            }
            Value::Int(i) => {
                2u8.hash(&mut h);
                i.hash(&mut h);
            }
            Value::Float(f) => {
                3u8.hash(&mut h);
                norm_f64_bits(*f).hash(&mut h);
            }
            Value::Bool(b) => {
                4u8.hash(&mut h);
                b.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// One maintained equality-join index: the slot it covers and, per loose
/// value key, the sorted live ids whose slot carries that value.
type EqIndex = (Slot, FxMap<u64, IdVec>);

/// Working memory: the engine's fact repository, indexed by template.
#[derive(Debug, Default)]
pub struct FactStore {
    /// Live facts by id. Ordered, so iteration is assertion order.
    facts: BTreeMap<FactId, Fact>,
    /// The next fresh id: one past the highest ever handed out.
    next_id: u64,
    /// Template (by registration number) → this store's symbol for it.
    tmpl_ids: FxMap<u32, TemplateId>,
    /// Symbol → template (reverse of `tmpl_ids`).
    tmpls: Vec<Template>,
    /// Alpha memories: per-template live fact ids, in assertion order
    /// (fact ids are monotonic, so each list stays sorted). Indexed by
    /// `TemplateId`.
    alpha: Vec<Vec<FactId>>,
    /// Duplicate index: per-template map from row fingerprint to the
    /// live ids carrying it (almost always one; collisions fall back to
    /// a row comparison). Indexed by `TemplateId`.
    dup: Vec<FxMap<u64, IdVec>>,
    /// Equality-join indexes, one per registered slot of the template
    /// ([`SlotIndex`] is the position in the inner list; registrations
    /// are never dropped). Indexed by `TemplateId`.
    eq_join: Vec<Vec<EqIndex>>,
}

impl FactStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// This store's symbol for a template, created (with an empty alpha
    /// memory) on first sight.
    pub fn intern(&mut self, template: Template) -> TemplateId {
        if let Some(&tid) = self.tmpl_ids.get(&template.0.uid) {
            return tid;
        }
        let tid = TemplateId(self.tmpls.len() as u32);
        self.tmpl_ids.insert(template.0.uid, tid);
        self.tmpls.push(template);
        self.alpha.push(Vec::new());
        self.dup.push(FxMap::default());
        self.eq_join.push(Vec::new());
        tid
    }

    /// This store's symbol for a template, if it has seen it.
    pub fn id_of(&self, template: Template) -> Option<TemplateId> {
        self.tmpl_ids.get(&template.0.uid).copied()
    }

    /// [`FactStore::id_of`], by name.
    pub fn template_id(&self, name: &str) -> Option<TemplateId> {
        self.id_of(Template::lookup(name)?)
    }

    /// The template behind a symbol.
    pub fn template(&self, tid: TemplateId) -> Template {
        self.tmpls[tid.0 as usize]
    }

    /// The alpha memory of a template: live fact ids in assertion order.
    pub fn ids_of(&self, tid: TemplateId) -> &[FactId] {
        self.alpha.get(tid.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Facts of one template by symbol, in assertion order.
    pub fn facts_of(&self, tid: TemplateId) -> impl Iterator<Item = (FactId, &Fact)> {
        self.ids_of(tid)
            .iter()
            .map(move |&id| (id, self.get(id).expect("alpha ids are live")))
    }

    /// Register `(tid, slot)` as probed and return its index handle. The
    /// first registration back-fills the index from the alpha memory, so
    /// a rule added at run time can probe a slot no earlier rule did.
    pub(crate) fn probe_slot(&mut self, tid: TemplateId, slot: Slot) -> SlotIndex {
        let t = tid.0 as usize;
        if let Some(ix) = self.eq_join[t].iter().position(|(s, _)| *s == slot) {
            return SlotIndex(ix as u32);
        }
        let mut by_val: FxMap<u64, IdVec> = FxMap::default();
        for id in &self.alpha[t] {
            if let Some(v) = self.facts[id].at(slot) {
                by_val.entry(loose_value_key(v)).or_default().push(*id);
            }
        }
        self.eq_join[t].push((slot, by_val));
        SlotIndex(self.eq_join[t].len() as u32 - 1)
    }

    /// Candidate live ids of `tid` facts whose registered slot holds a
    /// value loosely equal to `v` (numeric coercion applies: probing with
    /// `Int(3)` finds facts holding `Float(3.0)`), in assertion order.
    /// The bucket is keyed by hash, so rare collisions can surface
    /// non-matching ids — callers must re-verify each candidate against
    /// the pattern, exactly as they would after an alpha-memory scan.
    pub(crate) fn ids_with_slot(&self, tid: TemplateId, slot: SlotIndex, v: &Value) -> &[FactId] {
        self.eq_join[tid.0 as usize][slot.0 as usize]
            .1
            .get(&loose_value_key(v))
            .map_or(&[], IdVec::as_slice)
    }

    /// Assert a fact. Duplicate facts (same template and slots) are not
    /// re-asserted; the existing id is returned, mirroring CLIPS's
    /// duplicate-fact suppression.
    pub fn assert_fact(&mut self, fact: Fact) -> (FactId, bool) {
        let (id, fresh, _) = self.assert_fact_interned(fact);
        (id, fresh)
    }

    /// [`FactStore::assert_fact`], additionally returning the fact's
    /// template symbol (the engine's delta propagation keys on it).
    /// Duplicate detection is one fingerprint lookup, independent of how
    /// many facts of the template are live.
    pub fn assert_fact_interned(&mut self, fact: Fact) -> (FactId, bool, TemplateId) {
        let tid = self.intern(fact.template);
        let t = tid.0 as usize;
        let fp = slots_fingerprint(&fact.row);
        if let Some(ids) = self.dup[t].get(&fp) {
            for &id in ids.as_slice() {
                if same_slots(&self.facts[&id].row, &fact.row) {
                    return (id, false, tid);
                }
            }
        }
        let id = FactId(self.next_id);
        self.next_id += 1;
        for (slot, by_val) in &mut self.eq_join[t] {
            if let Some(v) = fact.at(*slot) {
                by_val.entry(loose_value_key(v)).or_default().push(id);
            }
        }
        self.alpha[t].push(id);
        self.dup[t].entry(fp).or_default().push(id);
        self.facts.insert(id, fact);
        (id, true, tid)
    }

    /// Retract a fact by id; returns it if present.
    pub fn retract(&mut self, id: FactId) -> Option<Fact> {
        self.retract_interned(id).map(|(fact, _)| fact)
    }

    /// [`FactStore::retract`], additionally returning the template
    /// symbol of the retracted fact.
    pub fn retract_interned(&mut self, id: FactId) -> Option<(Fact, TemplateId)> {
        let fact = self.facts.remove(&id)?;
        let tid = self.tmpl_ids[&fact.template.0.uid];
        let t = tid.0 as usize;
        if let Ok(pos) = self.alpha[t].binary_search(&id) {
            self.alpha[t].remove(pos);
        }
        remove_from_bucket(&mut self.dup[t], slots_fingerprint(&fact.row), id);
        for (slot, by_val) in &mut self.eq_join[t] {
            if let Some(v) = fact.at(*slot) {
                remove_from_bucket(by_val, loose_value_key(v), id);
            }
        }
        Some((fact, tid))
    }

    /// Look up a fact.
    pub fn get(&self, id: FactId) -> Option<&Fact> {
        self.facts.get(&id)
    }

    /// Number of live facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are asserted.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterate facts in assertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts.iter().map(|(&id, f)| (id, f))
    }

    /// Iterate facts of one template, in assertion order (via the
    /// template's alpha memory — no full-store scan).
    pub fn by_template<'a>(
        &'a self,
        template: &str,
    ) -> impl Iterator<Item = (FactId, &'a Fact)> + 'a {
        self.template_id(template)
            .into_iter()
            .flat_map(move |tid| self.facts_of(tid))
    }

    /// Remove every fact of a template; returns how many were retracted.
    pub fn retract_template(&mut self, template: &str) -> usize {
        let Some(tid) = self.template_id(template) else {
            return 0;
        };
        let t = tid.0 as usize;
        let ids = std::mem::take(&mut self.alpha[t]);
        for id in &ids {
            self.facts.remove(id);
        }
        self.dup[t].clear();
        for (_, by_val) in &mut self.eq_join[t] {
            by_val.clear();
        }
        ids.len()
    }
}

/// Drop `id` from the bucket under `key`, and the bucket with its last id.
fn remove_from_bucket(buckets: &mut FxMap<u64, IdVec>, key: u64, id: FactId) {
    if let Some(ids) = buckets.get_mut(&key) {
        ids.remove(id);
        if ids.is_empty() {
            buckets.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(pid: i64, fps: f64) -> Fact {
        Fact::new("violation").with("pid", pid).with("fps", fps)
    }

    /// A slot of the `violation` template.
    fn slot(name: &str) -> Slot {
        Template::named("violation").slot(name)
    }

    #[test]
    fn assert_and_get() {
        let mut s = FactStore::new();
        let (id, fresh) = s.assert_fact(violation(1, 20.0));
        assert!(fresh);
        assert_eq!(s.get(id).unwrap().get("pid"), Some(&Value::Int(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_facts_not_reasserted() {
        let mut s = FactStore::new();
        let (a, fresh_a) = s.assert_fact(violation(1, 20.0));
        let (b, fresh_b) = s.assert_fact(violation(1, 20.0));
        assert!(fresh_a);
        assert!(!fresh_b);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn negative_zero_slot_is_a_duplicate_of_zero() {
        // 0.0 == -0.0 under f64 equality, so the fingerprint index must
        // agree with the slot comparison it fronts.
        let mut s = FactStore::new();
        let (a, _) = s.assert_fact(Fact::new("m").with("v", 0.0));
        let (b, fresh) = s.assert_fact(Fact::new("m").with("v", -0.0));
        assert!(!fresh);
        assert_eq!(a, b);
    }

    #[test]
    fn int_and_float_slots_are_distinct_facts() {
        // Duplicate suppression uses strict slot equality: Int(3) and
        // Float(3.0) are different facts even though they loose_eq.
        let mut s = FactStore::new();
        let (_, fresh_a) = s.assert_fact(Fact::new("m").with("v", 3i64));
        let (_, fresh_b) = s.assert_fact(Fact::new("m").with("v", 3.0));
        assert!(fresh_a);
        assert!(fresh_b);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn retract_then_reassert_gets_new_id() {
        let mut s = FactStore::new();
        let (a, _) = s.assert_fact(violation(1, 20.0));
        assert!(s.retract(a).is_some());
        assert!(s.retract(a).is_none());
        let (b, fresh) = s.assert_fact(violation(1, 20.0));
        assert!(fresh);
        assert_ne!(a, b, "ids are never reused");
    }

    #[test]
    fn by_template_filters() {
        let mut s = FactStore::new();
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.assert_fact(Fact::new("cpu-load").with("host", "a").with("load", 3.0));
        assert_eq!(s.by_template("violation").count(), 2);
        assert_eq!(s.by_template("cpu-load").count(), 1);
        assert_eq!(s.by_template("nothing").count(), 0);
    }

    #[test]
    fn retract_template_bulk() {
        let mut s = FactStore::new();
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.assert_fact(Fact::new("other"));
        assert_eq!(s.retract_template("violation"), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn display_is_clips_like() {
        let f = violation(1, 20.0);
        assert_eq!(f.to_string(), "(violation (fps 20) (pid 1))");
    }

    #[test]
    fn eq_join_index_probes_with_numeric_coercion() {
        // `loose_eq` coerces Int and Float, so the index key must too:
        // probing with Int(1) finds a fact whose slot holds Float(1.0).
        let mut s = FactStore::new();
        let tid = s.intern(Template::named("m"));
        let pid_slot = Template::named("m").slot("pid");
        let pid = s.probe_slot(tid, pid_slot);
        let (a, _) = s.assert_fact(Fact::new("m").with("pid", 1.0).with("x", "p"));
        let (b, _) = s.assert_fact(Fact::new("m").with("pid", 2i64).with("x", "q"));
        // A fact without the registered slot is in no bucket.
        s.assert_fact(Fact::new("m").with("x", "r"));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[a]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Float(2.0)), &[b]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(3)), &[] as &[FactId]);
        // Only registered slots are indexed; registering is idempotent.
        assert_eq!(s.eq_join[tid.0 as usize].len(), 1);
        assert_eq!(s.probe_slot(tid, pid_slot), pid);
    }

    #[test]
    fn eq_join_index_tracks_retract() {
        let mut s = FactStore::new();
        let tid = s.intern(Template::named("violation"));
        let (fps, pid) = (
            s.probe_slot(tid, slot("fps")),
            s.probe_slot(tid, slot("pid")),
        );
        let (a, _) = s.assert_fact(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 20.0));
        assert_eq!(s.ids_with_slot(tid, fps, &Value::Float(20.0)), &[a, b]);
        s.retract(a);
        assert_eq!(s.ids_with_slot(tid, fps, &Value::Float(20.0)), &[b]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[] as &[FactId]);
        s.retract(b);
        assert_eq!(
            s.ids_with_slot(tid, fps, &Value::Float(20.0)),
            &[] as &[FactId]
        );
        assert!(s.eq_join[tid.0 as usize].iter().all(|(_, m)| m.is_empty()));
    }

    #[test]
    fn eq_join_index_back_fills_a_late_registration() {
        // A rule distributed at run time may probe a slot no earlier
        // rule did: the index is built from the facts already there.
        let mut s = FactStore::new();
        let (a, _, tid) = s.assert_fact_interned(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 25.0));
        s.retract(a);
        let pid = s.probe_slot(tid, slot("pid"));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[] as &[FactId]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(2)), &[b]);
        let (c, _) = s.assert_fact(violation(2, 26.0));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Float(2.0)), &[b, c]);
    }

    #[test]
    fn eq_join_index_cleared_by_retract_template() {
        let mut s = FactStore::new();
        let tid = s.intern(Template::named("violation"));
        let pid = s.probe_slot(tid, slot("pid"));
        s.assert_fact(violation(1, 20.0));
        s.assert_fact(violation(2, 25.0));
        s.retract_template("violation");
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[] as &[FactId]);
        let (c, _) = s.assert_fact(violation(3, 30.0));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(3)), &[c]);
    }

    #[test]
    fn alpha_memory_tracks_assert_and_retract() {
        let mut s = FactStore::new();
        let (a, _, tid) = s.assert_fact_interned(violation(1, 20.0));
        let (b, _) = s.assert_fact(violation(2, 25.0));
        assert_eq!(s.template_id("violation"), Some(tid));
        assert_eq!(s.template(tid).name(), "violation");
        let ids: Vec<FactId> = s.ids_of(tid).to_vec();
        assert_eq!(ids, vec![a, b], "assertion order preserved");
        s.retract(a);
        assert!(!s.ids_of(tid).contains(&a));
        assert!(s.ids_of(tid).contains(&b));
        // The symbol survives the last retraction.
        s.retract(b);
        assert_eq!(s.template_id("violation"), Some(tid));
        assert_eq!(s.ids_of(tid).len(), 0);
    }

    /// Entries held across the fact map and every index.
    fn footprint(s: &FactStore) -> usize {
        s.facts.len()
            + s.alpha.iter().map(Vec::len).sum::<usize>()
            + s.dup.iter().map(FxMap::len).sum::<usize>()
            + s.eq_join
                .iter()
                .flatten()
                .map(|(_, m)| m.len())
                .sum::<usize>()
    }

    #[test]
    fn storage_follows_live_facts_not_the_oldest_one() {
        // Every manager's first fact is its permanent threshold; the
        // violations churning past it must leave nothing behind, however
        // old the oldest live fact is.
        let mut s = FactStore::new();
        let tid = s.intern(Template::named("violation"));
        s.probe_slot(tid, slot("pid"));
        let (keep, _) = s.assert_fact(Fact::new("threshold").with("value", 1000.0));
        for i in 0..200_000 {
            let (id, fresh) = s.assert_fact(violation(i % 7, i as f64 + 0.5));
            assert!(fresh);
            assert_eq!(id, FactId(i as u64 + 1), "ids stay monotonic");
            s.retract(id);
        }
        assert_eq!(s.len(), 1);
        assert!(s.get(keep).is_some());
        assert_eq!(footprint(&s), 3, "one fact, its alpha id, its dup bucket");
        // Fresh ids continue past every id ever handed out.
        let (id, _) = s.assert_fact(violation(7, 7.0));
        assert_eq!(id, FactId(200_001));
        assert_eq!(s.iter().map(|(id, _)| id).collect::<Vec<_>>(), [keep, id]);
    }
}
