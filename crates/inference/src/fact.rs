//! Facts and the working memory (fact repository).
//!
//! Facts live in an id-ordered map, so storage is O(live facts) whatever
//! the age of the oldest one: ids are monotonic and **never reused** (the
//! agenda's recency ordering depends on it), and a long-lived early fact
//! (every manager's first is its permanent `threshold`) pins nothing.
//!
//! Three indexes sit beside it, all per template:
//!
//! * the **alpha memory** — the interned template name maps to the sorted
//!   list of live ids of that template (appending a fresh id keeps it
//!   sorted; removal is a binary search plus a contiguous shift), so
//!   template-scoped access never scans the whole working memory;
//! * the **duplicate index** — slot fingerprint → live ids carrying it,
//!   so CLIPS's duplicate-fact suppression is one lookup;
//! * the **equality-join index** ([`FactStore::probe_slot`],
//!   [`FactStore::ids_with_slot`]) — for each `(template, slot)` pair
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

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::hash::{FxHasher, FxMap};
use crate::idvec::IdVec;
use crate::value::Value;

/// Identifies an asserted fact. Monotonically increasing; used for the
/// agenda's recency ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u64);

/// An interned template name: a small integer symbol, stable for the
/// life of the store (templates are never un-interned, even when their
/// last fact is retracted). Rules cache these so matching compares u32s
/// rather than strings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TemplateId(pub u32);

/// Handle to one maintained equality-join index — a registered
/// `(template, slot)` pair. Obtained from [`FactStore::probe_slot`];
/// valid only with the template it was registered for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SlotIndex(u32);

/// A structured fact: a template name plus named slots, e.g.
/// `(violation (pid 12) (frame-rate 18.5))`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fact {
    /// Template (relation) name.
    pub template: String,
    /// Named slot values, kept sorted for deterministic display.
    pub slots: BTreeMap<String, Value>,
}

impl Fact {
    /// Start building a fact for a template.
    pub fn new(template: impl Into<String>) -> Self {
        Fact {
            template: template.into(),
            slots: BTreeMap::new(),
        }
    }

    /// Builder-style slot insertion.
    pub fn with(mut self, slot: impl Into<String>, value: impl Into<Value>) -> Self {
        self.slots.insert(slot.into(), value.into());
        self
    }

    /// Read a slot.
    pub fn get(&self, slot: &str) -> Option<&Value> {
        self.slots.get(slot)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}", self.template)?;
        for (k, v) in &self.slots {
            write!(f, " ({k} {v})")?;
        }
        write!(f, ")")
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

/// Hash a fact's slots for the duplicate index. Consistent with the
/// derived slot equality used by duplicate suppression: equal slot maps
/// fingerprint equal. Floats need one normalization — `0.0 == -0.0`
/// under `f64` equality, so both must hash to the same bits.
fn slots_fingerprint(slots: &BTreeMap<String, Value>) -> u64 {
    let mut h = FxHasher::default();
    slots.len().hash(&mut h);
    for (k, v) in slots {
        k.hash(&mut h);
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
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(&mut h);
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
type EqIndex = (String, FxMap<u64, IdVec>);

/// Working memory: the engine's fact repository, indexed by template.
#[derive(Debug, Default)]
pub struct FactStore {
    /// Live facts by id. Ordered, so iteration is assertion order.
    facts: BTreeMap<FactId, Fact>,
    /// The next fresh id: one past the highest ever handed out.
    next_id: u64,
    /// Interner: template name → symbol.
    tmpl_ids: FxMap<String, TemplateId>,
    /// Symbol → template name (reverse of `tmpl_ids`).
    tmpl_names: Vec<String>,
    /// Alpha memories: per-template live fact ids, in assertion order
    /// (fact ids are monotonic, so each list stays sorted). Indexed by
    /// `TemplateId`.
    alpha: Vec<Vec<FactId>>,
    /// Duplicate index: per-template map from slot fingerprint to the
    /// live ids carrying it (almost always one; collisions fall back to
    /// a slot comparison). Indexed by `TemplateId`.
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

    /// Intern a template name, creating the symbol (and an empty alpha
    /// memory) on first sight.
    pub fn intern_template(&mut self, name: &str) -> TemplateId {
        if let Some(&tid) = self.tmpl_ids.get(name) {
            return tid;
        }
        let tid = TemplateId(self.tmpl_names.len() as u32);
        self.tmpl_ids.insert(name.to_string(), tid);
        self.tmpl_names.push(name.to_string());
        self.alpha.push(Vec::new());
        self.dup.push(FxMap::default());
        self.eq_join.push(Vec::new());
        tid
    }

    /// Look up a template symbol without interning.
    pub fn template_id(&self, name: &str) -> Option<TemplateId> {
        self.tmpl_ids.get(name).copied()
    }

    /// The name behind a template symbol.
    pub fn template_name(&self, tid: TemplateId) -> &str {
        &self.tmpl_names[tid.0 as usize]
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
    pub(crate) fn probe_slot(&mut self, tid: TemplateId, slot: &str) -> SlotIndex {
        let t = tid.0 as usize;
        if let Some(ix) = self.eq_join[t].iter().position(|(s, _)| s == slot) {
            return SlotIndex(ix as u32);
        }
        let mut by_val: FxMap<u64, IdVec> = FxMap::default();
        for id in &self.alpha[t] {
            if let Some(v) = self.facts[id].get(slot) {
                by_val.entry(loose_value_key(v)).or_default().push(*id);
            }
        }
        self.eq_join[t].push((slot.to_string(), by_val));
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
        let tid = self.intern_template(&fact.template);
        let t = tid.0 as usize;
        let fp = slots_fingerprint(&fact.slots);
        if let Some(ids) = self.dup[t].get(&fp) {
            for &id in ids.as_slice() {
                if self.facts[&id].slots == fact.slots {
                    return (id, false, tid);
                }
            }
        }
        let id = FactId(self.next_id);
        self.next_id += 1;
        for (slot, by_val) in &mut self.eq_join[t] {
            if let Some(v) = fact.get(slot) {
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
        let tid = self.tmpl_ids[&fact.template];
        let t = tid.0 as usize;
        if let Ok(pos) = self.alpha[t].binary_search(&id) {
            self.alpha[t].remove(pos);
        }
        remove_from_bucket(&mut self.dup[t], slots_fingerprint(&fact.slots), id);
        for (slot, by_val) in &mut self.eq_join[t] {
            if let Some(v) = fact.get(slot) {
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
        let tid = s.intern_template("m");
        let pid = s.probe_slot(tid, "pid");
        let (a, _) = s.assert_fact(Fact::new("m").with("pid", 1.0).with("x", "p"));
        let (b, _) = s.assert_fact(Fact::new("m").with("pid", 2i64).with("x", "q"));
        // A fact without the registered slot is in no bucket.
        s.assert_fact(Fact::new("m").with("x", "r"));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[a]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Float(2.0)), &[b]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(3)), &[] as &[FactId]);
        // Only registered slots are indexed; registering is idempotent.
        assert_eq!(s.eq_join[tid.0 as usize].len(), 1);
        assert_eq!(s.probe_slot(tid, "pid"), pid);
    }

    #[test]
    fn eq_join_index_tracks_retract() {
        let mut s = FactStore::new();
        let tid = s.intern_template("violation");
        let (fps, pid) = (s.probe_slot(tid, "fps"), s.probe_slot(tid, "pid"));
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
        let pid = s.probe_slot(tid, "pid");
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(1)), &[] as &[FactId]);
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Int(2)), &[b]);
        let (c, _) = s.assert_fact(violation(2, 26.0));
        assert_eq!(s.ids_with_slot(tid, pid, &Value::Float(2.0)), &[b, c]);
    }

    #[test]
    fn eq_join_index_cleared_by_retract_template() {
        let mut s = FactStore::new();
        let tid = s.intern_template("violation");
        let pid = s.probe_slot(tid, "pid");
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
        assert_eq!(s.template_name(tid), "violation");
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
        let tid = s.intern_template("violation");
        s.probe_slot(tid, "pid");
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
