//! Structured trace events: the violation lifecycle stages plus generic
//! marks, each stamped with a correlation id so one violation's path
//! through the management plane (detect → report → diagnose → adapt →
//! back-in-spec) is a single reconstructable causal chain.
//!
//! Timestamps are plain `u64` microseconds: virtual time in the
//! simulation, wall time (via `LiveClock`) in live mode. The event
//! buffer is bounded; when full the oldest events are evicted and
//! counted, never silently.

#![cfg_attr(feature = "telemetry-off", allow(dead_code))]

use std::sync::Arc;

/// Lifecycle stage (or generic kind) of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// A sensor tripped and the coordinator entered violation; the
    /// correlation id is minted here.
    Detect,
    /// The coordinator/application sent a violation report upstream.
    Report,
    /// The host manager ran inference over the report.
    Diagnose,
    /// A resource/application adaptation was issued.
    Adapt,
    /// The host manager escalated to the domain manager (optional
    /// stage, between diagnose and adapt).
    Escalate,
    /// The violated policy recovered: observed values back in
    /// specification.
    BackInSpec,
    /// A generic annotation outside the five lifecycle stages.
    Mark,
}

impl Stage {
    /// Canonical position in the lifecycle (escalate shares the adapt
    /// slot; marks sort last).
    pub fn order(self) -> u8 {
        match self {
            Stage::Detect => 0,
            Stage::Report => 1,
            Stage::Diagnose => 2,
            Stage::Escalate => 3,
            Stage::Adapt => 3,
            Stage::BackInSpec => 4,
            Stage::Mark => 5,
        }
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Detect => "detect",
            Stage::Report => "report",
            Stage::Diagnose => "diagnose",
            Stage::Adapt => "adapt",
            Stage::Escalate => "escalate",
            Stage::BackInSpec => "back_in_spec",
            Stage::Mark => "mark",
        }
    }

    /// Parse a wire name back into a stage.
    pub fn from_name(s: &str) -> Option<Stage> {
        Some(match s {
            "detect" => Stage::Detect,
            "report" => Stage::Report,
            "diagnose" => Stage::Diagnose,
            "adapt" => Stage::Adapt,
            "escalate" => Stage::Escalate,
            "back_in_spec" => Stage::BackInSpec,
            "mark" => Stage::Mark,
            _ => return None,
        })
    }

    /// Stable single-byte tag used by the binary codecs (the flight
    /// recorder and the wire protocol). Distinct from [`Stage::order`],
    /// which collapses escalate onto the adapt slot.
    pub fn tag(self) -> u8 {
        match self {
            Stage::Detect => 0,
            Stage::Report => 1,
            Stage::Diagnose => 2,
            Stage::Adapt => 3,
            Stage::Escalate => 4,
            Stage::BackInSpec => 5,
            Stage::Mark => 6,
        }
    }

    /// Parse a binary tag back into a stage.
    pub fn from_tag(t: u8) -> Option<Stage> {
        Some(match t {
            0 => Stage::Detect,
            1 => Stage::Report,
            2 => Stage::Diagnose,
            3 => Stage::Adapt,
            4 => Stage::Escalate,
            5 => Stage::BackInSpec,
            6 => Stage::Mark,
            _ => return None,
        })
    }

    /// All five stages a *complete* lifecycle must pass through, in
    /// order.
    pub const LIFECYCLE: [Stage; 5] = [
        Stage::Detect,
        Stage::Report,
        Stage::Diagnose,
        Stage::Adapt,
        Stage::BackInSpec,
    ];
}

/// Longest name a [`Name`] holds in place.
const INLINE_NAME: usize = 22;

/// A component, event or field name. Cloning one and dropping one never
/// touches the heap for the names the management plane emits: a literal
/// is held by reference ([`Name::from_static`]), a name of up to 22
/// bytes — a pid, a policy off the wire, a sensor attribute — is held in
/// place, and only a longer one is reference-counted. Nothing is
/// interned, so a name lives exactly as long as the events (and the
/// emitter) holding it: a peer cannot grow this process by sending
/// names.
///
/// Compares, prints and debug-prints as the `str` it derefs to.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// Held without owning anything: a clone is a copy.
    Plain(Plain),
    Shared(Arc<str>),
}

#[derive(Clone, Copy)]
enum Plain {
    Static(&'static str),
    /// `bytes[..len]` is UTF-8: it was copied out of a `str`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_NAME],
    },
}

impl Name {
    /// A literal, held by reference.
    pub const fn from_static(s: &'static str) -> Name {
        Name(Repr::Plain(Plain::Static(s)))
    }

    /// A copy of `s`: in place when it fits, reference-counted (one
    /// allocation, shared by every clone) when it does not.
    pub fn new(s: &str) -> Name {
        if s.len() <= INLINE_NAME {
            let mut bytes = [0; INLINE_NAME];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Name(Repr::Plain(Plain::Inline {
                len: s.len() as u8,
                bytes,
            }))
        } else {
            Name(Repr::Shared(s.into()))
        }
    }

    /// `args` rendered as a name — `Name::from_fmt(format_args!("h{h}:p{p}"))`
    /// — with no `String` in between while the result fits in place.
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Name {
        /// The rendering so far: in place, then spilled.
        struct Render {
            len: usize,
            bytes: [u8; INLINE_NAME],
            spilled: String,
        }
        impl std::fmt::Write for Render {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                let end = self.len + s.len();
                if self.spilled.is_empty() && end <= INLINE_NAME {
                    self.bytes[self.len..end].copy_from_slice(s.as_bytes());
                } else {
                    if self.spilled.is_empty() {
                        // Whole `str`s were copied in, so this is UTF-8.
                        self.spilled
                            .push_str(std::str::from_utf8(&self.bytes[..self.len]).unwrap_or(""));
                    }
                    self.spilled.push_str(s);
                }
                self.len = end;
                Ok(())
            }
        }
        let mut r = Render {
            len: 0,
            bytes: [0; INLINE_NAME],
            spilled: String::new(),
        };
        // A `Display` impl that fails leaves what it wrote so far.
        let _ = std::fmt::Write::write_fmt(&mut r, args);
        if r.spilled.is_empty() {
            Name(Repr::Plain(Plain::Inline {
                len: r.len as u8,
                bytes: r.bytes,
            }))
        } else {
            Name::new(&r.spilled)
        }
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Plain(Plain::Static(s)) => s,
            Repr::Plain(Plain::Inline { len, bytes }) => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Name {
        n.clone()
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Payload fields an event holds in place; a longer list spills to the
/// heap (no shipped probe site has one).
const INLINE_FIELDS: usize = 6;

const NO_FIELD: (Name, f64) = (Name::from_static(""), 0.0);

/// The numeric payload of a [`TraceEvent`]: `(key, value)` pairs in
/// emission order, read as the slice it derefs to.
#[derive(Clone)]
pub struct Fields(FieldsRepr);

#[derive(Clone)]
enum FieldsRepr {
    Inline {
        len: u8,
        items: [(Name, f64); INLINE_FIELDS],
    },
    Spilled(Vec<(Name, f64)>),
}

impl Fields {
    /// No fields.
    pub const fn new() -> Fields {
        Fields(FieldsRepr::Inline {
            len: 0,
            items: [NO_FIELD; INLINE_FIELDS],
        })
    }

    /// Append one field.
    pub fn push(&mut self, key: impl Into<Name>, value: f64) {
        match &mut self.0 {
            FieldsRepr::Inline { len, items } if usize::from(*len) < INLINE_FIELDS => {
                items[usize::from(*len)] = (key.into(), value);
                *len += 1;
            }
            FieldsRepr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_FIELDS);
                spilled.extend(std::mem::replace(items, [NO_FIELD; INLINE_FIELDS]));
                spilled.push((key.into(), value));
                self.0 = FieldsRepr::Spilled(spilled);
            }
            FieldsRepr::Spilled(v) => v.push((key.into(), value)),
        }
    }

    /// The fields, in emission order.
    pub fn as_slice(&self) -> &[(Name, f64)] {
        match &self.0 {
            FieldsRepr::Inline { len, items } => &items[..usize::from(*len)],
            FieldsRepr::Spilled(v) => v,
        }
    }
}

impl Default for Fields {
    fn default() -> Fields {
        Fields::new()
    }
}

impl std::ops::Deref for Fields {
    type Target = [(Name, f64)];
    fn deref(&self) -> &[(Name, f64)] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = &'a (Name, f64);
    type IntoIter = std::slice::Iter<'a, (Name, f64)>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<K: Into<Name>> FromIterator<(K, f64)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, f64)>>(iter: I) -> Fields {
        let mut fields = Fields::new();
        for (k, v) in iter {
            fields.push(k, v);
        }
        fields
    }
}

impl<K: Into<Name>> From<Vec<(K, f64)>> for Fields {
    fn from(v: Vec<(K, f64)>) -> Fields {
        v.into_iter().collect()
    }
}

impl From<&[(Name, f64)]> for Fields {
    fn from(s: &[(Name, f64)]) -> Fields {
        if s.len() > INLINE_FIELDS {
            return Fields(FieldsRepr::Spilled(s.to_vec()));
        }
        // A loop over a constant-initialised array, not `array::from_fn`
        // or `push` per field: either costs 2–3× this for five fields.
        let mut items = [NO_FIELD; INLINE_FIELDS];
        for (slot, field) in items.iter_mut().zip(s) {
            *slot = field.clone();
        }
        Fields(FieldsRepr::Inline {
            len: s.len() as u8,
            items,
        })
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Fields) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One structured event. It owns no heap memory unless a name is longer
/// than 22 bytes or there are more than six fields, so the bounded
/// buffer below takes one in and evicts one without allocating or
/// freeing.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Timestamp, µs (virtual in-sim, wall in live mode).
    pub at_us: u64,
    /// Correlation id of the violation lifecycle this event belongs to
    /// (0 = not part of a lifecycle).
    pub corr: u64,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Emitting component, e.g. `client-0`, `hm:h0`, `domain`, `sim`.
    pub component: Name,
    /// Event detail: the policy, rule or action name.
    pub name: Name,
    /// Numeric payload fields (rule firings, agenda size, fps, ...).
    pub fields: Fields,
}

impl TraceEvent {
    /// Look up a payload field by key.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Bounded in-memory event buffer; oldest events are evicted first. A
/// ring over a `Vec` that grows to `capacity` and is then overwritten in
/// place, oldest slot first: taking an event in is one move, and the
/// event it replaces is dropped where it lies.
#[derive(Debug)]
pub(crate) struct EventBuf {
    buf: Vec<TraceEvent>,
    /// Once full, the slot of the oldest event (and of the next one in).
    oldest: usize,
    capacity: usize,
    dropped: u64,
}

impl EventBuf {
    pub fn new(capacity: usize) -> Self {
        EventBuf {
            buf: Vec::new(),
            oldest: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.oldest] = ev;
            self.oldest = (self.oldest + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    pub fn events(&self) -> Vec<TraceEvent> {
        let (newer, older) = self.buf.split_at(self.oldest);
        older.iter().chain(newer).cloned().collect()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent {
            at_us: at,
            corr: 1,
            stage: Stage::Mark,
            component: "t".into(),
            name: "n".into(),
            fields: vec![("x", 1.0)].into(),
        }
    }

    #[test]
    fn stage_names_roundtrip() {
        for s in [
            Stage::Detect,
            Stage::Report,
            Stage::Diagnose,
            Stage::Adapt,
            Stage::Escalate,
            Stage::BackInSpec,
            Stage::Mark,
        ] {
            assert_eq!(Stage::from_name(s.name()), Some(s));
            assert_eq!(Stage::from_tag(s.tag()), Some(s));
        }
        assert_eq!(Stage::from_name("bogus"), None);
        assert_eq!(Stage::from_tag(7), None);
    }

    #[test]
    fn lifecycle_order_is_monotone() {
        let orders: Vec<u8> = Stage::LIFECYCLE.iter().map(|s| s.order()).collect();
        let mut sorted = orders.clone();
        sorted.sort_unstable();
        assert_eq!(orders, sorted);
    }

    #[test]
    fn event_buf_evicts_oldest() {
        let mut b = EventBuf::new(3);
        for t in 0..5 {
            b.push(ev(t));
        }
        let ts: Vec<u64> = b.events().iter().map(|e| e.at_us).collect();
        assert_eq!(ts, [2, 3, 4], "oldest evicted first");
        assert_eq!(b.dropped(), 2);
    }

    #[test]
    fn field_lookup() {
        let e = ev(0);
        assert_eq!(e.field("x"), Some(1.0));
        assert_eq!(e.field("y"), None);
    }

    #[test]
    fn names_and_fields_read_as_the_strings_and_vec_they_replace() {
        assert_eq!(std::mem::size_of::<Name>(), 24);
        let long = "a-policy-name-longer-than-the-inline-form";
        for s in [
            "",
            "h3:p17",
            "NotifyQoSViolation",
            "exactly-22-bytes-long!",
            long,
        ] {
            let n = Name::new(s);
            assert_eq!(n, s);
            assert_eq!(n, Name::from(s.to_string()));
            assert_eq!(format!("{n:?} {n}"), format!("{s:?} {s}"));
            assert_eq!(n.clone().len(), s.len());
        }
        assert_eq!(Name::from_static("fired"), Name::new("fired"));
        assert_eq!(Name::from_fmt(format_args!("h{}:p{}", 3, 17)), "h3:p17");
        assert_eq!(
            Name::from_fmt(format_args!("{}-{}-{long}", "exactly-22-bytes-long!", 7)),
            format!("exactly-22-bytes-long!-7-{long}").as_str()
        );
        assert_ne!(Name::new("h3:p17"), Name::new("h3:p18"));

        // Seven fields: six in place, the seventh spills; order and the
        // `Vec<(String, f64)>` rendering are unchanged either way.
        let mut fields = Fields::new();
        let mut plain = Vec::new();
        for (i, k) in ["a", "b", "c", "d", "e", "f", "g"].into_iter().enumerate() {
            assert_eq!(format!("{fields:?}"), format!("{plain:?}"));
            fields.push(k, i as f64);
            plain.push((k.to_string(), i as f64));
            assert_eq!(fields.len(), i + 1);
            assert_eq!(fields, Fields::from(plain.clone()));
        }
        assert_eq!(format!("{fields:?}"), format!("{plain:?}"));
        assert_eq!(fields[6], (Name::new("g"), 6.0));
    }
}
