//! Borrowed decode: zero-copy views over an encoded frame.
//!
//! The owned decoder ([`WireMsg::decode_frame`]) allocates a `String`
//! per text field and a `Vec` per list — fine for control-rate traffic,
//! too expensive for a manager's violation path. [`WireMsgRef`] is the
//! decode surface that path reads: a [`LiveViolationMsgRef`] (live
//! plane) or a [`ViolationMsgRef`] (simulated plane) borrows every
//! string and its readings list straight out of the frame buffer
//! (decoding it performs **zero** heap allocations), and a [`BatchRef`]
//! walks coalesced reports the same way.
//!
//! Ownership rules (see DESIGN.md):
//!
//! * A `*Ref<'a>` view borrows from the frame buffer it was decoded
//!   from and is valid only while that buffer is; it is `Copy`, so
//!   handing one around never implies a deep copy.
//! * Decoding validates the *entire* message eagerly — lengths, UTF-8,
//!   nesting — so iterating a view afterwards cannot fail.
//!   [`ReadingsRef`] walks pre-validated bytes.
//! * `to_owned()` materializes the equivalent owned message, and is how
//!   the owned [`LiveViolationMsg`] and [`ViolationMsg`] decode: a kind
//!   with a view has one decoder.
//! * A [`ViolationMsgRef`] can also be taken *of* an owned
//!   [`ViolationMsg`] ([`ViolationMsg::as_view`]), so a reader written
//!   against the view serves a driver holding a frame and a caller
//!   holding a message alike.
//!
//! Views exist only where something reads them: the two violation
//! kinds and the batch container. Every other kind — registration,
//! telemetry batches, discovery — decodes through the owned path under
//! [`WireMsgRef::Owned`]; those messages are control-rate and one
//! decoder keeps the two surfaces trivially consistent.

use qos_sim::Pid;

use crate::batch::BatchRef;
use crate::codec::{Wire, WireReader, WireWriter};
use crate::error::WireError;
use crate::frame::{split_frame, HEADER_LEN};
use crate::messages::{BatchMsg, LiveViolationMsg, Upstream, ViolationMsg, WireMsg, KIND_BATCH};

/// A borrowed `(name, value)` readings list: the encoded span of a
/// frame, validated at decode time and walked lazily, the list of an
/// owned message, or a list of borrowed pairs (what a sender encodes
/// from without building the owned message). Iterating allocates
/// nothing; [`ReadingsRef::to_vec`] materializes the owned form.
#[derive(Debug, Clone, Copy)]
pub struct ReadingsRef<'a>(Readings<'a>);

#[derive(Debug, Clone, Copy)]
enum Readings<'a> {
    /// `count` encoded `(name, value)` pairs, the count prefix excluded.
    Encoded {
        count: u32,
        items: &'a [u8],
    },
    Owned(&'a [(String, f64)]),
    Pairs(&'a [(&'a str, f64)]),
}

impl<'a> ReadingsRef<'a> {
    /// Decode and validate a readings list, keeping only a borrow.
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let count = r.get_u32()?;
        let start = r.pos();
        for _ in 0..count {
            r.get_str_ref()?;
            r.get_f64()?;
        }
        Ok(ReadingsRef(Readings::Encoded {
            count,
            items: r.slice(start, r.pos()),
        }))
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        match self.0 {
            Readings::Encoded { count, .. } => count as usize,
            Readings::Owned(list) => list.len(),
            Readings::Pairs(list) => list.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the readings without allocating.
    pub fn iter(&self) -> ReadingsIter<'a> {
        ReadingsIter(match self.0 {
            Readings::Encoded { count, items } => ReadingsWalk::Encoded {
                cur: Cur::new(items),
                left: count,
            },
            Readings::Owned(list) => ReadingsWalk::Owned(list.iter()),
            Readings::Pairs(list) => ReadingsWalk::Pairs(list.iter()),
        })
    }

    /// Encode as the owned list encodes: a `u32` count, then each name
    /// and value.
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for (name, value) in self {
            w.put_str(name);
            w.put_f64(value);
        }
    }

    /// Materialize the owned form.
    pub fn to_vec(&self) -> Vec<(String, f64)> {
        self.iter().map(|(s, v)| (s.to_owned(), v)).collect()
    }
}

impl<'a> From<&'a [(String, f64)]> for ReadingsRef<'a> {
    fn from(list: &'a [(String, f64)]) -> Self {
        ReadingsRef(Readings::Owned(list))
    }
}

impl<'a> From<&'a [(&'a str, f64)]> for ReadingsRef<'a> {
    fn from(list: &'a [(&'a str, f64)]) -> Self {
        ReadingsRef(Readings::Pairs(list))
    }
}

impl<'a> IntoIterator for &ReadingsRef<'a> {
    type Item = (&'a str, f64);
    type IntoIter = ReadingsIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`ReadingsRef`].
pub struct ReadingsIter<'a>(ReadingsWalk<'a>);

enum ReadingsWalk<'a> {
    Encoded { cur: Cur<'a>, left: u32 },
    Owned(std::slice::Iter<'a, (String, f64)>),
    Pairs(std::slice::Iter<'a, (&'a str, f64)>),
}

impl<'a> Iterator for ReadingsIter<'a> {
    type Item = (&'a str, f64);
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            ReadingsWalk::Encoded { cur, left } => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                let s = cur.str_ref();
                let v = cur.f64();
                Some((s, v))
            }
            ReadingsWalk::Owned(it) => it.next().map(|(s, v)| (s.as_str(), *v)),
            ReadingsWalk::Pairs(it) => it.next().copied(),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.0 {
            ReadingsWalk::Encoded { left, .. } => *left as usize,
            ReadingsWalk::Owned(it) => it.len(),
            ReadingsWalk::Pairs(it) => it.len(),
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for ReadingsIter<'_> {}

/// Infallible cursor over bytes that were validated at decode time.
/// Underflow (impossible by construction) yields zeros / empty strings
/// rather than panicking — a decoder must never be able to panic, even
/// against its own bugs.
struct Cur<'a> {
    b: &'a [u8],
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b }
    }

    fn bytes(&mut self, n: usize) -> &'a [u8] {
        let n = n.min(self.b.len());
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        head
    }

    fn u32(&mut self) -> u32 {
        let mut a = [0u8; 4];
        let b = self.bytes(4);
        a[..b.len()].copy_from_slice(b);
        u32::from_le_bytes(a)
    }

    fn u64(&mut self) -> u64 {
        let mut a = [0u8; 8];
        let b = self.bytes(8);
        a[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(a)
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    fn str_ref(&mut self) -> &'a str {
        let n = self.u32() as usize;
        std::str::from_utf8(self.bytes(n)).unwrap_or("")
    }
}

/// Borrowed view of a [`LiveViolationMsg`].
#[derive(Debug, Clone, Copy)]
pub struct LiveViolationMsgRef<'a> {
    /// Violated policy name.
    pub policy: &'a str,
    /// Reporting process.
    pub process: &'a str,
    /// Timestamp, microseconds.
    pub at_us: u64,
    /// Telemetry correlation id (0 = none).
    pub corr: u64,
    /// Attribute readings, iterated lazily.
    pub readings: ReadingsRef<'a>,
}

impl<'a> LiveViolationMsgRef<'a> {
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        Ok(LiveViolationMsgRef {
            policy: r.get_str_ref()?,
            process: r.get_str_ref()?,
            at_us: r.get_u64()?,
            corr: r.get_u64()?,
            readings: ReadingsRef::decode(r)?,
        })
    }

    /// Materialize the owned message.
    pub fn to_owned(&self) -> LiveViolationMsg {
        LiveViolationMsg {
            policy: self.policy.to_owned(),
            process: self.process.to_owned(),
            at_us: self.at_us,
            corr: self.corr,
            readings: self.readings.to_vec(),
        }
    }
}

/// Borrowed view of a [`ViolationMsg`]: what a host manager reads of a
/// simulated-plane violation, whether it holds the frame or the owned
/// message.
#[derive(Debug, Clone, Copy)]
pub struct ViolationMsgRef<'a> {
    /// The violating process.
    pub pid: Pid,
    /// Process/executable name.
    pub proc_name: &'a str,
    /// Violated policy name.
    pub policy: &'a str,
    /// Telemetry correlation id (0 = none).
    pub corr: u64,
    /// Attribute readings, iterated lazily.
    pub readings: ReadingsRef<'a>,
    /// Requirement bounds on the primary attribute `(attr, lo, hi)`.
    pub bounds: Option<(&'a str, f64, f64)>,
    /// Where the process's stream originates, if it is a network client.
    pub upstream: Option<Upstream>,
}

impl<'a> ViolationMsgRef<'a> {
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        Ok(ViolationMsgRef {
            pid: r.get()?,
            proc_name: r.get_str_ref()?,
            policy: r.get_str_ref()?,
            corr: r.get_u64()?,
            readings: ReadingsRef::decode(r)?,
            bounds: match r.get_u8()? {
                0 => None,
                1 => Some((r.get_str_ref()?, r.get_f64()?, r.get_f64()?)),
                _ => return Err(WireError::BadValue("Option tag not 0/1")),
            },
            upstream: r.get()?,
        })
    }

    /// Encode the message body, byte for byte as the owned message's:
    /// what a sender that holds the fields but not a [`ViolationMsg`]
    /// writes (see [`crate::WireBytes::encode_violation`]).
    pub(crate) fn encode(&self, w: &mut WireWriter) {
        self.pid.encode(w);
        w.put_str(self.proc_name);
        w.put_str(self.policy);
        w.put_u64(self.corr);
        self.readings.encode(w);
        match self.bounds {
            None => w.put_u8(0),
            Some((attr, lo, hi)) => {
                w.put_u8(1);
                w.put_str(attr);
                w.put_f64(lo);
                w.put_f64(hi);
            }
        }
        self.upstream.encode(w);
    }

    /// Materialize the owned message.
    pub fn to_owned(&self) -> ViolationMsg {
        ViolationMsg {
            pid: self.pid,
            proc_name: self.proc_name.to_owned(),
            policy: self.policy.to_owned(),
            corr: self.corr,
            readings: self.readings.to_vec(),
            bounds: self.bounds.map(|(a, lo, hi)| (a.to_owned(), lo, hi)),
            upstream: self.upstream,
        }
    }
}

impl ViolationMsg {
    /// This message as the view a frame of it would decode to.
    pub fn as_view(&self) -> ViolationMsgRef<'_> {
        ViolationMsgRef {
            pid: self.pid,
            proc_name: &self.proc_name,
            policy: &self.policy,
            corr: self.corr,
            readings: self.readings.as_slice().into(),
            bounds: self
                .bounds
                .as_ref()
                .map(|(a, lo, hi)| (a.as_str(), *lo, *hi)),
            upstream: self.upstream,
        }
    }
}

/// Borrowed twin of [`WireMsg`]: the kinds a manager reads at violation
/// rate decode as zero-copy views, everything else through the owned
/// decoder. One frame, either surface — the differential property tests
/// pin them equal.
#[derive(Debug, Clone)]
pub enum WireMsgRef<'a> {
    /// Simulated-plane violation notification.
    Violation(ViolationMsgRef<'a>),
    /// Live-mode violation notification.
    LiveViolation(LiveViolationMsgRef<'a>),
    /// Several coalesced messages in one frame.
    Batch(BatchRef<'a>),
    /// Any control-rate kind, decoded through the owned path.
    Owned(WireMsg),
}

impl<'a> WireMsgRef<'a> {
    /// Decode one complete frame as a borrowed view. Same validation
    /// guarantees as [`WireMsg::decode_frame`]: rejects bad magic,
    /// unknown versions/kinds, mis-sized payloads and trailing bytes;
    /// never panics on untrusted input.
    pub fn decode_frame(buf: &'a [u8]) -> Result<Self, WireError> {
        let (kind, payload) = split_frame(buf)?;
        if buf.len() != HEADER_LEN + payload.len() {
            return Err(WireError::TrailingBytes(
                buf.len() - HEADER_LEN - payload.len(),
            ));
        }
        let mut r = WireReader::new(payload);
        let msg = Self::decode_body(kind, &mut r)?;
        r.finish()?;
        Ok(msg)
    }

    /// Decode a payload body of the given `kind` from `r`.
    pub(crate) fn decode_body(
        kind: u8,
        r: &mut WireReader<'a>,
    ) -> Result<WireMsgRef<'a>, WireError> {
        Ok(match kind {
            1 => WireMsgRef::Violation(ViolationMsgRef::decode(r)?),
            12 => WireMsgRef::LiveViolation(LiveViolationMsgRef::decode(r)?),
            KIND_BATCH => WireMsgRef::Batch(BatchRef::decode(r)?),
            other => WireMsgRef::Owned(WireMsg::decode_body(other, r)?),
        })
    }

    /// The frame-header kind byte of this message.
    pub fn kind(&self) -> u8 {
        match self {
            WireMsgRef::Violation(_) => 1,
            WireMsgRef::LiveViolation(_) => 12,
            WireMsgRef::Batch(_) => KIND_BATCH,
            WireMsgRef::Owned(m) => m.kind(),
        }
    }

    /// Materialize the equivalent owned [`WireMsg`].
    pub fn to_owned_msg(&self) -> WireMsg {
        match self {
            WireMsgRef::Violation(m) => WireMsg::Violation(m.to_owned()),
            WireMsgRef::LiveViolation(m) => WireMsg::LiveViolation(m.to_owned()),
            WireMsgRef::Batch(b) => WireMsg::Batch(BatchMsg {
                msgs: b.iter().map(|m| m.to_owned_msg()).collect(),
            }),
            WireMsgRef::Owned(m) => m.clone(),
        }
    }
}
