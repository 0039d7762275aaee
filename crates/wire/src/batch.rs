//! Report coalescing: build and walk [`crate::BatchMsg`] frames.
//!
//! One batch frame carries N management-plane messages behind a single
//! 8-byte frame header, so a sensor burst costs one transport send and
//! one manager wake-up. [`BatchBuilder`] assembles the frame in place
//! (reusable buffer, no per-message allocations beyond the bytes
//! themselves); [`BatchRef`] is the zero-copy read side, yielding
//! [`WireMsgRef`] views straight out of the frame buffer.

use crate::borrowed::WireMsgRef;
use crate::codec::{WireReader, WireWriter};
use crate::error::WireError;
use crate::frame::{HEADER_LEN, MAGIC, VERSION};
use crate::messages::{WireMsg, KIND_BATCH};

/// Offset of the item count within a batch frame (just after the frame
/// header).
const COUNT_AT: usize = HEADER_LEN;

/// Incremental encoder for a batch frame. Push messages, take the
/// finished frame, reuse the buffer:
///
/// ```
/// use qos_wire::{BatchBuilder, WireMsg};
/// let mut b = BatchBuilder::new();
/// b.push(&WireMsg::SyncReq { token: 1 });
/// b.push(&WireMsg::SyncReq { token: 2 });
/// let frame = b.finish();
/// assert!(matches!(WireMsg::decode_frame(&frame), Ok(WireMsg::Batch(m)) if m.msgs.len() == 2));
/// ```
#[derive(Debug)]
pub struct BatchBuilder {
    w: WireWriter,
    count: u32,
}

impl Default for BatchBuilder {
    fn default() -> Self {
        BatchBuilder::new()
    }
}

impl BatchBuilder {
    /// An empty builder (frame prologue already written).
    pub fn new() -> Self {
        let mut w = WireWriter::new();
        Self::prologue(&mut w);
        BatchBuilder { w, count: 0 }
    }

    fn prologue(w: &mut WireWriter) {
        w.put_raw(&MAGIC);
        w.put_u8(VERSION);
        w.put_u8(KIND_BATCH);
        w.put_u32(0); // frame payload length, patched on finish
        w.put_u32(0); // item count, patched on finish
    }

    /// Append one message to the batch. Batches must not nest; pushing a
    /// [`WireMsg::Batch`] is a programming error, not a wire condition,
    /// so it panics rather than producing an undecodable frame.
    pub fn push(&mut self, msg: &WireMsg) {
        assert_ne!(msg.kind(), KIND_BATCH, "batch frames must not nest");
        self.w.put_u8(msg.kind());
        let len_at = self.w.len();
        self.w.put_u32(0); // item length, patched below
        let body_start = self.w.len();
        msg.encode_body(&mut self.w);
        self.w.patch_u32(len_at, (self.w.len() - body_start) as u32);
        self.count += 1;
    }

    /// Messages pushed so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no message has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn patch(&mut self) {
        let payload = (self.w.len() - HEADER_LEN) as u32;
        self.w.patch_u32(4, payload);
        self.w.patch_u32(COUNT_AT, self.count);
    }

    /// Finish the frame, consuming the builder.
    pub fn finish(mut self) -> Vec<u8> {
        self.patch();
        self.w.into_vec()
    }

    /// Finish the frame into `out` and reset the builder for reuse — the
    /// zero-allocation path for hot senders that flush into a transport's
    /// write buffer.
    pub fn append_frame_to(&mut self, out: &mut Vec<u8>) {
        self.patch();
        out.extend_from_slice(self.w.as_slice());
        self.clear();
    }

    /// Discard everything pushed, keeping the allocation.
    pub fn clear(&mut self) {
        self.w.clear();
        Self::prologue(&mut self.w);
        self.count = 0;
    }
}

/// Borrowed view of a batch payload. Decoding validates every item
/// eagerly — envelope lengths and the full body of each message — so
/// the batch is accepted whole or rejected whole, exactly like the
/// owned [`crate::messages::BatchMsg`] decoder; iteration afterwards
/// cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct BatchRef<'a> {
    count: u32,
    /// Raw item encodings, excluding the count prefix.
    items: &'a [u8],
}

impl<'a> BatchRef<'a> {
    pub(crate) fn decode(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let count = r.get_u32()?;
        let start = r.pos();
        for _ in 0..count {
            let kind = r.get_u8()?;
            if kind == KIND_BATCH {
                return Err(WireError::BadValue("nested batch"));
            }
            let len = r.get_u32()? as usize;
            let body = r.get_raw(len)?;
            let mut br = WireReader::new(body);
            WireMsgRef::decode_body(kind, &mut br)?;
            br.finish()?;
        }
        Ok(BatchRef {
            count,
            items: r.slice(start, r.pos()),
        })
    }

    /// Number of messages in the batch.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the batch carries no messages.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the coalesced messages as borrowed views, allocating
    /// nothing for the high-rate kinds.
    pub fn iter(&self) -> BatchIter<'a> {
        BatchIter {
            rest: self.items,
            left: self.count,
        }
    }
}

impl<'a> IntoIterator for &BatchRef<'a> {
    type Item = WireMsgRef<'a>;
    type IntoIter = BatchIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`BatchRef`].
pub struct BatchIter<'a> {
    rest: &'a [u8],
    left: u32,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = WireMsgRef<'a>;
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // Items were fully validated by BatchRef::decode; the fallible
        // reads here are belt and braces, ending iteration early rather
        // than panicking if that invariant is ever broken.
        let mut r = WireReader::new(self.rest);
        let kind = r.get_u8().ok()?;
        let len = r.get_u32().ok()? as usize;
        let body = r.get_raw(len).ok()?;
        self.rest = &self.rest[self.rest.len() - r.remaining()..];
        let mut br = WireReader::new(body);
        WireMsgRef::decode_body(kind, &mut br).ok()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for BatchIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BatchMsg, LiveViolationMsg};

    fn lv(i: u64) -> WireMsg {
        WireMsg::LiveViolation(LiveViolationMsg {
            policy: "NotifyQoSViolation".into(),
            process: format!("proc:{i}"),
            at_us: i,
            corr: i,
            readings: vec![("frame_rate".into(), i as f64)],
        })
    }

    #[test]
    fn builder_and_owned_decoder_agree() {
        let msgs: Vec<WireMsg> = (0..5).map(lv).collect();
        let mut b = BatchBuilder::new();
        for m in &msgs {
            b.push(m);
        }
        assert_eq!(b.len(), 5);
        let frame = b.finish();
        let owned = WireMsg::decode_frame(&frame).unwrap();
        assert_eq!(owned, WireMsg::Batch(BatchMsg { msgs: msgs.clone() }));
        // And the explicit encode of the owned form is byte-identical.
        assert_eq!(owned.encode_frame(), frame);
    }

    #[test]
    fn borrowed_iteration_matches() {
        let msgs: Vec<WireMsg> = (0..4).map(lv).collect();
        let mut b = BatchBuilder::new();
        for m in &msgs {
            b.push(m);
        }
        let frame = b.finish();
        let Ok(WireMsgRef::Batch(batch)) = WireMsgRef::decode_frame(&frame) else {
            panic!("batch frame must decode as a batch view");
        };
        assert_eq!(batch.len(), msgs.len());
        let back: Vec<WireMsg> = batch.iter().map(|m| m.to_owned_msg()).collect();
        assert_eq!(back, msgs);
    }

    #[test]
    fn builder_reuse_produces_identical_frames() {
        let mut b = BatchBuilder::new();
        b.push(&lv(1));
        let first = b.finish();

        let mut b = BatchBuilder::new();
        b.push(&lv(99));
        let mut out = Vec::new();
        b.append_frame_to(&mut out);
        assert!(b.is_empty());
        b.push(&lv(1));
        let mut second = Vec::new();
        b.append_frame_to(&mut second);
        assert_eq!(second, first, "reused builder must re-encode identically");
    }

    #[test]
    fn empty_batch_round_trips() {
        let frame = BatchBuilder::new().finish();
        assert_eq!(
            WireMsg::decode_frame(&frame).unwrap(),
            WireMsg::Batch(BatchMsg::default())
        );
    }

    #[test]
    fn nested_batch_is_rejected() {
        let inner = BatchMsg { msgs: vec![lv(0)] };
        let outer = WireMsg::Batch(BatchMsg {
            msgs: vec![WireMsg::Batch(inner)],
        });
        // Hand-encode (the builder refuses to build this).
        let frame = outer.encode_frame();
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::BadValue("nested batch"))
        );
        assert!(WireMsgRef::decode_frame(&frame).is_err());
    }

    #[test]
    #[should_panic(expected = "must not nest")]
    fn builder_refuses_nested_batch() {
        let mut b = BatchBuilder::new();
        b.push(&WireMsg::Batch(BatchMsg::default()));
    }

    #[test]
    fn corrupt_item_rejects_whole_batch_on_both_surfaces() {
        let mut b = BatchBuilder::new();
        b.push(&lv(1));
        b.push(&lv(2));
        let mut frame = b.finish();
        // Corrupt the last byte (inside the second item's body).
        *frame.last_mut().unwrap() ^= 0xff;
        let owned_err = WireMsg::decode_frame(&frame).is_err();
        let ref_err = WireMsgRef::decode_frame(&frame).is_err();
        assert_eq!(owned_err, ref_err);
    }
}
