//! Frame layout and stream reassembly.
//!
//! Every management-plane message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x51 0x57  ("QW")
//! 2       1     protocol version (currently 1)
//! 3       1     message kind (see WireMsg::kind)
//! 4       4     payload length, u32 little-endian
//! 8       len   payload (message body, kind-specific)
//! ```
//!
//! The header is checked before the payload is touched: wrong magic,
//! unknown version, unknown kind, and over-limit lengths are each a
//! distinct [`WireError`], and the payload must be consumed *exactly* —
//! a length/body mismatch is corruption, not slack.

use std::cell::RefCell;
use std::sync::Arc;

use crate::borrowed::{ViolationMsgRef, WireMsgRef};
use crate::codec::{WireReader, WireWriter};
use crate::error::WireError;
use crate::messages::{WireMsg, KIND_VIOLATION};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [0x51, 0x57];

/// Protocol version this build speaks. Bump on any layout change; a
/// receiver hard-rejects versions it does not know rather than guessing.
pub const VERSION: u8 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame payload. Nothing legitimate approaches this
/// (the largest real message is a policy push of a few KiB); it exists so
/// a corrupt length prefix cannot make the reassembly buffer balloon.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Room a fresh frame buffer starts with: a violation report with a
/// handful of readings is under 200 bytes, so the common frame is
/// written without growing.
const FRAME_CAPACITY: usize = 256;

impl WireMsg {
    /// Encode this message as a complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(FRAME_CAPACITY);
        self.encode_frame_into(&mut w);
        w.into_vec()
    }

    /// Append this message to `w` as a complete frame.
    fn encode_frame_into(&self, w: &mut WireWriter) {
        put_frame(w, self.kind(), |w| self.encode_body(w));
    }

    /// Decode one complete frame. Rejects bad magic, unknown versions and
    /// kinds, over-limit and mis-sized payloads, and any bytes beyond the
    /// frame. Never panics on untrusted input.
    pub fn decode_frame(buf: &[u8]) -> Result<WireMsg, WireError> {
        let (kind, payload) = split_frame(buf)?;
        if buf.len() != HEADER_LEN + payload.len() {
            return Err(WireError::TrailingBytes(
                buf.len() - HEADER_LEN - payload.len(),
            ));
        }
        let mut r = WireReader::new(payload);
        let msg = WireMsg::decode_body(kind, &mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Append a frame of `kind` to `w`, its body written by `body`.
fn put_frame(w: &mut WireWriter, kind: u8, body: impl FnOnce(&mut WireWriter)) {
    let start = w.len();
    w.put_raw(&MAGIC);
    w.put_u8(VERSION);
    w.put_u8(kind);
    w.put_u32(0); // length, patched below
    let body_start = w.len();
    body(w);
    let body_len = (w.len() - body_start) as u32;
    w.patch_u32(start + 4, body_len);
}

/// Write a frame through a buffer this thread keeps, then copy it once
/// into its shared allocation — the frame's only one.
fn shared_frame(write: impl FnOnce(&mut WireWriter)) -> WireBytes {
    thread_local! {
        static SCRATCH: RefCell<WireWriter> =
            RefCell::new(WireWriter::with_capacity(FRAME_CAPACITY));
    }
    SCRATCH.with_borrow_mut(|w| {
        w.clear();
        write(w);
        WireBytes(w.as_slice().into())
    })
}

/// Validate the header of `buf` and return `(kind, payload)` for the
/// first frame, without decoding the payload. Errors if `buf` is shorter
/// than the frame it announces.
pub(crate) fn split_frame(buf: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != VERSION {
        return Err(WireError::UnsupportedVersion(buf[2]));
    }
    let kind = buf[3];
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len));
    }
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    Ok((kind, &buf[HEADER_LEN..total]))
}

/// An encoded frame held behind an [`Arc`] so the simulator can clone it
/// cheaply — the fault layer duplicates messages, and a control frame may
/// be tens of KiB of compiled policies.
#[derive(Debug, Clone)]
pub struct WireBytes(Arc<[u8]>);

impl WireBytes {
    /// Wrap an encoded frame.
    pub fn new(frame: Vec<u8>) -> Self {
        WireBytes(frame.into())
    }

    /// Encode `msg` into a shareable frame: written through a buffer
    /// this thread keeps, then copied once into its shared allocation —
    /// the frame's only one.
    pub fn encode(msg: &WireMsg) -> Self {
        shared_frame(|w| msg.encode_frame_into(w))
    }

    /// Encode a violation from borrowed fields, the same way: the frame
    /// is byte for byte the one [`WireBytes::encode`] makes of
    /// `WireMsg::Violation(v.to_owned())`, without the owned message.
    pub fn encode_violation(v: &ViolationMsgRef<'_>) -> Self {
        shared_frame(|w| put_frame(w, KIND_VIOLATION, |w| v.encode(w)))
    }

    /// Decode the frame back into a message.
    pub fn decode(&self) -> Result<WireMsg, WireError> {
        WireMsg::decode_frame(&self.0)
    }

    /// Decode the frame as a view borrowing it: a violation without
    /// allocating, a batch walked in place.
    pub fn decode_ref(&self) -> Result<WireMsgRef<'_>, WireError> {
        WireMsgRef::decode_frame(&self.0)
    }

    /// Encoded length in bytes — what the simulated network charges for
    /// this message.
    pub fn len_bytes(&self) -> u32 {
        self.0.len() as u32
    }

    /// The raw frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

/// Reassembles frames from a byte stream (TCP / Unix-domain socket reads
/// arrive in arbitrary chunks). Feed it bytes; pull complete frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames: `buf[head..]` is the
    /// unframed remainder. Popping a frame advances this cursor rather
    /// than shifting the buffer, so a read chunk of n small frames costs
    /// O(bytes), not O(n × bytes).
    head: usize,
}

impl FrameBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet framed (complete or partial frames).
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether no unframed bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the complete frame starting at `at` ends: `Ok(None)` if it
    /// is not all buffered yet. The one header split both pops share.
    fn frame_end(&self, at: usize) -> Result<Option<usize>, WireError> {
        match split_frame(&self.buf[at..]) {
            Ok((_, payload)) => Ok(Some(at + HEADER_LEN + payload.len())),
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Hand out `buf[head..end]`: append it to `out` and advance past it.
    fn take_to(&mut self, end: usize, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf[self.head..end]);
        self.head = end;
        // Reclaim the consumed prefix only when that is free (the buffer
        // is drained) or amortised (the prefix is over half the
        // allocation, so the tail moved is smaller than what was consumed
        // since the last move).
        if self.head == self.buf.len() || self.head > self.buf.capacity() / 2 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Pop the next complete frame as raw bytes (header included),
    /// validating only the header. `Ok(None)` means more bytes are
    /// needed; an error means the stream is corrupt and the connection
    /// should be dropped (there is no way to resynchronise a
    /// length-prefixed stream after a bad header).
    pub fn next_raw(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(end) = self.frame_end(self.head)? else {
            return Ok(None);
        };
        let mut frame = Vec::with_capacity(end - self.head);
        self.take_to(end, &mut frame);
        Ok(Some(frame))
    }

    /// Pop every complete frame buffered, appending them to `run` with
    /// one copy; returns how many. `Ok(0)` means more bytes are needed.
    /// Frames ahead of a corrupt header are handed out first and the
    /// error comes on the next call, so a caller that pops until `Ok(0)`
    /// or an error sees exactly what [`FrameBuffer::next_raw`] would
    /// have yielded, error included. Walk the run with [`frames`].
    pub fn next_raw_run(&mut self, run: &mut Vec<u8>) -> Result<usize, WireError> {
        let (mut end, mut n) = (self.head, 0);
        loop {
            match self.frame_end(end) {
                Ok(Some(next)) => {
                    end = next;
                    n += 1;
                }
                Ok(None) => break,
                Err(e) if n == 0 => return Err(e),
                Err(_) => break,
            }
        }
        if n > 0 {
            self.take_to(end, run);
        }
        Ok(n)
    }

    /// Pop and fully decode the next complete frame. `Ok(None)` means
    /// more bytes are needed. (Not an `Iterator`: it is fallible and
    /// `None` means "not yet", not "exhausted".)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<WireMsg>, WireError> {
        match self.next_raw()? {
            Some(frame) => Ok(Some(WireMsg::decode_frame(&frame)?)),
            None => Ok(None),
        }
    }
}

/// Walk a run of frames laid end to end (what
/// [`FrameBuffer::next_raw_run`] appends): each item is one frame's
/// bytes, header included. Where a header does not split, the rest of
/// the run is yielded as one last item, which fails to decode with that
/// header's error — a run of garbage is one malformed frame.
pub fn frames(run: &[u8]) -> Frames<'_> {
    Frames { rest: run }
}

/// Iterator returned by [`frames`].
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.rest.is_empty() {
            return None;
        }
        let len = match split_frame(self.rest) {
            Ok((_, payload)) => HEADER_LEN + payload.len(),
            Err(_) => self.rest.len(),
        };
        let (frame, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::AdaptMsg;

    fn sample() -> WireMsg {
        WireMsg::Adapt(AdaptMsg {
            actuator: "decoder".into(),
            command: "set-quality".into(),
            value: 0.65,
        })
    }

    /// A violation encoded from borrowed fields is the owned message's
    /// frame, whichever form its readings list takes: an owned list, a
    /// frame's encoded span, or borrowed pairs.
    #[test]
    fn violation_from_borrowed_fields_is_the_owned_frame() {
        use crate::messages::{Upstream, ViolationMsg};
        use qos_sim::{HostId, Pid};
        let pid = Pid {
            host: HostId(3),
            local: 41,
        };
        for upstream in [
            None,
            Some(Upstream {
                host: HostId(7),
                pid,
            }),
        ] {
            let owned = ViolationMsg {
                pid,
                proc_name: "FedReporter".into(),
                policy: "fed-report".into(),
                corr: 1 << 33 | 9,
                readings: vec![("frame_rate".into(), 15.0), ("buffer_size".into(), 100.0)],
                bounds: Some(("frame_rate".into(), 23.0, 27.0)),
                upstream,
            };
            let frame = WireMsg::Violation(owned.clone()).encode_frame();
            let pairs = [("frame_rate", 15.0), ("buffer_size", 100.0)];
            let borrowed = ViolationMsgRef {
                readings: pairs.as_slice().into(),
                ..owned.as_view()
            };
            let Ok(WireMsgRef::Violation(decoded)) = WireMsgRef::decode_frame(&frame) else {
                panic!("a violation frame decodes as a violation view");
            };
            for view in [owned.as_view(), borrowed, decoded] {
                assert_eq!(WireBytes::encode_violation(&view).as_slice(), &frame[..]);
            }
        }
    }

    #[test]
    fn frame_roundtrip() {
        let msg = sample();
        let frame = msg.encode_frame();
        assert_eq!(frame[0..2], MAGIC);
        assert_eq!(frame[2], VERSION);
        assert_eq!(frame[3], msg.kind());
        assert_eq!(WireMsg::decode_frame(&frame).unwrap(), msg);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = sample().encode_frame();
        frame[0] = 0xff;
        assert!(matches!(
            WireMsg::decode_frame(&frame),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut frame = sample().encode_frame();
        frame[2] = VERSION + 1;
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::UnsupportedVersion(VERSION + 1))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut frame = sample().encode_frame();
        frame[3] = 200;
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::UnknownKind(200))
        );
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = sample().encode_frame();
        for cut in 0..frame.len() {
            let err = WireMsg::decode_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn oversize_length_rejected() {
        let mut frame = sample().encode_frame();
        frame[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            WireMsg::decode_frame(&frame),
            Err(WireError::FrameTooLarge(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn length_body_mismatch_rejected() {
        // Claim a shorter payload than the body: decode stops early and
        // the frame has trailing bytes.
        let mut frame = sample().encode_frame();
        let real = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        frame[4..8].copy_from_slice(&(real - 1).to_le_bytes());
        assert!(WireMsg::decode_frame(&frame).is_err());
    }

    #[test]
    fn buffer_reassembles_split_frames() {
        let a = sample().encode_frame();
        let b = WireMsg::Bye.encode_frame();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);

        let mut fb = FrameBuffer::new();
        for chunk in stream.chunks(3) {
            fb.extend(chunk);
        }
        assert_eq!(fb.next().unwrap(), Some(sample()));
        assert_eq!(fb.next().unwrap(), Some(WireMsg::Bye));
        assert_eq!(fb.next().unwrap(), None);
        assert!(fb.is_empty());
    }

    #[test]
    fn run_holds_every_complete_frame_and_walks_back_out() {
        let a = sample().encode_frame();
        let b = WireMsg::Bye.encode_frame();
        let mut fb = FrameBuffer::new();
        fb.extend(&a);
        fb.extend(&b);
        fb.extend(&a[..5]);
        let mut run = Vec::new();
        assert_eq!(fb.next_raw_run(&mut run).unwrap(), 2);
        assert_eq!(fb.next_raw_run(&mut run).unwrap(), 0, "half a frame left");
        assert_eq!(fb.len(), 5);
        assert_eq!(frames(&run).collect::<Vec<_>>(), [&a[..], &b[..]]);

        // Frames ahead of a bad header come out first, the error next.
        let mut bad = b.clone();
        bad[0] ^= 0xff;
        fb.extend(&a[5..]);
        fb.extend(&bad);
        run.clear();
        assert_eq!(fb.next_raw_run(&mut run).unwrap(), 1);
        assert_eq!(run, a);
        assert!(matches!(
            fb.next_raw_run(&mut run),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn a_run_whose_header_does_not_split_is_one_malformed_frame() {
        let a = sample().encode_frame();
        let mut run = a.clone();
        run.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5]);
        let walked: Vec<&[u8]> = frames(&run).collect();
        assert_eq!(walked.len(), 2);
        assert_eq!(walked[0], &a[..]);
        assert!(matches!(
            WireMsg::decode_frame(walked[1]),
            Err(WireError::BadMagic(_))
        ));
        assert_eq!(frames(&[]).count(), 0);
    }

    #[test]
    fn buffer_corruption_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.extend(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0]);
        assert!(fb.next().is_err());
    }
}
