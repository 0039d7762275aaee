//! `qos-wire`: the versioned binary wire protocol of the softqos
//! management plane.
//!
//! The paper's architecture is distributed — instrumented processes talk
//! to the QoS Host Manager over local IPC, host managers talk to the QoS
//! Domain Manager over the network — so the management plane needs a
//! real codec, not in-process struct passing. This crate owns that seam:
//!
//! * [`codec`] — a hand-rolled little-endian writer/reader pair and the
//!   [`Wire`](codec::Wire) trait (no serde; explicit layouts).
//! * [`messages`] — every management-plane message
//!   ([`ViolationMsg`](messages::ViolationMsg),
//!   [`RegisterMsg`](messages::RegisterMsg), domain queries/replies,
//!   policy push, rule updates, live-mode handshakes) unified under
//!   [`WireMsg`](messages::WireMsg).
//! * [`frame`] — the length-prefixed frame format (magic, version,
//!   kind, length) plus [`FrameBuffer`](frame::FrameBuffer) for stream
//!   reassembly (one frame at a time, or every buffered frame as one
//!   run that [`frames`](frame::frames) walks back out) and
//!   [`WireBytes`](frame::WireBytes) for cheap sharing.
//! * [`error`] — typed decode failures; decoders never panic on
//!   untrusted bytes.
//! * [`borrowed`] — the zero-copy decode surface:
//!   [`WireMsgRef`](borrowed::WireMsgRef) views that borrow strings and
//!   lists straight out of the frame buffer for the kinds the live
//!   manager reads at violation rate.
//! * [`batch`] — report coalescing: [`BatchBuilder`](batch::BatchBuilder)
//!   packs N messages into one frame, [`BatchRef`](batch::BatchRef) walks
//!   them back out without copying.
//!
//! The same frames flow over all three transports (simulator hops,
//! in-proc channels, TCP/Unix-domain sockets), so the simulator charges
//! the network the *real* encoded size of each control message and a
//! socket peer is bit-compatible with a simulated one.

#![warn(missing_docs)]

pub mod batch;
pub mod borrowed;
pub mod codec;
pub mod error;
pub mod frame;
pub mod messages;

pub use batch::{BatchBuilder, BatchRef};
pub use borrowed::{LiveViolationMsgRef, ReadingsRef, ViolationMsgRef, WireMsgRef};
pub use codec::{Wire, WireReader, WireWriter, MAX_NESTING};
pub use error::WireError;
pub use frame::{
    frames, FrameBuffer, Frames, WireBytes, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION,
};
pub use messages::{BatchMsg, WireMsg, KIND_BATCH};
