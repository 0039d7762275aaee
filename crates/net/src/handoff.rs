//! The arming hand-off between a peer's senders and the reactor thread,
//! cut out of [`crate::reactor`] as pure transitions so that a model
//! checker drives the code the reactor runs (`tests/model_check.rs`).
//!
//! A peer's fd is registered one-shot: an event disarms it, and only an
//! `epoll_ctl(MOD)` arms it again. Two kinds of thread arm it: a sender
//! whose frame stays queued ([`after_enqueue`], [`after_inline`]) and
//! the reactor thread at the end of the peer's turn ([`after_turn`]).
//! Each decides the interest while it holds the peer's `out` lock and
//! issues the MOD before it releases the lock ([`Handoff::arm`]). Were
//! the MOD issued after the release, a turn that saw an empty queue
//! could overwrite the arm of a sender that queued a frame in between,
//! and the frame would wait, its fd armed for input only, until the
//! peer next spoke.
//!
//! The model proves, over two senders and the reactor thread with a
//! socket that may refuse any write: no frame stays queued while no
//! event can fire for it, and frames leave in enqueue order.

use std::io::{self, Write};

use crate::peer::PeerOutQueue;

/// What a peer's fd waits for once armed. It always waits for input;
/// [`Arm::ReadWrite`] also waits for room in the socket, which a socket
/// with room reports at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Input only: nothing is queued for the peer.
    Read,
    /// Input, and room to write what is queued.
    ReadWrite,
}

/// One step of an arm by a thread that holds the peer's `out` lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// `epoll_ctl(MOD)` with this interest.
    Mod(Arm),
    /// Release `out`.
    Unlock,
}

/// Bugs the model checker seeds into the hand-off. Every switch reads
/// as false wherever buggify is compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Bugs {
    /// Release `out` before the MOD: the lost-wakeup race.
    pub arm_after_unlock: bool,
}

/// The hand-off's lock discipline. The reactor runs the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Handoff {
    /// Seeded bugs (none by default).
    pub bugs: Bugs,
}

impl Handoff {
    /// The steps of an arm with `arm`, in the order they run.
    pub fn arm(self, arm: Arm) -> [Step; 2] {
        if qos_buggify::COMPILED_IN && self.bugs.arm_after_unlock {
            [Step::Unlock, Step::Mod(arm)]
        } else {
            [Step::Mod(arm), Step::Unlock]
        }
    }
}

/// A sender has queued a frame under `out`. `idle`: the queue was empty
/// before; `inline`: the caller may write from its own thread. `None`
/// means try the socket now, if no turn holds it; `Some` means arm.
pub fn after_enqueue(idle: bool, inline: bool) -> Option<Arm> {
    if idle && inline {
        None
    } else {
        Some(Arm::ReadWrite)
    }
}

/// How a sender's inline attempt ended (`None`: a turn held the socket).
/// `None` back means the queue is empty and nothing needs arming.
pub fn after_inline(drain: Option<Drain>) -> Option<Arm> {
    match drain {
        Some(Drain::Empty) => None,
        _ => Some(Arm::ReadWrite),
    }
}

/// A turn's end: `pending` is whether `out` still holds bytes.
pub fn after_turn(pending: bool) -> Arm {
    if pending {
        Arm::ReadWrite
    } else {
        Arm::Read
    }
}

/// How a [`write_queued`] drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Drain {
    /// Every queued byte went to the socket.
    Empty,
    /// The socket took no more (`WouldBlock`); the rest stays queued.
    Blocked,
    /// The write failed or the peer stopped reading for good.
    Failed,
}

/// The one write loop, run by a peer's turn and by a sender that finds
/// the socket free: hand the queue's bytes to the socket until the
/// queue is empty, the socket would block, or the write fails. A frame
/// cut short stays at the head, where the queue never evicts it.
/// Returns how the drain ended and how many frames it finished.
pub fn write_queued(out: &mut PeerOutQueue, sock: &mut impl Write) -> (Drain, u64) {
    let mut finished = 0;
    while let Some(chunk) = out.write_chunk() {
        if qos_buggify::buggify!("net.write.wouldblock") {
            // Chaos: pretend the kernel buffer is full — the frame
            // stays queued and EPOLLOUT must finish the job.
            return (Drain::Blocked, finished);
        }
        match sock.write(chunk) {
            Ok(0) => return (Drain::Failed, finished),
            Ok(n) => finished += out.advance(n) as u64,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (Drain::Blocked, finished),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return (Drain::Failed, finished),
        }
    }
    (Drain::Empty, finished)
}
