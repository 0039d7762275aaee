//! # qos-net — sans-io peer protocol + socket drivers
//!
//! The transport seam between instrumented processes and a live host
//! manager, split the way `redis-rust` splits `production/` from
//! `simulator/`: **one protocol state machine, several drivers**.
//!
//! The machines are pure — bytes in, bytes out, explicit `Instant`s for
//! every timer decision, no syscalls — so the same logic runs under:
//!
//! * the hand-rolled **epoll reactor** ([`reactor`], Linux only), which
//!   serves every socket peer of `qos-manager`'s live host manager: all
//!   accepted peers on one thread that waits on the epoll set itself,
//!   per-peer bounded write queues with drop-oldest telemetry
//!   backpressure, EPOLLOUT-driven flush, one-shot re-arming that puts
//!   a firehose peer behind the ready ones, and deterministic shutdown,
//! * the blocking dialing side, `qos-manager`'s `SocketTransport`,
//!   around [`ClientConn`],
//! * unit tests, which drive the machines with plain byte slices and
//!   fabricated clocks.
//!
//! Module map:
//!
//! * [`sock`] — `SockAddr` / `SockStream` / `SockListener`, the TCP/UDS
//!   primitives (moved here from `qos-manager::transport`);
//! * [`policy`] — [`ReconnectPolicy`] (the jitter seed) and the
//!   jittered doubling [`Backoff`] envelope;
//! * [`peer`] — the accepted-peer half: [`PeerReader`] (frame
//!   reassembly) and [`PeerOutQueue`] (classed, bounded outbound queue);
//! * [`client`] — [`ClientConn`], the dialing half: greeting replay,
//!   backoff reconnect scheduling and sync tokens. It buffers no
//!   writes: the client's one coalescing layer is `qos-manager`'s report
//!   batching, which packs reports into one frame before the carrier;
//! * [`handoff`] — the arming hand-off between a peer's senders and the
//!   reactor thread, as pure transitions (model-checked), and the one
//!   write loop both run;
//! * [`sys`] — a thin raw-FFI epoll surface (Linux only, no `libc`
//!   crate — the workspace is hermetic);
//! * [`reactor`] — the epoll driver itself (Linux only).

#![warn(missing_docs)]

pub mod client;
pub mod handoff;
pub mod peer;
pub mod policy;
pub mod sock;

#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
pub mod reactor;

pub use client::ClientConn;
pub use peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
pub use policy::{Backoff, ReconnectPolicy};
pub use sock::{SockAddr, SockListener, SockStream};

#[cfg(target_os = "linux")]
pub use reactor::{EventSink, NetStats, PeerSend, PeerSender, ReactorConfig, ReactorHandle};
