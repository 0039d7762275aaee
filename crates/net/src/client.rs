//! The dialing half of the protocol: [`ClientConn`], a pure state
//! machine owning every decision a reconnecting client has to make —
//! *when* to redial (jittered doubling backoff), *what* to replay after
//! a reconnect (the registration greeting), which sync token comes next
//! and *what* to count (reconnects).
//!
//! The machine performs no IO: the blocking `SocketTransport` driver in
//! `qos-manager` asks it questions (`connect_due`?) and reports
//! outcomes (`on_connected`, `on_disconnect`), and tests drive it with
//! fabricated clocks. It buffers nothing: every frame the driver is
//! handed goes to the socket in the same call, so a send that fails is
//! a frame the caller counts as dropped.

use std::time::Instant;

use crate::policy::ReconnectPolicy;
use crate::Backoff;

/// Client-side connection state machine (sans-io).
pub struct ClientConn {
    connected: bool,
    greeting: Option<Vec<u8>>,
    backoff: Backoff,
    retry_at: Option<Instant>,
    reconnects: u64,
    next_token: u64,
}

impl ClientConn {
    /// A machine for a connection the driver has already established
    /// (the initial dial succeeded; it does not count as a reconnect).
    pub fn connected(reconnect: &ReconnectPolicy) -> Self {
        ClientConn {
            connected: true,
            greeting: None,
            backoff: reconnect.backoff(),
            retry_at: None,
            reconnects: 0,
            next_token: 1,
        }
    }

    /// Install the frame to replay after every reconnect (the
    /// registration greeting).
    pub fn set_greeting(&mut self, frame: Vec<u8>) {
        self.greeting = Some(frame);
    }

    /// The driver lost the connection: arm the next retry time.
    pub fn on_disconnect(&mut self, now: Instant) {
        self.connected = false;
        self.retry_at = Some(now + self.backoff.next_delay());
    }

    /// Should the driver attempt a dial now? (`false` while connected
    /// or inside the backoff window.)
    pub fn connect_due(&self, now: Instant) -> bool {
        if self.connected {
            return false;
        }
        match self.retry_at {
            Some(t) => now >= t,
            None => true,
        }
    }

    /// The driver's dial succeeded: reset the backoff envelope and
    /// return the greeting frame to replay (restores the manager's view
    /// of this process after either side restarted).
    pub fn on_connected(&mut self, _now: Instant) -> Option<Vec<u8>> {
        self.connected = true;
        self.backoff.reset();
        self.retry_at = None;
        self.reconnects += 1;
        self.greeting.clone()
    }

    /// The driver's dial failed: arm the next retry time.
    pub fn on_connect_failed(&mut self, now: Instant) {
        self.retry_at = Some(now + self.backoff.next_delay());
    }

    /// Successful reconnects after a lost connection (the initial
    /// connect does not count).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The next sync-barrier token (monotonic per connection).
    pub fn next_sync_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BACKOFF_INITIAL, BACKOFF_MAX};

    #[test]
    fn greeting_replays_on_every_reconnect() {
        let mut c = ClientConn::connected(&ReconnectPolicy::seeded(1));
        let now = Instant::now();
        assert_eq!(c.on_connected(now), None, "no greeting installed yet");
        c.set_greeting(vec![1, 2, 3]);
        c.on_disconnect(now);
        assert!(c.connect_due(now + BACKOFF_MAX), "redial armed");
        assert_eq!(c.on_connected(now), Some(vec![1, 2, 3]));
        c.on_disconnect(now);
        assert_eq!(c.on_connected(now), Some(vec![1, 2, 3]));
        assert_eq!(c.reconnects(), 3);
    }

    #[test]
    fn connect_due_respects_backoff_window() {
        let mut c = ClientConn::connected(&ReconnectPolicy::seeded(42));
        let t0 = Instant::now();
        c.on_disconnect(t0);
        assert!(!c.connect_due(t0), "must wait out the backoff delay");
        // The first delay is drawn from [base/2, base); base/1ms later
        // it must certainly be due.
        let base = BACKOFF_INITIAL;
        assert!(c.connect_due(t0 + base));
        c.on_connect_failed(t0 + base);
        assert!(!c.connect_due(t0 + base), "failed dial re-arms the window");
    }

    #[test]
    fn sync_tokens_are_monotonic() {
        let mut c = ClientConn::connected(&ReconnectPolicy::seeded(1));
        assert_eq!(c.next_sync_token(), 1);
        assert_eq!(c.next_sync_token(), 2);
    }
}
