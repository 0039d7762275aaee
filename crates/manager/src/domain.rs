//! The QoS Domain Manager process (Section 5.3): the simulator's driver
//! of the sans-io [`DomainCore`], cut like [`crate::host::QosHostManager`]
//! — the same decode point, the same [`HostInput`], the same apply loop.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

use qos_sim::prelude::*;
use qos_telemetry::Telemetry;

use crate::domain_core::DomainCore;
use crate::host::apply;
use crate::host_core::{Effect, HostInput};
use crate::messages::{DOMAIN_MANAGER_PORT, MANAGER_PROCESSING_COST};
use crate::transport::decode_ctrl_ref;

/// The domain manager process: a [`DomainCore`], reached through
/// `Deref`, and the buffer its effects pass through.
pub struct QosDomainManager {
    core: DomainCore,
    effects: Vec<Effect>,
}

impl Deref for QosDomainManager {
    type Target = DomainCore;
    fn deref(&self) -> &DomainCore {
        &self.core
    }
}

impl DerefMut for QosDomainManager {
    fn deref_mut(&mut self) -> &mut DomainCore {
        &mut self.core
    }
}

impl QosDomainManager {
    /// A domain manager over the given host-manager endpoints.
    pub fn new(host_managers: HashMap<HostId, Endpoint>) -> Self {
        QosDomainManager {
            core: DomainCore::new(host_managers),
            effects: Vec::new(),
        }
    }

    /// Join the federation as domain `domain` (child of `parent`; `None`
    /// makes this the root). The manager registers with the discovery
    /// server at `server` on start and keeps re-registering once a
    /// second; its shard membership and cross-domain routes then come
    /// entirely from the server's route pushes — nothing is hand-wired.
    pub fn with_federation(
        mut self,
        domain: DomainId,
        parent: Option<DomainId>,
        server: Endpoint,
    ) -> Self {
        self.core.federation = Some((domain, parent, server));
        self
    }

    /// Attach a telemetry handle; the manager emits Diagnose/Adapt stage
    /// events for correlated alerts and mirrors its counters into the
    /// registry under `dm.*`.
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.core.telemetry = t.clone();
        self
    }

    /// Step the core once and carry its effects out: the CPU time charged.
    fn feed(&mut self, ctx: &mut Ctx<'_>, input: HostInput<'_>) -> Dur {
        self.core
            .step(ctx.now(), ctx.host_id(), input, &mut self.effects);
        apply(ctx, DOMAIN_MANAGER_PORT, &mut self.effects)
    }
}

impl ProcessLogic for QosDomainManager {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        let charge = match ev {
            ProcEvent::Readable(port) => {
                let Some(msg) = ctx.recv(port) else { return };
                match decode_ctrl_ref(&msg) {
                    Ok(Some(m)) => self.feed(ctx, HostInput::Msg(m)),
                    // App payloads and corrupt frames: not this
                    // process's business, but looked at.
                    Ok(None) | Err(_) => MANAGER_PROCESSING_COST,
                }
            }
            ProcEvent::Start => self.feed(ctx, HostInput::Start),
            ProcEvent::Timer(tag) => self.feed(ctx, HostInput::Timer(tag)),
            ProcEvent::BurstDone => return,
        };
        // Only a message or a query deadline is charged, and only they
        // move a counter.
        if !charge.is_zero() {
            ctx.run(charge);
            self.core.mirror_stats(ctx.host_id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain_core::route_key;

    #[test]
    fn route_key_symmetric() {
        assert_eq!(route_key(HostId(2), HostId(1)), (HostId(1), HostId(2)));
        assert_eq!(route_key(HostId(1), HostId(2)), (HostId(1), HostId(2)));
    }

    #[test]
    fn construction_loads_rules() {
        let dm = QosDomainManager::new(HashMap::new());
        assert!(dm.engine.rule_names().count() >= 3);
    }
}
