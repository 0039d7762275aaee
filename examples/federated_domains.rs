//! Interconnecting QoS Domain Managers (Section 9's open question, made
//! concrete): two administrative domains, each with its own domain
//! manager; a video stream crosses the boundary; a fault on the far side
//! must be located by the *peer* domain.
//!
//! Nothing here is hand-wired: both host managers find their domain
//! managers through the discovery plane, and the domain managers learn
//! each other from discovery route pushes — domain A and domain B are
//! leaves under a root manager, so A's alert about a host it does not
//! cover climbs to the root and descends to B along discovered routes.
//!
//! Domain A owns the client host; domain B owns the server host. When the
//! client's buffer-empty violation escalates, A discovers the stream's
//! upstream is not under its management and forwards the alert upward; B
//! queries its own host manager, diagnoses the starved server and
//! boosts it.
//!
//! Run with: `cargo run --release -p qos-core --example federated_domains`

use std::collections::HashMap;

use qos_core::prelude::*;
use qos_core::sim::World;

fn main() {
    let mut w = World::new(2001);
    let ch = w.add_host("client", 1 << 16);
    let sh = w.add_host("server", 1 << 16);
    let ma = w.add_host("mgmt-a", 1 << 16);
    let mb = w.add_host("mgmt-b", 1 << 16);
    let mr = w.add_host("mgmt-root", 1 << 16);
    let data = w
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_millis(500));
    let ctrl = w
        .net_mut()
        .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(ch, sh, vec![data]);
    let mgmt_pairs = [
        (ch, ma),
        (sh, mb),
        (ma, mb),
        (ch, mb),
        (sh, ma),
        (ch, mr),
        (sh, mr),
        (ma, mr),
        (mb, mr),
    ];
    for (a, b) in mgmt_pairs {
        w.net_mut().set_route_symmetric(a, b, vec![ctrl]);
    }

    let mgr = SchedClass::RealTime {
        rtpri: 50,
        budget: None,
    };

    // The discovery plane: client host pinned to domain A, server host
    // to domain B; both domains are leaves under the root d0.
    let disc_ep = Endpoint::new(mr, DISCOVERY_PORT);
    let mut disc = DiscoveryServer::new(DISCOVERY_LEASE);
    disc.core.pin(ch, DomainId(1));
    disc.core.pin(sh, DomainId(2));
    w.spawn(
        mr,
        ProcConfig::new("DiscoveryServer")
            .class(mgr)
            .port(DISCOVERY_PORT, 1 << 20),
        disc,
    );
    w.spawn(
        mr,
        ProcConfig::new("QoSDomainManager-Root")
            .class(mgr)
            .port(DOMAIN_MANAGER_PORT, 1 << 20),
        QosDomainManager::new(HashMap::new()).with_federation(DomainId(0), None, disc_ep),
    );

    // Host managers join their domains through discovery — no endpoint
    // is wired in; domain managers start with *empty* registries and
    // learn their shards from route pushes.
    w.spawn(
        ch,
        ProcConfig::new("QoSHostManager")
            .class(mgr)
            .port(HOST_MANAGER_PORT, 1 << 20),
        QosHostManager::new(None).with_discovery(disc_ep, 0xA),
    );
    w.spawn(
        sh,
        ProcConfig::new("QoSHostManager")
            .class(mgr)
            .port(HOST_MANAGER_PORT, 1 << 20),
        QosHostManager::new(None).with_discovery(disc_ep, 0xB),
    );
    let dm_a = w.spawn(
        ma,
        ProcConfig::new("QoSDomainManager-A")
            .class(mgr)
            .port(DOMAIN_MANAGER_PORT, 1 << 20),
        QosDomainManager::new(HashMap::new()).with_federation(
            DomainId(1),
            Some(DomainId(0)),
            disc_ep,
        ),
    );
    let dm_b = w.spawn(
        mb,
        ProcConfig::new("QoSDomainManager-B")
            .class(mgr)
            .port(DOMAIN_MANAGER_PORT, 1 << 20),
        QosDomainManager::new(HashMap::new()).with_federation(
            DomainId(2),
            Some(DomainId(0)),
            disc_ep,
        ),
    );

    let server_pid = Pid { host: sh, local: 1 };
    let client = w.spawn(
        ch,
        ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 16),
        VideoClient::new(
            VideoClientConfig {
                host_manager: Some(Endpoint::new(ch, HOST_MANAGER_PORT)),
                upstream: Some(Upstream {
                    host: sh,
                    pid: server_pid,
                }),
                ..VideoClientConfig::default()
            },
            vec![example1_policy()],
        ),
    );
    let server = w.spawn(
        sh,
        ProcConfig::new("VideoServer"),
        VideoServer::new(VideoServerConfig {
            client: Endpoint::new(ch, VIDEO_PORT),
            ..VideoServerConfig::default()
        }),
    );

    let fps_over = |w: &mut World, secs: u64| {
        let d0 = w.logic::<VideoClient>(client).unwrap().stats.displayed;
        w.run_for(Dur::from_secs(secs));
        (w.logic::<VideoClient>(client).unwrap().stats.displayed - d0) as f64 / secs as f64
    };

    w.run_for(Dur::from_secs(10));
    println!(
        "healthy cross-domain stream: {:.1} fps",
        fps_over(&mut w, 20)
    );

    println!("\n*** fault injected on the server host (domain B) ***\n");
    for _ in 0..30 {
        w.spawn(
            sh,
            ProcConfig::new("storm"),
            DutyLoadGen {
                duty: 0.25,
                period: Dur::from_millis(60),
            },
        );
    }
    w.logic_mut::<VideoServer>(server)
        .unwrap()
        .set_cpu_per_frame(Dur::from_millis(25));

    println!(
        "during the fault:            {:.1} fps",
        fps_over(&mut w, 20)
    );
    println!(
        "after cross-domain recovery: {:.1} fps",
        fps_over(&mut w, 40)
    );

    let a: &QosDomainManager = w.logic(dm_a).unwrap();
    let b: &QosDomainManager = w.logic(dm_b).unwrap();
    println!(
        "\ndomain A: {} alerts received, {} forwarded toward the root, {} own actions",
        a.stats.alerts,
        a.stats.forwarded,
        a.stats.actions.len()
    );
    println!(
        "domain B: {} alerts received, actions: {:?}",
        b.stats.alerts, b.stats.actions
    );
    assert!(a.stats.forwarded >= 1);
    assert!(b
        .stats
        .actions
        .iter()
        .any(|x| matches!(x, DomainAction::BoostServer { .. })));
}
