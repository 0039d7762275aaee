//! Seeded runs pinned across commits. `chaos.rs` compares a run with
//! itself at one commit; this table compares it with the numbers of the
//! commit that last moved them: `world.events_processed()`, every host
//! manager's full [`HostMgrStats`], and a hash of every manager's
//! rule-firing trace. A refactor of the host manager passes unchanged; a
//! change that moves a number edits it here and says why.

use qos_core::prelude::*;

/// [`HostMgrStats`] as a row, in declaration order.
fn row(s: &HostMgrStats) -> [u64; 17] {
    [
        s.violations,
        s.cpu_boosts,
        s.cpu_relaxations,
        s.mem_adjustments,
        s.domain_alerts,
        s.rule_updates,
        s.registrations,
        s.nudges,
        s.adaptations,
        s.deaths,
        s.unhandled,
        s.decode_errors,
        s.dup_violations,
        s.rediscoveries,
        s.stale_violations,
        s.batch_frames,
        s.rule_rejects,
    ]
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    events: u64,
    /// One row per host manager alive at the end of the run.
    stats: Vec<[u64; 17]>,
    /// FNV-1a over the managers' drained engine traces, concatenated.
    trace_hash: u64,
}

fn widen_traces(world: &mut World, hms: &[Pid]) {
    for &pid in hms {
        world
            .logic_mut::<QosHostManager>(pid)
            .expect("host manager logic")
            .set_engine_trace_capacity(1 << 20);
    }
}

fn pin(world: &mut World, hms: &[Pid]) -> Pinned {
    let mut stats = Vec::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &pid in hms {
        let hm = world
            .logic_mut::<QosHostManager>(pid)
            .expect("host manager logic");
        stats.push(row(&hm.stats));
        for line in hm.take_engine_trace() {
            for b in line.bytes().chain(std::iter::once(b'\n')) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    Pinned {
        events: world.events_processed(),
        stats,
        trace_hash: h,
    }
}

fn six_hogs(tb: &mut Testbed) {
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
}

/// `end_to_end`'s Example 1 testbed: 80 s managed under six hogs.
fn example_1() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 1001,
        managed: true,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap(), tb.server_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(80));
    pin(&mut tb.world, &hms)
}

/// `chaos.rs`'s `lossy_restart_run(2102)`: 30 % control loss for the
/// whole run, the client's host manager replaced three seconds in.
fn lossy_restart() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 2102,
        managed: true,
        in_sim_distribution: true,
        stream_fps: 25.0,
        ..TestbedConfig::default()
    });
    tb.world.install_faults(FaultPlan::new().lose(
        Window::always(),
        MsgSelector::ports(vec![
            HOST_MANAGER_PORT,
            DOMAIN_MANAGER_PORT,
            POLICY_AGENT_PORT,
        ]),
        0.30,
    ));
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(3));
    let server_hm = tb.server_hm.unwrap();
    let client_hm = tb.restart_host_manager(tb.client_host).unwrap();
    widen_traces(&mut tb.world, &[client_hm, server_hm]);
    tb.world.run_for(Dur::from_secs(60));
    pin(&mut tb.world, &[client_hm, server_hm])
}

/// One federation round trip: 2 leaf domains, 4 hosts, 3 reporters
/// each, five reports per reporter escalating across a domain boundary.
/// Telemetry stays off, so every report carries `corr 0` and the
/// duplicate window folds what lands inside it.
fn federation_round() -> Pinned {
    let mut fed = Federation::build(&FederationConfig {
        seed: 4207,
        domains: 2,
        hosts: 4,
        reporters_per_host: 3,
        rounds: 5,
        cross_domain_upstreams: true,
        ..FederationConfig::default()
    });
    let hms = fed.hms.clone();
    widen_traces(&mut fed.world, &hms);
    fed.world.run_for(Dur::from_secs(10));
    pin(&mut fed.world, &hms)
}

/// `chaos.rs`'s dead-client run: a boosted client is killed and the
/// liveness sweep reclaims it (the three named above never reap).
fn dead_client() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 2200,
        managed: true,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(30));
    tb.world.kill(tb.clients[0]);
    tb.world.run_for(Dur::from_secs(12));
    pin(&mut tb.world, &hms)
}

/// E10's overloaded client: the boost hits its cap and the manager asks
/// the application to adapt (the only run that sends `AdaptMsg`).
fn overload() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 10,
        managed: true,
        overload_adaptation: true,
        decode_cost: Dur::from_micros(45_000),
        baseline_daemons: false,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    tb.world.run_for(Dur::from_secs(60));
    pin(&mut tb.world, &hms)
}

#[test]
fn seeded_runs_are_pinned_across_commits() {
    let mut moved = Vec::new();
    let mut row = |name, got: Pinned, events, stats: &[[u64; 17]], trace_hash| {
        let want = Pinned {
            events,
            stats: stats.to_vec(),
            trace_hash,
        };
        if got != want {
            moved.push(format!("{name}: got {got:?}, pinned {want:?}"));
        }
    };
    const IDLE: [u64; 17] = [0; 17];
    // Taken at a164898, the parent of the `HostCore` extraction.
    row(
        "example_1",
        example_1(),
        33_897,
        &[[77, 3, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0], IDLE],
        9_326_500_288_366_723_665,
    );
    row(
        "lossy_restart",
        lossy_restart(),
        23_754,
        &[[2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], IDLE],
        11_403_067_169_477_952_957,
    );
    row(
        "federation_round",
        federation_round(),
        1_718,
        &[[6, 0, 0, 0, 6, 0, 3, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0]; 4],
        5_408_789_824_773_166_309,
    );
    row(
        "dead_client",
        dead_client(),
        16_099,
        &[[25, 4, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0]],
        12_694_084_927_303_896_901,
    );
    row(
        "overload",
        overload(),
        15_991,
        &[[56, 20, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]],
        15_825_189_766_276_881_532,
    );
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
