//! Telemetry's external forms, pinned byte for byte across commits.
//!
//! `pinned_runs.rs` pins what the managers did; this pins what the
//! telemetry of the same seeded runs looks like from outside the
//! process: the `Debug` rendering of [`Telemetry::events`], the JSONL
//! and Chrome exports, a flight-recorder dump (events plus a closing
//! registry snapshot) and the subscribe / batch frames of wire kinds
//! 16 and 17, each as an FNV-1a hash. A change to how an event is held
//! in memory passes unchanged; a change that moves a byte edits the
//! number here and says why.

use qos_core::prelude::*;
use qos_core::telemetry::record::DEFAULT_RING_BYTES;
use qos_core::wire::messages::{TelemetryBatchMsg, TelemetrySubscribeMsg};
use qos_core::wire::WireMsg;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run's telemetry is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    events: usize,
    lifecycles: usize,
    debug: u64,
    jsonl: u64,
    chrome: u64,
    recording: u64,
    subscribe_frame: u64,
    batch_frame: u64,
}

/// A telemetry handle with a ring recorder attached, or `None` in a
/// `telemetry-off` build, where there is nothing to pin.
fn recorded() -> Option<(Telemetry, FlightRecorder)> {
    let t = Telemetry::enabled();
    if !t.is_enabled() {
        return None;
    }
    let rec = FlightRecorder::new(DEFAULT_RING_BYTES);
    t.set_recorder(Some(rec.clone()));
    Some((t, rec))
}

fn pin(name: &str, t: &Telemetry, rec: &FlightRecorder, closed_at_us: u64) -> Pinned {
    t.record_metrics(closed_at_us);
    assert_eq!(t.events_dropped(), 0, "run outgrew the event buffer");
    assert_eq!(rec.ring_dropped(), 0, "run outgrew the recorder ring");

    let events = t.events();
    let dir = std::env::temp_dir().join(format!("qos-telemetry-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(format!("{name}.qrec"));
    rec.dump(&path).expect("dump ring to disk");
    let recording = std::fs::read(&path).expect("read the dump back");
    let _ = std::fs::remove_file(&path);

    let subscribe = WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
        subscriber: "telemetry-pins".into(),
        want_events: true,
        want_metrics: true,
    })
    .encode_frame();
    let batch_msg = WireMsg::TelemetryBatch(TelemetryBatchMsg {
        seq: 1,
        source: "host-manager".into(),
        events: events.clone(),
        metrics: Some((closed_at_us, t.snapshot())),
    });
    let batch = batch_msg.encode_frame();
    assert_eq!(
        WireMsg::decode_frame(&batch).expect("own frame decodes"),
        batch_msg
    );

    Pinned {
        events: events.len(),
        lifecycles: t.lifecycles().len(),
        debug: fnv1a(format!("{events:?}").as_bytes()),
        jsonl: fnv1a(to_jsonl(&events).as_bytes()),
        chrome: fnv1a(to_chrome_trace(&events).as_bytes()),
        recording: fnv1a(&recording),
        subscribe_frame: fnv1a(&subscribe),
        batch_frame: fnv1a(&batch),
    }
}

/// `end_to_end`'s Example 1 testbed, traced: 80 s managed under six
/// hogs (detect, report, diagnose, adapt and back-in-spec events from
/// the video client and both host managers).
fn example_1() -> Option<Pinned> {
    let (t, rec) = recorded()?;
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 1001,
        managed: true,
        telemetry: t.clone(),
        ..TestbedConfig::default()
    });
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(80));
    Some(pin("example-1", &t, &rec, 80_000_000))
}

/// One round of a two-domain federation whose every violation crosses
/// a domain boundary (reporter detect events, host-manager diagnose and
/// escalate events, the domain managers' events).
fn federation_round() -> Option<Pinned> {
    let (t, rec) = recorded()?;
    let mut fed = Federation::build(&FederationConfig {
        seed: 11,
        domains: 2,
        hosts: 4,
        reporters_per_host: 2,
        rounds: 1,
        cross_domain_upstreams: true,
        telemetry: t.clone(),
        ..FederationConfig::default()
    });
    fed.world.run_for(Dur::from_secs(4));
    Some(pin("federation-round", &t, &rec, 4_000_000))
}

#[test]
fn telemetry_external_forms_are_byte_identical() {
    let (Some(example_1), Some(federation_round)) = (example_1(), federation_round()) else {
        return;
    };
    println!("{example_1:#x?}\n{federation_round:#x?}");
    assert_eq!(
        example_1,
        Pinned {
            events: 160,
            lifecycles: 2,
            debug: 0xa10c_3335_c4dd_9087,
            jsonl: 0x3b65_3faf_0f63_d8a9,
            chrome: 0x4980_40c6_d777_1cba,
            recording: 0xb903_6d5b_4807_1258,
            subscribe_frame: 0x9ce9_9543_3877_e1f6,
            batch_frame: 0xfe8f_ccc7_fa95_1140,
        },
        "Example 1"
    );
    assert_eq!(
        federation_round,
        Pinned {
            events: 32,
            lifecycles: 8,
            debug: 0x39b9_7207_eb66_36df,
            jsonl: 0x4e61_44e0_bb9b_d1ab,
            chrome: 0xfa60_ae08_c626_1966,
            // The registry snapshot gained the leaves' `dm.unactionable`
            // series (each leaf decides reroutes for pairs with no
            // backup path); every event is as before.
            recording: 0x5875_aafb_4162_24e9,
            subscribe_frame: 0x9ce9_9543_3877_e1f6,
            batch_frame: 0xefdd_162a_66a3_0d10,
        },
        "federation round"
    );
}
