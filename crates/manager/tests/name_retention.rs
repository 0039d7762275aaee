//! Names that arrive from a peer are never retained.
//!
//! A trace event holds its component, name and field keys in place or
//! by reference count, and nothing interns them: the only memory a
//! name occupies is inside the events that carry it, which sit in
//! bounded buffers. So a peer that sends a hundred thousand events
//! whose every name is new must leave the process no larger than a peer
//! that repeats one — through the live manager's relay to a telemetry
//! subscriber, and through [`Telemetry::event`] into a small ring.
//! There is no per-emitter name cache to cap: an emitter either holds
//! its name or copies it into the event.
//!
//! One test, on purpose: live bytes are counted process-wide.

#[path = "support/counting.rs"]
mod counting;

use counting::live_bytes;
use qos_manager::live::LiveHostManager;
use qos_telemetry::{Telemetry, TraceEvent};
use qos_wire::messages::{LiveViolationMsg, TelemetryBatchMsg};
use qos_wire::WireMsg;

const EVENTS: u64 = 100_000;

/// What the heap may grow by over [`EVENTS`] all-new names. One retained
/// 40-byte name per event would be 4 MB.
const BOUND: i64 = 256 * 1024;

/// Names long enough that an event holds them by reference count, not
/// in place: the form that could be kept alive by accident.
fn names(i: u64) -> (String, String, String) {
    (
        format!("component-{i:08}-of-a-peer-that-never-repeats"),
        format!("policy-{i:08}-of-a-peer-that-never-repeats"),
        format!("reading-{i:08}-of-a-peer-that-never-repeats"),
    )
}

/// Violations `from..to` into the manager, each a frame a peer sent,
/// draining the subscriber as they go.
fn relay(
    mgr: &LiveHostManager,
    batches: &crossbeam::channel::Receiver<Vec<u8>>,
    range: std::ops::Range<u64>,
) -> u64 {
    let mut peer = mgr.connect();
    let mut relayed = 0;
    for i in range.clone() {
        let (process, policy, reading) = names(i);
        let frame = WireMsg::LiveViolation(LiveViolationMsg {
            policy,
            process,
            at_us: i,
            corr: i + 1,
            readings: vec![(reading, i as f64)],
        })
        .encode_frame();
        while !peer.try_send(&frame) {
            std::thread::yield_now();
        }
        // Barrier and drain every so often, and at the end, so the heap
        // is read with nothing in flight.
        if i % 256 == 255 || i + 1 == range.end {
            assert!(mgr.sync());
            while let Ok(batch) = batches.try_recv() {
                let Ok(WireMsg::TelemetryBatch(TelemetryBatchMsg { events, .. })) =
                    WireMsg::decode_frame(&batch)
                else {
                    panic!("subscriber received something that is not a telemetry batch");
                };
                relayed += events.len() as u64;
            }
        }
    }
    relayed
}

/// Events `from..to`, each decoded from a telemetry batch frame, into
/// `t`.
fn replay(t: &Telemetry, range: std::ops::Range<u64>) {
    for i in range {
        let (component, name, key) = names(i);
        let frame = WireMsg::TelemetryBatch(TelemetryBatchMsg {
            seq: i,
            source: "peer".into(),
            events: vec![TraceEvent {
                at_us: i,
                corr: i + 1,
                stage: qos_telemetry::Stage::Detect,
                component: component.into(),
                name: name.into(),
                fields: vec![(key, 1.0)].into(),
            }],
            metrics: None,
        })
        .encode_frame();
        let Ok(WireMsg::TelemetryBatch(batch)) = WireMsg::decode_frame(&frame) else {
            panic!("own frame must decode");
        };
        for ev in batch.events {
            t.event(|| ev);
        }
    }
}

#[test]
fn a_peer_cannot_grow_the_process_by_sending_names() {
    let telemetry = Telemetry::with_capacity(64);
    if !telemetry.is_enabled() {
        return; // telemetry-off: no event is ever built
    }

    // The live manager's relay: every violation's Detect, Report,
    // Diagnose and Adapt events go to its own ring and to the subscriber.
    let mgr = LiveHostManager::builder()
        .telemetry(&telemetry)
        .spawn()
        .expect("spawn manager");
    let batches = mgr.subscribe("name-retention", true, false);
    assert!(mgr.sync());
    let warm = 4_096;
    relay(&mgr, &batches, 0..warm);
    let before = live_bytes();
    let relayed = relay(&mgr, &batches, warm..warm + EVENTS);
    let growth = live_bytes() - before;
    println!("heap growth over {EVENTS} events: {growth} B");
    assert!(
        relayed >= EVENTS,
        "the subscriber saw {relayed} events of at least {EVENTS} violations"
    );
    assert!(
        growth < BOUND,
        "relaying {EVENTS} violations with all-new names grew the heap by {growth} B"
    );
    mgr.shutdown();
    drop(batches);

    // The same names, decoded off the wire, straight into a small ring.
    let ring = Telemetry::with_capacity(64);
    replay(&ring, 0..warm);
    let before = live_bytes();
    replay(&ring, warm..warm + EVENTS);
    let growth = live_bytes() - before;
    println!("heap growth over {EVENTS} events: {growth} B");
    assert_eq!(ring.events().len(), 64);
    assert_eq!(ring.events_dropped(), warm + EVENTS - 64);
    assert!(
        growth < BOUND,
        "{EVENTS} decoded events with all-new names grew the heap by {growth} B"
    );
}
