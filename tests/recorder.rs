//! Flight-recorder fidelity under chaos, and adversarial robustness of
//! the recording codec.
//!
//! The first half runs the `tests/chaos.rs` scenario (30% control-plane
//! loss plus a host-manager crash-restart) with a ring recorder hooked
//! into the telemetry handle, dumps the ring to disk, replays it, and
//! demands the replayed recording reproduce the live trace *exactly*:
//! bit-identical event stream, bit-identical lifecycle chains, and the
//! same rendered MTTR / per-stage latency table. The second half feeds
//! the decoder truncations and single-byte mutations of valid
//! recordings and demands typed errors — never a panic, never a wrong
//! prefix.

use proptest::prelude::*;
use qos_core::prelude::*;
use qos_core::telemetry::record::{
    decode_record, decode_records, encode_event, encode_snapshot, scan_records, RecError,
    DEFAULT_RING_BYTES, REC_HEADER_LEN,
};
use qos_core::telemetry::MetricSnapshot;

/// The chaos harness from `tests/chaos.rs`, telemetry-enabled.
fn chaos_run(telemetry: &Telemetry) -> FaultStats {
    let cfg = TestbedConfig {
        seed: 2102,
        managed: true,
        in_sim_distribution: true,
        stream_fps: 25.0,
        telemetry: telemetry.clone(),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.install_faults(FaultPlan::new().lose(
        Window::always(),
        MsgSelector::ports(vec![
            HOST_MANAGER_PORT,
            DOMAIN_MANAGER_PORT,
            POLICY_AGENT_PORT,
        ]),
        0.30,
    ));
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(3));
    tb.restart_host_manager(tb.client_host)
        .expect("managed testbed has a client host manager");
    tb.world.run_for(Dur::from_secs(60));
    tb.world.fault_stats()
}

#[test]
fn chaos_recording_replays_bit_identical_lifecycles_and_mttr() {
    let t = Telemetry::enabled();
    if !t.is_enabled() {
        // telemetry-off build: the recorder hook is compiled out.
        return;
    }
    let rec = FlightRecorder::new(DEFAULT_RING_BYTES);
    t.set_recorder(Some(rec.clone()));
    let faults = chaos_run(&t);
    assert!(faults.msgs_dropped > 0, "the loss schedule must bite");
    // Close the recording with a final registry snapshot.
    t.record_metrics(63_000_000);

    // Neither the event buffer nor the ring evicted anything, so the
    // two views must agree exactly.
    assert_eq!(t.events_dropped(), 0, "run outgrew the event buffer");
    assert_eq!(rec.ring_dropped(), 0, "run outgrew the recorder ring");

    let dir = std::env::temp_dir().join(format!("qos-recorder-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("chaos.qrec");
    rec.dump(&path).expect("dump ring to disk");
    let recording = read_recording(&path).expect("read recording back");
    assert!(!recording.truncated, "clean dump has no torn tail");
    assert!(recording.corrupt.is_none(), "clean dump decodes fully");

    // Bit-identical event stream...
    let live_events = t.events();
    assert!(!live_events.is_empty());
    assert_eq!(
        recording.events(),
        live_events,
        "replayed events must be byte-for-byte the live trace"
    );
    // ...therefore bit-identical lifecycle chains...
    let live_lifecycles = t.lifecycles();
    assert_eq!(recording.lifecycles(), live_lifecycles);
    assert!(
        live_lifecycles.iter().any(|lc| lc.complete()),
        "chaos run must complete at least one lifecycle"
    );
    // ...and the same rendered MTTR / per-stage table.
    assert_eq!(
        lifecycle_table(&recording.lifecycles()),
        lifecycle_table(&live_lifecycles)
    );

    // The closing snapshot replays with the counters the run kept.
    let snap = recording.last_snapshot().expect("closing snapshot");
    assert_eq!(snap.at_us, 63_000_000);
    assert_eq!(snap.metrics, t.snapshot());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_rotation_survives_torn_writes_under_chaos() {
    if !qos_buggify::compiled_in() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("qos-recorder-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Tiny segments force rotation; the buggify point tears a quarter
    // of the appends mid-record (a tear at probability 1.0 would tear
    // *every* record and nothing would survive, by design).
    let writer = SegmentWriter::create(&dir, "torn", 1 << 10, 64).expect("segment writer");
    let rec = FlightRecorder::with_writer(DEFAULT_RING_BYTES, writer);
    qos_buggify::enable_with(11, 0.25);
    let mk = |i: u64| TraceEvent {
        at_us: i * 100,
        corr: i / 5 + 1,
        stage: Stage::Detect,
        component: "h0:p1".into(),
        name: "example1".into(),
        fields: vec![("frame_rate", 15.0)].into(),
    };
    for i in 0..200 {
        rec.record_event(&mk(i));
    }
    rec.flush().expect("flush");
    qos_buggify::disable();

    // Every torn segment costs at most its torn tail; everything else
    // replays, and nothing panics.
    let recording = read_recording_dir(&dir, "torn").expect("read torn recording");
    let replayed = recording.events().len();
    assert!(
        (50..200).contains(&replayed),
        "each tear must cost exactly its own record ({replayed} of 200 replayed)"
    );
    assert!(recording.truncated, "torn tails must be visible as such");
    assert!(recording.corrupt.is_none(), "tearing is not corruption");
    assert!(recording.segments >= 2, "tiny segments must have rotated");
    // The ring kept everything regardless of disk tearing.
    assert_eq!(rec.ring_records().len(), 200);

    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- adversarial decoding

fn arb_event() -> impl Strategy<Value = TraceEvent> {
    (
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u8..7,
        "[a-z:0-9]{0,12}",
        "[a-z-]{0,12}",
        proptest::collection::vec(("[a-z_]{1,8}", -1.0e9..1.0e9f64), 0..4),
    )
        .prop_map(|(at_us, corr, tag, component, name, fields)| TraceEvent {
            at_us,
            corr,
            stage: Stage::from_tag(tag).expect("tag in range"),
            component: component.into(),
            name: name.into(),
            fields: fields.into(),
        })
}

fn arb_snapshot_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        0u64..u64::MAX,
        proptest::collection::vec(("[a-z.]{1,12}", "[a-z:0-9]{0,8}", 0u64..u64::MAX), 0..4),
    )
        .prop_map(|(at_us, series)| {
            let metrics: Vec<MetricSnapshot> = series
                .into_iter()
                .map(|(family, label, v)| MetricSnapshot {
                    family,
                    label,
                    value: MetricValue::Counter(v),
                })
                .collect();
            encode_snapshot(at_us, &metrics)
        })
}

/// A valid byte stream of 1..8 records, mixing events and snapshots.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        (0u8..4, arb_event(), arb_snapshot_bytes()).prop_map(|(sel, ev, snap)| {
            if sel == 0 {
                snap
            } else {
                encode_event(&ev)
            }
        }),
        1..8,
    )
    .prop_map(|chunks| chunks.concat())
}

proptest! {
    /// Any prefix of a valid stream decodes to a prefix of its records:
    /// whole records survive, the cut record reads as a torn tail, and
    /// nothing panics.
    #[test]
    fn truncated_stream_recovers_exact_prefix(stream in arb_stream(), cut_sel in 0usize..1 << 20) {
        let full = scan_records(&stream);
        prop_assert!(!full.truncated);
        prop_assert!(full.corrupt.is_none());
        prop_assert_eq!(full.consumed, stream.len());

        let cut = cut_sel % (stream.len() + 1);
        let scan = scan_records(&stream[..cut]);
        prop_assert!(scan.corrupt.is_none(), "truncation is not corruption");
        prop_assert_eq!(scan.truncated, cut > scan.consumed, "torn tail iff the cut fell mid-record");
        prop_assert!(scan.records.len() <= full.records.len());
        prop_assert_eq!(
            &full.records[..scan.records.len()],
            &scan.records[..],
            "recovered records must be an exact prefix"
        );
        // The strict decoder agrees, through its typed error.
        match decode_records(&stream[..cut]) {
            Ok(records) => {
                prop_assert_eq!(cut, scan.consumed, "strict Ok only on a record boundary");
                prop_assert_eq!(&records[..], &full.records[..records.len()]);
            }
            Err(e) => prop_assert!(matches!(e, RecError::Truncated { .. })),
        }
    }

    /// Flipping any single bit of a valid stream yields either a clean
    /// decode, a typed error, or a shorter recovered prefix — never a
    /// panic.
    #[test]
    fn mutated_stream_never_panics(stream in arb_stream(), at_sel in 0usize..1 << 20, bit in 0u8..8) {
        let mut bad = stream;
        let at = at_sel % bad.len();
        bad[at] ^= 1 << bit;
        let scan = scan_records(&bad);
        prop_assert!(scan.consumed <= bad.len());
        // Strict decoding either succeeds or returns a typed error.
        let _ = decode_records(&bad);
        let _ = decode_record(&bad);
    }

    /// Garbage from byte zero: the decoder classifies it with a typed
    /// error without consuming anything it shouldn't.
    #[test]
    fn arbitrary_bytes_yield_typed_errors(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        match decode_record(&bytes) {
            Ok((_, n)) => {
                prop_assert!(n >= REC_HEADER_LEN);
                prop_assert!(n <= bytes.len());
            }
            Err(RecError::Truncated { needed, have }) => prop_assert!(needed > have),
            Err(_) => {}
        }
        let scan = scan_records(&bytes);
        prop_assert!(scan.consumed <= bytes.len());
    }
}
