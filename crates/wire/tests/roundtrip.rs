//! Randomized protocol properties: every message kind survives an
//! encode → decode round trip unchanged, and no amount of truncation or
//! byte-flipping makes the decoder panic — corrupt input always surfaces
//! as a typed [`WireError`].

use proptest::prelude::*;
use qos_sim::DomainId;
use qos_sim::{Dur, Endpoint, HostId, Pid};
use qos_telemetry::{HistogramSnapshot, MetricSnapshot, MetricValue, Stage, TraceEvent};
use qos_wire::messages::{
    AdaptMsg, AdjustRequestMsg, AgentReply, AgentRequest, DiscAnnounceMsg, DiscAssignMsg,
    DiscDomainRegisterMsg, DiscLeaseAckMsg, DiscLeaseRenewMsg, DiscRoutesMsg, DomainAlertMsg,
    DomainInfoEntry, HostRouteEntry, LiveRegisterMsg, LiveViolationMsg, RegisterMsg, RuleUpdateMsg,
    StatsQueryMsg, StatsReplyMsg, TelemetryBatchMsg, TelemetrySubscribeMsg, Upstream, ViolationMsg,
};
use qos_wire::{BatchBuilder, BatchMsg, FrameBuffer, WireMsg, WireMsgRef, HEADER_LEN};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,11}"
}

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1.0e9..1.0e9f64).prop_map(|x| (x * 100.0).round() / 100.0)
}

fn readings() -> impl Strategy<Value = Vec<(String, f64)>> {
    proptest::collection::vec((ident(), finite_f64()), 0..4)
}

/// A genuinely compiled policy (nontrivial nested payload for
/// `AgentReply`), parameterized by the condition bound.
fn policy(bound: f64) -> qos_policy::compile::CompiledPolicy {
    let src = format!("oblig P {{ subject s on not (m > {bound:.2}) do s->read(out m); }}");
    qos_policy::compile::compile(&qos_policy::parser::parse_policy(&src).expect("parses"))
        .expect("compiles")
}

/// One message of every wire kind, built from the generated primitives.
#[allow(clippy::too_many_arguments)]
fn all_kinds(
    host: u32,
    local: u32,
    port: u16,
    corr: u64,
    name: String,
    text: String,
    rd: Vec<(String, f64)>,
    value: f64,
    steps: i16,
    flag: bool,
    token: u64,
) -> Vec<WireMsg> {
    let pid = Pid {
        host: HostId(host),
        local,
    };
    let upstream = Upstream {
        host: HostId(host.wrapping_add(1)),
        pid,
    };
    let reg = RegisterMsg {
        pid,
        control_port: port,
        executable: name.clone(),
        application: text.clone(),
        role: "*".into(),
        weight: value.abs().min(100.0),
        heartbeat: flag.then(|| Dur::from_micros(token % 10_000_000)),
    };
    vec![
        WireMsg::Violation(ViolationMsg {
            pid,
            proc_name: name.clone(),
            policy: text.clone(),
            corr,
            readings: rd.clone(),
            bounds: flag.then(|| (name.clone(), value, value + 1.0)),
            upstream: flag.then_some(upstream),
        }),
        WireMsg::Register(reg.clone()),
        WireMsg::AgentRequest(AgentRequest {
            pid,
            reply_port: port,
            registration: reg,
        }),
        WireMsg::AgentReply(AgentReply {
            policies: vec![policy(value.abs().min(1.0e6))],
        }),
        WireMsg::DomainAlert(DomainAlertMsg {
            from_host: HostId(host),
            client: pid,
            upstream,
            observed: value,
            corr,
        }),
        WireMsg::StatsQuery(StatsQueryMsg {
            reply_to: Endpoint::new(HostId(host), port),
            correlation: corr,
        }),
        WireMsg::StatsReply(StatsReplyMsg {
            host: HostId(host),
            load_avg: value.abs(),
            mem_utilization: value.abs().min(1.0),
            correlation: corr,
        }),
        WireMsg::AdjustRequest(AdjustRequestMsg { pid, steps, corr }),
        WireMsg::Adapt(AdaptMsg {
            actuator: name.clone(),
            command: text.clone(),
            value,
        }),
        WireMsg::RuleUpdate(RuleUpdateMsg {
            add: flag.then(|| text.clone()),
            remove: vec![name.clone()],
        }),
        WireMsg::LiveRegister(LiveRegisterMsg {
            process: name.clone(),
        }),
        WireMsg::LiveViolation(LiveViolationMsg {
            policy: name,
            process: text,
            at_us: token,
            corr,
            readings: rd.clone(),
        }),
        WireMsg::SyncReq { token },
        WireMsg::SyncAck { token },
        WireMsg::Bye,
        WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
            subscriber: "qosctl-tail".into(),
            want_events: flag,
            want_metrics: !flag,
        }),
        WireMsg::TelemetryBatch(TelemetryBatchMsg {
            seq: token,
            source: "host-manager".into(),
            events: vec![TraceEvent {
                at_us: token,
                corr,
                stage: Stage::from_tag((steps.unsigned_abs() % 7) as u8).expect("tag in range"),
                component: "client-0".into(),
                name: "NotifyQoSViolation".into(),
                fields: rd.into(),
            }],
            metrics: flag.then(|| {
                let mut h = HistogramSnapshot::empty();
                h.count = 2;
                h.sum = token % 1000;
                h.max = token % 800;
                h.buckets[0] = 1;
                h.buckets[(token % 64) as usize + 1] = 1;
                (
                    token,
                    vec![
                        MetricSnapshot {
                            family: "live.reports_sent".into(),
                            label: "client-0".into(),
                            value: MetricValue::Counter(corr),
                        },
                        MetricSnapshot {
                            family: "video.fps".into(),
                            label: "client-0".into(),
                            value: MetricValue::Gauge(value),
                        },
                        MetricSnapshot {
                            family: "lat".into(),
                            label: "".into(),
                            value: MetricValue::Histogram(Box::new(h)),
                        },
                    ],
                )
            }),
        }),
        WireMsg::DiscAnnounce(DiscAnnounceMsg {
            host: HostId(host),
            manager: Endpoint::new(HostId(host), port),
            epoch: token,
        }),
        WireMsg::DiscAssign(DiscAssignMsg {
            host: HostId(host),
            epoch: token,
            domain: DomainId(local),
            manager: Endpoint::new(HostId(host.wrapping_add(1)), port),
            lease: Dur::from_micros(token % 10_000_000),
        }),
        WireMsg::DiscLeaseRenew(DiscLeaseRenewMsg {
            host: HostId(host),
            domain: DomainId(local),
            epoch: token,
        }),
        WireMsg::DiscLeaseAck(DiscLeaseAckMsg {
            host: HostId(host),
            epoch: token,
            lease: Dur::from_micros(token % 10_000_000),
        }),
        WireMsg::DiscDomainRegister(DiscDomainRegisterMsg {
            domain: DomainId(local),
            manager: Endpoint::new(HostId(host), port),
            parent: flag.then_some(DomainId(local.wrapping_add(1))),
        }),
        WireMsg::DiscRoutes(DiscRoutesMsg {
            domain: DomainId(local),
            version: token,
            domains: vec![
                DomainInfoEntry {
                    domain: DomainId(local),
                    manager: Endpoint::new(HostId(host), port),
                    parent: None,
                },
                DomainInfoEntry {
                    domain: DomainId(local.wrapping_add(1)),
                    manager: Endpoint::new(HostId(host.wrapping_add(1)), port),
                    parent: flag.then_some(DomainId(local)),
                },
            ],
            hosts: vec![HostRouteEntry {
                host: HostId(host),
                domain: DomainId(local),
                via: Endpoint::new(HostId(host), port),
            }],
        }),
    ]
}

proptest! {
    #[test]
    fn every_kind_round_trips(
        host: u32,
        local in 0u32..1_000_000,
        port: u16,
        corr: u64,
        name in ident(),
        text in "[ -~]{0,24}",
        rd in readings(),
        value in finite_f64(),
        steps in -100i16..100,
        flag in proptest::bool::ANY,
        token: u64,
    ) {
        for msg in all_kinds(host, local, port, corr, name.clone(), text.clone(),
                             rd.clone(), value, steps, flag, token) {
            let frame = msg.encode_frame();
            prop_assert_eq!(WireMsg::decode_frame(&frame).unwrap(), msg);
        }
    }

    /// Differential: the borrowed decoder must agree with the owned
    /// decoder for every message kind — materializing a `WireMsgRef`
    /// yields exactly what `WireMsg::decode_frame` yields, including a
    /// batch frame coalescing one message of each batchable kind — and
    /// on a damaged frame both surfaces must return the same result,
    /// down to the `WireError`.
    #[test]
    fn borrowed_decode_equals_owned_decode(
        host: u32,
        local in 0u32..1_000_000,
        port: u16,
        corr: u64,
        name in ident(),
        text in "[ -~]{0,24}",
        rd in readings(),
        value in finite_f64(),
        steps in -100i16..100,
        flag in proptest::bool::ANY,
        token: u64,
    ) {
        let msgs = all_kinds(host, local, port, corr, name, text, rd, value, steps, flag, token);
        let same_verdict = |bytes: &[u8]| {
            WireMsgRef::decode_frame(bytes).map(|v| v.to_owned_msg()) == WireMsg::decode_frame(bytes)
        };
        for msg in &msgs {
            let frame = msg.encode_frame();
            let view = WireMsgRef::decode_frame(&frame).unwrap();
            prop_assert_eq!(view.kind(), msg.kind());
            prop_assert_eq!(&view.to_owned_msg(), msg);
            // The view of an owned violation reads as the view of its frame.
            if let WireMsg::Violation(v) = msg {
                prop_assert_eq!(&v.as_view().to_owned(), v);
            }
            // One flipped byte, and one cut, anywhere in the frame.
            let mut bad = frame.clone();
            bad[(token % frame.len() as u64) as usize] ^= (corr % 255) as u8 + 1;
            prop_assert!(same_verdict(&bad), "flip in {:?}", msg);
            prop_assert!(same_verdict(&frame[..(corr % frame.len() as u64) as usize]));
        }
        // The whole set coalesced into one batch frame, decoded both ways.
        let mut b = BatchBuilder::new();
        for msg in &msgs {
            b.push(msg);
        }
        let frame = b.finish();
        prop_assert_eq!(
            WireMsg::decode_frame(&frame).unwrap(),
            WireMsg::Batch(BatchMsg { msgs: msgs.clone() })
        );
        let WireMsgRef::Batch(batch) = WireMsgRef::decode_frame(&frame).unwrap() else {
            panic!("batch frame must decode as a batch view");
        };
        prop_assert_eq!(batch.len(), msgs.len());
        let back: Vec<WireMsg> = batch.iter().map(|m| m.to_owned_msg()).collect();
        prop_assert_eq!(back, msgs);
        let mut bad = frame.clone();
        bad[(token % frame.len() as u64) as usize] ^= (corr % 255) as u8 + 1;
        prop_assert!(same_verdict(&bad), "flip in the batch frame");
    }

    /// Batch frames split and re-merge losslessly: any cut point yields
    /// two valid batch frames whose concatenated contents equal the
    /// original, and merging them back produces a byte-identical frame.
    #[test]
    fn batch_split_and_merge_round_trips(
        corr: u64,
        name in ident(),
        rd in readings(),
        n_msgs in 1usize..10,
        cut_seed: u64,
    ) {
        let msgs: Vec<WireMsg> = (0..n_msgs)
            .map(|i| WireMsg::LiveViolation(LiveViolationMsg {
                policy: name.clone(),
                process: format!("{name}:{i}"),
                at_us: i as u64,
                corr: corr.wrapping_add(i as u64),
                readings: rd.clone(),
            }))
            .collect();
        let mut whole = BatchBuilder::new();
        for m in &msgs {
            whole.push(m);
        }
        let whole = whole.finish();

        let cut = (cut_seed % (n_msgs as u64 + 1)) as usize;
        let (mut left, mut right) = (BatchBuilder::new(), BatchBuilder::new());
        for m in &msgs[..cut] {
            left.push(m);
        }
        for m in &msgs[cut..] {
            right.push(m);
        }
        let (left, right) = (left.finish(), right.finish());

        // Split: the two halves iterate back to the original sequence.
        let mut back = Vec::new();
        for frame in [&left, &right] {
            let WireMsgRef::Batch(b) = WireMsgRef::decode_frame(frame).unwrap() else {
                panic!("split halves must stay batch frames");
            };
            back.extend(b.iter().map(|m| m.to_owned_msg()));
        }
        prop_assert_eq!(&back, &msgs);

        // Merge: re-coalescing the halves is byte-identical to the
        // original frame.
        let mut merged = BatchBuilder::new();
        for frame in [&left, &right] {
            let WireMsgRef::Batch(b) = WireMsgRef::decode_frame(frame).unwrap() else {
                panic!("split halves must stay batch frames");
            };
            for m in b.iter() {
                merged.push(&m.to_owned_msg());
            }
        }
        prop_assert_eq!(merged.finish(), whole);
    }

    #[test]
    fn truncation_is_a_typed_error_never_a_panic(
        name in ident(),
        rd in readings(),
        corr: u64,
        cut_seed: u64,
    ) {
        let msgs = [
            WireMsg::LiveViolation(LiveViolationMsg {
                policy: name.clone(),
                process: name.clone(),
                at_us: corr,
                corr,
                readings: rd,
            }),
            // Discovery-plane kinds get the same treatment: no prefix or
            // suffix of a control frame may panic the decoder.
            WireMsg::DiscAnnounce(DiscAnnounceMsg {
                host: HostId(7),
                manager: Endpoint::new(HostId(7), 10),
                epoch: corr,
            }),
            WireMsg::DiscRoutes(DiscRoutesMsg {
                domain: DomainId(1),
                version: corr,
                domains: vec![DomainInfoEntry {
                    domain: DomainId(1),
                    manager: Endpoint::new(HostId(0), 11),
                    parent: Some(DomainId(0)),
                }],
                hosts: vec![HostRouteEntry {
                    host: HostId(7),
                    domain: DomainId(1),
                    via: Endpoint::new(HostId(7), 10),
                }],
            }),
        ];
        for msg in msgs {
            let frame = msg.encode_frame();
            // Every proper prefix must fail cleanly, including mid-header
            // cuts — on both decode surfaces, with the same verdict.
            let cut = (cut_seed % frame.len() as u64) as usize;
            prop_assert!(WireMsg::decode_frame(&frame[..cut]).is_err());
            prop_assert!(WireMsgRef::decode_frame(&frame[..cut]).is_err());
            // And a frame with trailing junk is rejected, not silently
            // accepted.
            let mut long = frame.clone();
            long.push(0);
            prop_assert!(WireMsg::decode_frame(&long).is_err());
            prop_assert!(WireMsgRef::decode_frame(&long).is_err());
            // Same for a batch carrying the message.
            let mut b = BatchBuilder::new();
            b.push(&msg);
            let bframe = b.finish();
            let bcut = (cut_seed % bframe.len() as u64) as usize;
            prop_assert!(WireMsg::decode_frame(&bframe[..bcut]).is_err());
            prop_assert!(WireMsgRef::decode_frame(&bframe[..bcut]).is_err());
        }
    }

    #[test]
    fn mutation_never_panics(
        name in ident(),
        rd in readings(),
        corr: u64,
        at in proptest::collection::vec((0u64..10_000, 1u8..=255), 1..8),
    ) {
        let msg = WireMsg::Violation(ViolationMsg {
            pid: Pid { host: HostId(1), local: 2 },
            proc_name: name.clone(),
            policy: name,
            corr,
            readings: rd,
            bounds: None,
            upstream: None,
        });
        let mut b = BatchBuilder::new();
        b.push(&msg);
        // A discovery control message rides in the same batch, so flips
        // land on federation payloads too.
        b.push(&WireMsg::DiscAssign(DiscAssignMsg {
            host: HostId(1),
            epoch: corr,
            domain: DomainId(3),
            manager: Endpoint::new(HostId(0), 11),
            lease: Dur::from_millis(4_000),
        }));
        let mut bframe = b.finish();
        let mut frame = msg.encode_frame();
        for (pos, xor) in at {
            let ix = (pos % frame.len() as u64) as usize;
            frame[ix] ^= xor;
            let bx = (pos % bframe.len() as u64) as usize;
            bframe[bx] ^= xor;
        }
        // Decode must return (Ok for benign flips, Err for structural
        // ones) — never panic, never loop. The borrowed surface must
        // reach the same Ok/Err verdict as the owned one, and a
        // materialized Ok must be identical.
        let owned = WireMsg::decode_frame(&frame);
        match WireMsgRef::decode_frame(&frame) {
            Ok(view) => prop_assert_eq!(Ok(view.to_owned_msg()), owned),
            Err(_) => prop_assert!(owned.is_err()),
        }
        // Same for the mutated batch frame (iteration included).
        let owned_b = WireMsg::decode_frame(&bframe);
        match WireMsgRef::decode_frame(&bframe) {
            Ok(view) => prop_assert_eq!(Ok(view.to_owned_msg()), owned_b),
            Err(_) => prop_assert!(owned_b.is_err()),
        }
        // Same through the stream-reassembly path.
        let mut buf = FrameBuffer::new();
        buf.extend(&frame);
        let _ = buf.next();
    }

    /// Chunk sizes run from one byte (every frame split mid-header) to
    /// several frames plus a partial one per read, so frames are popped
    /// both off a drained buffer and off one whose consumed prefix is
    /// compacted away under a buffered tail.
    #[test]
    fn frame_buffer_reassembles_chunked_streams(
        corr: u64,
        name in ident(),
        rd in readings(),
        chunk in 1usize..512,
    ) {
        let round = [
            WireMsg::SyncReq { token: corr },
            WireMsg::LiveViolation(LiveViolationMsg {
                policy: name.clone(),
                process: name.clone(),
                at_us: corr,
                corr,
                readings: rd,
            }),
            WireMsg::LiveRegister(LiveRegisterMsg { process: name }),
            WireMsg::Bye,
        ];
        let msgs: Vec<WireMsg> = round.iter().cycle().take(round.len() * 8).cloned().collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode_frame());
        }
        prop_assert!(stream.len() > HEADER_LEN * msgs.len());
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        let (mut fed, mut framed) = (0, 0);
        for piece in stream.chunks(chunk) {
            buf.extend(piece);
            fed += piece.len();
            while let Some(frame) = buf.next_raw().unwrap() {
                framed += frame.len();
                // `len` means unframed bytes, wherever the cursor is.
                prop_assert_eq!(buf.len(), fed - framed);
                got.push(WireMsg::decode_frame(&frame).unwrap());
            }
            prop_assert_eq!(buf.len(), fed - framed);
        }
        prop_assert_eq!(got, msgs);
        prop_assert!(buf.is_empty());
    }

    /// Adversarial writer: a buggify-driven fault schedule tears some
    /// frames mid-write and duplicates others, then the stream is fed
    /// to the reader in arbitrary chunk sizes. The reader must deliver
    /// every frame written cleanly before the first tear (duplicates
    /// included, in order), never panic, and terminate — desynchronised
    /// tails may surface as `WireError`s, never as hangs.
    #[test]
    fn frame_buffer_survives_buggify_torn_and_duplicated_frames(
        seed: u64,
        n_msgs in 1usize..8,
        name in ident(),
        chunk in 1usize..64,
    ) {
        qos_buggify::enable_with(seed, 0.25);
        let mut stream = Vec::new();
        let mut expected_clean = Vec::new();
        let mut desynced = false;
        for i in 0..n_msgs {
            let msg = WireMsg::LiveViolation(LiveViolationMsg {
                policy: name.clone(),
                process: name.clone(),
                at_us: i as u64,
                corr: i as u64,
                readings: vec![("frame_rate".into(), i as f64)],
            });
            let frame = msg.encode_frame();
            if qos_buggify::fire("wire.frame.tear") {
                // Half a frame, then carry on writing as a client that
                // never learned its write was cut short.
                stream.extend_from_slice(&frame[..frame.len() / 2]);
                desynced = true;
                continue;
            }
            let dup = qos_buggify::fire("wire.frame.dup");
            stream.extend_from_slice(&frame);
            if dup {
                stream.extend_from_slice(&frame);
            }
            if !desynced {
                expected_clean.push(msg.clone());
                if dup {
                    expected_clean.push(msg);
                }
            }
        }
        qos_buggify::disable();

        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        let mut error_seen = false;
        'feed: for piece in stream.chunks(chunk) {
            buf.extend(piece);
            loop {
                match buf.next() {
                    Ok(Some(m)) => got.push(m),
                    Ok(None) => break,
                    Err(_) => {
                        // Unreframeable from here on: a real reader
                        // drops the connection at this point.
                        error_seen = true;
                        break 'feed;
                    }
                }
            }
        }
        prop_assert!(
            got.len() >= expected_clean.len(),
            "reader lost cleanly framed messages: got {}, expected at least {}",
            got.len(),
            expected_clean.len()
        );
        prop_assert_eq!(&got[..expected_clean.len()], &expected_clean[..]);
        if !desynced {
            prop_assert!(!error_seen);
            prop_assert_eq!(got.len(), expected_clean.len());
            prop_assert!(buf.is_empty());
        }
    }
}
