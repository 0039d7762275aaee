//! Spans recorded by the harness around its calls into each layer.
//!
//! A [`Tracer`] belongs to one thread and never locks. Every span feeds
//! its stage's sample list (ns per violation, for the percentiles); the
//! first [`SPAN_CAP`] of each stage are also kept whole — name, start,
//! end, parent, correlation id — and written to
//! `out/trace-<workload>.json` when the run ends. A span's self time is
//! its duration minus its children's.

use std::time::Instant;

use crate::json::Json;
use crate::stats;

/// Whole spans kept per stage and tracer, so a storm's two million
/// report spans do not crowd out its few hundred windows; the sample
/// lists are not capped.
pub const SPAN_CAP: usize = 2_000;

/// The layer boundaries the harness records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One sync window of a generator: its reports, then the barrier.
    Window,
    /// One report, start of `ViolationReport::to_wire` to end of send.
    Report,
    /// `ViolationReport::to_wire` (qos-instrument).
    ToWire,
    /// `WireMsg::encode_frame` (qos-wire).
    Encode,
    /// `BatchBuilder::push` of one report (qos-wire).
    BatchPush,
    /// `BatchBuilder::append_frame_to`, over the reports in the frame.
    BatchFrame,
    /// `SocketTransport::try_send` of one frame (qos-net, the kernel).
    Send,
    /// `SocketTransport::sync`: barrier write, manager drain, ack read.
    Sync,
    /// Replay: `PeerReader::on_bytes` + `next_frame` (qos-net).
    Reassemble,
    /// Replay: `WireMsgRef::decode_frame` + `to_owned_msg` (qos-wire).
    Decode,
    /// Replay: building the `violation` fact + `Engine::assert_fact`.
    Assert,
    /// Replay: `Engine::run`.
    Run,
    /// Replay: `Engine::take_invocations`.
    TakeInvocations,
    /// `LiveProcess::start`: policy lookup, sensors, registration frame.
    Init,
    /// `LiveProcess::buffer_pass` with QoS met.
    Pass,
    /// `LiveProcess::frame_pass` with QoS met.
    FramePass,
    /// `Federation::build`.
    SimBuild,
    /// One storm round of the simulated federation (`World::run_for`).
    SimRound,
}

/// Every stage, in declaration order.
const ALL: [Stage; 18] = [
    Stage::Window,
    Stage::Report,
    Stage::ToWire,
    Stage::Encode,
    Stage::BatchPush,
    Stage::BatchFrame,
    Stage::Send,
    Stage::Sync,
    Stage::Reassemble,
    Stage::Decode,
    Stage::Assert,
    Stage::Run,
    Stage::TakeInvocations,
    Stage::Init,
    Stage::Pass,
    Stage::FramePass,
    Stage::SimBuild,
    Stage::SimRound,
];
const STAGES: usize = ALL.len();

impl Stage {
    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Window => "window",
            Stage::Report => "report",
            Stage::ToWire => "instrument.to_wire",
            Stage::Encode => "wire.encode",
            Stage::BatchPush => "wire.batch_push",
            Stage::BatchFrame => "wire.batch_frame",
            Stage::Send => "net.send",
            Stage::Sync => "net.sync",
            Stage::Reassemble => "net.reassemble",
            Stage::Decode => "wire.decode",
            Stage::Assert => "inference.assert",
            Stage::Run => "inference.run",
            Stage::TakeInvocations => "inference.take_invocations",
            Stage::Init => "instrument.init",
            Stage::Pass => "instrument.pass",
            Stage::FramePass => "instrument.frame_pass",
            Stage::SimBuild => "sim.build",
            Stage::SimRound => "sim.round",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Identifier, unique in the trace file.
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    /// Which boundary.
    pub stage: Stage,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Correlation id of the (first) violation the span covers.
    pub corr: u64,
    /// Violations the span covers.
    pub n: u32,
}

/// Span and sample store of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u64,
    next: u64,
    spans: Vec<Span>,
    samples: [Vec<f32>; STAGES],
}

impl Tracer {
    /// A tracer for thread number `thread`; all tracers of a run share
    /// `origin`, so their spans line up in one file.
    pub fn new(origin: Instant, thread: u64) -> Tracer {
        Tracer {
            origin,
            thread,
            next: 0,
            spans: Vec::new(),
            samples: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 48) | self.next
    }

    /// Record a finished span under a reserved `id`, covering `n`
    /// violations (a span over a 64-report batch frame has `n` = 64).
    #[allow(clippy::too_many_arguments)]
    pub fn close(
        &mut self,
        id: u64,
        parent: u64,
        stage: Stage,
        start: Instant,
        end: Instant,
        corr: u64,
        n: u32,
    ) {
        let dur = end.duration_since(start).as_nanos() as f64;
        let samples = &mut self.samples[stage as usize];
        samples.push((dur / f64::from(n.max(1))) as f32);
        if samples.len() <= SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                stage,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
                corr,
                n,
            });
        }
    }

    /// Record a finished leaf span.
    pub fn span(
        &mut self,
        parent: u64,
        stage: Stage,
        start: Instant,
        end: Instant,
        corr: u64,
        n: u32,
    ) {
        let id = self.open();
        self.close(id, parent, stage, start, end, corr, n);
    }

    /// Fold another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }

    /// Samples recorded for `stage`.
    pub fn count(&self, stage: Stage) -> usize {
        self.samples[stage as usize].len()
    }

    /// Percentile `q` of a stage's ns-per-violation samples, capped at
    /// the highest percentile the sample count supports; 0 when the
    /// stage never ran.
    pub fn percentile_ns(&self, stage: Stage, q: f64) -> f64 {
        let v = &self.samples[stage as usize];
        let sorted = stats::sorted(v.iter().map(|&x| f64::from(x)).collect());
        stats::percentile(&sorted, stats::supported_q(sorted.len(), q))
    }

    /// Median of a stage's ns-per-violation samples.
    pub fn p50_ns(&self, stage: Stage) -> f64 {
        self.percentile_ns(stage, 0.5)
    }

    /// The kept spans as a JSON array, in start order.
    pub fn spans_json(&self) -> Json {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Int(s.id)),
                        ("parent", Json::Int(s.parent)),
                        ("name", Json::str(s.stage.name())),
                        ("thread", Json::Int(s.id >> 48)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("corr", Json::Int(s.corr)),
                        ("violations", Json::Int(u64::from(s.n))),
                    ])
                })
                .collect(),
        )
    }

    /// Sample counts and medians per stage, for the trace file's header.
    pub fn summary_json(&self) -> Json {
        Json::Arr(
            ALL.iter()
                .filter(|&&s| self.count(s) > 0)
                .map(|&s| {
                    Json::obj([
                        ("name", Json::str(s.name())),
                        ("spans", Json::Int(self.count(s) as u64)),
                        ("p50_ns_per_violation", Json::Num(self.p50_ns(s))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_keep_parent_and_correlation_and_feed_per_violation_samples() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, 3);
        let window = tr.open();
        let at = |us: u64| t0 + Duration::from_micros(us);
        tr.span(window, Stage::Send, at(1), at(65), 7, 64);
        tr.close(window, 0, Stage::Window, at(0), at(100), 7, 64);
        assert_eq!(tr.p50_ns(Stage::Send), 1_000.0, "64 µs over 64 violations");
        assert_eq!(tr.count(Stage::Window), 1);
        assert_eq!(tr.p50_ns(Stage::Sync), 0.0);
        let Json::Arr(spans) = tr.spans_json() else {
            panic!("array")
        };
        assert_eq!(spans.len(), 2);
        let text = spans[1].compact();
        assert!(text.contains(r#""name":"net.send""#) && text.contains(r#""corr":7"#));
        assert!(text.contains(&format!(r#""parent":{window}"#)));
        assert!(text.contains(r#""thread":3"#));
    }

    #[test]
    fn whole_spans_are_capped_but_samples_are_not() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, 0);
        for _ in 0..SPAN_CAP + 10 {
            tr.span(0, Stage::Encode, t0, t0, 0, 1);
        }
        tr.span(0, Stage::Window, t0, t0, 0, 1);
        assert_eq!(tr.count(Stage::Encode), SPAN_CAP + 10);
        let Json::Arr(spans) = tr.spans_json() else {
            panic!("array")
        };
        assert_eq!(spans.len(), SPAN_CAP + 1, "the cap is per stage");
    }
}
