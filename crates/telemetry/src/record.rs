//! Flight recorder: durable binary telemetry records.
//!
//! In-process telemetry dies with the process; the flight recorder
//! makes a run's trace durable and replayable. Every record is a
//! length-prefixed binary frame mirroring the `qos-wire` framing
//! discipline (magic + version + kind + `u32` LE length), so the same
//! reader tolerance rules apply: a torn tail is a clean truncation, a
//! corrupt byte is a typed error, and nothing ever panics on untrusted
//! bytes.
//!
//! Three layers:
//!
//! - the **record codec** ([`encode_event`], [`encode_snapshot`],
//!   [`decode_record`], [`decode_records`], [`scan_records`]): one
//!   [`TraceEvent`] or one timestamped registry snapshot per record.
//!   The bodies alone ([`encode_event_body`], [`decode_event_body`] and
//!   the snapshot pair) are also what `qos-wire`'s telemetry batch
//!   carries;
//! - the **[`FlightRecorder`]**: a bounded, byte-budgeted drop-oldest
//!   ring of encoded records (lock-light: encode outside the lock, one
//!   short mutex hold per record), optionally write-through to a
//!   rotating [`SegmentWriter`] (`<prefix>-NNNNNN.qrec` segments,
//!   oldest deleted beyond a retention cap);
//! - the **reader** ([`Recording`], [`read_recording`],
//!   [`read_recording_dir`]): replays a recording back into
//!   [`TraceEvent`]s, lifecycle chains and metrics snapshots,
//!   recovering everything before a torn tail or corrupt byte.
//!
//! The `rec.write.tear` buggify point simulates a crash mid-append: the
//! segment keeps a half-written record and writing resumes on a fresh
//! segment, exactly what a restart would leave on disk.

use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::events::{Fields, Name, Stage, TraceEvent};
use crate::lifecycle::{reconstruct, Lifecycle};
use crate::metrics::{
    HistogramSnapshot, MetricSnapshot, MetricValue, RegistrySnapshot, HISTOGRAM_BUCKETS,
};

/// Recording magic: `"QR"` (the wire protocol uses `"QW"`).
pub const REC_MAGIC: [u8; 2] = [0x51, 0x52];
/// Recording format version.
pub const REC_VERSION: u8 = 1;
/// Fixed header: magic (2) + version (1) + kind (1) + length (4).
pub const REC_HEADER_LEN: usize = 8;
/// Upper bound on one record's payload, mirroring `MAX_FRAME_LEN`.
pub const MAX_RECORD_LEN: u32 = 1 << 20;
/// File extension of recording segments.
pub const SEGMENT_EXT: &str = "qrec";
/// Default ring budget: 8 MiB of encoded records.
pub const DEFAULT_RING_BYTES: usize = 8 << 20;

const KIND_EVENT: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;

/// Typed decode error. Decoders return these for any byte sequence;
/// they never panic. [`RecError::Truncated`] specifically means "the
/// buffer ends mid-record" — a torn tail — and is what the tolerant
/// readers treat as clean truncation; every other variant is
/// corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecError {
    /// The buffer ends before the record does.
    Truncated {
        /// Bytes needed to finish the record.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// First two bytes are not `"QR"`.
    BadMagic([u8; 2]),
    /// Version byte this reader does not speak.
    UnsupportedVersion(u8),
    /// Kind byte outside the known record kinds.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_RECORD_LEN`].
    RecordTooLarge(u32),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A payload field is structurally invalid (overrun, bad tag, ...).
    BadValue(&'static str),
    /// The payload is longer than its record's content.
    TrailingBytes(usize),
}

impl std::fmt::Display for RecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecError::Truncated { needed, have } => {
                write!(f, "truncated record: need {needed} bytes, have {have}")
            }
            RecError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            RecError::UnsupportedVersion(v) => write!(f, "unsupported recording version {v}"),
            RecError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            RecError::RecordTooLarge(n) => write!(f, "record payload {n} exceeds maximum"),
            RecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            RecError::BadValue(what) => write!(f, "bad value: {what}"),
            RecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record payload"),
        }
    }
}

impl std::error::Error for RecError {}

/// One decoded record.
// Nearly every record of a recording is an event, and an event holds its
// names and fields in place: boxing it would put back one allocation per
// replayed event to slim the rare snapshot.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A single trace event.
    Event(TraceEvent),
    /// A timestamped metrics-registry snapshot.
    Snapshot(SnapshotRecord),
}

/// A registry snapshot with the time it was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotRecord {
    /// Timestamp, µs (same clock as the surrounding trace events).
    pub at_us: u64,
    /// Every series at that instant, (family, label)-ordered.
    pub metrics: RegistrySnapshot,
}

// ---------------------------------------------------------------- codec

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct RecReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        RecReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecError> {
        if self.remaining() < n {
            return Err(RecError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn get_u8(&mut self) -> Result<u8, RecError> {
        Ok(self.take(1)?[0])
    }

    fn get_u32(&mut self) -> Result<u32, RecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, RecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_f64(&mut self) -> Result<f64, RecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_str_ref(&mut self) -> Result<&'a str, RecError> {
        let n = self.get_u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| RecError::BadUtf8)
    }

    fn get_str(&mut self) -> Result<String, RecError> {
        self.get_str_ref().map(str::to_owned)
    }
}

fn frame_into(out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    debug_assert!(out.is_empty(), "frame_into wants a cleared buffer");
    out.reserve(96);
    out.extend_from_slice(&REC_MAGIC);
    out.push(REC_VERSION);
    out.push(kind);
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - REC_HEADER_LEN) as u32;
    out[4..8].copy_from_slice(&len.to_le_bytes());
}

fn frame(kind: u8, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    frame_into(&mut out, kind, body);
    out
}

/// Encode one trace event as a framed record.
pub fn encode_event(ev: &TraceEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    encode_event_into(ev, &mut out);
    out
}

/// Encode one trace event into a cleared buffer (the hot-path variant:
/// callers recycle `out`'s capacity).
fn encode_event_into(ev: &TraceEvent, out: &mut Vec<u8>) {
    frame_into(out, KIND_EVENT, |out| encode_event_body(ev, out))
}

/// Encode one registry snapshot as a framed record.
pub fn encode_snapshot(at_us: u64, metrics: &[MetricSnapshot]) -> Vec<u8> {
    frame(KIND_SNAPSHOT, |out| {
        encode_snapshot_body(at_us, metrics, out)
    })
}

/// Append an event record's body (what follows the header) to `out`.
/// `qos-wire`'s telemetry batch carries events in the same bytes.
pub fn encode_event_body(ev: &TraceEvent, out: &mut Vec<u8>) {
    put_u64(out, ev.at_us);
    put_u64(out, ev.corr);
    out.push(ev.stage.tag());
    put_str(out, &ev.component);
    put_str(out, &ev.name);
    put_u32(out, ev.fields.len() as u32);
    for (k, v) in &ev.fields {
        put_str(out, k);
        put_u64(out, v.to_bits());
    }
}

/// Append a snapshot record's body to `out`. Histograms are stored
/// sparsely: only non-zero buckets, as (index, count) pairs. `qos-wire`'s
/// telemetry batch carries its snapshot in the same bytes.
pub fn encode_snapshot_body(at_us: u64, metrics: &[MetricSnapshot], out: &mut Vec<u8>) {
    put_u64(out, at_us);
    put_u32(out, metrics.len() as u32);
    for m in metrics {
        put_str(out, &m.family);
        put_str(out, &m.label);
        match &m.value {
            MetricValue::Counter(v) => {
                out.push(0);
                put_u64(out, *v);
            }
            MetricValue::Gauge(v) => {
                out.push(1);
                put_u64(out, v.to_bits());
            }
            MetricValue::Histogram(h) => {
                out.push(2);
                put_u64(out, h.count);
                put_u64(out, h.sum);
                put_u64(out, h.max);
                let nonzero: Vec<(usize, u64)> = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0)
                    .map(|(i, &c)| (i, c))
                    .collect();
                put_u32(out, nonzero.len() as u32);
                for (i, c) in nonzero {
                    put_u32(out, i as u32);
                    put_u64(out, c);
                }
            }
        }
    }
}

/// Decode the event body at the start of `buf`: the event and the bytes
/// it took. Names are copied out of `buf` into the event (in place when
/// short).
pub fn decode_event_body(buf: &[u8]) -> Result<(TraceEvent, usize), RecError> {
    let mut r = RecReader::new(buf);
    let at_us = r.get_u64()?;
    let corr = r.get_u64()?;
    let stage = Stage::from_tag(r.get_u8()?).ok_or(RecError::BadValue("stage tag"))?;
    let component = Name::new(r.get_str_ref()?);
    let name = Name::new(r.get_str_ref()?);
    let n = r.get_u32()?;
    let mut fields = Fields::new();
    for _ in 0..n {
        let k = r.get_str_ref()?;
        let v = r.get_f64()?;
        fields.push(k, v);
    }
    let ev = TraceEvent {
        at_us,
        corr,
        stage,
        component,
        name,
        fields,
    };
    Ok((ev, r.pos))
}

/// Decode the snapshot body at the start of `buf`: the snapshot and the
/// bytes it took.
pub fn decode_snapshot_body(buf: &[u8]) -> Result<(SnapshotRecord, usize), RecError> {
    let mut r = RecReader::new(buf);
    let at_us = r.get_u64()?;
    let n = r.get_u32()? as usize;
    // A series is at least 9 bytes; cap preallocation by what's left.
    let mut metrics = Vec::with_capacity(n.min(r.remaining() / 9));
    for _ in 0..n {
        let family = r.get_str()?;
        let label = r.get_str()?;
        let value = match r.get_u8()? {
            0 => MetricValue::Counter(r.get_u64()?),
            1 => MetricValue::Gauge(r.get_f64()?),
            2 => {
                let mut h = HistogramSnapshot::empty();
                h.count = r.get_u64()?;
                h.sum = r.get_u64()?;
                h.max = r.get_u64()?;
                let k = r.get_u32()? as usize;
                if k > HISTOGRAM_BUCKETS {
                    return Err(RecError::BadValue("histogram bucket count"));
                }
                for _ in 0..k {
                    let ix = r.get_u32()? as usize;
                    if ix >= HISTOGRAM_BUCKETS {
                        return Err(RecError::BadValue("histogram bucket index"));
                    }
                    h.buckets[ix] = r.get_u64()?;
                }
                MetricValue::Histogram(Box::new(h))
            }
            _ => return Err(RecError::BadValue("metric value tag")),
        };
        metrics.push(MetricSnapshot {
            family,
            label,
            value,
        });
    }
    Ok((SnapshotRecord { at_us, metrics }, r.pos))
}

/// Decode the record at the start of `buf`. Returns the record and the
/// total bytes consumed (header + payload). [`RecError::Truncated`] is
/// returned only when the *buffer* ends mid-record; a payload whose
/// inner fields overrun its declared length is [`RecError::BadValue`]
/// (corruption, not a torn tail).
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), RecError> {
    if buf.len() < REC_HEADER_LEN {
        return Err(RecError::Truncated {
            needed: REC_HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0..2] != REC_MAGIC {
        return Err(RecError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != REC_VERSION {
        return Err(RecError::UnsupportedVersion(buf[2]));
    }
    let kind = buf[3];
    let len = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return Err(RecError::RecordTooLarge(len));
    }
    let total = REC_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(RecError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let payload = &buf[REC_HEADER_LEN..total];
    let (rec, used) = match kind {
        KIND_EVENT => decode_event_body(payload).map(|(ev, n)| (Record::Event(ev), n)),
        KIND_SNAPSHOT => decode_snapshot_body(payload).map(|(s, n)| (Record::Snapshot(s), n)),
        k => return Err(RecError::UnknownKind(k)),
    }
    .map_err(|e| match e {
        RecError::Truncated { .. } => RecError::BadValue("payload overruns record length"),
        other => other,
    })?;
    if used != payload.len() {
        return Err(RecError::TrailingBytes(payload.len() - used));
    }
    Ok((rec, total))
}

/// Strictly decode a whole buffer of concatenated records; any torn
/// tail or corruption is an error.
pub fn decode_records(buf: &[u8]) -> Result<Vec<Record>, RecError> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        let (rec, n) = decode_record(&buf[pos..])?;
        out.push(rec);
        pos += n;
    }
    Ok(out)
}

/// Result of a tolerant [`scan_records`] pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Scan {
    /// Records decoded before the buffer ended (or went bad).
    pub records: Vec<Record>,
    /// Bytes consumed by those records.
    pub consumed: usize,
    /// The buffer ended mid-record (a torn tail — expected after a
    /// crash mid-append).
    pub truncated: bool,
    /// Decoding stopped on corruption (anything other than a torn
    /// tail); the typed error that stopped it.
    pub corrupt: Option<RecError>,
}

/// Tolerantly decode a buffer: everything before the first torn tail
/// or corrupt byte is recovered. Never panics, never errors.
pub fn scan_records(buf: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut pos = 0;
    let (mut truncated, mut corrupt) = (false, None);
    while pos < buf.len() {
        match decode_record(&buf[pos..]) {
            Ok((rec, n)) => {
                records.push(rec);
                pos += n;
            }
            Err(RecError::Truncated { .. }) => {
                truncated = true;
                break;
            }
            Err(e) => {
                corrupt = Some(e);
                break;
            }
        }
    }
    Scan {
        records,
        consumed: pos,
        truncated,
        corrupt,
    }
}

// ------------------------------------------------------------- recorder

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Vec<u8>>,
    bytes: usize,
    max_bytes: usize,
    dropped: u64,
    /// Records ever pushed (kept under the ring lock so the hot path
    /// pays no extra atomic).
    total: u64,
    /// Capacity recycled from the last eviction: in steady state
    /// (ring full) each push reuses the evicted record's allocation
    /// instead of paying an alloc/free pair per event.
    spare: Vec<u8>,
}

impl Ring {
    fn push(&mut self, rec: Vec<u8>) {
        self.total += 1;
        while !self.buf.is_empty() && self.bytes + rec.len() > self.max_bytes {
            let old = self.buf.pop_front().expect("non-empty ring");
            self.bytes -= old.len();
            self.dropped += 1;
            if old.capacity() > self.spare.capacity() {
                self.spare = old;
            }
        }
        self.bytes += rec.len();
        self.buf.push_back(rec);
    }

    fn take_spare(&mut self) -> Vec<u8> {
        let mut spare = std::mem::take(&mut self.spare);
        spare.clear();
        spare
    }
}

#[derive(Debug)]
struct RecorderInner {
    ring: Mutex<Ring>,
    writer: Mutex<Option<SegmentWriter>>,
    has_writer: AtomicBool,
    write_errors: AtomicU64,
}

/// The flight recorder: a byte-budgeted drop-oldest ring of encoded
/// records, optionally write-through to a rotating [`SegmentWriter`].
/// Cloning shares the recorder (an `Arc`); encoding happens outside
/// the lock so the per-record critical section is a deque push.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl FlightRecorder {
    /// A ring-only recorder retaining at most `max_ring_bytes` of
    /// encoded records (oldest evicted first).
    pub fn new(max_ring_bytes: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    bytes: 0,
                    max_bytes: max_ring_bytes.max(REC_HEADER_LEN),
                    dropped: 0,
                    total: 0,
                    spare: Vec::new(),
                }),
                writer: Mutex::new(None),
                has_writer: AtomicBool::new(false),
                write_errors: AtomicU64::new(0),
            }),
        }
    }

    /// A recorder that also writes every record through to rotating
    /// segment files.
    pub fn with_writer(max_ring_bytes: usize, writer: SegmentWriter) -> Self {
        let rec = FlightRecorder::new(max_ring_bytes);
        *rec.inner.writer.lock() = Some(writer);
        rec.inner.has_writer.store(true, Ordering::Relaxed);
        rec
    }

    fn push(&self, encoded: Vec<u8>) {
        if self.inner.has_writer.load(Ordering::Relaxed) {
            let mut w = self.inner.writer.lock();
            if let Some(w) = w.as_mut() {
                if w.append(&encoded).is_err() {
                    self.inner.write_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.inner.ring.lock().push(encoded);
    }

    /// Record one trace event. Ring-only recorders (the probe-site hot
    /// path) encode straight into capacity recycled from the eviction
    /// side of the ring — steady state is alloc-free.
    pub fn record_event(&self, ev: &TraceEvent) {
        if self.inner.has_writer.load(Ordering::Relaxed) {
            self.push(encode_event(ev));
            return;
        }
        let mut ring = self.inner.ring.lock();
        let mut buf = ring.take_spare();
        encode_event_into(ev, &mut buf);
        ring.push(buf);
    }

    /// Record one registry snapshot.
    pub fn record_snapshot(&self, at_us: u64, metrics: &[MetricSnapshot]) {
        self.push(encode_snapshot(at_us, metrics));
    }

    /// Total records accepted so far.
    pub fn records(&self) -> u64 {
        self.inner.ring.lock().total
    }

    /// Records evicted from the ring by the byte budget.
    pub fn ring_dropped(&self) -> u64 {
        self.inner.ring.lock().dropped
    }

    /// Encoded bytes currently held in the ring.
    pub fn ring_bytes(&self) -> usize {
        self.inner.ring.lock().bytes
    }

    /// Segment-append failures (I/O errors); the ring still kept those
    /// records.
    pub fn write_errors(&self) -> u64 {
        self.inner.write_errors.load(Ordering::Relaxed)
    }

    /// Decode the records currently in the ring, oldest first.
    pub fn ring_records(&self) -> Vec<Record> {
        let ring = self.inner.ring.lock();
        ring.buf
            .iter()
            .filter_map(|b| decode_record(b).ok().map(|(r, _)| r))
            .collect()
    }

    /// Write the ring's current contents to a single recording file.
    pub fn dump(&self, path: &Path) -> io::Result<()> {
        let chunks: Vec<Vec<u8>> = {
            let ring = self.inner.ring.lock();
            ring.buf.iter().cloned().collect()
        };
        let mut out = BufWriter::new(File::create(path)?);
        for c in &chunks {
            out.write_all(c)?;
        }
        out.flush()
    }

    /// Flush the segment writer, if any.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(w) = self.inner.writer.lock().as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    /// Paths of the retained segments, oldest first (empty for a
    /// ring-only recorder).
    pub fn segments(&self) -> Vec<PathBuf> {
        self.inner
            .writer
            .lock()
            .as_ref()
            .map_or_else(Vec::new, |w| w.segments())
    }
}

/// Rotating segment writer: appends records to
/// `<dir>/<prefix>-NNNNNN.qrec`, starts a new segment when the current
/// one would exceed `max_segment_bytes`, and deletes the oldest
/// segment beyond `max_segments`.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    prefix: String,
    max_segment_bytes: u64,
    max_segments: usize,
    seq: u32,
    out: BufWriter<File>,
    current_bytes: u64,
    retained: VecDeque<PathBuf>,
}

impl SegmentWriter {
    /// Create a writer in `dir` (created if missing), starting at
    /// segment 0. Existing files with the same prefix are overwritten
    /// as their sequence numbers come up.
    pub fn create(
        dir: &Path,
        prefix: &str,
        max_segment_bytes: u64,
        max_segments: usize,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let first = segment_path(dir, prefix, 0);
        let out = BufWriter::new(File::create(&first)?);
        let mut retained = VecDeque::new();
        retained.push_back(first);
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            max_segment_bytes: max_segment_bytes.max(REC_HEADER_LEN as u64),
            max_segments: max_segments.max(1),
            seq: 0,
            out,
            current_bytes: 0,
            retained,
        })
    }

    /// Append one encoded record, rotating first if it would overflow
    /// the current segment.
    pub fn append(&mut self, record: &[u8]) -> io::Result<()> {
        if self.current_bytes > 0
            && self.current_bytes + record.len() as u64 > self.max_segment_bytes
        {
            self.rotate()?;
        }
        if record.len() > REC_HEADER_LEN && qos_buggify::buggify!("rec.write.tear") {
            // Simulated crash mid-append: leave a half-written record
            // at this segment's tail and resume on a fresh segment, as
            // a restart would.
            let cut = record.len() / 2;
            self.out.write_all(&record[..cut])?;
            self.current_bytes += cut as u64;
            return self.rotate();
        }
        self.out.write_all(record)?;
        self.current_bytes += record.len() as u64;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.out.flush()?;
        self.seq += 1;
        let path = segment_path(&self.dir, &self.prefix, self.seq);
        self.out = BufWriter::new(File::create(&path)?);
        self.current_bytes = 0;
        self.retained.push_back(path);
        while self.retained.len() > self.max_segments {
            if let Some(old) = self.retained.pop_front() {
                let _ = fs::remove_file(old);
            }
        }
        Ok(())
    }

    /// Flush buffered bytes to the current segment file.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Paths of the retained segments, oldest first.
    pub fn segments(&self) -> Vec<PathBuf> {
        self.retained.iter().cloned().collect()
    }
}

fn segment_path(dir: &Path, prefix: &str, seq: u32) -> PathBuf {
    dir.join(format!("{prefix}-{seq:06}.{SEGMENT_EXT}"))
}

// --------------------------------------------------------------- reader

/// A replayed recording: every record recovered from one or more
/// segments, plus what (if anything) stopped each segment early.
#[derive(Clone, Debug, PartialEq)]
pub struct Recording {
    /// All recovered records, in write order across segments.
    pub records: Vec<Record>,
    /// At least one segment ended mid-record (torn tail).
    pub truncated: bool,
    /// First corruption encountered (decoding of that segment stopped
    /// there; later segments were still read).
    pub corrupt: Option<RecError>,
    /// Number of segments read.
    pub segments: usize,
}

impl Recording {
    /// Tolerantly decode a single in-memory segment.
    pub fn from_bytes(buf: &[u8]) -> Recording {
        let scan = scan_records(buf);
        Recording {
            records: scan.records,
            truncated: scan.truncated,
            corrupt: scan.corrupt,
            segments: 1,
        }
    }

    /// The recovered trace events, in write order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Event(ev) => Some(ev.clone()),
                Record::Snapshot(_) => None,
            })
            .collect()
    }

    /// The recovered metrics snapshots, in write order.
    pub fn snapshots(&self) -> Vec<&SnapshotRecord> {
        self.records
            .iter()
            .filter_map(|r| match r {
                Record::Snapshot(s) => Some(s),
                Record::Event(_) => None,
            })
            .collect()
    }

    /// The last (most recent) metrics snapshot, if any.
    pub fn last_snapshot(&self) -> Option<&SnapshotRecord> {
        self.records.iter().rev().find_map(|r| match r {
            Record::Snapshot(s) => Some(s),
            Record::Event(_) => None,
        })
    }

    /// Reconstruct violation lifecycles from the recovered events.
    pub fn lifecycles(&self) -> Vec<Lifecycle> {
        reconstruct(&self.events())
    }
}

/// Read one recording file tolerantly (torn tails and corruption
/// recover the prefix; only I/O failures error).
pub fn read_recording(path: &Path) -> io::Result<Recording> {
    let bytes = fs::read(path)?;
    Ok(Recording::from_bytes(&bytes))
}

/// Read every `<prefix>-*.qrec` segment in `dir`, in sequence order,
/// merging them into one recording.
pub fn read_recording_dir(dir: &Path, prefix: &str) -> io::Result<Recording> {
    let want_prefix = format!("{prefix}-");
    let want_suffix = format!(".{SEGMENT_EXT}");
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&want_prefix) && n.ends_with(&want_suffix))
        })
        .collect();
    // Zero-padded sequence numbers make lexicographic order write order.
    paths.sort();
    let mut rec = Recording {
        records: Vec::new(),
        truncated: false,
        corrupt: None,
        segments: 0,
    };
    for p in &paths {
        let bytes = fs::read(p)?;
        let scan = scan_records(&bytes);
        rec.records.extend(scan.records);
        rec.truncated |= scan.truncated;
        if rec.corrupt.is_none() {
            rec.corrupt = scan.corrupt;
        }
        rec.segments += 1;
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, corr: u64, stage: Stage) -> TraceEvent {
        TraceEvent {
            at_us: at,
            corr,
            stage,
            component: "client-0".into(),
            name: "NotifyQoSViolation".into(),
            fields: vec![("fps", 19.5), ("budget", 25.0)].into(),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("qrec-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn event_and_snapshot_records_roundtrip() {
        let e = ev(10, 7, Stage::Detect);
        let mut h = HistogramSnapshot::empty();
        h.count = 3;
        h.sum = 12;
        h.max = 8;
        h.buckets[0] = 1;
        h.buckets[4] = 2;
        let metrics = vec![
            MetricSnapshot {
                family: "hm.violations".into(),
                label: "h0".into(),
                value: MetricValue::Counter(5),
            },
            MetricSnapshot {
                family: "video.fps".into(),
                label: "client-0".into(),
                value: MetricValue::Gauge(24.5),
            },
            MetricSnapshot {
                family: "lat".into(),
                label: "".into(),
                value: MetricValue::Histogram(Box::new(h)),
            },
        ];
        let mut buf = encode_event(&e);
        buf.extend_from_slice(&encode_snapshot(99, &metrics));
        let recs = decode_records(&buf).expect("clean buffer decodes strictly");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], Record::Event(e));
        assert_eq!(
            recs[1],
            Record::Snapshot(SnapshotRecord { at_us: 99, metrics })
        );
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let mut buf = Vec::new();
        for i in 0..3u64 {
            buf.extend_from_slice(&encode_event(&ev(i, i + 1, Stage::Mark)));
        }
        let cut = buf.len() - 5;
        let scan = scan_records(&buf[..cut]);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.truncated);
        assert_eq!(scan.corrupt, None);
        // Strict decode reports the torn tail as a typed error.
        assert!(matches!(
            decode_records(&buf[..cut]),
            Err(RecError::Truncated { .. })
        ));
    }

    #[test]
    fn corruption_yields_typed_errors_never_panics() {
        let one = encode_event(&ev(5, 1, Stage::Report));
        // Flip the magic of a second record mid-stream.
        let mut buf = one.clone();
        let mut bad = one.clone();
        bad[0] = b'X';
        buf.extend_from_slice(&bad);
        let scan = scan_records(&buf);
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.truncated);
        assert_eq!(scan.corrupt, Some(RecError::BadMagic([b'X', b'R'])));

        // Every single-byte mutation decodes to Ok or a typed error.
        for i in 0..one.len() {
            let mut m = one.clone();
            m[i] ^= 0xff;
            let _ = decode_record(&m);
            let _ = scan_records(&m);
        }
        // Bad version, kind, oversized length, payload overrun.
        let mut v = one.clone();
        v[2] = 9;
        assert_eq!(decode_record(&v), Err(RecError::UnsupportedVersion(9)));
        let mut k = one.clone();
        k[3] = 42;
        assert_eq!(decode_record(&k), Err(RecError::UnknownKind(42)));
        let mut big = one.clone();
        big[4..8].copy_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        assert_eq!(
            decode_record(&big),
            Err(RecError::RecordTooLarge(MAX_RECORD_LEN + 1))
        );
        // Inflate an inner string length: overrun is corruption, not
        // truncation.
        let mut over = one.clone();
        over[REC_HEADER_LEN + 17..REC_HEADER_LEN + 21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_record(&over),
            Err(RecError::BadValue("payload overruns record length"))
        );
    }

    #[test]
    fn ring_evicts_oldest_by_byte_budget() {
        let one_len = encode_event(&ev(0, 1, Stage::Mark)).len();
        let rec = FlightRecorder::new(one_len * 3);
        for i in 0..10u64 {
            rec.record_event(&ev(i, i + 1, Stage::Mark));
        }
        assert_eq!(rec.records(), 10);
        assert_eq!(rec.ring_dropped(), 7);
        assert!(rec.ring_bytes() <= one_len * 3);
        let ats: Vec<u64> = rec
            .ring_records()
            .iter()
            .map(|r| match r {
                Record::Event(e) => e.at_us,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ats, [7, 8, 9], "newest records survive");
    }

    #[test]
    fn dump_and_read_recording_roundtrip() {
        let dir = temp_dir("dump");
        fs::create_dir_all(&dir).unwrap();
        let rec = FlightRecorder::new(DEFAULT_RING_BYTES);
        for i in 0..5u64 {
            rec.record_event(&ev(i * 10, i + 1, Stage::Detect));
        }
        rec.record_snapshot(
            60,
            &[MetricSnapshot {
                family: "c".into(),
                label: "".into(),
                value: MetricValue::Counter(5),
            }],
        );
        let path = dir.join("run.qrec");
        rec.dump(&path).unwrap();
        let replay = read_recording(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.corrupt, None);
        assert_eq!(replay.records.len(), 6);
        assert_eq!(replay.events().len(), 5);
        assert_eq!(replay.last_snapshot().unwrap().at_us, 60);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_writer_rotates_and_retains() {
        let dir = temp_dir("rotate");
        let one_len = encode_event(&ev(0, 1, Stage::Mark)).len() as u64;
        // Two records per segment, keep at most three segments.
        let w = SegmentWriter::create(&dir, "run", one_len * 2, 3).unwrap();
        let rec = FlightRecorder::with_writer(DEFAULT_RING_BYTES, w);
        for i in 0..10u64 {
            rec.record_event(&ev(i, i + 1, Stage::Mark));
        }
        rec.flush().unwrap();
        let segs = rec.segments();
        assert_eq!(segs.len(), 3, "retention cap holds");
        let replay = read_recording_dir(&dir, "run").unwrap();
        assert_eq!(replay.segments, 3);
        assert!(!replay.truncated);
        assert_eq!(replay.corrupt, None);
        let ats: Vec<u64> = replay.events().iter().map(|e| e.at_us).collect();
        assert_eq!(ats, [4, 5, 6, 7, 8, 9], "oldest segments were deleted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(debug_assertions)]
    #[cfg(not(feature = "telemetry-off"))]
    #[test]
    fn torn_append_recovers_everything_but_the_torn_record() {
        if !qos_buggify::compiled_in() {
            return;
        }
        let dir = temp_dir("tear");
        let w = SegmentWriter::create(&dir, "run", 1 << 20, 16).unwrap();
        let rec = FlightRecorder::with_writer(DEFAULT_RING_BYTES, w);
        qos_buggify::enable_with(42, 0.0);
        rec.record_event(&ev(0, 1, Stage::Detect));
        qos_buggify::force("rec.write.tear", 1);
        rec.record_event(&ev(1, 2, Stage::Detect)); // torn
        rec.record_event(&ev(2, 3, Stage::Detect));
        qos_buggify::disable();
        rec.flush().unwrap();
        let replay = read_recording_dir(&dir, "run").unwrap();
        assert!(replay.truncated, "torn tail must be visible");
        assert_eq!(replay.corrupt, None, "a tear is truncation, not corruption");
        let ats: Vec<u64> = replay.events().iter().map(|e| e.at_us).collect();
        assert_eq!(ats, [0, 2], "records on either side of the tear survive");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_inputs_are_clean() {
        assert_eq!(decode_records(&[]).unwrap(), Vec::new());
        let scan = scan_records(&[]);
        assert!(scan.records.is_empty() && !scan.truncated && scan.corrupt.is_none());
        let r = Recording::from_bytes(&[]);
        assert!(r.events().is_empty() && r.lifecycles().is_empty());
    }
}
