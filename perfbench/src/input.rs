//! Workload inputs, built before anything is timed, and the sequential
//! `Analyzer` oracle every run is checked against.

use std::io::Read;
use std::sync::Arc;
use std::time::Instant;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::AnalysisReport;
use zoom_analysis::PacketSink;
use zoom_sim::campus::CampusStream;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::frame::{FrameEvent, FrameReader, FrameWriter, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record, SliceReader, Writer};

/// Records per hand-off batch into the engine (the engine's own shard
/// batch size, and what a capture ring delivers).
pub const BATCH: usize = 256;

/// Trace length of `sim:campus-10x`: the campus arrival model draws
/// meetings per whole minute, and 60 s is the standard load's length.
const CAMPUS_SECS: u64 = 60;
/// Zoom records every `campus-10x` input is pinned to (the mean over
/// seeds of the unpinned scenario is ~1.7 M).
const CAMPUS_RECORDS: u64 = 1_600_000;

/// The live tap's campus: one minute at scale 3. At scale 12 a minute
/// with background traffic would hold ~3 M pre-built records (~2 GB);
/// scale 3 keeps the meeting-size, media and churn mix at a quarter of
/// the density, so two passes yield the 100+ one-second windows a p90
/// needs in about ten seconds at the offered rate.
const LIVE_SECS: u64 = 60;
const LIVE_SCALE: f64 = 3.0;
/// Background packets per Zoom packet, expressed against the paper's
/// full-campus rate: 0.08 at scale 3 yields about one background record
/// per Zoom record.
const LIVE_BACKGROUND: f64 = 0.08;
/// Zoom records the live tap's campus is pinned to.
const LIVE_RECORDS: u64 = 550_000;

/// How far past its target a pinned campus may run.
const PIN_SLACK: f64 = 0.02;
/// The meeting pool a pinned campus is drawn from, relative to its
/// scale. The scale sets only the arrival rate, so a larger pool changes
/// no meeting's make-up; 4× keeps even a sparse seed at scale 3 well
/// above its target.
const POOL_FACTOR: f64 = 4.0;

/// A campus whose Zoom load is pinned to `target` records (+2%).
///
/// The campus model draws its meeting count from a Poisson process and
/// meeting sizes from a heavy-tailed mix (one 20-person meeting fans out
/// to ~200 k records), so unpinned seeds of one scenario differ by ±25%
/// in records and state; a metric compared across seeds would measure
/// the seed. The pin draws meetings from a pool 4× the scale, in the
/// model's own (random) order, keeping each whose records still fit, so
/// every seed offers the same load with its own meetings, sizes,
/// addresses and timings. Background traffic keeps the rate `scale`
/// and `background` define.
fn pinned_campus(seed: u64, secs: u64, scale: f64, background: f64, target: u64) -> CampusStream {
    let pool = scale * POOL_FACTOR;
    let (mut campus, _infra) =
        scenario::campus_study(seed, secs * SEC, pool, background / POOL_FACTOR);
    let limit = (target as f64 * (1.0 + PIN_SLACK)) as u64;
    let mut total = 0u64;
    let mut kept = Vec::new();
    for m in std::mem::take(&mut campus.meetings) {
        if total >= target {
            break;
        }
        let n = MeetingSim::new(m.clone()).count() as u64;
        if total + n <= limit {
            total += n;
            kept.push(m);
        }
    }
    assert!(
        total >= target,
        "seed {seed}: the meeting pool holds only {total} records"
    );
    campus.meetings = kept;
    campus.into_stream()
}

/// `sim:campus-10x` for `seed`, pinned to [`CAMPUS_RECORDS`], in
/// capture (timestamp) order.
pub fn campus_10x(seed: u64) -> impl Iterator<Item = Record> {
    pinned_campus(
        seed,
        CAMPUS_SECS,
        scenario::CAMPUS_10X_SCALE,
        0.0,
        CAMPUS_RECORDS,
    )
}

/// The live tap's traffic: the campus with background traffic, plus the
/// `webrtc` scenario's calls, merged by timestamp into one arena.
pub fn live_tap(seed: u64) -> RecordBatch {
    let campus = pinned_campus(seed, LIVE_SECS, LIVE_SCALE, LIVE_BACKGROUND, LIVE_RECORDS);
    let mut rtc = zoom_sim::webrtc::scenario(seed, LIVE_SECS * SEC)
        .into_iter()
        .peekable();
    let mut out = RecordBatch::new();
    for r in campus {
        while let Some(w) = rtc.next_if(|w| w.ts_nanos < r.ts_nanos) {
            out.push(w.ts_nanos, w.orig_len, &w.data);
        }
        out.push(r.ts_nanos, r.orig_len, &r.data);
    }
    for w in rtc {
        out.push(w.ts_nanos, w.orig_len, &w.data);
    }
    out
}

/// Records as an in-memory pcap file.
pub fn pcap_image(records: impl Iterator<Item = Record>) -> Vec<u8> {
    let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("in-memory pcap header");
    for r in records {
        w.write_record(&r).expect("in-memory pcap record");
    }
    w.finish().expect("in-memory pcap flush")
}

/// Fills `batch` with up to [`BATCH`] records from `reader`; false once
/// the image is exhausted.
pub fn fill_from_pcap(reader: &mut SliceReader<'_>, batch: &mut RecordBatch) -> bool {
    batch.clear();
    while batch.len() < BATCH {
        match reader
            .next_record()
            .expect("benchmark-built pcap image is well formed")
        {
            Some(r) => batch.push(r.ts_nanos, r.orig_len, r.data),
            None => break,
        }
    }
    !batch.is_empty()
}

/// Copies records `[from, from + n)` of `store` into `batch`.
pub fn copy_range(store: &RecordBatch, from: usize, n: usize, batch: &mut RecordBatch) {
    batch.clear();
    for i in from..(from + n).min(store.len()) {
        let r = store.get(i).expect("index below len");
        batch.push(r.ts_nanos, r.orig_len, r.data);
    }
}

/// One worker's ZFRG fragment stream, shared so every pass can read it
/// without copying.
#[derive(Clone)]
pub struct SharedStream {
    bytes: Arc<Vec<u8>>,
    pos: usize,
}

impl Read for SharedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.bytes[self.pos..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }
}

/// The records dealt round-robin to worker fragment streams, and what
/// encoding them cost.
pub struct Fragments {
    pub streams: Vec<SharedStream>,
    pub records: u64,
    /// Time inside `FrameWriter::write_batch`.
    pub encode_ns: u64,
    pub bytes: u64,
}

/// Deals `records` round-robin to `workers` workers and encodes each
/// share as that worker would ship it: a Hello, one Records frame per
/// [`BATCH`]-record batch, and a Bye with its totals.
pub fn encode_fragments(records: impl Iterator<Item = Record>, workers: usize) -> Fragments {
    struct Share {
        writer: FrameWriter<Vec<u8>>,
        batch: RecordBatch,
        totals: Totals,
    }
    let mut shares: Vec<Share> = (0..workers)
        .map(|i| Share {
            writer: FrameWriter::new(Vec::new(), &format!("w{i}"), LinkType::Ethernet)
                .expect("in-memory frame header"),
            batch: RecordBatch::new(),
            totals: Totals::default(),
        })
        .collect();
    let mut encode_ns = 0u64;
    let mut write = |s: &mut Share| {
        if s.batch.is_empty() {
            return;
        }
        let t = Instant::now();
        s.writer
            .write_batch(&s.batch)
            .expect("in-memory records frame");
        encode_ns += t.elapsed().as_nanos() as u64;
        s.totals.batches += 1;
        s.batch.clear();
    };
    let mut records_total = 0u64;
    for (i, r) in records.enumerate() {
        let s = &mut shares[i % workers];
        s.batch.push(r.ts_nanos, r.orig_len, &r.data);
        s.totals.packets += 1;
        s.totals.bytes += r.data.len() as u64;
        records_total += 1;
        if s.batch.len() == BATCH {
            write(s);
        }
    }
    let mut streams = Vec::with_capacity(workers);
    let mut bytes = 0u64;
    for mut s in shares {
        write(&mut s);
        let out = s.writer.finish(s.totals).expect("in-memory bye frame");
        bytes += out.len() as u64;
        streams.push(SharedStream {
            bytes: Arc::new(out),
            pos: 0,
        });
    }
    Fragments {
        streams,
        records: records_total,
        encode_ns,
        bytes,
    }
}

/// Re-reads fragment streams and merges their records in `(ts, lane)`
/// order — the order a merge node's fan-in defines — independently of
/// the capture mux under test.
pub struct FragmentMerge {
    lanes: Vec<(FrameReader<SharedStream>, RecordBatch, usize, bool)>,
}

impl FragmentMerge {
    pub fn new(streams: &[SharedStream]) -> FragmentMerge {
        FragmentMerge {
            lanes: streams
                .iter()
                .map(|s| {
                    let r = FrameReader::new(s.clone()).expect("benchmark-built fragment stream");
                    (r, RecordBatch::new(), 0, false)
                })
                .collect(),
        }
    }

    /// Fills `out` with up to [`BATCH`] merged records; false when done.
    pub fn fill(&mut self, out: &mut RecordBatch) -> bool {
        out.clear();
        while out.len() < BATCH {
            let mut best: Option<(u64, usize)> = None;
            for (i, (reader, batch, cursor, done)) in self.lanes.iter_mut().enumerate() {
                while *cursor >= batch.len() && !*done {
                    batch.clear();
                    *cursor = 0;
                    match reader.next(batch).expect("benchmark-built fragment stream") {
                        Some(FrameEvent::Bye(_)) | None => *done = true,
                        Some(_) => {}
                    }
                }
                if let Some(r) = batch.get(*cursor) {
                    if best.is_none_or(|(ts, _)| r.ts_nanos < ts) {
                        best = Some((r.ts_nanos, i));
                    }
                }
            }
            let Some((_, i)) = best else { break };
            let (_, batch, cursor, _) = &mut self.lanes[i];
            let r = batch.get(*cursor).expect("best lane has a record");
            out.push(r.ts_nanos, r.orig_len, r.data);
            *cursor += 1;
        }
        !out.is_empty()
    }
}

/// The sequential analyzer's verdict on the offered records.
pub struct Oracle {
    pub report: AnalysisReport,
    pub json: String,
    pub records: u64,
    /// Time inside `Analyzer::push_batch` and `finish`.
    pub ns: u64,
}

/// Runs the sequential `Analyzer` over the batches `next` yields.
pub fn oracle(mut next: impl FnMut(&mut RecordBatch) -> bool) -> Oracle {
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let mut batch = RecordBatch::new();
    let (mut ns, mut records) = (0u64, 0u64);
    while next(&mut batch) {
        let t = Instant::now();
        analyzer
            .push_batch(&batch, LinkType::Ethernet)
            .expect("sequential analyzer accepts every record");
        ns += t.elapsed().as_nanos() as u64;
        records += batch.len() as u64;
    }
    let t = Instant::now();
    let report = analyzer.finish().expect("sequential analyzer finishes");
    ns += t.elapsed().as_nanos() as u64;
    Oracle {
        json: report.to_json(),
        report,
        records,
        ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, tag: u8) -> Record {
        Record::full(ts, vec![tag; 60])
    }

    #[test]
    fn fragment_merge_orders_by_timestamp_then_lane() {
        // Dealt round-robin: lane 0 gets ts 5 (tag 0) and 7 (tag 2),
        // lane 1 gets ts 5 (tag 1) and 6 (tag 3).
        let records = vec![rec(5, 0), rec(5, 1), rec(7, 2), rec(6, 3)];
        let f = encode_fragments(records.into_iter(), 2);
        assert_eq!(f.records, 4);
        let mut merge = FragmentMerge::new(&f.streams);
        let mut out = RecordBatch::new();
        assert!(merge.fill(&mut out));
        let got: Vec<(u64, u8)> = out.iter().map(|r| (r.ts_nanos, r.data[0])).collect();
        assert_eq!(got, vec![(5, 0), (5, 1), (6, 3), (7, 2)]);
        assert!(!merge.fill(&mut out));
    }
}
