//! `live-tap`: the production shape. A load-generator thread offers the
//! tap's traffic on a fixed schedule (open loop) into two `live_ring`
//! taps; `CaptureMux` fans them in with live drop semantics; the engine
//! runs 1 s windows with idle eviction and QoE alerting; the consumer
//! renders every window report and one Prometheus scrape per window.

use crate::input::{self, Oracle, BATCH};
use crate::pass::{Meter, Pass, ThreadWatch};
use crate::stats::{self, Schedule};
use crate::{alloc, check, spans, sys};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zoom_analysis::engine::{EngineConfig, QoeThresholds, StreamingEngine};
use zoom_analysis::PacketSink;
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::{live_ring, LiveHandle, PacketSource};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// The offered rate, records per second. Fixed once, at about half of
/// this workload's closed-loop capacity on the 2-core host the
/// benchmark was defined on (`README.md` records that measurement); it
/// is never re-tuned, so later changes show up as latency and CPU at
/// the same load.
pub const OFFERED_RATE: f64 = 300_000.0;
/// Taps the traffic is split over (records dealt round-robin).
const TAPS: usize = 2;
/// Tap ring depth, in generator batches (`BATCH / TAPS` records each).
const TAP_RING: usize = 64;
/// Fan-in ring depth per tap, in batches: ~65 k records per tap, enough
/// to ride out a window tick at the offered rate without dropping.
const MUX_RING: usize = 512;
const MUX_BATCH: usize = 1024;
/// One-second tumbling windows, a 5 s idle timeout.
const WINDOW: Duration = Duration::from_secs(1);
const IDLE: Duration = Duration::from_secs(5);

pub struct Live {
    store: Arc<RecordBatch>,
    ts: Vec<u64>,
    pub oracle: Oracle,
}

fn config() -> EngineConfig {
    EngineConfig {
        shards: sys::nproc(),
        window: Some(WINDOW),
        idle_timeout: Some(IDLE),
        qoe: Some(QoeThresholds::default()),
        ..EngineConfig::default()
    }
}

/// What the generator reports when it is done.
#[derive(Default)]
struct GenReport {
    late_ms: Vec<f64>,
    dropped: u64,
    cpu_ns: u64,
}

struct Taps {
    engine: StreamingEngine,
    mux: CaptureMux,
    handles: Vec<LiveHandle>,
    shards: Vec<u64>,
    lanes: Vec<u64>,
}

/// The monitor's set-up: engine, taps, fan-in with live drop semantics.
fn start() -> Taps {
    let before = sys::task_ids();
    let engine = StreamingEngine::new(config()).expect("valid engine config");
    let shards = sys::new_tasks(&before);
    let (handles, sources): (Vec<LiveHandle>, Vec<Box<dyn PacketSource>>) = (0..TAPS)
        .map(|i| {
            let (h, s) = live_ring(&format!("tap:{i}"), LinkType::Ethernet, TAP_RING);
            (h, Box::new(s) as Box<dyn PacketSource>)
        })
        .unzip();
    let before = sys::task_ids();
    let mux = CaptureMux::start(
        sources,
        MuxConfig {
            ring_capacity: MUX_RING,
            overflow: Overflow::Drop,
        },
        Some(&engine.metrics_handle()),
    );
    let lanes = sys::new_tasks(&before);
    Taps {
        engine,
        mux,
        handles,
        shards,
        lanes,
    }
}

/// Deals records `[from, from + n)` round-robin into one batch per tap.
fn deal(
    store: &RecordBatch,
    from: usize,
    n: usize,
    handles: &mut [LiveHandle],
) -> Vec<RecordBatch> {
    let mut batches: Vec<RecordBatch> = handles.iter_mut().map(LiveHandle::take_batch).collect();
    for i in from..(from + n).min(store.len()) {
        let r = store.get(i).expect("index below len");
        batches[i % TAPS].push(r.ts_nanos, r.orig_len, r.data);
    }
    batches
}

/// Spawns the load generator; it waits for the taps and a start
/// instant, then offers the whole store on `schedule`. A full tap ring
/// drops the batch.
fn spawn_generator(
    store: Arc<RecordBatch>,
    schedule: Schedule,
) -> (
    mpsc::Sender<(Vec<LiveHandle>, Instant)>,
    JoinHandle<GenReport>,
) {
    let (tx, rx) = mpsc::channel::<(Vec<LiveHandle>, Instant)>();
    let thread = std::thread::Builder::new()
        .name("loadgen".into())
        .spawn(move || {
            let Ok((mut handles, t0)) = rx.recv() else {
                return GenReport::default();
            };
            let cpu0 = sys::thread_cpu_ns();
            let mut report = GenReport::default();
            for (j, from) in (0..store.len()).step_by(BATCH).enumerate() {
                let batches = deal(&store, from, BATCH, &mut handles);
                let due = t0 + Duration::from_nanos(schedule.chunk_due_ns(j));
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now().duration_since(t0).as_nanos() as u64;
                report.late_ms.push(stats::lateness_ms(&schedule, j, sent));
                for (h, b) in handles.iter_mut().zip(batches) {
                    let n = b.len() as u64;
                    if h.try_push_batch(b).is_err() {
                        report.dropped += n;
                    }
                }
            }
            report.cpu_ns = sys::thread_cpu_ns() - cpu0;
            report
        })
        .expect("spawn load generator");
    (tx, thread)
}

impl Live {
    pub fn build(seed: u64) -> Live {
        let store = Arc::new(input::live_tap(seed));
        let ts = store.iter().map(|r| r.ts_nanos).collect();
        let mut next = 0;
        let oracle = input::oracle(|b| {
            input::copy_range(&store, next, BATCH, b);
            next += BATCH;
            !b.is_empty()
        });
        Live { store, ts, oracle }
    }

    pub fn for_each_batch(&self, mut f: impl FnMut(&RecordBatch)) {
        let mut batch = RecordBatch::new();
        for from in (0..self.store.len()).step_by(BATCH) {
            input::copy_range(&self.store, from, BATCH, &mut batch);
            f(&batch);
        }
    }

    /// Set-up until the first offered batch is accepted, then teardown.
    pub fn setup_probe(&self) -> f64 {
        let t = Instant::now();
        let mut taps = start();
        let first = deal(&self.store, 0, BATCH, &mut taps.handles);
        for (h, b) in taps.handles.iter_mut().zip(first) {
            h.try_push_batch(b).expect("an empty tap ring has room");
        }
        let mut batch = RecordBatch::new();
        let link = taps
            .mux
            .next_batch(&mut batch, MUX_BATCH)
            .expect("live taps deliver")
            .expect("the first batch was offered");
        taps.engine
            .push_batch(&batch, link)
            .expect("engine accepts the batch");
        let setup = t.elapsed().as_secs_f64();
        drop(taps.handles);
        while taps
            .mux
            .next_batch(&mut batch, MUX_BATCH)
            .expect("live taps deliver")
            .is_some()
        {}
        taps.mux.finish().expect("fan-in shuts down");
        taps.engine.drain().expect("engine drains");
        setup
    }

    /// One pass: the whole store offered once on the schedule.
    pub fn pass(&self, traced: bool) -> Pass {
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let schedule = Schedule::at_rate(BATCH, OFFERED_RATE);
        let (go, generator) = spawn_generator(Arc::clone(&self.store), schedule);
        let mut watch = ThreadWatch::new();
        let Taps {
            mut engine,
            mut mux,
            handles,
            shards,
            lanes,
        } = start();
        (watch.shards, watch.lanes) = (shards, lanes);
        let mut batch = RecordBatch::new();
        let mut closes: Vec<(u64, u64)> = Vec::new();
        let mut indices = Vec::new();

        spans::set_recording(traced);
        let meter = Meter::start(alloc::mark());
        watch.start();
        let t0 = Instant::now();
        go.send((handles, t0))
            .expect("generator waits for the taps");
        let root = spans::span("pass");
        let mut calls = 0u64;
        loop {
            let next = spans::span("mux.next_batch");
            let Some(link) = mux
                .next_batch(&mut batch, MUX_BATCH)
                .expect("live taps deliver")
            else {
                break;
            };
            next.records(batch.len());
            drop(next);
            let push = spans::span("engine.push");
            engine
                .push_batch(&batch, link)
                .expect("engine accepts the batch");
            let windows = engine.take_windows();
            let delivered = t0.elapsed().as_nanos() as u64;
            push.records(batch.len());
            push.end_as(if windows.is_empty() {
                "engine.push"
            } else {
                "engine.close_push"
            });
            pass.records += batch.len() as u64;
            calls += 1;
            if traced && calls.is_multiple_of(64) {
                // Lanes exit when their source runs dry: read them while
                // they are alive.
                watch.sample();
            }
            for w in windows {
                closes.push((w.end_nanos, delivered));
                indices.push(w.index);
                {
                    let _s = spans::span("report.window_render");
                    std::hint::black_box(w.to_json());
                }
                let _s = spans::span("obs.render_prom");
                std::hint::black_box(engine.metrics().to_prom());
            }
            let alerts = engine.take_alerts();
            if !alerts.is_empty() {
                let _s = spans::span("report.alert_render");
                for a in alerts {
                    std::hint::black_box(a.to_json());
                }
            }
        }
        watch.sample();
        {
            let _s = spans::span("mux.finish");
            mux.finish().expect("fan-in shuts down");
        }
        let gen = generator.join().expect("load generator finished");
        let out = {
            let _s = spans::span("engine.drain");
            engine.drain().expect("engine drains")
        };
        let json = {
            let _s = spans::span("report.final_render");
            out.report.to_json()
        };
        drop(root);
        let end = Instant::now();
        meter.stop(&mut pass, gen.cpu_ns);
        pass.wall_s = (end - t0).as_secs_f64();
        pass.threads = watch.finish();
        spans::set_recording(false);
        pass.spans = spans::take();
        std::hint::black_box(json);
        // Shards count what they classified asynchronously: the ledger
        // balances once drain has joined them.
        let snapshot = out.analyzer.metrics();

        pass.latencies_ms = closes
            .iter()
            .filter_map(|&(end, at)| stats::window_latency_ms(&self.ts, &schedule, end, at))
            .collect();
        pass.gen_late_ms = gen.late_ms;
        pass.lost = gen.dropped + snapshot.ring_full_drops_total();
        assert_eq!(
            pass.records + pass.lost,
            self.store.len() as u64,
            "every offered record is accepted or counted lost"
        );
        pass.records = self.store.len() as u64;
        // With ring drops the engine saw a subset of the records, so only
        // the ledger and the window sequence can be checked.
        pass.failure = (!snapshot.conservation_holds())
            .then(|| "conservation does not hold".to_string())
            .or_else(|| check::contiguous(&indices).err())
            .or_else(|| match pass.lost {
                0 => check::eviction_equivalent(&out.report, &self.oracle.report).err(),
                _ => None,
            });
        pass.peak_tracked_entries = out.peak_tracked_entries as u64;
        pass.snapshot = Some(snapshot);
        pass
    }
}
