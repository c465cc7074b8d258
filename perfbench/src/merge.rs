//! `merge-2w`: the `offline-campus` records dealt to two workers, each
//! share encoded as the ZFRG fragment stream that worker would ship; the
//! merge node decodes both through `FragmentSource` lanes and the
//! `CaptureMux` fan-in into a 10 s windowed engine (the distributed
//! tier of `docs/DISTRIBUTED.md`). Closed loop: lanes decode as fast as
//! the merge consumes.

use crate::input::{self, Fragments, Oracle, BATCH};
use crate::pass::{Meter, Pass, ThreadWatch};
use crate::{alloc, check, spans, sys};
use std::time::{Duration, Instant};
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::PacketSink;
use zoom_capture::fragment::FragmentSource;
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::PacketSource;
use zoom_wire::handoff::RecordBatch;

const WORKERS: usize = 2;
/// Records per fan-in drain (the CLI's merge batch).
const MUX_BATCH: usize = 1024;

pub struct Merge {
    pub fragments: Fragments,
    pub oracle: Oracle,
}

fn config() -> EngineConfig {
    EngineConfig {
        shards: sys::nproc(),
        window: Some(Duration::from_secs(10)),
        ..EngineConfig::default()
    }
}

/// The merge node's set-up: engine, fragment lanes, fan-in.
fn start(fragments: &Fragments) -> (StreamingEngine, CaptureMux, Vec<u64>, Vec<u64>) {
    let before = sys::task_ids();
    let engine = StreamingEngine::new(config()).expect("valid engine config");
    let shards = sys::new_tasks(&before);
    let sources: Vec<Box<dyn PacketSource>> = fragments
        .streams
        .iter()
        .map(|s| {
            Box::new(FragmentSource::open(s.clone()).expect("benchmark-built fragment stream"))
                as Box<dyn PacketSource>
        })
        .collect();
    let before = sys::task_ids();
    let mux = CaptureMux::start(
        sources,
        MuxConfig {
            ring_capacity: 8,
            overflow: Overflow::Block,
        },
        Some(&engine.metrics_handle()),
    );
    let lanes = sys::new_tasks(&before);
    (engine, mux, shards, lanes)
}

impl Merge {
    pub fn build(seed: u64) -> Merge {
        let fragments = input::encode_fragments(input::campus_10x(seed), WORKERS);
        let mut merged = input::FragmentMerge::new(&fragments.streams);
        let oracle = input::oracle(|b| merged.fill(b));
        assert_eq!(
            oracle.records, fragments.records,
            "oracle saw every dealt record"
        );
        Merge { fragments, oracle }
    }

    pub fn for_each_batch(&self, mut f: impl FnMut(&RecordBatch)) {
        let mut merged = input::FragmentMerge::new(&self.fragments.streams);
        let mut batch = RecordBatch::new();
        while merged.fill(&mut batch) {
            f(&batch);
        }
    }

    pub fn setup_probe(&self) -> f64 {
        let t = Instant::now();
        let (mut engine, mut mux, _, _) = start(&self.fragments);
        let mut batch = RecordBatch::new();
        // One engine batch: a larger first read would race the lanes'
        // decoding and make the probe bimodal.
        let link = mux
            .next_batch(&mut batch, BATCH)
            .expect("fragment lanes decode")
            .expect("the streams hold records");
        engine
            .push_batch(&batch, link)
            .expect("engine accepts the batch");
        let setup = t.elapsed().as_secs_f64();
        mux.finish().expect("fan-in shuts down");
        engine.drain().expect("engine drains");
        setup
    }

    pub fn pass(&self, traced: bool) -> Pass {
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let mut watch = ThreadWatch::new();
        let (mut engine, mut mux, shards, lanes) = start(&self.fragments);
        (watch.shards, watch.lanes) = (shards, lanes);
        let mut batch = RecordBatch::new();
        let mut indices = Vec::new();

        spans::set_recording(traced);
        let meter = Meter::start(alloc::mark());
        watch.start();
        let t0 = Instant::now();
        let root = spans::span("pass");
        let mut calls = 0u64;
        loop {
            let next = spans::span("mux.next_batch");
            let Some(link) = mux
                .next_batch(&mut batch, MUX_BATCH)
                .expect("fragment lanes decode")
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
                indices.push(w.index);
                let _s = spans::span("report.window_render");
                std::hint::black_box(w.to_json());
            }
        }
        watch.sample();
        {
            let _s = spans::span("mux.finish");
            mux.finish().expect("fan-in shuts down");
        }
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
        meter.stop(&mut pass, 0);
        pass.wall_s = (end - t0).as_secs_f64();
        pass.threads = watch.finish();
        spans::set_recording(false);
        pass.spans = spans::take();

        let snapshot = out.analyzer.metrics();
        pass.lost = snapshot.ring_full_drops_total();
        pass.failure = check::same_bytes(&json, &self.oracle.json)
            .err()
            .or_else(|| check::contiguous(&indices).err())
            .or_else(|| {
                (!snapshot.conservation_holds()).then(|| "conservation does not hold".into())
            });
        pass.peak_tracked_entries = out.peak_tracked_entries as u64;
        pass.snapshot = Some(snapshot);
        pass
    }
}
