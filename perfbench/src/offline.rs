//! `offline-campus`: a finished `sim:campus-10x` trace, read from an
//! in-memory pcap image as fast as the engine accepts it (closed loop),
//! through the unwindowed sharded engine to drain and the final report.

use crate::input::{self, Oracle};
use crate::pass::{Meter, Pass, ThreadWatch};
use crate::{alloc, check, spans, sys};
use std::time::Instant;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::PacketSink;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::SliceReader;

pub struct Offline {
    image: Vec<u8>,
    pub oracle: Oracle,
}

fn config() -> EngineConfig {
    EngineConfig {
        shards: sys::nproc(),
        ..EngineConfig::default()
    }
}

impl Offline {
    pub fn build(seed: u64) -> Offline {
        let image = input::pcap_image(input::campus_10x(seed));
        let mut reader = SliceReader::new(&image).expect("benchmark-built pcap image");
        let oracle = input::oracle(|b| input::fill_from_pcap(&mut reader, b));
        Offline { image, oracle }
    }

    /// Every batch of the workload, for the standalone dissect pass.
    pub fn for_each_batch(&self, mut f: impl FnMut(&RecordBatch)) {
        let mut reader = SliceReader::new(&self.image).expect("benchmark-built pcap image");
        let mut batch = RecordBatch::new();
        while input::fill_from_pcap(&mut reader, &mut batch) {
            f(&batch);
        }
    }

    /// Set-up until the first batch is accepted, then teardown.
    pub fn setup_probe(&self) -> f64 {
        let t = Instant::now();
        let mut engine = StreamingEngine::new(config()).expect("valid engine config");
        let mut reader = SliceReader::new(&self.image).expect("benchmark-built pcap image");
        let mut batch = RecordBatch::new();
        input::fill_from_pcap(&mut reader, &mut batch);
        engine
            .push_batch(&batch, reader.link_type())
            .expect("engine accepts the batch");
        let setup = t.elapsed().as_secs_f64();
        engine.drain().expect("engine drains");
        setup
    }

    pub fn pass(&self, traced: bool) -> Pass {
        let mut pass = Pass {
            traced,
            ..Pass::default()
        };
        let mut watch = ThreadWatch::new();
        let before = sys::task_ids();
        let mut engine = StreamingEngine::new(config()).expect("valid engine config");
        watch.shards = sys::new_tasks(&before);
        let mut reader = SliceReader::new(&self.image).expect("benchmark-built pcap image");
        let link = reader.link_type();
        let mut batch = RecordBatch::new();

        spans::set_recording(traced);
        let meter = Meter::start(alloc::mark());
        watch.start();
        let t0 = Instant::now();
        let root = spans::span("pass");
        loop {
            let read = spans::span("pcap.read");
            if !input::fill_from_pcap(&mut reader, &mut batch) {
                break;
            }
            read.records(batch.len());
            drop(read);
            let push = spans::span("engine.push");
            engine
                .push_batch(&batch, link)
                .expect("engine accepts the batch");
            push.records(batch.len());
            drop(push);
            pass.records += batch.len() as u64;
        }
        watch.sample();
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
        pass.failure = check::same_bytes(&json, &self.oracle.json)
            .err()
            .or_else(|| {
                (!snapshot.conservation_holds()).then(|| "conservation does not hold".into())
            });
        pass.peak_tracked_entries = out.peak_tracked_entries as u64;
        pass.snapshot = Some(snapshot);
        pass
    }
}
