//! The repository benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and per-layer metrics with tracing on.
//!
//! ```text
//! perfbench --workload offline-campus|live-tap|merge-2w --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its workload's input from the seed, computes the
//! sequential `Analyzer` oracle over it, then repeats passes (set-up,
//! every record offered, drain, final report), each after timed
//! set-ups, until `--seconds` have passed and enough results were seen. Every
//! pass is checked against the oracle. The last line of standard output
//! is the result object; the line before it records the run (seed, git
//! sha, host) with every figure behind the metrics. `README.md` in this
//! directory documents each metric, and why `BENCHMARK.json` does not
//! list `live-tap` (its correctness check fails on most seeds).

mod alloc;
mod check;
mod input;
mod json;
mod live;
mod merge;
mod offline;
mod pass;
mod spans;
mod stats;
mod sys;

use json::{Metric, Outcome};
use live::Live;
use merge::Merge;
use offline::Offline;
use pass::Pass;
use spans::Span;
use std::io::Write;
use std::time::{Duration, Instant};
use zoom_wire::dissect::{dissect_batch, peek_batch, P2pProbe, PacketClass, PeekArena};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups timed before each untraced pass, each until its first
/// 256-record batch is accepted. Spreading them over the run samples
/// the host's state for as long as the passes do.
const SETUP_PROBES: usize = 30;
/// Window results a `live-tap` run needs for its p90 (ten beyond it).
const MIN_WINDOWS: usize = 100;
/// Where runs leave their records and span dumps, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

enum Workload {
    Offline(Offline),
    Merge(Merge),
    Live(Live),
}

impl Workload {
    fn build(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "offline-campus" => Workload::Offline(Offline::build(seed)),
            "merge-2w" => Workload::Merge(Merge::build(seed)),
            "live-tap" => Workload::Live(Live::build(seed)),
            _ => return None,
        })
    }

    fn oracle(&self) -> &input::Oracle {
        match self {
            Workload::Offline(w) => &w.oracle,
            Workload::Merge(w) => &w.oracle,
            Workload::Live(w) => &w.oracle,
        }
    }

    fn setup_probe(&self) -> f64 {
        match self {
            Workload::Offline(w) => w.setup_probe(),
            Workload::Merge(w) => w.setup_probe(),
            Workload::Live(w) => w.setup_probe(),
        }
    }

    fn pass(&self, traced: bool) -> Pass {
        match self {
            Workload::Offline(w) => w.pass(traced),
            Workload::Merge(w) => w.pass(traced),
            Workload::Live(w) => w.pass(traced),
        }
    }

    fn for_each_batch(&self, f: impl FnMut(&RecordBatch)) {
        match self {
            Workload::Offline(w) => w.for_each_batch(f),
            Workload::Merge(w) => w.for_each_batch(f),
            Workload::Live(w) => w.for_each_batch(f),
        }
    }

    /// Window results an untraced run collects before it stops: only
    /// the open loop reports window latency.
    fn min_results(&self) -> usize {
        if self.open_loop() {
            MIN_WINDOWS
        } else {
            0
        }
    }

    /// Whether the load arrives on a schedule (open loop), so wall time
    /// is fixed by the schedule rather than by the system.
    fn open_loop(&self) -> bool {
        matches!(self, Workload::Live(_))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Class counts and call times of the standalone dissect pass.
#[derive(Default)]
struct Dissect {
    records: u64,
    peek_ns: u64,
    full_ns: u64,
    zoom_media: u64,
    not_zoom: u64,
    stun: u64,
}

/// Times `peek_batch` and `dissect_batch` over every batch of the
/// workload, outside the pipeline.
fn dissect_pass(w: &Workload) -> Dissect {
    let mut d = Dissect::default();
    let mut arena = PeekArena::new();
    w.for_each_batch(|b| {
        let t = Instant::now();
        peek_batch(b, LinkType::Ethernet, &mut arena);
        d.peek_ns += t.elapsed().as_nanos() as u64;
        d.zoom_media += arena.class_count(PacketClass::ZmeMedia) as u64;
        d.not_zoom += arena.class_count(PacketClass::NotZoom) as u64;
        d.stun += arena.class_count(PacketClass::Stun) as u64;
        let t = Instant::now();
        dissect_batch(b, LinkType::Ethernet, P2pProbe::Off, &mut arena);
        d.full_ns += t.elapsed().as_nanos() as u64;
        d.records += b.len() as u64;
    });
    d
}

/// All passes' spans in one list, parent links kept valid.
fn concat_spans(passes: &[&Pass]) -> Vec<Span> {
    let mut all = Vec::new();
    for p in passes {
        let base = all.len();
        all.extend(p.spans.iter().map(|s| Span {
            parent: s.parent.map(|i| i + base),
            ..s.clone()
        }));
    }
    all
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

fn per_pass(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics of an untraced run. A closed-loop workload
/// reports its rate; on the open loop the schedule fixes the rate, so
/// `live-tap` reports window latency instead (its run collects at
/// least `MIN_WINDOWS` windows, enough for a p90).
fn end_to_end(w: &Workload, untraced: &[&Pass], setups: &[f64]) -> Vec<Metric> {
    let mut metrics = Vec::new();
    if w.open_loop() {
        let latencies: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.latencies_ms.iter().copied())
            .collect();
        metrics.push(m(
            "window_lat_p50_ms",
            stats::percentile(&latencies, 50.0),
            "ms",
        ));
        metrics.push(m(
            "window_lat_p90_ms",
            stats::percentile(&latencies, 90.0),
            "ms",
        ));
    } else {
        metrics.push(m(
            "pkts_per_s",
            per_pass(untraced, |p| p.records as f64 / p.wall_s),
            "1/s",
        ));
    }
    metrics.extend([
        m(
            "cpu_ns_per_pkt",
            per_pass(untraced, |p| p.cpu_ns as f64 / p.records as f64),
            "ns",
        ),
        m("setup_s", stats::median(setups), "s"),
        m(
            "peak_heap_mb",
            per_pass(untraced, |p| p.peak_heap as f64 / 1e6),
            "MB",
        ),
    ]);
    metrics
}

/// Per-layer metrics of a traced run, and the traced spans.
fn per_layer(
    w: &Workload,
    untraced: &[&Pass],
    traced: &[&Pass],
    dissect: &Dissect,
) -> (Vec<Metric>, Vec<Span>) {
    let spans = concat_spans(traced);
    let by_name = spans::totals_by_name(&spans);
    let ns_per = |name: &str| {
        by_name
            .get(name)
            .filter(|t| t.records > 0)
            .map_or(0.0, |t| t.total_ns as f64 / t.records as f64)
    };
    let p50 = |name: &str, scale: f64| stats::median(&durations_ms(&spans, name)) * scale;
    let records = dissect.records.max(1) as f64;
    let oracle = w.oracle();
    let seq_ns = oracle.ns as f64 / oracle.records as f64;
    let wall_ns = per_pass(untraced, |p| p.wall_s * 1e9 / p.records as f64);
    // Open loop: the schedule fixes wall time, so tracing overhead shows
    // as router CPU instead.
    let overhead = if w.open_loop() {
        per_pass(traced, |p| p.threads.router_run_ns as f64)
            / per_pass(untraced, |p| p.threads.router_run_ns as f64)
            - 1.0
    } else {
        per_pass(traced, |p| p.wall_s) / per_pass(untraced, |p| p.wall_s) - 1.0
    };
    let snap = |f: fn(&zoom_analysis::obs::MetricsSnapshot) -> f64| {
        per_pass(traced, |p| p.snapshot.as_ref().map_or(0.0, f))
    };
    let (encode_ns, frame_bytes) = match w {
        Workload::Merge(mw) => (
            mw.fragments.encode_ns as f64 / mw.fragments.records as f64,
            mw.fragments.bytes as f64 / mw.fragments.records as f64,
        ),
        _ => (0.0, 0.0),
    };
    let mut metrics = vec![
        m("pcap.read_ns_per_pkt", ns_per("pcap.read"), "ns"),
        m(
            "dissect.peek_ns_per_pkt",
            dissect.peek_ns as f64 / records,
            "ns",
        ),
        m(
            "dissect.full_ns_per_pkt",
            dissect.full_ns as f64 / records,
            "ns",
        ),
        m(
            "dissect.zoom_media_share",
            dissect.zoom_media as f64 / records,
            "share",
        ),
        m(
            "dissect.not_zoom_share",
            dissect.not_zoom as f64 / records,
            "share",
        ),
        m("dissect.stun_share", dissect.stun as f64 / records, "share"),
        m("engine.push_ns_per_pkt", ns_per("engine.push"), "ns"),
        m(
            "engine.router_busy_share",
            per_pass(traced, |p| p.threads.router_busy),
            "share",
        ),
        m(
            "engine.router_runq_share",
            per_pass(traced, |p| p.threads.router_runq),
            "share",
        ),
        m(
            "engine.shard_busy_share",
            per_pass(traced, |p| p.threads.shard_busy),
            "share",
        ),
        m(
            "engine.shard_runq_share",
            per_pass(traced, |p| p.threads.shard_runq),
            "share",
        ),
        m(
            "engine.shard_skew",
            snap(|s| {
                let routed: Vec<f64> = s.shards.iter().map(|x| x.routed as f64).collect();
                let max = routed.iter().copied().fold(0.0, f64::max);
                max / stats::mean(&routed).max(1.0)
            }),
            "ratio",
        ),
        m(
            "engine.close_push_ms_p50",
            p50("engine.close_push", 1.0),
            "ms",
        ),
        m("engine.drain_ms", p50("engine.drain", 1.0), "ms"),
        m(
            "engine.peak_tracked_entries",
            per_pass(traced, |p| p.peak_tracked_entries as f64),
            "count",
        ),
        m(
            "report.final_render_ms",
            p50("report.final_render", 1.0),
            "ms",
        ),
        m(
            "report.window_render_us_p50",
            p50("report.window_render", 1e3),
            "us",
        ),
        m("mux.next_batch_ns_per_pkt", ns_per("mux.next_batch"), "ns"),
        m(
            "mux.lane_busy_share",
            per_pass(traced, |p| p.threads.lane_busy),
            "share",
        ),
        m("frame.encode_ns_per_pkt", encode_ns, "ns"),
        m("frame.bytes_per_pkt", frame_bytes, "B"),
        m(
            "alloc.per_pkt",
            per_pass(untraced, |p| p.allocs as f64 / p.records as f64),
            "count",
        ),
        m("oracle.seq_ns_per_pkt", seq_ns, "ns"),
        m("engine.speedup_vs_seq", seq_ns / wall_ns, "ratio"),
        m("trace.overhead_share", overhead, "share"),
        m(
            "layers.sum_share",
            spans::layers_sum_share(&spans, "pass"),
            "share",
        ),
    ];
    if w.open_loop() {
        // Layers only the live path exercises: the generator, the
        // per-window scrape, tap drops and idle eviction.
        let late: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.gen_late_ms.iter().copied())
            .collect();
        metrics.extend([
            m("gen.late_ms_p99", stats::percentile(&late, 99.0), "ms"),
            m(
                "gen.late_ms_max",
                late.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            m("obs.render_prom_us_p50", p50("obs.render_prom", 1e3), "us"),
            m(
                "mux.ring_full_drops",
                untraced.iter().chain(traced).map(|p| p.lost as f64).sum(),
                "count",
            ),
            m(
                "engine.evicted_streams",
                snap(|s| s.evicted_streams as f64),
                "count",
            ),
        ]);
    }
    (metrics, spans)
}

fn run_record(
    args: &Args,
    passes: &[Pass],
    setups: &[f64],
    spans: &[Span],
    outcome: &Outcome,
) -> String {
    // The router thread's traced time by layer: self time (span minus
    // children) per span name, which sums to the traced passes' wall.
    let layers: Vec<String> = spans::totals_by_name(spans)
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"self_ms\": {:?}, \"calls\": {}}}",
                json::escape(name),
                t.self_ns as f64 / 1e6,
                t.calls
            )
        })
        .collect();
    let failures: Vec<String> = passes
        .iter()
        .filter_map(|p| p.failure.as_deref().map(json::escape))
        .collect();
    let results: usize = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.latencies_ms.len())
        .sum();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|x| format!("{}: {:?}", json::escape(x.name), x.value))
        .collect();
    let list = |f: &dyn Fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:?}", f(p)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_sha\": {}, \"nproc\": {}, \"uname\": {}, \"passes\": {}, \
         \"traced_passes\": {}, \"records_per_pass\": [{}], \"pass_wall_s\": [{}], \
         \"setup_samples\": {}, \"setup_s_p10_p50_p90\": [{:?}, {:?}, {:?}], \
         \"result_samples\": {}, \"tail_supported\": {}, \
         \"failures\": [{}], \"layers\": {{{}}}, \
         \"metrics\": {{{}}}}}}}",
        json::escape(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json::escape(&sys::git_sha()),
        sys::nproc(),
        json::escape(&sys::uname()),
        passes.len(),
        passes.iter().filter(|p| p.traced).count(),
        list(&|p| p.records as f64),
        list(&|p| p.wall_s),
        setups.len(),
        stats::percentile(setups, 10.0),
        stats::median(setups),
        stats::percentile(setups, 90.0),
        results,
        stats::supported_tail(results).map_or("null".to_string(), |p| format!("{p:?}")),
        failures.join(", "),
        layers.join(", "),
        metrics.join(", ")
    )
}

fn write_out(name: &str, body: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>) {
    let path = std::path::Path::new(OUT_DIR).join(name);
    let res = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|mut f| body(&mut f).and_then(|_| f.flush()));
    if let Err(e) = res {
        eprintln!("[perfbench] could not write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload offline-campus|live-tap|merge-2w \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let built = Instant::now();
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    eprintln!(
        "[perfbench] {} seed {}: input and oracle built in {:.1}s ({} records)",
        args.workload,
        args.seed,
        built.elapsed().as_secs_f64(),
        w.oracle().records
    );

    let mut setups: Vec<f64> = Vec::new();
    let dissect = args.trace.then(|| dissect_pass(&w));
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        // A traced run alternates untraced and traced passes so the
        // tracing overhead is measured on the same input.
        let traced = args.trace && passes.len() % 2 == 1;
        if !args.trace {
            setups.extend((0..SETUP_PROBES).map(|_| w.setup_probe()));
        }
        let p = w.pass(traced);
        eprintln!(
            "[perfbench] pass {}{}: {} records in {:.3}s, {:.0} ns CPU/record{}{}",
            passes.len(),
            if traced { " (traced)" } else { "" },
            p.records,
            p.wall_s,
            p.cpu_ns as f64 / p.records as f64,
            if p.latencies_ms.is_empty() {
                String::new()
            } else {
                format!(
                    ", window latency p50 {:.3} ms",
                    stats::median(&p.latencies_ms)
                )
            },
            p.failure
                .as_deref()
                .map_or(String::new(), |f| format!(" FAILED: {f}"))
        );
        passes.push(p);
        let results: usize = passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.latencies_ms.len())
            .sum();
        let traced_done = !args.trace || passes.len() >= 2;
        if start.elapsed() >= Duration::from_secs(args.seconds)
            && (args.trace || results >= w.min_results())
            && traced_done
        {
            break;
        }
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let (metrics, spans) = match &dissect {
        Some(d) => per_layer(&w, &untraced, &traced, d),
        None => (end_to_end(&w, &untraced, &setups), Vec::new()),
    };
    let attempted: u64 = passes.iter().map(|p| p.records).sum();
    let failed: u64 = passes
        .iter()
        .map(|p| {
            if p.failure.is_some() {
                p.records
            } else {
                p.lost
            }
        })
        .sum();
    let outcome = Outcome {
        correct: passes.iter().all(|p| p.failure.is_none()),
        attempted,
        failed,
        metrics,
    };
    let record = run_record(&args, &passes, &setups, &spans, &outcome);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_out(&format!("{stem}.json"), |f| writeln!(f, "{record}"));
    if args.trace {
        write_out(&format!("{stem}.spans.ndjson"), |f| {
            spans::write_ndjson(f, "router", &spans)
        });
        let share = outcome
            .metrics
            .iter()
            .find(|x| x.name == "layers.sum_share")
            .map_or(0.0, |x| x.value);
        if !(0.95..=1.05).contains(&share) {
            eprintln!(
                "perfbench: layers.sum_share = {share:.4}: the router's layer spans do not \
                 account for its traced wall time within 5%"
            );
            std::process::exit(3);
        }
    }
    println!("{record}");
    println!("{}", outcome.to_json());
}
