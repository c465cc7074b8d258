//! What one pass of a workload measures, and the pieces every workload
//! shares: thread bookkeeping and the per-pass resource counters.

use crate::alloc::{self, HeapMark};
use crate::spans::Span;
use crate::sys::{self, SchedStat};
use std::collections::BTreeMap;
use std::time::Instant;
use zoom_analysis::obs::MetricsSnapshot;

/// One pass: set-up, every record offered once, drain, final report.
#[derive(Debug, Default)]
pub struct Pass {
    pub traced: bool,
    /// Records offered.
    pub records: u64,
    /// Offered records the sink never analysed (ring drops).
    pub lost: u64,
    /// Why the pass failed its correctness check, if it did.
    pub failure: Option<String>,
    /// First record offered until the final report was rendered.
    pub wall_s: f64,
    /// Process CPU over the same interval, load generator excluded.
    pub cpu_ns: u64,
    /// Heap high-water mark above the bytes live at the pass start.
    pub peak_heap: u64,
    pub allocs: u64,
    /// Per-window result latencies, ms (open loop only).
    pub latencies_ms: Vec<f64>,
    /// Generator lateness per chunk, ms (open loop only).
    pub gen_late_ms: Vec<f64>,
    pub threads: Threads,
    pub snapshot: Option<MetricsSnapshot>,
    pub peak_tracked_entries: u64,
    /// Router-thread spans (traced passes only).
    pub spans: Vec<Span>,
}

/// Busy and run-queue shares of each thread group over the pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Threads {
    pub router_busy: f64,
    pub router_runq: f64,
    pub router_run_ns: u64,
    pub shard_busy: f64,
    pub shard_runq: f64,
    pub lane_busy: f64,
}

/// Scheduler snapshots of the router, shard and lane threads.
pub struct ThreadWatch {
    router: u64,
    pub shards: Vec<u64>,
    pub lanes: Vec<u64>,
    start: Option<(Instant, BTreeMap<u64, SchedStat>)>,
    /// The latest reading of each shard and lane thread; lanes exit when
    /// their source runs dry, before the pass ends.
    last: BTreeMap<u64, (Instant, SchedStat)>,
}

impl ThreadWatch {
    pub fn new() -> ThreadWatch {
        ThreadWatch {
            router: sys::current_tid(),
            shards: Vec::new(),
            lanes: Vec::new(),
            start: None,
            last: BTreeMap::new(),
        }
    }

    /// Marks the start of the timed interval.
    pub fn start(&mut self) {
        let mut all = vec![self.router];
        all.extend(self.shards.iter().chain(&self.lanes));
        self.start = Some((Instant::now(), sys::schedstats(&all)));
    }

    /// Reads the shard and lane threads still alive.
    pub fn sample(&mut self) {
        let ids: Vec<u64> = self.shards.iter().chain(&self.lanes).copied().collect();
        let now = Instant::now();
        for (tid, stat) in sys::schedstats(&ids) {
            self.last.insert(tid, (now, stat));
        }
    }

    /// Router shares up to now; shard and lane shares up to each
    /// thread's last [`sample`](ThreadWatch::sample).
    pub fn finish(&self) -> Threads {
        let Some((t0, before)) = &self.start else {
            return Threads::default();
        };
        let share = |tid: &u64, run: bool| -> Option<f64> {
            let (at, end) = self.last.get(tid)?;
            let b = before.get(tid)?;
            let wall = at.duration_since(*t0).as_nanos() as f64;
            let d = if run {
                end.run_ns - b.run_ns
            } else {
                end.wait_ns - b.wait_ns
            };
            (wall > 0.0).then(|| d as f64 / wall)
        };
        let mean = |ids: &[u64], run: bool| {
            crate::stats::mean(&ids.iter().filter_map(|t| share(t, run)).collect::<Vec<_>>())
        };
        let after = sys::schedstats(&[self.router]);
        let wall = t0.elapsed().as_nanos() as u64;
        let (router_busy, router_runq) = sys::mean_shares(before, &after, wall);
        let router_run_ns = match (before.get(&self.router), after.get(&self.router)) {
            (Some(b), Some(a)) => a.run_ns - b.run_ns,
            _ => 0,
        };
        Threads {
            router_busy,
            router_runq,
            router_run_ns,
            shard_busy: mean(&self.shards, true),
            shard_runq: mean(&self.shards, false),
            lane_busy: mean(&self.lanes, true),
        }
    }
}

/// Process CPU and heap counters from the start of a timed interval.
pub struct Meter {
    cpu0: u64,
    heap: HeapMark,
}

impl Meter {
    pub fn start(heap: HeapMark) -> Meter {
        Meter {
            cpu0: sys::process_cpu_ns(),
            heap,
        }
    }

    /// Fills the CPU and heap fields of `pass`; `exclude_cpu_ns` is CPU
    /// spent by the load generator inside the interval.
    pub fn stop(&self, pass: &mut Pass, exclude_cpu_ns: u64) {
        pass.cpu_ns = (sys::process_cpu_ns() - self.cpu0).saturating_sub(exclude_cpu_ns);
        (pass.peak_heap, pass.allocs) = alloc::since(self.heap);
    }
}
