//! What the benchmark reads from the kernel: CPU clocks, per-thread
//! scheduler statistics, and the facts about the host that every result
//! records. Linux only (`/proc` and POSIX clocks).

use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // both clock ids are defined by POSIX for the calling process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process, every thread including
/// those that already exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// One thread's `/proc/<pid>/task/<tid>/schedstat` line: time on a CPU,
/// time runnable but waiting on a run queue, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

/// Parses a schedstat line (`"<run ns> <wait ns> <slices>\n"`).
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut it = text.split_ascii_whitespace().map(|f| f.parse::<u64>());
    let stat = SchedStat {
        run_ns: it.next()?.ok()?,
        wait_ns: it.next()?.ok()?,
        slices: it.next()?.ok()?,
    };
    it.next().is_none().then_some(stat)
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> u64 {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self is readable");
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .expect("/proc/thread-self ends in a thread id")
}

/// Ids of every live thread of this process.
pub fn task_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// Threads present now that were not in `before`: the threads a
/// constructor spawned.
pub fn new_tasks(before: &[u64]) -> Vec<u64> {
    task_ids()
        .into_iter()
        .filter(|t| before.binary_search(t).is_err())
        .collect()
}

/// Scheduler statistics of the given threads; exited threads are left
/// out.
pub fn schedstats(tids: &[u64]) -> BTreeMap<u64, SchedStat> {
    tids.iter()
        .filter_map(|&tid| {
            let text = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
            Some((tid, parse_schedstat(&text)?))
        })
        .collect()
}

/// Mean busy and run-queue shares of `wall_ns` over the threads present
/// in both snapshots: `(Σ Δrun / n / wall, Σ Δwait / n / wall)`.
pub fn mean_shares(
    before: &BTreeMap<u64, SchedStat>,
    after: &BTreeMap<u64, SchedStat>,
    wall_ns: u64,
) -> (f64, f64) {
    let deltas: Vec<(u64, u64)> = after
        .iter()
        .filter_map(|(tid, a)| {
            let b = before.get(tid)?;
            Some((a.run_ns - b.run_ns, a.wait_ns - b.wait_ns))
        })
        .collect();
    if deltas.is_empty() || wall_ns == 0 {
        return (0.0, 0.0);
    }
    let n = deltas.len() as f64 * wall_ns as f64;
    let run: u64 = deltas.iter().map(|d| d.0).sum();
    let wait: u64 = deltas.iter().map(|d| d.1).sum();
    (run as f64 / n, wait as f64 / n)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Kernel name, release and machine, as `uname -srm` prints them.
pub fn uname() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    format!(
        "{} {} {}",
        read("/proc/sys/kernel/ostype"),
        read("/proc/sys/kernel/osrelease"),
        std::env::consts::ARCH
    )
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `BENCH_GIT_SHA` names it where the
/// checkout carries no `.git` (an exported tree), else `"unknown"`.
pub fn git_sha() -> String {
    let from_git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
            return Some(sha.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(name))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    from_git()
        .or_else(|| std::env::var("BENCH_GIT_SHA").ok())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_the_kernel_line() {
        let s = parse_schedstat("885893 2262312 17\n").expect("valid line");
        assert_eq!(
            s,
            SchedStat {
                run_ns: 885_893,
                wait_ns: 2_262_312,
                slices: 17
            }
        );
    }

    #[test]
    fn schedstat_rejects_short_long_and_garbled_lines() {
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("1 2 3 4"), None);
        assert_eq!(parse_schedstat("1 x 3"), None);
        assert_eq!(parse_schedstat("-1 2 3"), None);
    }

    #[test]
    fn this_thread_has_a_readable_schedstat() {
        let tid = current_tid();
        assert!(task_ids().contains(&tid));
        // The kernel folds run time in at scheduling events: spin, then
        // sleep once so this thread's account is current.
        let cpu0 = thread_cpu_ns();
        while thread_cpu_ns() - cpu0 < 2_000_000 {}
        std::thread::sleep(std::time::Duration::from_millis(1));
        let stats = schedstats(&[tid]);
        assert!(stats[&tid].run_ns >= 2_000_000, "{:?}", stats[&tid]);
    }

    #[test]
    fn shares_average_over_threads_present_in_both_snapshots() {
        let st = |run_ns, wait_ns| SchedStat {
            run_ns,
            wait_ns,
            slices: 0,
        };
        let before = BTreeMap::from([(1, st(0, 0)), (2, st(100, 50)), (3, st(0, 0))]);
        let after = BTreeMap::from([(1, st(1_000, 200)), (2, st(600, 50))]);
        let (busy, runq) = mean_shares(&before, &after, 1_000);
        assert!((busy - 0.75).abs() < 1e-12, "{busy}");
        assert!((runq - 0.1).abs() < 1e-12, "{runq}");
        assert_eq!(mean_shares(&before, &BTreeMap::new(), 1_000), (0.0, 0.0));
    }
}
