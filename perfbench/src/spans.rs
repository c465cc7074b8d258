//! In-memory span recording for traced runs.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent, records handled). Spans stay in a
//! per-thread buffer until the run ends, then go out as NDJSON. Nothing
//! is recorded unless the calling thread enabled recording, so untraced
//! runs pay one thread-local flag test per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Records the call handled (0 when not a per-record call).
    pub records: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts or stops recording on the calling thread.
pub fn set_recording(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Removes and returns the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(
            r.open.is_empty(),
            "spans taken while {} are open",
            r.open.len()
        );
        std::mem::take(&mut r.spans)
    })
}

/// An open span; it closes when dropped or through [`Guard::end_as`].
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let parent = r.open.last().copied();
        let index = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            records: 0,
        });
        r.open.push(index);
        Some(index)
    });
    Guard { index }
}

impl Guard {
    /// Records how many records the spanned call handled.
    pub fn records(&self, n: usize) {
        if let Some(i) = self.index {
            RECORDER.with(|r| r.borrow_mut().spans[i].records = n as u64);
        }
    }

    /// Closes the span under a name decided after the call returned
    /// (e.g. whether a push closed a window).
    pub fn end_as(mut self, name: &'static str) {
        if let Some(i) = self.index {
            RECORDER.with(|r| r.borrow_mut().spans[i].name = name);
        }
        self.close();
    }

    fn close(&mut self) {
        if let Some(i) = self.index.take() {
            let end = now_ns();
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                r.spans[i].end_ns = end;
                let top = r.open.pop();
                debug_assert_eq!(top, Some(i), "spans close innermost first");
            });
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children are nested inside their parent on one
/// thread, so they never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over `spans`: (self time ns, total time ns, calls,
/// records).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub self_ns: u64,
    pub total_ns: u64,
    pub calls: u64,
    pub records: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.self_ns += own;
        t.total_ns += s.duration_ns();
        t.calls += 1;
        t.records += s.records;
    }
    out
}

/// The share of the root spans named `root` that their descendants'
/// self times account for: 1.0 when every instant of every root is
/// inside some layer span, lower by the root's own unattributed time.
pub fn layers_sum_share(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut root_total, mut root_own) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(&own) {
        if s.name == root {
            root_total += s.duration_ns();
            root_own += own;
        }
    }
    if root_total == 0 {
        return 0.0;
    }
    (root_total - root_own) as f64 / root_total as f64
}

/// Writes `spans` as one JSON object per line.
pub fn write_ndjson(out: &mut impl Write, thread: &str, spans: &[Span]) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"records\":{}}}",
            s.name, s.start_ns, s.end_ns, s.records
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            records: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp("pass", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("a.inner", 15, 35, Some(1)),
            sp("b", 50, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![25, 10, 20, 45]);
        let t = totals_by_name(&spans);
        assert_eq!(t["pass"].self_ns, 25);
        assert_eq!(t["a"].total_ns, 30);
        // Layers cover 75 of the root's 100 ns.
        assert!((layers_sum_share(&spans, "pass") - 0.75).abs() < 1e-12);
        assert_eq!(layers_sum_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn guards_nest_and_rename() {
        set_recording(true);
        {
            let _outer = span("outer");
            let inner = span("inner");
            inner.records(7);
            inner.end_as("renamed");
        }
        let _ignored = take();
        set_recording(false);
        drop(span("not recorded"));
        assert!(take().is_empty());
    }

    #[test]
    fn recorded_spans_keep_parent_links() {
        set_recording(true);
        {
            let _outer = span("outer");
            span("inner").records(3);
        }
        set_recording(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].records, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut buf = Vec::new();
        write_ndjson(&mut buf, "router", &spans).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
