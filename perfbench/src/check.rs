//! Output checks against the sequential oracle.

use std::collections::BTreeMap;
use zoom_analysis::report::AnalysisReport;
use zoom_analysis::stream::StreamKey;

/// Byte equality of two rendered reports, naming the first difference.
pub fn same_bytes(got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    let context = |s: &str| {
        s.get(at.saturating_sub(40)..(at + 40).min(s.len()))
            .unwrap_or("")
            .to_string()
    };
    Err(format!(
        "report differs from the oracle at byte {at} (lengths {} vs {}): got …{}… want …{}…",
        got.len(),
        want.len(),
        context(got),
        context(want)
    ))
}

/// Per-stream counters summed over report rows, so a stream split into
/// evicted fragments compares with the oracle's single row: `[packets,
/// media bytes, frames, lost, duplicates]` and the row count.
fn stream_totals(report: &AnalysisReport) -> BTreeMap<StreamKey, ([u64; 5], usize)> {
    let mut map: BTreeMap<StreamKey, ([u64; 5], usize)> = BTreeMap::new();
    for s in &report.streams {
        let (t, rows) = map.entry(s.key).or_default();
        for (slot, v) in
            t.iter_mut()
                .zip([s.packets, s.media_bytes, s.frames, s.lost, s.duplicates])
        {
            *slot += v;
        }
        *rows += 1;
    }
    map
}

/// Equality under idle eviction. An evicting engine reports a stream
/// idle past the timeout as fragments (`evicted: true`) instead of one
/// row, so the report cannot match the oracle byte for byte. The engine
/// promises that the fragments still sum to exact end-of-trace totals:
/// its trace summary and drop accounting must equal the oracle's, and so
/// must every stream's summed packets, media bytes, frames, lost and
/// duplicate counts.
pub fn eviction_equivalent(got: &AnalysisReport, want: &AnalysisReport) -> Result<(), String> {
    if got.summary != want.summary {
        return Err(format!(
            "summary differs from the oracle: got {:?} want {:?}",
            got.summary, want.summary
        ));
    }
    if got.drops != want.drops || got.undissectable != want.undissectable {
        return Err(format!(
            "drop accounting differs from the oracle: got {:?}/{} want {:?}/{}",
            got.drops, got.undissectable, want.drops, want.undissectable
        ));
    }
    let (g, w) = (stream_totals(got), stream_totals(want));
    if g.len() != w.len() {
        return Err(format!(
            "{} streams reported, the oracle has {}",
            g.len(),
            w.len()
        ));
    }
    let wrong: Vec<String> = w
        .iter()
        .filter_map(|(key, (want, _))| match g.get(key) {
            None => Some(format!("stream {key:?} missing from the report")),
            Some((got, rows)) => (got != want).then(|| {
                format!(
                    "stream {key:?} in {rows} row(s): [packets, media bytes, frames, lost, \
                     duplicates] {got:?}, the oracle has {want:?}"
                )
            }),
        })
        .collect();
    match wrong.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} of {} streams differ from the oracle; first: {first}",
            wrong.len(),
            w.len()
        )),
    }
}

/// Window indices must run 0, 1, 2, … with no gap or repeat.
pub fn contiguous(indices: &[u64]) -> Result<(), String> {
    match indices.iter().enumerate().find(|&(i, &x)| x != i as u64) {
        None => Ok(()),
        Some((i, x)) => Err(format!("window {i} has index {x}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input;
    use zoom_sim::meeting::MeetingSim;
    use zoom_sim::scenario;
    use zoom_sim::time::SEC;

    #[test]
    fn byte_check_points_at_the_first_difference() {
        assert!(same_bytes("{\"a\":1}", "{\"a\":1}").is_ok());
        let e = same_bytes("{\"a\":1}", "{\"a\":2}").unwrap_err();
        assert!(e.contains("byte 5"), "{e}");
        assert!(same_bytes("ab", "abc").unwrap_err().contains("byte 2"));
    }

    /// The oracle's report over a short multi-party call.
    fn small_report() -> AnalysisReport {
        let mut records = MeetingSim::new(scenario::multi_party(3, 10 * SEC));
        input::oracle(|b| {
            b.clear();
            for r in records.by_ref().take(input::BATCH) {
                b.push(r.ts_nanos, r.orig_len, &r.data);
            }
            !b.is_empty()
        })
        .report
    }

    #[test]
    fn eviction_check_sums_fragments_and_compares_every_counter() {
        let want = small_report();
        assert!(!want.streams.is_empty());
        assert_eq!(eviction_equivalent(&want, &want), Ok(()));

        // The first stream split into an evicted fragment and a resumed
        // row that sum to the whole: equal.
        let mut split = want.clone();
        let (mut head, mut tail) = (want.streams[0].clone(), want.streams[0].clone());
        head.evicted = true;
        (head.packets, tail.packets) = (1, tail.packets - 1);
        (head.media_bytes, head.frames, head.lost) = (0, 0, 0);
        tail.duplicates = 0;
        split.streams[0] = head;
        split.streams.push(tail);
        assert_eq!(eviction_equivalent(&split, &want), Ok(()));

        // The resumed row counts duplicates the whole stream did not
        // have: a split stream is held to exact totals too.
        let mut resumed = split.clone();
        resumed
            .streams
            .last_mut()
            .expect("the resumed row")
            .duplicates += 4;
        let e = eviction_equivalent(&resumed, &want).unwrap_err();
        assert!(e.contains("1 of") && e.contains("in 2 row(s)"), "{e}");

        let mut lost = want.clone();
        lost.streams[0].lost += 1;
        assert!(eviction_equivalent(&lost, &want).is_err());
    }

    #[test]
    fn window_indices_must_be_contiguous() {
        assert!(contiguous(&[]).is_ok());
        assert!(contiguous(&[0, 1, 2]).is_ok());
        assert!(contiguous(&[0, 2]).is_err());
        assert!(contiguous(&[1]).is_err());
        assert!(contiguous(&[0, 0]).is_err());
    }
}
