//! Summary statistics and the open-loop schedule arithmetic.

/// Percentiles the tail rule picks from, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Percentile `p` (0–100) of `values`, interpolated linearly between
/// the two nearest ranks (numpy's default), so a tail of few samples is
/// not just their maximum; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * (p / 100.0).clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest percentile on the ladder that still has at least ten
/// of `n` samples beyond it, or `None` with fewer than 20 samples (not
/// even the median qualifies). Runs record it next to their result
/// count, so a reader knows what a reported tail rests on.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An open-loop send schedule: the load generator hands over `chunk`
/// consecutive records every `period_ns`, starting at offset 0, whether
/// or not the system kept up.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub chunk: usize,
    pub period_ns: f64,
}

impl Schedule {
    /// The schedule that offers `rate` records per second in chunks.
    pub fn at_rate(chunk: usize, rate: f64) -> Schedule {
        Schedule {
            chunk,
            period_ns: chunk as f64 * 1e9 / rate,
        }
    }

    /// When chunk `j` is due, as an offset from the schedule start.
    pub fn chunk_due_ns(&self, j: usize) -> u64 {
        (j as f64 * self.period_ns).round() as u64
    }

    /// When record `index` of the offered sequence is due: the instant
    /// its chunk is handed over.
    pub fn record_due_ns(&self, index: usize) -> u64 {
        self.chunk_due_ns(index / self.chunk)
    }
}

/// Milliseconds between when a window's result became due and when it
/// was delivered. A tumbling window ending at `end_nanos` (trace time)
/// can close only once the first record with `ts >= end_nanos` arrives,
/// so its due time is that record's due time under `schedule`; `ts` is
/// the offered sequence's timestamps (non-decreasing) and
/// `delivered_ns` the delivery instant as an offset from the schedule
/// start. `None` when no offered record reaches the window end (the
/// drain-time final window).
pub fn window_latency_ms(
    ts: &[u64],
    schedule: &Schedule,
    end_nanos: u64,
    delivered_ns: u64,
) -> Option<f64> {
    let first = ts.partition_point(|&t| t < end_nanos);
    (first < ts.len()).then(|| (delivered_ns as f64 - schedule.record_due_ns(first) as f64) / 1e6)
}

/// Milliseconds by which the generator handed chunk `j` over after it
/// was due (negative if early).
pub fn lateness_ms(schedule: &Schedule, j: usize, sent_ns: u64) -> f64 {
    (sent_ns as f64 - schedule.chunk_due_ns(j) as f64) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Nine samples: p90 sits 0.2 of the way from the 8th to the 9th.
        let nine: Vec<f64> = (1..=9).map(|i| f64::from(i) * 10.0).collect();
        assert!((percentile(&nine, 90.0) - 82.0).abs() < 1e-9);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn schedule_due_times_step_per_chunk() {
        // 256-record chunks at 128 k records/s: one chunk every 2 ms.
        let s = Schedule::at_rate(256, 128_000.0);
        assert_eq!(s.chunk_due_ns(0), 0);
        assert_eq!(s.chunk_due_ns(3), 6_000_000);
        assert_eq!(s.record_due_ns(255), 0);
        assert_eq!(s.record_due_ns(256), 2_000_000);
        assert_eq!(s.record_due_ns(1_000), 6_000_000);
    }

    #[test]
    fn window_latency_counts_from_the_closing_record_due_time() {
        let s = Schedule::at_rate(2, 1_000.0); // a chunk every 2 ms
                                               // Records 0..6 at trace times 0.2 s apart; window ends at 0.5 s:
                                               // the first record at or past it is index 3 (0.6 s), in chunk 1,
                                               // due at 2 ms.
        let ts: Vec<u64> = (0..6).map(|i| i * 200_000_000).collect();
        let lat = window_latency_ms(&ts, &s, 500_000_000, 5_000_000).expect("closes");
        assert!((lat - 3.0).abs() < 1e-9, "{lat}");
        // An end exactly on a record timestamp is closed by that record.
        let lat = window_latency_ms(&ts, &s, 400_000_000, 2_500_000).expect("closes");
        assert!((lat - 0.5).abs() < 1e-9, "{lat}");
        // Past the last record: only the drain closes it.
        assert_eq!(window_latency_ms(&ts, &s, 2_000_000_000, 9_000_000), None);
    }

    #[test]
    fn lateness_is_signed() {
        let s = Schedule::at_rate(1, 1_000.0);
        assert!((lateness_ms(&s, 10, 10_250_000) - 0.25).abs() < 1e-9);
        assert!((lateness_ms(&s, 10, 9_900_000) + 0.1).abs() < 1e-9);
    }
}
