//! Sim-time resource time-series: fixed-capacity ring series sampled on
//! a configurable interval, with min/max/last/rate rollups and a
//! Prometheus-style text scrape.
//!
//! The store holds one [`TimeSeries`] per `(name, label)` pair — e.g.
//! `("storage.used_bytes", "site0-pfs")` — each backed by a
//! [`RingBuffer`] of [`SeriesPoint`]s so a months-long run keeps a
//! bounded, recent window of every gauge. Keys are `BTreeMap`-ordered,
//! so iteration (and therefore the scrape) is deterministic.
//!
//! ```
//! use dgf_obs::{SamplingConfig, TimeSeriesStore};
//! use dgf_simgrid::{Duration, SimTime};
//!
//! let mut store = TimeSeriesStore::new(SamplingConfig::default());
//! assert!(store.due(SimTime::ZERO));
//! store.record("queue.depth", "", SimTime::ZERO, 3);
//! store.mark_sampled(SimTime::ZERO);
//! assert!(!store.due(SimTime(1)));
//! assert_eq!(store.series("queue.depth", "").unwrap().last(), Some(3));
//! ```

use crate::ring::RingBuffer;
use dgf_simgrid::{Duration, SimTime};
use std::collections::BTreeMap;

/// How often gauges are sampled and how much history each series keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Minimum sim-time between samples. Sampling is opportunistic: the
    /// driver checks [`TimeSeriesStore::due`] whenever its clock moves,
    /// so actual sample spacing is `>= interval`, not exact.
    pub interval: Duration,
    /// Points retained per series; older points are evicted.
    pub capacity: usize,
}

impl Default for SamplingConfig {
    /// One sample per simulated minute, latest 512 points per series.
    fn default() -> Self {
        SamplingConfig { interval: Duration::from_secs(60), capacity: 512 }
    }
}

/// One sampled value of one gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Sim-time of the sample.
    pub time: SimTime,
    /// Sampled gauge value.
    pub value: i64,
}

/// A fixed-capacity series of one gauge's samples.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    points: RingBuffer<SeriesPoint>,
}

impl TimeSeries {
    fn new(capacity: usize) -> Self {
        TimeSeries { points: RingBuffer::new(capacity) }
    }

    /// All retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent value.
    pub fn last(&self) -> Option<i64> {
        self.points.iter().last().map(|p| p.value)
    }

    /// Minimum over the retained window.
    pub fn min(&self) -> Option<i64> {
        self.points.iter().map(|p| p.value).min()
    }

    /// Maximum over the retained window.
    pub fn max(&self) -> Option<i64> {
        self.points.iter().map(|p| p.value).max()
    }

    /// Change per simulated second across the retained window:
    /// `(last - first) / (t_last - t_first)`. `None` until two points
    /// with distinct timestamps exist.
    pub fn rate_per_sec(&self) -> Option<f64> {
        let first = self.points.iter().next()?;
        let last = self.points.iter().last()?;
        let dt_us = last.time.0.checked_sub(first.time.0)?;
        if dt_us == 0 {
            return None;
        }
        Some((last.value - first.value) as f64 * 1_000_000.0 / dt_us as f64)
    }

    /// The min/max/last/rate summary of this series.
    pub fn rollup(&self) -> Option<Rollup> {
        Some(Rollup {
            min: self.min()?,
            max: self.max()?,
            last: self.last()?,
            rate_per_sec: self.rate_per_sec(),
            points: self.len(),
        })
    }
}

/// Min/max/last/rate summary of one series' retained window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rollup {
    /// Smallest retained value.
    pub min: i64,
    /// Largest retained value.
    pub max: i64,
    /// Most recent value.
    pub last: i64,
    /// Change per simulated second, when computable.
    pub rate_per_sec: Option<f64>,
    /// Retained point count.
    pub points: usize,
}

/// All series, keyed by `(name, label)`, plus the sampling schedule.
#[derive(Debug, Clone)]
pub struct TimeSeriesStore {
    config: SamplingConfig,
    last_sample: Option<SimTime>,
    series: BTreeMap<(String, String), TimeSeries>,
}

impl TimeSeriesStore {
    /// An empty store with the given schedule.
    pub fn new(config: SamplingConfig) -> Self {
        TimeSeriesStore { config, last_sample: None, series: BTreeMap::new() }
    }

    /// Replace the schedule. Existing points are kept; existing series
    /// keep their old capacity (new series use the new one).
    pub fn set_config(&mut self, config: SamplingConfig) {
        self.config = config;
    }

    /// True when at least one interval has elapsed since the last
    /// sample (or nothing has been sampled yet).
    pub fn due(&self, now: SimTime) -> bool {
        match self.last_sample {
            None => true,
            Some(t) => now.0.saturating_sub(t.0) >= self.config.interval.0,
        }
    }

    /// Note that a full sample pass happened at `now`.
    pub fn mark_sampled(&mut self, now: SimTime) {
        self.last_sample = Some(now);
    }

    /// Append a point to the `(name, label)` series, creating it on
    /// first use.
    pub fn record(&mut self, name: &str, label: &str, time: SimTime, value: i64) {
        let capacity = self.config.capacity;
        self.series
            .entry((name.to_owned(), label.to_owned()))
            .or_insert_with(|| TimeSeries::new(capacity))
            .points
            .push(SeriesPoint { time, value });
    }

    /// The series for `(name, label)`, if any point was ever recorded.
    pub fn series(&self, name: &str, label: &str) -> Option<&TimeSeries> {
        self.series.get(&(name.to_owned(), label.to_owned()))
    }

    /// Every series with its key, in sorted `(name, label)` order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &TimeSeries)> {
        self.series.iter().map(|((n, l), s)| (n.as_str(), l.as_str(), s))
    }

    /// Sorted `(name, label, rollup)` summaries of every non-empty series.
    pub fn rollups(&self) -> Vec<(String, String, Rollup)> {
        self.series
            .iter()
            .filter_map(|((n, l), s)| s.rollup().map(|r| (n.clone(), l.clone(), r)))
            .collect()
    }
}

/// Quote a label value for the scrape: `\` and `"` and newlines are
/// backslash-escaped, per the Prometheus text exposition format.
fn scrape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a Prometheus-style text scrape of a metrics snapshot plus
/// series rollups. Output is line-oriented, stable-ordered (snapshot
/// samples are already sorted; series keys are sorted; per-series stats
/// appear in a fixed order), and deterministic for a deterministic
/// input — two identically-seeded runs scrape byte-identically.
///
/// Shapes:
///
/// ```text
/// dgf_metric{scope="engine",name="runs.completed",kind="counter"} 1
/// dgf_metric{scope="engine",name="step.duration",kind="histogram",stat="count"} 4
/// dgf_series{name="storage.used_bytes",label="site0-pfs",stat="last"} 100000000
/// dgf_series{name="storage.used_bytes",label="site0-pfs",stat="rate_per_sec"} 1650.165017
/// ```
pub fn render_scrape(snapshot: &crate::MetricsSnapshot, store: &TimeSeriesStore, now: SimTime) -> String {
    let mut out = String::new();
    out.push_str(&format!("# dgf telemetry scrape at {}us\n", now.0));
    out.push_str("# TYPE dgf_metric untyped\n");
    for sample in &snapshot.samples {
        let base = format!(
            "dgf_metric{{scope=\"{}\",name=\"{}\",kind=\"{}\"",
            scrape_label(&sample.scope),
            scrape_label(&sample.name),
            sample.value.kind()
        );
        match &sample.value {
            crate::MetricValue::Counter(v) => out.push_str(&format!("{base}}} {v}\n")),
            crate::MetricValue::Gauge(v) => out.push_str(&format!("{base}}} {v}\n")),
            crate::MetricValue::Histogram(h) => {
                out.push_str(&format!("{base},stat=\"count\"}} {}\n", h.count));
                out.push_str(&format!("{base},stat=\"sum_us\"}} {}\n", h.sum_us));
                out.push_str(&format!("{base},stat=\"min_us\"}} {}\n", h.min_us));
                out.push_str(&format!("{base},stat=\"max_us\"}} {}\n", h.max_us));
            }
        }
    }
    out.push_str("# TYPE dgf_series untyped\n");
    for (name, label, series) in store.iter() {
        let Some(rollup) = series.rollup() else { continue };
        let base =
            format!("dgf_series{{name=\"{}\",label=\"{}\"", scrape_label(name), scrape_label(label));
        out.push_str(&format!("{base},stat=\"min\"}} {}\n", rollup.min));
        out.push_str(&format!("{base},stat=\"max\"}} {}\n", rollup.max));
        out.push_str(&format!("{base},stat=\"last\"}} {}\n", rollup.last));
        if let Some(rate) = rollup.rate_per_sec {
            out.push_str(&format!("{base},stat=\"rate_per_sec\"}} {rate:.6}\n"));
        }
        out.push_str(&format!("{base},stat=\"points\"}} {}\n", rollup.points));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TimeSeriesStore {
        TimeSeriesStore::new(SamplingConfig { interval: Duration::from_secs(10), capacity: 4 })
    }

    #[test]
    fn due_follows_the_interval() {
        let mut s = store();
        assert!(s.due(SimTime::ZERO), "first sample is always due");
        s.mark_sampled(SimTime::ZERO);
        assert!(!s.due(SimTime(9_999_999)));
        assert!(s.due(SimTime(10_000_000)));
    }

    #[test]
    fn rollups_cover_the_retained_window_only() {
        let mut s = store();
        for (i, v) in [5i64, 1, 9, 3, 7].iter().enumerate() {
            s.record("g", "a", SimTime(i as u64 * 1_000_000), *v);
        }
        // Capacity 4: the first point (value 5) was evicted.
        let series = s.series("g", "a").unwrap();
        assert_eq!(series.len(), 4);
        assert_eq!(series.min(), Some(1));
        assert_eq!(series.max(), Some(9));
        assert_eq!(series.last(), Some(7));
        // rate = (7 - 1) / (4s - 1s) = 2 per second.
        assert!((series.rate_per_sec().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rate_needs_two_distinct_timestamps() {
        let mut s = store();
        s.record("g", "", SimTime(5), 1);
        assert_eq!(s.series("g", "").unwrap().rate_per_sec(), None);
        s.record("g", "", SimTime(5), 9);
        assert_eq!(s.series("g", "").unwrap().rate_per_sec(), None, "zero elapsed time");
        s.record("g", "", SimTime(1_000_005), 11);
        assert!((s.series("g", "").unwrap().rate_per_sec().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn iteration_is_sorted_by_name_then_label() {
        let mut s = store();
        s.record("b", "x", SimTime::ZERO, 1);
        s.record("a", "y", SimTime::ZERO, 2);
        s.record("a", "x", SimTime::ZERO, 3);
        let keys: Vec<(&str, &str)> = s.iter().map(|(n, l, _)| (n, l)).collect();
        assert_eq!(keys, vec![("a", "x"), ("a", "y"), ("b", "x")]);
    }

    #[test]
    fn scrape_is_stable_and_escapes_labels() {
        let mut s = store();
        s.record("q\"uote", "back\\slash", SimTime(0), 1);
        s.record("q\"uote", "back\\slash", SimTime(2_000_000), 5);
        let mut snap = crate::MetricsSnapshot { samples: Vec::new() };
        snap.insert("engine", "runs.completed", crate::MetricValue::Counter(1));
        let text = render_scrape(&snap, &s, SimTime(2_000_000));
        assert!(text.contains("dgf_metric{scope=\"engine\",name=\"runs.completed\",kind=\"counter\"} 1\n"), "{text}");
        assert!(text.contains("dgf_series{name=\"q\\\"uote\",label=\"back\\\\slash\",stat=\"last\"} 5\n"), "{text}");
        assert!(text.contains("stat=\"rate_per_sec\"} 2.000000\n"), "{text}");
        let again = render_scrape(&snap, &s, SimTime(2_000_000));
        assert_eq!(text, again, "scrape must be deterministic");
    }
}
