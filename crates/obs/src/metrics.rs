//! The metrics registry: counters, gauges, and sim-time histograms,
//! organized into scopes.
//!
//! A *scope* names the subsystem (or run) a metric belongs to:
//! `engine`, `scheduler`, `triggers`, `server`, `network`, `grid`, and
//! one `run:<txn>` scope per transaction. Metric names are dotted
//! (`steps.executed`, `bytes.moved`); `docs/OBSERVABILITY.md` lists
//! every name with its unit. Storage is `BTreeMap`-backed so snapshots
//! and exports are deterministically ordered.

use dgf_simgrid::Duration;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Summary statistics of a simulation-time histogram. All values are in
/// microseconds of *simulation* time (never wall-clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimHistogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub sum_us: u64,
    /// Smallest observation, µs (0 when empty).
    pub min_us: u64,
    /// Largest observation, µs (0 when empty).
    pub max_us: u64,
}

impl SimHistogram {
    /// Fold one observation in.
    pub fn observe(&mut self, d: Duration) {
        let us = d.0;
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.sum_us += us;
    }

    /// Mean observation in µs (0.0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// One metric's current value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level (may go down).
    Gauge(i64),
    /// A simulation-time distribution summary.
    Histogram(SimHistogram),
}

impl MetricValue {
    /// The value's kind as a lowercase string (`counter`, `gauge`,
    /// `histogram`) — used by the exporters and the DGL status surface.
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// A compact single-token rendering: the count/level for counters
    /// and gauges, `count:sum_us:min_us:max_us` for histograms.
    pub fn render(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Histogram(h) => {
                format!("{}:{}:{}:{}", h.count, h.sum_us, h.min_us, h.max_us)
            }
        }
    }
}

/// The writable registry. Its owner (an [`crate::Obs`], held by the
/// engine or the fabric) calls `inc`/`add`/`gauge_set`/`observe`;
/// readers take a [`MetricsSnapshot`].
///
/// ```
/// use dgf_obs::MetricsRegistry;
/// use dgf_simgrid::Duration;
///
/// let mut reg = MetricsRegistry::new();
/// reg.inc("engine", "steps.executed");
/// reg.add("engine", "bytes.moved", 1024);
/// reg.observe("engine", "step.duration", Duration::from_secs(2));
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("engine", "steps.executed"), 1);
/// assert_eq!(snap.counter("engine", "bytes.moved"), 1024);
/// // One counter, read without a snapshot:
/// assert_eq!(reg.counter("engine", "bytes.moved"), 1024);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Keyed by scope; each scope's metrics sorted by name. A lookup
    /// borrows both keys, and iterating gives `(scope, name)` order.
    values: BTreeMap<String, Vec<(String, MetricValue)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `scope/name`, created as `initial` on first use. Only
    /// a first use copies the key strings.
    fn slot(&mut self, scope: &str, name: &str, initial: MetricValue) -> &mut MetricValue {
        if !self.values.contains_key(scope) {
            self.values.insert(scope.to_owned(), Vec::new());
        }
        let names = self.values.get_mut(scope).expect("inserted above");
        let at = names.binary_search_by(|(n, _)| n.as_str().cmp(name)).unwrap_or_else(|at| {
            names.insert(at, (name.to_owned(), initial));
            at
        });
        &mut names[at].1
    }

    /// Increment the counter `scope/name` by one.
    pub fn inc(&mut self, scope: &str, name: &str) {
        self.add(scope, name, 1);
    }

    /// Increment the counter `scope/name` by `n`.
    pub fn add(&mut self, scope: &str, name: &str, n: u64) {
        if let MetricValue::Counter(v) = self.slot(scope, name, MetricValue::Counter(0)) {
            *v += n;
        } else {
            debug_assert!(false, "metric {scope}/{name} is not a counter");
        }
    }

    /// Set the gauge `scope/name` to `value`.
    pub fn gauge_set(&mut self, scope: &str, name: &str, value: i64) {
        *self.slot(scope, name, MetricValue::Gauge(value)) = MetricValue::Gauge(value);
    }

    /// Fold a duration into the histogram `scope/name`.
    pub fn observe(&mut self, scope: &str, name: &str, d: Duration) {
        if let MetricValue::Histogram(h) = self.slot(scope, name, MetricValue::Histogram(SimHistogram::default())) {
            h.observe(d);
        } else {
            debug_assert!(false, "metric {scope}/{name} is not a histogram");
        }
    }

    /// The counter `scope/name`, or 0 when absent or not a counter. One
    /// lookup: it copies nothing and reads no other metric.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        let names = self.values.get(scope).map_or(&[][..], Vec::as_slice);
        match names.binary_search_by(|(n, _)| n.as_str().cmp(name)).map(|at| names[at].1) {
            Ok(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// A point-in-time copy of every metric, deterministically ordered
    /// by `(scope, name)`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            samples: self
                .values
                .iter()
                .flat_map(|(scope, names)| {
                    names.iter().map(move |(name, value)| MetricSample {
                        scope: scope.clone(),
                        name: name.clone(),
                        value: *value,
                    })
                })
                .collect(),
        }
    }
}

/// One `(scope, name, value)` triple of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Owning scope (`engine`, `scheduler`, `run:<txn>`, ...).
    pub scope: String,
    /// Dotted metric name.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// An immutable, ordered copy of the registry, with plain-text and JSON
/// exporters and cross-scope aggregation helpers.
///
/// ```
/// use dgf_obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.inc("run:t1", "steps.completed");
/// reg.inc("run:t2", "steps.completed");
/// let snap = reg.snapshot();
/// // Aggregate one metric name across every `run:` scope:
/// assert_eq!(snap.total_counter("steps.completed"), 2);
/// let text = snap.to_text();
/// assert!(text.contains("run:t1/steps.completed counter 1"));
/// let json = snap.to_json();
/// assert!(json.starts_with('[') && json.ends_with(']'));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All samples, sorted by `(scope, name)`.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Look up one metric.
    pub fn get(&self, scope: &str, name: &str) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| s.scope == scope && s.name == name)
            .map(|s| &s.value)
    }

    /// The counter `scope/name`, or 0 when absent.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        match self.get(scope, name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge `scope/name`, or 0 when absent.
    pub fn gauge(&self, scope: &str, name: &str) -> i64 {
        match self.get(scope, name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram `scope/name`, or an empty summary when absent.
    pub fn histogram(&self, scope: &str, name: &str) -> SimHistogram {
        match self.get(scope, name) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => SimHistogram::default(),
        }
    }

    /// Sum the counter `name` across *all* scopes (e.g. total
    /// `steps.completed` over every `run:<txn>` scope).
    pub fn total_counter(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// All samples of one scope.
    pub fn scoped(&self, scope: &str) -> Vec<&MetricSample> {
        self.samples.iter().filter(|s| s.scope == scope).collect()
    }

    /// Insert (or replace) a sample, keeping `(scope, name)` order.
    /// Only an inserted sample copies the key strings.
    pub fn insert(&mut self, scope: &str, name: &str, value: MetricValue) {
        match self
            .samples
            .binary_search_by(|s| (s.scope.as_str(), s.name.as_str()).cmp(&(scope, name)))
        {
            Ok(i) => self.samples[i].value = value,
            Err(i) => self.samples.insert(
                i,
                MetricSample { scope: scope.to_owned(), name: name.to_owned(), value },
            ),
        }
    }

    /// Plain-text export: one `scope/name kind value` line per sample,
    /// sorted, newline-terminated. Histograms render as
    /// `count:sum_us:min_us:max_us`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let _ = writeln!(out, "{}/{} {} {}", s.scope, s.name, s.value.kind(), s.value.render());
        }
        out
    }

    /// JSON export: an array of objects with `scope`, `name`, `kind`,
    /// and a numeric `value` (histograms expand to `count`/`sum_us`/
    /// `min_us`/`max_us` fields instead of `value`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scope\":\"{}\",\"name\":\"{}\",\"kind\":\"{}\",",
                json_escape(&s.scope),
                json_escape(&s.name),
                s.value.kind()
            );
            match s.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"value\":{v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"value\":{v}}}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"count\":{},\"sum_us\":{},\"min_us\":{},\"max_us\":{}}}",
                        h.count, h.sum_us, h.min_us, h.max_us
                    );
                }
            }
        }
        out.push(']');
        out
    }
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element with at least `p`% of the samples at or below it. Returns 0
/// for an empty slice; `p` is clamped to `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_at_tiny_sample_counts() {
        // 0 samples: defined as 0 for every percentile.
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[], 99.0), 0);
        // 1 sample: every percentile is that sample.
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 2 samples: p50 is the lower, p95/p99 the upper.
        assert_eq!(percentile(&[3, 9], 50.0), 3);
        assert_eq!(percentile(&[3, 9], 95.0), 9);
        assert_eq!(percentile(&[3, 9], 99.0), 9);
        // Degenerate p values clamp instead of panicking.
        assert_eq!(percentile(&[3, 9], 0.0), 3);
        assert_eq!(percentile(&[3, 9], 200.0), 9);
    }

    #[test]
    fn percentile_matches_nearest_rank_on_a_larger_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
    }

    #[test]
    fn counters_accumulate_and_scopes_stay_separate() {
        let mut reg = MetricsRegistry::new();
        reg.inc("engine", "steps.executed");
        reg.inc("engine", "steps.executed");
        reg.add("run:t1", "steps.executed", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine", "steps.executed"), 2);
        assert_eq!(snap.counter("run:t1", "steps.executed"), 5);
        assert_eq!(snap.counter("run:t2", "steps.executed"), 0);
        assert_eq!(snap.total_counter("steps.executed"), 7);
    }

    #[test]
    fn scope_aggregation_ignores_non_counters() {
        let mut reg = MetricsRegistry::new();
        reg.inc("run:t1", "retries");
        reg.inc("run:t2", "retries");
        reg.inc("run:t2", "retries");
        reg.gauge_set("engine", "retries", 99); // same name, different kind
        let snap = reg.snapshot();
        assert_eq!(snap.total_counter("retries"), 3, "gauges are not summed");
        assert_eq!(snap.scoped("run:t2").len(), 1);
    }

    #[test]
    fn histograms_track_bounds_and_mean() {
        let mut reg = MetricsRegistry::new();
        reg.observe("engine", "step.duration", Duration::from_secs(2));
        reg.observe("engine", "step.duration", Duration::from_secs(4));
        let h = reg.snapshot().histogram("engine", "step.duration");
        assert_eq!(h.count, 2);
        assert_eq!(h.min_us, 2_000_000);
        assert_eq!(h.max_us, 4_000_000);
        assert_eq!(h.mean_us(), 3_000_000.0);
    }

    #[test]
    fn exports_are_deterministic_and_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.inc("z", "last");
        reg.inc("a", "first");
        reg.gauge_set("m", "level", -3);
        let snap = reg.snapshot();
        let text = snap.to_text();
        let a = text.find("a/first").unwrap();
        let z = text.find("z/last").unwrap();
        assert!(a < z, "sorted by scope");
        assert!(text.contains("m/level gauge -3"));
        assert_eq!(snap.to_text(), reg.snapshot().to_text());
        let json = snap.to_json();
        assert!(json.contains("\"scope\":\"m\",\"name\":\"level\",\"kind\":\"gauge\",\"value\":-3"));
    }

    #[test]
    fn snapshot_insert_keeps_order_and_replaces() {
        let mut snap = MetricsSnapshot::default();
        snap.insert("grid", "b", MetricValue::Counter(1));
        snap.insert("grid", "a", MetricValue::Counter(2));
        snap.insert("grid", "b", MetricValue::Counter(3));
        assert_eq!(snap.samples.len(), 2);
        assert_eq!(snap.samples[0].name, "a");
        assert_eq!(snap.counter("grid", "b"), 3);
    }

    /// A minimal recursive-descent JSON reader, independent of the
    /// exporter under test (and of the `dgf-xml` crate), so `to_json`
    /// escaping bugs can't hide behind a matching un-escaper.
    mod json {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Value {
            Str(String),
            Num(f64),
            Int(i128),
            Array(Vec<Value>),
            Object(Vec<(String, Value)>),
        }

        impl Value {
            pub fn field(&self, key: &str) -> &Value {
                let Value::Object(fields) = self else { panic!("not an object: {self:?}") };
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no field {key}")).1
            }
            pub fn as_str(&self) -> &str {
                let Value::Str(s) = self else { panic!("not a string: {self:?}") };
                s
            }
            pub fn as_int(&self) -> i128 {
                match self {
                    Value::Int(i) => *i,
                    other => panic!("not an integer: {other:?}"),
                }
            }
        }

        pub fn parse(input: &str) -> Value {
            let mut chars: Vec<char> = input.chars().collect();
            chars.reverse(); // pop() from the front
            let v = value(&mut chars);
            skip_ws(&mut chars);
            assert!(chars.is_empty(), "trailing input: {chars:?}");
            v
        }

        fn skip_ws(c: &mut Vec<char>) {
            while c.last().is_some_and(|ch| ch.is_ascii_whitespace()) {
                c.pop();
            }
        }

        fn expect(c: &mut Vec<char>, ch: char) {
            skip_ws(c);
            assert_eq!(c.pop(), Some(ch));
        }

        fn value(c: &mut Vec<char>) -> Value {
            skip_ws(c);
            match *c.last().expect("eof") {
                '"' => Value::Str(string(c)),
                '[' => {
                    expect(c, '[');
                    let mut items = Vec::new();
                    skip_ws(c);
                    if c.last() == Some(&']') {
                        c.pop();
                        return Value::Array(items);
                    }
                    loop {
                        items.push(value(c));
                        skip_ws(c);
                        match c.pop() {
                            Some(',') => continue,
                            Some(']') => return Value::Array(items),
                            other => panic!("bad array: {other:?}"),
                        }
                    }
                }
                '{' => {
                    expect(c, '{');
                    let mut fields = Vec::new();
                    skip_ws(c);
                    if c.last() == Some(&'}') {
                        c.pop();
                        return Value::Object(fields);
                    }
                    loop {
                        skip_ws(c);
                        let key = string(c);
                        expect(c, ':');
                        fields.push((key, value(c)));
                        skip_ws(c);
                        match c.pop() {
                            Some(',') => continue,
                            Some('}') => return Value::Object(fields),
                            other => panic!("bad object: {other:?}"),
                        }
                    }
                }
                _ => number(c),
            }
        }

        fn string(c: &mut Vec<char>) -> String {
            expect(c, '"');
            let mut out = String::new();
            loop {
                match c.pop().expect("unterminated string") {
                    '"' => return out,
                    '\\' => match c.pop().expect("bad escape") {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex: String = (0..4).map(|_| c.pop().expect("short \\u")).collect();
                            let code = u32::from_str_radix(&hex, 16).expect("bad \\u hex");
                            out.push(char::from_u32(code).expect("surrogate"));
                        }
                        other => panic!("bad escape \\{other}"),
                    },
                    ch => out.push(ch),
                }
            }
        }

        fn number(c: &mut Vec<char>) -> Value {
            let mut text = String::new();
            while c.last().is_some_and(|ch| ch.is_ascii_digit() || "+-.eE".contains(*ch)) {
                text.push(c.pop().unwrap());
            }
            if let Ok(i) = text.parse::<i128>() {
                Value::Int(i)
            } else {
                Value::Num(text.parse().expect("bad number"))
            }
        }
    }

    #[test]
    fn to_json_escapes_quotes_backslashes_and_control_chars() {
        let mut snap = MetricsSnapshot::default();
        snap.insert("sc\"ope", "na\\me", MetricValue::Counter(1));
        snap.insert("tab\there", "new\nline", MetricValue::Gauge(-7));
        snap.insert("bell\u{7}", "cr\rhere", MetricValue::Counter(2));
        let parsed = json::parse(&snap.to_json());
        let json::Value::Array(items) = &parsed else { panic!("not an array") };
        assert_eq!(items.len(), 3);
        let find = |scope: &str| {
            items
                .iter()
                .find(|v| v.field("scope").as_str() == scope)
                .unwrap_or_else(|| panic!("missing scope {scope:?}"))
        };
        assert_eq!(find("sc\"ope").field("name").as_str(), "na\\me");
        assert_eq!(find("tab\there").field("name").as_str(), "new\nline");
        assert_eq!(find("tab\there").field("value").as_int(), -7);
        assert_eq!(find("bell\u{7}").field("name").as_str(), "cr\rhere");
        // The bell control char must travel as a \uXXXX escape, not raw.
        assert!(snap.to_json().contains("\\u0007"));
    }

    #[test]
    fn to_json_keeps_non_ascii_and_extreme_numbers_exact() {
        let mut snap = MetricsSnapshot::default();
        snap.insert("grid", "байт.перемещено", MetricValue::Counter(u64::MAX));
        snap.insert("grid", "容量", MetricValue::Gauge(i64::MIN));
        let mut h = SimHistogram::default();
        h.observe(Duration(u64::MAX / 2));
        snap.insert("grid", "émoji-🚀", MetricValue::Histogram(h));
        let parsed = json::parse(&snap.to_json());
        let json::Value::Array(items) = &parsed else { panic!("not an array") };
        let find = |name: &str| {
            items
                .iter()
                .find(|v| v.field("name").as_str() == name)
                .unwrap_or_else(|| panic!("missing name {name:?}"))
        };
        // u64::MAX survives as an exact integer token (no float rounding).
        assert_eq!(find("байт.перемещено").field("value").as_int(), u64::MAX as i128);
        assert_eq!(find("容量").field("value").as_int(), i64::MIN as i128);
        let hist = find("émoji-🚀");
        assert_eq!(hist.field("kind").as_str(), "histogram");
        assert_eq!(hist.field("count").as_int(), 1);
        assert_eq!(hist.field("sum_us").as_int(), (u64::MAX / 2) as i128);
        assert_eq!(hist.field("min_us").as_int(), (u64::MAX / 2) as i128);
    }

    #[test]
    fn to_json_of_an_empty_snapshot_is_an_empty_array() {
        assert_eq!(MetricsSnapshot::default().to_json(), "[]");
        assert_eq!(json::parse("[]"), json::Value::Array(vec![]));
    }
}
