//! The domain value model: what data is worth, to whom, and when.

use dgf_dgms::LogicalPath;
use dgf_simgrid::{DomainId, SimTime};

/// One value assertion: data under `scope` has business value `value`
/// (0.0–1.0) to `domain` as of `asserted_at`, decaying exponentially
/// with half-life `half_life_days` (0 = no decay).
///
/// §2.1: "data being created might be of interest to the domain that is
/// creating it. Later, some other domain in the data grid might have
/// more value for the same information."
#[derive(Debug, Clone, PartialEq)]
pub struct ValueEntry {
    /// The valuing domain.
    pub domain: DomainId,
    /// The subtree the value applies to.
    pub scope: LogicalPath,
    /// Value at assertion time, in `[0, 1]`.
    pub value: f64,
    /// When the value was asserted.
    pub asserted_at: SimTime,
    /// Exponential decay half-life in days; 0 disables decay.
    pub half_life_days: f64,
}

impl ValueEntry {
    /// The entry's value at time `now` (never negative; saturates at the
    /// asserted value for `now` before assertion).
    pub fn value_at(&self, now: SimTime) -> f64 {
        if self.half_life_days <= 0.0 || now <= self.asserted_at {
            return self.value;
        }
        let age_days = now.since(self.asserted_at).as_secs_f64() / 86_400.0;
        self.value * 0.5f64.powf(age_days / self.half_life_days)
    }
}

/// The grid-wide value model: a set of assertions, queried per
/// (domain, path, time). The most specific (deepest-scope) assertion for
/// a domain wins; absent any assertion the value is 0.
#[derive(Debug, Clone, Default)]
pub struct DomainValueModel {
    entries: Vec<ValueEntry>,
}

impl DomainValueModel {
    /// An empty model (everything worthless to everyone).
    pub fn new() -> Self {
        Self::default()
    }

    /// Assert a value.
    pub fn assert_value(&mut self, entry: ValueEntry) {
        self.entries.push(entry);
    }

    /// Convenience: assert a non-decaying value.
    pub fn set(&mut self, domain: DomainId, scope: LogicalPath, value: f64, at: SimTime) {
        self.assert_value(ValueEntry { domain, scope, value, asserted_at: at, half_life_days: 0.0 });
    }

    /// The value of `path` to `domain` at `now`.
    pub fn value(&self, domain: DomainId, path: &LogicalPath, now: SimTime) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.domain == domain && path.is_under(&e.scope))
            .max_by_key(|e| (e.scope.depth(), e.asserted_at))
            .map(|e| e.value_at(now))
            .unwrap_or(0.0)
    }

    /// The highest value any domain assigns to `path` at `now` — the
    /// grid-wide retention signal (data is kept as long as *someone*
    /// wants it).
    pub fn peak_value(&self, path: &LogicalPath, now: SimTime) -> f64 {
        self.entries
            .iter()
            .filter(|e| path.is_under(&e.scope))
            .map(|e| e.value_at(now))
            .fold(0.0, f64::max)
    }

    /// Number of assertions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no values are asserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin the exact values the domain-value model returns")]
mod tests {
    use super::*;

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    #[test]
    fn most_specific_scope_wins() {
        let mut m = DomainValueModel::new();
        m.set(DomainId(0), path("/data"), 0.2, SimTime::ZERO);
        m.set(DomainId(0), path("/data/hot"), 0.9, SimTime::ZERO);
        assert_eq!(m.value(DomainId(0), &path("/data/cold/x"), SimTime::ZERO), 0.2);
        assert_eq!(m.value(DomainId(0), &path("/data/hot/x"), SimTime::ZERO), 0.9);
        assert_eq!(m.value(DomainId(1), &path("/data/hot/x"), SimTime::ZERO), 0.0, "other domain unaffected");
        assert_eq!(m.value(DomainId(0), &path("/elsewhere"), SimTime::ZERO), 0.0);
    }

    #[test]
    fn later_assertion_wins_at_equal_depth() {
        let mut m = DomainValueModel::new();
        m.set(DomainId(0), path("/d"), 0.9, SimTime::ZERO);
        m.set(DomainId(0), path("/d"), 0.1, SimTime::from_days(10));
        assert_eq!(m.value(DomainId(0), &path("/d/x"), SimTime::from_days(11)), 0.1);
    }

    #[test]
    fn decay_halves_per_half_life() {
        let e = ValueEntry {
            domain: DomainId(0),
            scope: path("/d"),
            value: 0.8,
            asserted_at: SimTime::ZERO,
            half_life_days: 30.0,
        };
        assert_eq!(e.value_at(SimTime::ZERO), 0.8);
        let after_30 = e.value_at(SimTime::from_days(30));
        assert!((after_30 - 0.4).abs() < 1e-9);
        let after_60 = e.value_at(SimTime::from_days(60));
        assert!((after_60 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn peak_value_spans_domains() {
        let mut m = DomainValueModel::new();
        m.set(DomainId(0), path("/d"), 0.1, SimTime::ZERO);
        m.set(DomainId(1), path("/d"), 0.7, SimTime::ZERO);
        assert_eq!(m.peak_value(&path("/d/x"), SimTime::ZERO), 0.7);
        assert_eq!(m.peak_value(&path("/other"), SimTime::ZERO), 0.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn archiver_pattern_value_grows_elsewhere() {
        // §2.1: creator's interest decays; the archiver domain's interest
        // (asserted later) takes over.
        let mut m = DomainValueModel::new();
        m.assert_value(ValueEntry {
            domain: DomainId(0), // creator
            scope: path("/study"),
            value: 1.0,
            asserted_at: SimTime::ZERO,
            half_life_days: 14.0,
        });
        m.set(DomainId(9), path("/study"), 0.5, SimTime::from_days(30)); // archiver
        let now = SimTime::from_days(60);
        assert!(m.value(DomainId(0), &path("/study/scan1"), now) < 0.1);
        assert_eq!(m.value(DomainId(9), &path("/study/scan1"), now), 0.5);
    }
}
