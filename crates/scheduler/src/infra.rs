//! The Infrastructure Description Language (§3.2): what each domain is
//! willing to share, and at what service level.

use dgf_simgrid::ComputeId;
use std::collections::BTreeMap;

/// The service-level agreement a domain publishes for one compute
/// resource. "The system administrators could change the infrastructure
/// logic based on their own domain requirements, assuring them full
/// autonomous control over what resources are shared with other grid
/// users and at what SLAs." (§2.3)
#[derive(Debug, Clone, PartialEq)]
pub struct Sla {
    /// Fraction of the resource's slots grid users may occupy (0.0–1.0).
    pub grid_share: f64,
    /// VOs allowed to use the resource; `None` = any.
    pub allowed_vos: Option<Vec<String>>,
}

impl Default for Sla {
    fn default() -> Self {
        Sla { grid_share: 1.0, allowed_vos: None }
    }
}

impl Sla {
    /// An SLA sharing only a fraction of slots. Out-of-range shares are
    /// clamped into [0.0, 1.0] (NaN counts as 0.0): a misconfigured
    /// domain should degrade to "share nothing" or "share everything,"
    /// not take the scheduler down.
    pub fn shared(grid_share: f64) -> Self {
        let grid_share = if grid_share.is_nan() { 0.0 } else { grid_share.clamp(0.0, 1.0) };
        Sla { grid_share, allowed_vos: None }
    }

    /// An SLA restricted to specific VOs.
    pub fn for_vos(vos: &[&str]) -> Self {
        Sla { grid_share: 1.0, allowed_vos: Some(vos.iter().map(|v| (*v).to_owned()).collect()) }
    }

    /// May `vo` use this resource at all?
    pub fn admits_vo(&self, vo: Option<&str>) -> bool {
        match &self.allowed_vos {
            None => true,
            Some(list) => vo.map(|v| list.iter().any(|a| a == v)).unwrap_or(false),
        }
    }

    /// How many of `total` slots grid tasks may use.
    pub fn usable_slots(&self, total: u32) -> u32 {
        ((total as f64) * self.grid_share).floor() as u32
    }
}

/// The grid-wide infrastructure description: SLAs per compute resource.
/// Resources without an entry get [`Sla::default`] (fully shared).
#[derive(Debug, Clone, Default)]
pub struct InfraDescription {
    slas: BTreeMap<ComputeId, Sla>,
}

impl InfraDescription {
    /// Everything fully shared.
    pub fn open() -> Self {
        Self::default()
    }

    /// Publish (or replace) an SLA for a resource.
    pub fn publish(&mut self, resource: ComputeId, sla: Sla) {
        self.slas.insert(resource, sla);
    }

    /// The effective SLA for a resource.
    pub fn sla(&self, resource: ComputeId) -> Sla {
        self.slas.get(&resource).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected values are exactly representable")]
mod tests {
    use super::*;

    #[test]
    fn default_sla_is_open() {
        let infra = InfraDescription::open();
        let sla = infra.sla(ComputeId(0));
        assert!(sla.admits_vo(None));
        assert!(sla.admits_vo(Some("cms")));
        assert_eq!(sla.usable_slots(64), 64);
    }

    #[test]
    fn shares_limit_slots() {
        let sla = Sla::shared(0.25);
        assert_eq!(sla.usable_slots(64), 16);
        assert_eq!(sla.usable_slots(3), 0, "floors");
    }

    #[test]
    fn vo_restrictions() {
        let sla = Sla::for_vos(&["scec", "cms"]);
        assert!(sla.admits_vo(Some("scec")));
        assert!(!sla.admits_vo(Some("atlas")));
        assert!(!sla.admits_vo(None), "VO-restricted resources refuse anonymous tasks");
    }

    #[test]
    fn published_slas_override_default() {
        let mut infra = InfraDescription::open();
        infra.publish(ComputeId(3), Sla::shared(0.5));
        assert_eq!(infra.sla(ComputeId(3)).grid_share, 0.5);
        assert_eq!(infra.sla(ComputeId(4)).grid_share, 1.0);
    }

    #[test]
    fn out_of_range_shares_are_clamped() {
        assert_eq!(Sla::shared(1.5).grid_share, 1.0);
        assert_eq!(Sla::shared(-0.25).grid_share, 0.0);
        assert_eq!(Sla::shared(f64::INFINITY).grid_share, 1.0);
        assert_eq!(Sla::shared(f64::NEG_INFINITY).grid_share, 0.0);
        assert_eq!(Sla::shared(f64::NAN).grid_share, 0.0, "NaN shares nothing");
        // Clamped SLAs behave like their boundary values.
        assert_eq!(Sla::shared(7.0).usable_slots(64), 64);
        assert_eq!(Sla::shared(-1.0).usable_slots(64), 0);
    }
}
