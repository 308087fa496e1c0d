//! Location information attached to alerts.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{IStr, RegionId};

/// The location information of an alert: the information necessary to
/// locate the anomalous service or microservice.
///
/// Mirrors the `Region=X;DC=1;` location strings of the paper's Table II,
/// optionally extended with an instance name.
///
/// # Example
///
/// ```
/// use alertops_model::Location;
///
/// let loc = Location::new("region-x", "dc-1").with_instance("nginx-42");
/// assert_eq!(loc.to_string(), "Region=region-x;DC=dc-1;Instance=nginx-42;");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Location {
    region: RegionId,
    dc: IStr,
    instance: Option<IStr>,
}

impl Location {
    /// Creates a location from a region and a data-center name.
    pub fn new(region: impl Into<RegionId>, dc: impl Into<IStr>) -> Self {
        Self {
            region: region.into(),
            dc: dc.into(),
            instance: None,
        }
    }

    /// Attaches an instance name (e.g. the VM or container the alert
    /// fired on). Consuming builder-style setter.
    #[must_use]
    pub fn with_instance(mut self, instance: impl Into<IStr>) -> Self {
        self.instance = Some(instance.into());
        self
    }

    /// The region this alert belongs to.
    #[must_use]
    pub fn region(&self) -> &RegionId {
        &self.region
    }

    /// The data center within the region.
    #[must_use]
    pub fn dc(&self) -> &str {
        &self.dc
    }

    /// The data center as its interned handle.
    #[must_use]
    pub fn dc_interned(&self) -> &IStr {
        &self.dc
    }

    /// The instance, if one was recorded.
    #[must_use]
    pub fn instance(&self) -> Option<&str> {
        self.instance.as_deref()
    }

    /// The instance as its interned handle, if one was recorded.
    #[must_use]
    pub fn instance_interned(&self) -> Option<&IStr> {
        self.instance.as_ref()
    }

    /// Whether this location pins down an instance.
    ///
    /// Locations without an instance are less *handleable*: the OCE must
    /// find the faulty instance manually. The QoA handleability criterion
    /// uses this.
    #[must_use]
    pub fn is_instance_level(&self) -> bool {
        self.instance.is_some()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Region={};DC={};", self.region, self.dc)?;
        if let Some(instance) = &self.instance {
            write!(f, "Instance={instance};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_format() {
        let loc = Location::new("X", "1");
        assert_eq!(loc.to_string(), "Region=X;DC=1;");
    }

    #[test]
    fn instance_level_detection() {
        let coarse = Location::new("r", "d");
        assert!(!coarse.is_instance_level());
        let fine = coarse.clone().with_instance("vm-7");
        assert!(fine.is_instance_level());
        assert_eq!(fine.instance(), Some("vm-7"));
        assert_eq!(fine.region().as_str(), "r");
        assert_eq!(fine.dc(), "d");
    }
}
