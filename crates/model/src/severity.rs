//! Alert severity levels.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::ModelError;

/// The severity level of an alert.
///
/// Severity helps OCEs prioritize which alert to diagnose first. The
/// ordering is `Warning < Minor < Major < Critical`, matching the levels
/// observed in the paper's alert samples ("WARNING level alert, i.e., the
/// lowest level"; Table II uses Major and Critical).
///
/// # Example
///
/// ```
/// use alertops_model::Severity;
///
/// assert!(Severity::Critical > Severity::Warning);
/// assert_eq!("major".parse::<Severity>().unwrap(), Severity::Major);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(rename_all = "snake_case")]
pub enum Severity {
    /// The lowest level; informational deviations.
    #[default]
    Warning,
    /// A minor degradation; not expected to affect end users on its own.
    Minor,
    /// A major degradation; likely user-visible if not mitigated.
    Major,
    /// The highest level; imminent or ongoing user-visible failure.
    Critical,
}

impl Severity {
    /// All severities, in ascending order.
    pub const ALL: [Severity; 4] = [
        Severity::Warning,
        Severity::Minor,
        Severity::Major,
        Severity::Critical,
    ];

    /// A numeric rank (0 = `Warning` .. 3 = `Critical`), useful as a
    /// model feature and for distance computations between the configured
    /// severity and the measured impact of a strategy.
    #[must_use]
    pub const fn rank(self) -> u8 {
        match self {
            Severity::Warning => 0,
            Severity::Minor => 1,
            Severity::Major => 2,
            Severity::Critical => 3,
        }
    }

    /// Inverse of [`rank`](Self::rank); returns `None` for ranks above 3.
    #[must_use]
    pub const fn from_rank(rank: u8) -> Option<Self> {
        match rank {
            0 => Some(Severity::Warning),
            1 => Some(Severity::Minor),
            2 => Some(Severity::Major),
            3 => Some(Severity::Critical),
            _ => None,
        }
    }

    /// The absolute rank distance between two severities.
    ///
    /// This is the core measurement behind the *misleading severity*
    /// anti-pattern (A2): a large distance between configured severity and
    /// impact-implied severity marks the strategy as misleading.
    #[must_use]
    pub const fn distance(self, other: Severity) -> u8 {
        self.rank().abs_diff(other.rank())
    }

    /// The canonical uppercase label, e.g. `"CRITICAL"`.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Warning => "WARNING",
            Severity::Minor => "MINOR",
            Severity::Major => "MAJOR",
            Severity::Critical => "CRITICAL",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "Warning",
            Severity::Minor => "Minor",
            Severity::Major => "Major",
            Severity::Critical => "Critical",
        })
    }
}

impl FromStr for Severity {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "warning" => Ok(Severity::Warning),
            "minor" => Ok(Severity::Minor),
            "major" => Ok(Severity::Major),
            "critical" => Ok(Severity::Critical),
            _ => Err(ModelError::UnknownSeverity(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_rank() {
        for window in Severity::ALL.windows(2) {
            assert!(window[0] < window[1]);
            assert!(window[0].rank() < window[1].rank());
        }
    }

    #[test]
    fn rank_roundtrips() {
        for sev in Severity::ALL {
            assert_eq!(Severity::from_rank(sev.rank()), Some(sev));
        }
        assert_eq!(Severity::from_rank(4), None);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_diagonal() {
        for a in Severity::ALL {
            for b in Severity::ALL {
                assert_eq!(a.distance(b), b.distance(a));
            }
            assert_eq!(a.distance(a), 0);
        }
        assert_eq!(Severity::Warning.distance(Severity::Critical), 3);
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("CRITICAL".parse::<Severity>().unwrap(), Severity::Critical);
        assert_eq!("Minor".parse::<Severity>().unwrap(), Severity::Minor);
        assert!("fatal".parse::<Severity>().is_err());
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(Severity::Warning.label(), "WARNING");
        assert_eq!(Severity::Critical.to_string(), "Critical");
    }
}
