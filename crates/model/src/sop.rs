//! Standard Operating Procedures (SOPs).

use std::fmt::{self, Write as _};
use std::sync::Arc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{IStr, ModelError, StrategyId};

/// A predefined Standard Operating Procedure: what an OCE does upon
/// receiving an alert.
///
/// Structure follows the paper's Fig. 5 example
/// (`nginx_cpu_usage_over_80`): alert name, description, generation rule,
/// potential impact, possible causes, and steps to diagnose.
///
/// A SOP is static reference data, so a `Sop` is a handle: its clones
/// share one immutable body, and cloning one costs a refcount bump.
/// Every holder of a catalog's SOPs (the simulator's catalog, each
/// shard's governor, a cluster's governor factory) points at the same
/// bodies. The lines are shared too: every section, cause and step is
/// an [`IStr`] interned through the building (or deserializing)
/// thread's default table, so a line that many SOPs repeat, or that
/// is also a strategy's title, is held once.
///
/// # Example
///
/// ```
/// use alertops_model::{Sop, StrategyId};
///
/// # fn main() -> Result<(), alertops_model::ModelError> {
/// let sop = Sop::builder("nginx_cpu_usage_over_80", StrategyId(12))
///     .description("CPU usage of nginx instance is higher than 80%")
///     .generation_rule(
///         "Continuously check the CPU usage of nginx instance, generate \
///          the alert when usage is higher than 80%.",
///     )
///     .potential_impact("Affects the forwarding of all requests.")
///     .possible_cause("The workload is too high.")
///     .step("execute command `top -bn1` in the instance")
///     .step("identify the busiest process and compare with the deploy manifest")
///     .build()?;
/// assert_eq!(sop.steps().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Sop(Arc<SopBody>);

/// The immutable sections of a [`Sop`], wrapped once by
/// [`SopBuilder::build`]. Serialized as the SOP itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SopBody {
    alert_name: IStr,
    strategy: StrategyId,
    description: IStr,
    generation_rule: IStr,
    potential_impact: IStr,
    possible_causes: Vec<IStr>,
    steps: Vec<IStr>,
}

impl SopBody {
    /// Wraps the finished body, its lists trimmed to their length.
    fn seal(mut self) -> Sop {
        self.possible_causes.shrink_to_fit();
        self.steps.shrink_to_fit();
        Sop(Arc::new(self))
    }
}

impl Sop {
    /// Starts building a SOP for the alert named `alert_name`, produced by
    /// `strategy`.
    #[must_use]
    pub fn builder(alert_name: impl Into<IStr>, strategy: StrategyId) -> SopBuilder {
        SopBuilder {
            body: SopBody {
                alert_name: alert_name.into(),
                strategy,
                description: IStr::empty(),
                generation_rule: IStr::empty(),
                potential_impact: IStr::empty(),
                possible_causes: Vec::new(),
                steps: Vec::new(),
            },
        }
    }

    /// The alert name the OCE looks up to find this SOP.
    #[must_use]
    pub fn alert_name(&self) -> &str {
        &self.0.alert_name
    }

    /// The strategy this SOP belongs to.
    #[must_use]
    pub fn strategy(&self) -> StrategyId {
        self.0.strategy
    }

    /// Human-readable description of the alert condition.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.0.description
    }

    /// Description of the generation rule (the alert strategy).
    #[must_use]
    pub fn generation_rule(&self) -> &str {
        &self.0.generation_rule
    }

    /// The potential impact on the cloud system.
    #[must_use]
    pub fn potential_impact(&self) -> &str {
        &self.0.potential_impact
    }

    /// Possible root causes, most likely first.
    #[must_use]
    pub fn possible_causes(&self) -> &[IStr] {
        &self.0.possible_causes
    }

    /// The diagnosis steps, in order.
    #[must_use]
    pub fn steps(&self) -> &[IStr] {
        &self.0.steps
    }

    /// A crude completeness score in `[0, 1]`: fraction of the six SOP
    /// sections that are non-empty.
    ///
    /// The paper's survey found 77.8% of OCEs consider current SOPs of
    /// limited help; incomplete SOPs lower the QoA *handleability*
    /// criterion, and this score is the feature that captures it.
    #[must_use]
    pub fn completeness(&self) -> f64 {
        let body = &*self.0;
        let sections = [
            !body.alert_name.trim().is_empty(),
            !body.description.trim().is_empty(),
            !body.generation_rule.trim().is_empty(),
            !body.potential_impact.trim().is_empty(),
            !body.possible_causes.is_empty(),
            !body.steps.is_empty(),
        ];
        sections.iter().filter(|&&s| s).count() as f64 / sections.len() as f64
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = &*self.0;
        f.debug_struct("Sop")
            .field("alert_name", &body.alert_name)
            .field("strategy", &body.strategy)
            .field("description", &body.description)
            .field("generation_rule", &body.generation_rule)
            .field("potential_impact", &body.potential_impact)
            .field("possible_causes", &body.possible_causes)
            .field("steps", &body.steps)
            .finish()
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = &*self.0;
        writeln!(f, "SOP for alert {}", body.alert_name)?;
        writeln!(f, "  Description:       {}", body.description)?;
        writeln!(f, "  Generation Rule:   {}", body.generation_rule)?;
        writeln!(f, "  Potential Impact:  {}", body.potential_impact)?;
        writeln!(f, "  Possible Causes:")?;
        for (i, cause) in body.possible_causes.iter().enumerate() {
            f.write_str("    ")?;
            write_cause_label(f, i)?;
            writeln!(f, ") {cause}")?;
        }
        writeln!(f, "  Steps to Diagnose:")?;
        for (i, step) in body.steps.iter().enumerate() {
            writeln!(f, "    Step {}: {step}", i + 1)?;
        }
        Ok(())
    }
}

/// Writes the label of the `i`-th possible cause (0-based): `a` … `z`,
/// then `aa`, `ab`, … — bijective base 26, the way spreadsheet columns
/// are named, so no count of causes runs out of letters.
fn write_cause_label(f: &mut fmt::Formatter<'_>, i: usize) -> fmt::Result {
    if i >= 26 {
        write_cause_label(f, i / 26 - 1)?;
    }
    // `i % 26 < 26`: the sum stays inside `b'a'..=b'z'`.
    f.write_char(char::from(b'a' + (i % 26) as u8))
}

impl Serialize for Sop {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for Sop {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        SopBody::from_value(value).map(SopBody::seal)
    }
}

/// Builder for [`Sop`]; see [`Sop::builder`].
#[derive(Debug, Clone)]
pub struct SopBuilder {
    body: SopBody,
}

impl SopBuilder {
    /// Sets the description section.
    #[must_use]
    pub fn description(mut self, text: impl Into<IStr>) -> Self {
        self.body.description = text.into();
        self
    }

    /// Sets the generation-rule section.
    #[must_use]
    pub fn generation_rule(mut self, text: impl Into<IStr>) -> Self {
        self.body.generation_rule = text.into();
        self
    }

    /// Sets the potential-impact section.
    #[must_use]
    pub fn potential_impact(mut self, text: impl Into<IStr>) -> Self {
        self.body.potential_impact = text.into();
        self
    }

    /// Appends a possible cause.
    #[must_use]
    pub fn possible_cause(mut self, text: impl Into<IStr>) -> Self {
        self.body.possible_causes.push(text.into());
        self
    }

    /// Appends a diagnosis step.
    #[must_use]
    pub fn step(mut self, text: impl Into<IStr>) -> Self {
        self.body.steps.push(text.into());
        self
    }

    /// Builds the SOP.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTitle`] if the alert name is blank. All
    /// other sections may legitimately be empty — that is exactly the
    /// low-quality SOP the handleability criterion penalizes.
    pub fn build(self) -> Result<Sop, ModelError> {
        if self.body.alert_name.trim().is_empty() {
            return Err(ModelError::EmptyTitle);
        }
        Ok(self.body.seal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_sop() -> Sop {
        Sop::builder("nginx_cpu_usage_over_80", StrategyId(1))
            .description("CPU usage of nginx instance is higher than 80%")
            .generation_rule("Check CPU usage; alert when > 80%.")
            .potential_impact("Affects the forwarding of all requests.")
            .possible_cause("The workload is too high.")
            .possible_cause("A runaway worker process.")
            .step("execute command top -bn1 in the instance")
            .step("check nginx worker count")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_blank_name() {
        assert!(Sop::builder("  ", StrategyId(1)).build().is_err());
    }

    #[test]
    fn completeness_full() {
        assert!((full_sop().completeness() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn completeness_partial() {
        let sop = Sop::builder("x", StrategyId(1)).build().unwrap();
        // Only the name section is filled: 1/6.
        assert!((sop.completeness() - 1.0 / 6.0).abs() < 1e-12);
        let sop = Sop::builder("x", StrategyId(1))
            .description("d")
            .step("s")
            .build()
            .unwrap();
        assert!((sop.completeness() - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn display_mirrors_fig5_layout() {
        let text = full_sop().to_string();
        assert!(text.starts_with("SOP for alert nginx_cpu_usage_over_80"));
        assert!(text.contains("a) The workload is too high."));
        assert!(text.contains("b) A runaway worker process."));
        assert!(text.contains("Step 1: execute command top -bn1 in the instance"));
        assert!(text.contains("Step 2: check nginx worker count"));
    }

    #[test]
    fn cause_labels_run_past_z_without_overflow() {
        let labels = |causes: usize| -> Vec<String> {
            let sop = (0..causes)
                .fold(Sop::builder("x", StrategyId(1)), |b, i| {
                    b.possible_cause(format!("cause {i}"))
                })
                .build()
                .unwrap();
            sop.to_string()
                .lines()
                .filter_map(|line| {
                    let (label, rest) = line.trim_start().split_once(") ")?;
                    rest.starts_with("cause ").then(|| label.to_owned())
                })
                .collect()
        };
        let thirty = labels(30);
        assert_eq!(thirty.len(), 30);
        assert_eq!(thirty[0], "a");
        assert_eq!(thirty[25], "z");
        assert_eq!(thirty[26..], ["aa", "ab", "ac", "ad"]);
        // 200 causes: past the 158th the old `b'a' + i as u8` overflowed.
        let two_hundred = labels(200);
        assert_eq!(two_hundred.len(), 200);
        assert_eq!(two_hundred[51], "az");
        assert_eq!(two_hundred[52], "ba");
        assert_eq!(two_hundred[199], "gr");
        assert!(two_hundred
            .iter()
            .all(|label| label.bytes().all(|b| b.is_ascii_lowercase())));
        let distinct: std::collections::BTreeSet<_> = two_hundred.iter().collect();
        assert_eq!(distinct.len(), 200, "every label names one cause");
    }

    #[test]
    fn a_round_trip_shares_the_originals_lines() {
        for sop in [
            full_sop(),
            Sop::builder("x", StrategyId(2)).build().unwrap(),
        ] {
            let json = serde_json::to_string(&sop).unwrap();
            let back: Sop = serde_json::from_str(&json).unwrap();
            assert_eq!(back, sop);
            let (a, b) = (&*sop.0, &*back.0);
            let sections = [
                (&a.alert_name, &b.alert_name),
                (&a.description, &b.description),
                (&a.generation_rule, &b.generation_rule),
                (&a.potential_impact, &b.potential_impact),
            ];
            let causes = a.possible_causes.iter().zip(&b.possible_causes);
            let steps = a.steps.iter().zip(&b.steps);
            for (line, copy) in sections.into_iter().chain(causes).chain(steps) {
                assert!(line.ptr_eq(copy), "{line:?} is held twice");
            }
            assert_eq!(b.possible_causes.capacity(), b.possible_causes.len());
            assert_eq!(b.steps.capacity(), b.steps.len());
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn accessors() {
        let sop = full_sop();
        assert_eq!(sop.alert_name(), "nginx_cpu_usage_over_80");
        assert_eq!(sop.strategy(), StrategyId(1));
        assert_eq!(sop.possible_causes().len(), 2);
        assert_eq!(sop.steps().len(), 2);
        assert!(sop.potential_impact().contains("forwarding"));
    }
}
