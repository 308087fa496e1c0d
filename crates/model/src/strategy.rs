//! Alert strategies: the policies of alert generation.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use alertops_text::title_report;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::{IStr, MicroserviceId, ModelError, ServiceId, Severity, SimDuration, StrategyId};

/// The kind of performance metric a metric rule watches.
///
/// Lower-level infrastructure indicators (CPU, disk, memory) versus
/// higher-level service indicators (latency, request rate, error rate) —
/// the distinction matters for the *improper and outdated generation
/// rule* anti-pattern (A3): due to fault tolerance, infrastructure-level
/// indicators often have no definite effect on user-perceived quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MetricKind {
    /// CPU utilization of an instance, in percent (0..=100).
    CpuUtilization,
    /// Memory utilization of an instance, in percent.
    MemoryUtilization,
    /// Disk usage of an instance, in percent.
    DiskUsage,
    /// Network throughput, in MB/s.
    NetworkThroughput,
    /// Number of open connections.
    ConnectionCount,
    /// Request latency, in milliseconds (service level).
    Latency,
    /// Requests per second (service level).
    RequestRate,
    /// Fraction of failed requests, in percent (service level).
    ErrorRate,
}

impl MetricKind {
    /// All metric kinds.
    pub const ALL: [MetricKind; 8] = [
        MetricKind::CpuUtilization,
        MetricKind::MemoryUtilization,
        MetricKind::DiskUsage,
        MetricKind::NetworkThroughput,
        MetricKind::ConnectionCount,
        MetricKind::Latency,
        MetricKind::RequestRate,
        MetricKind::ErrorRate,
    ];

    /// Whether this metric reflects low-level infrastructure state rather
    /// than user-perceived service quality.
    #[must_use]
    pub const fn is_infrastructure(self) -> bool {
        matches!(
            self,
            MetricKind::CpuUtilization
                | MetricKind::MemoryUtilization
                | MetricKind::DiskUsage
                | MetricKind::NetworkThroughput
                | MetricKind::ConnectionCount
        )
    }

    /// A short snake_case name for titles and template mining.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            MetricKind::CpuUtilization => "cpu_usage",
            MetricKind::MemoryUtilization => "memory_usage",
            MetricKind::DiskUsage => "disk_usage",
            MetricKind::NetworkThroughput => "network_throughput",
            MetricKind::ConnectionCount => "connection_count",
            MetricKind::Latency => "latency",
            MetricKind::RequestRate => "request_rate",
            MetricKind::ErrorRate => "error_rate",
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The comparison direction of a metric threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum ThresholdOp {
    /// Fire when the observed value rises above the threshold.
    Above,
    /// Fire when the observed value drops below the threshold.
    Below,
}

impl ThresholdOp {
    /// Evaluates `value` against `threshold` under this operator.
    #[must_use]
    pub fn triggers(self, value: f64, threshold: f64) -> bool {
        match self {
            ThresholdOp::Above => value > threshold,
            ThresholdOp::Below => value < threshold,
        }
    }
}

impl fmt::Display for ThresholdOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThresholdOp::Above => ">",
            ThresholdOp::Below => "<",
        })
    }
}

/// A probe rule: "if a target service does not respond to probing
/// requests for longer than `no_response_timeout`, generate an alert".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProbeRule {
    /// The fixed no-response timeout.
    pub no_response_timeout: SimDuration,
}

/// A log rule: keyword matching over a sliding window, e.g. "IF the logs
/// contain 5 ERRORs in the past 2 minutes, THEN generate an alert".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogRule {
    /// The keyword matched in log lines (case-insensitive). Interned:
    /// a catalog holds a handful of distinct keywords.
    pub keyword: IStr,
    /// The minimum number of matches within the window to fire.
    pub min_count: u32,
    /// The sliding-window length.
    pub window: SimDuration,
}

/// A metric rule: a threshold over a performance metric time series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRule {
    /// Which metric is monitored.
    pub metric: MetricKind,
    /// Comparison direction.
    pub op: ThresholdOp,
    /// Threshold value, in the metric's unit.
    pub threshold: f64,
    /// How many consecutive over-threshold samples are required before the
    /// alert fires (a *debounce*; 1 means fire on the first sample).
    ///
    /// Over-sensitive strategies (debounce of 1 on a noisy metric) are the
    /// main cause of the *transient and toggling* anti-pattern (A4).
    pub consecutive_samples: u32,
}

/// The three categories of system-reliability alert strategies: probes,
/// logs, and metrics (paper §II-B3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StrategyKind {
    /// Heartbeat probing with a fixed no-response threshold.
    Probe(ProbeRule),
    /// Keyword matching over service logs.
    Log(LogRule),
    /// Static threshold over a performance metric.
    Metric(MetricRule),
}

impl StrategyKind {
    /// A short label for the category ("probe", "log", "metric").
    #[must_use]
    pub const fn category(&self) -> &'static str {
        match self {
            StrategyKind::Probe(_) => "probe",
            StrategyKind::Log(_) => "log",
            StrategyKind::Metric(_) => "metric",
        }
    }

    /// Whether alerts from this strategy can be *automatically cleared*.
    ///
    /// Per the paper (§II-B4), the monitoring system keeps watching probe
    /// and metric strategies and clears their alerts when the service
    /// returns to a normal state; log alerts must be cleared manually.
    #[must_use]
    pub const fn supports_auto_clear(&self) -> bool {
        matches!(self, StrategyKind::Probe(_) | StrategyKind::Metric(_))
    }
}

/// An alert strategy: when to generate an alert, what attributes and
/// description it has, and to whom it is sent.
///
/// Construct with [`AlertStrategy::builder`].
///
/// A strategy is catalog reference data, copied into every shard and
/// node that governs it, so a row is one shared allocation: an
/// `AlertStrategy` is a handle on it, one pointer wide, and cloning a
/// row is one refcount bump. The `with_*` edits copy the row on write,
/// so an edited copy never changes the row it was cloned from. The
/// row's strings are interned, so even that copy shares its text.
///
/// # Example
///
/// ```
/// use alertops_model::{
///     AlertStrategy, MetricKind, MetricRule, MicroserviceId, ServiceId,
///     Severity, SimDuration, StrategyId, StrategyKind, ThresholdOp,
/// };
///
/// # fn main() -> Result<(), alertops_model::ModelError> {
/// let strategy = AlertStrategy::builder(StrategyId(1))
///     .title_template("CPU usage of nginx instance is higher than 80%")
///     .severity(Severity::Major)
///     .service(ServiceId(0))
///     .microservice(MicroserviceId(4))
///     .kind(StrategyKind::Metric(MetricRule {
///         metric: MetricKind::CpuUtilization,
///         op: ThresholdOp::Above,
///         threshold: 80.0,
///         consecutive_samples: 3,
///     }))
///     .cooldown(SimDuration::from_mins(5))
///     .build()?;
/// assert_eq!(strategy.kind().category(), "metric");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct AlertStrategy(Arc<row::AlertStrategy>);

mod row {
    use serde::{Deserialize, Serialize};

    use super::{NotifyTargets, StrategyKind};
    use crate::{IStr, MicroserviceId, ServiceId, Severity, SimDuration, StrategyId};

    /// The fields of one strategy row, shared by every handle on it.
    /// Named as the public type, so the derived `Debug` prints the
    /// same text a row printed when it was held by value.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub(super) struct AlertStrategy {
        pub(super) id: StrategyId,
        pub(super) title_template: IStr,
        pub(super) severity: Severity,
        pub(super) service: ServiceId,
        pub(super) microservice: MicroserviceId,
        pub(super) kind: StrategyKind,
        pub(super) cooldown: SimDuration,
        pub(super) notify: NotifyTargets,
    }
}

impl fmt::Debug for AlertStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for AlertStrategy {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for AlertStrategy {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        row::AlertStrategy::from_value(value).map(|row| AlertStrategy(Arc::new(row)))
    }
}

/// A strategy's notification targets: one immutable list in one
/// allocation trimmed to its length, which a row copied on write by a
/// `with_*` edit shares. Serialized as a plain JSON array of strings.
#[derive(Clone, PartialEq)]
struct NotifyTargets(Arc<[IStr]>);

impl fmt::Debug for NotifyTargets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for NotifyTargets {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for NotifyTargets {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Vec::<IStr>::from_value(value).map(|targets| NotifyTargets(targets.into()))
    }
}

impl AlertStrategy {
    /// Starts building a strategy with the given id.
    #[must_use]
    pub fn builder(id: StrategyId) -> AlertStrategyBuilder {
        AlertStrategyBuilder {
            id,
            title_template: None,
            severity: Severity::Warning,
            service: ServiceId(0),
            microservice: MicroserviceId(0),
            kind: None,
            cooldown: SimDuration::ZERO,
            notify: Vec::new(),
        }
    }

    /// The strategy id.
    #[must_use]
    pub fn id(&self) -> StrategyId {
        self.0.id
    }

    /// The free-text title template used for alerts of this strategy.
    #[must_use]
    pub fn title_template(&self) -> &str {
        &self.0.title_template
    }

    /// The title template as its interned handle. Alert producers
    /// clone this straight into [`crate::AlertBuilder::title`] — a
    /// refcount bump per alert instead of a fresh `String`.
    #[must_use]
    pub fn title_template_interned(&self) -> &IStr {
        &self.0.title_template
    }

    /// The configured severity of alerts from this strategy.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.0.severity
    }

    /// The owning cloud service.
    #[must_use]
    pub fn service(&self) -> ServiceId {
        self.0.service
    }

    /// The owning microservice.
    #[must_use]
    pub fn microservice(&self) -> MicroserviceId {
        self.0.microservice
    }

    /// The generation rule.
    #[must_use]
    pub fn kind(&self) -> &StrategyKind {
        &self.0.kind
    }

    /// The minimum spacing between two alerts of this strategy.
    ///
    /// A zero or tiny cooldown on a frequently-triggering rule produces
    /// the *repeating alerts* anti-pattern (A5).
    #[must_use]
    pub fn cooldown(&self) -> SimDuration {
        self.0.cooldown
    }

    /// Notification targets (e-mail addresses, pager groups, ...).
    #[must_use]
    pub fn notify(&self) -> &[IStr] {
        &self.0.notify.0
    }

    /// Replaces the configured severity, returning the updated strategy.
    ///
    /// Used by governance when a severity review (A2 mitigation) concludes
    /// the severity is misleading.
    #[must_use]
    pub fn with_severity(mut self, severity: Severity) -> Self {
        Arc::make_mut(&mut self.0).severity = severity;
        self
    }

    /// Replaces the title template, returning the updated strategy.
    ///
    /// Used by governance when a title lint (A1 mitigation) rewrites an
    /// unclear title.
    #[must_use]
    pub fn with_title_template(mut self, template: impl Into<IStr>) -> Self {
        Arc::make_mut(&mut self.0).title_template = template.into();
        self
    }

    /// Replaces the cooldown, returning the updated strategy.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown: SimDuration) -> Self {
        Arc::make_mut(&mut self.0).cooldown = cooldown;
        self
    }

    /// Replaces the generation rule, returning the updated strategy.
    ///
    /// Used by governance remediation when a rule review (A4 mitigation)
    /// re-tunes debounce or thresholds.
    #[must_use]
    pub fn with_kind(mut self, kind: StrategyKind) -> Self {
        Arc::make_mut(&mut self.0).kind = kind;
        self
    }
}

/// Builder for [`AlertStrategy`]; see [`AlertStrategy::builder`].
#[derive(Debug, Clone)]
pub struct AlertStrategyBuilder {
    id: StrategyId,
    title_template: Option<IStr>,
    severity: Severity,
    service: ServiceId,
    microservice: MicroserviceId,
    kind: Option<StrategyKind>,
    cooldown: SimDuration,
    notify: Vec<IStr>,
}

impl AlertStrategyBuilder {
    /// Sets the title template (required, must be non-empty).
    #[must_use]
    pub fn title_template(mut self, template: impl Into<IStr>) -> Self {
        self.title_template = Some(template.into());
        self
    }

    /// Sets the configured severity (defaults to `Warning`).
    #[must_use]
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Sets the owning service (defaults to `ServiceId(0)`).
    #[must_use]
    pub fn service(mut self, service: ServiceId) -> Self {
        self.service = service;
        self
    }

    /// Sets the owning microservice (defaults to `MicroserviceId(0)`).
    #[must_use]
    pub fn microservice(mut self, microservice: MicroserviceId) -> Self {
        self.microservice = microservice;
        self
    }

    /// Sets the generation rule (required).
    #[must_use]
    pub fn kind(mut self, kind: StrategyKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Sets the per-strategy cooldown (defaults to zero).
    #[must_use]
    pub fn cooldown(mut self, cooldown: SimDuration) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Adds a notification target.
    #[must_use]
    pub fn notify(mut self, target: impl Into<IStr>) -> Self {
        self.notify.push(target.into());
        self
    }

    /// Builds the strategy.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingField`] if the title template or rule
    /// kind was not provided, and [`ModelError::EmptyTitle`] if the title
    /// template is empty or whitespace-only.
    pub fn build(self) -> Result<AlertStrategy, ModelError> {
        let title_template = self
            .title_template
            .ok_or(ModelError::MissingField("title_template"))?;
        if title_template.trim().is_empty() {
            return Err(ModelError::EmptyTitle);
        }
        let kind = self.kind.ok_or(ModelError::MissingField("kind"))?;
        Ok(AlertStrategy(Arc::new(row::AlertStrategy {
            id: self.id,
            title_template,
            severity: self.severity,
            service: self.service,
            microservice: self.microservice,
            kind,
            cooldown: self.cooldown,
            notify: NotifyTargets(self.notify.into()),
        })))
    }
}

/// A strategy catalog with a by-id lookup and each title's
/// informativeness score.
///
/// A catalog in strictly ascending id order — the simulator's, and any
/// shard's or node's slice filtered from it — needs no index:
/// [`get`](Self::get) binary-searches the rows. Any other order gets an
/// id → row map, built once at construction; on a duplicate id the
/// first row wins, as a linear `find` over the rows would have it.
///
/// A title's score is a fixed property of its strategy, so each row's
/// is computed once per catalog, and the per-window QoA samples read it
/// with [`title_score`](Self::title_score) instead of re-tokenizing the
/// title at every close.
#[derive(Debug, Clone)]
pub struct IndexedCatalog {
    rows: Vec<AlertStrategy>,
    /// `title_report(title).score` of each row, row-aligned with `rows`.
    /// Filled by the first [`title_score`](Self::title_score) call: only
    /// a holder with the QoA channel on reads it, and a process holds
    /// several catalogs (8 B per row each) that never do.
    title_scores: OnceLock<Vec<f64>>,
    /// `None` while `rows` is in strictly ascending id order.
    by_id: Option<HashMap<StrategyId, usize>>,
}

impl IndexedCatalog {
    /// Takes the rows in the order given; O(rows).
    #[must_use]
    pub fn new(rows: Vec<AlertStrategy>) -> Self {
        let ascending = rows.windows(2).all(|pair| pair[0].id() < pair[1].id());
        let by_id = (!ascending).then(|| {
            let mut by_id = HashMap::with_capacity(rows.len());
            for (row, strategy) in rows.iter().enumerate() {
                by_id.entry(strategy.id()).or_insert(row);
            }
            by_id
        });
        Self {
            rows,
            title_scores: OnceLock::new(),
            by_id,
        }
    }

    /// The rows, in the order they were given.
    #[must_use]
    pub fn rows(&self) -> &[AlertStrategy] {
        &self.rows
    }

    /// The strategy with the given id, if the catalog has one.
    #[must_use]
    pub fn get(&self, id: StrategyId) -> Option<&AlertStrategy> {
        self.position(id).map(|row| &self.rows[row])
    }

    /// The informativeness score of the title of the strategy
    /// [`get`](Self::get) returns for `id`: exactly
    /// `alertops_text::title_report(title).score`. The first call scores
    /// every row, O(rows); every call after it is one row lookup.
    #[must_use]
    pub fn title_score(&self, id: StrategyId) -> Option<f64> {
        let row = self.position(id)?;
        let scores = self.title_scores.get_or_init(|| {
            self.rows
                .iter()
                .map(|strategy| title_report(strategy.title_template()).score)
                .collect()
        });
        Some(scores[row])
    }

    /// The index in [`rows`](Self::rows) of the strategy
    /// [`get`](Self::get) returns for `id`.
    #[must_use]
    pub fn position(&self, id: StrategyId) -> Option<usize> {
        match &self.by_id {
            None => self.rows.binary_search_by_key(&id, AlertStrategy::id).ok(),
            Some(by_id) => by_id.get(&id).copied(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_kind() -> StrategyKind {
        StrategyKind::Metric(MetricRule {
            metric: MetricKind::CpuUtilization,
            op: ThresholdOp::Above,
            threshold: 80.0,
            consecutive_samples: 1,
        })
    }

    #[test]
    fn builder_requires_title_and_kind() {
        let err = AlertStrategy::builder(StrategyId(1))
            .kind(metric_kind())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MissingField("title_template")));

        let err = AlertStrategy::builder(StrategyId(1))
            .title_template("x")
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::MissingField("kind")));
    }

    #[test]
    fn builder_rejects_blank_title() {
        let err = AlertStrategy::builder(StrategyId(1))
            .title_template("   ")
            .kind(metric_kind())
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::EmptyTitle));
    }

    #[test]
    fn builder_sets_all_fields() {
        let s = AlertStrategy::builder(StrategyId(3))
            .title_template("nginx_cpu_usage_over_80")
            .severity(Severity::Major)
            .service(ServiceId(1))
            .microservice(MicroserviceId(2))
            .kind(metric_kind())
            .cooldown(SimDuration::from_mins(5))
            .notify("oce-team@example.com")
            .build()
            .unwrap();
        assert_eq!(s.id(), StrategyId(3));
        assert_eq!(s.severity(), Severity::Major);
        assert_eq!(s.service(), ServiceId(1));
        assert_eq!(s.microservice(), MicroserviceId(2));
        assert_eq!(s.cooldown(), SimDuration::from_mins(5));
        assert_eq!(s.notify(), ["oce-team@example.com"]);
        assert_eq!(s.kind().category(), "metric");
    }

    #[test]
    fn with_mutators_replace_fields() {
        let s = AlertStrategy::builder(StrategyId(1))
            .title_template("old title")
            .kind(metric_kind())
            .build()
            .unwrap();
        let s = s
            .with_severity(Severity::Critical)
            .with_title_template("new title")
            .with_cooldown(SimDuration::from_mins(10))
            .with_kind(StrategyKind::Probe(ProbeRule {
                no_response_timeout: SimDuration::from_secs(45),
            }));
        assert_eq!(s.severity(), Severity::Critical);
        assert_eq!(s.title_template(), "new title");
        assert_eq!(s.cooldown(), SimDuration::from_mins(10));
        assert_eq!(s.kind().category(), "probe");
    }

    #[test]
    fn indexed_catalog_finds_what_a_linear_find_finds() {
        let row = |id: u64, title: &str| {
            AlertStrategy::builder(StrategyId(id))
                .title_template(title)
                .kind(metric_kind())
                .build()
                .unwrap()
        };
        // Ascending (binary search), shuffled (index), and shuffled
        // with a duplicate id whose first row must win. Every title
        // scores differently (1.0, 0.13, 0.5, 0.6), so a cached score
        // read from the wrong row shows.
        let (a, b, c) = (
            "disk full on vm-42 at 80%",
            "Instance x is abnormal",
            "nginx latency",
        );
        for rows in [
            vec![row(1, a), row(4, b), row(9, c)],
            vec![row(9, c), row(1, a), row(4, b)],
            vec![row(4, "service down"), row(1, a), row(4, b)],
            Vec::new(),
        ] {
            let catalog = IndexedCatalog::new(rows.clone());
            assert_eq!(catalog.rows(), rows);
            for id in (0..12).map(StrategyId) {
                assert_eq!(catalog.get(id), rows.iter().find(|s| s.id() == id));
                assert_eq!(
                    catalog.title_score(id).map(f64::to_bits),
                    catalog
                        .get(id)
                        .map(|s| title_report(s.title_template()).score.to_bits()),
                );
            }
        }
    }

    #[test]
    fn auto_clear_support_per_category() {
        assert!(StrategyKind::Probe(ProbeRule {
            no_response_timeout: SimDuration::from_secs(30),
        })
        .supports_auto_clear());
        assert!(metric_kind().supports_auto_clear());
        assert!(!StrategyKind::Log(LogRule {
            keyword: "ERROR".into(),
            min_count: 5,
            window: SimDuration::from_mins(2),
        })
        .supports_auto_clear());
    }

    #[test]
    fn threshold_op_semantics() {
        assert!(ThresholdOp::Above.triggers(81.0, 80.0));
        assert!(!ThresholdOp::Above.triggers(80.0, 80.0));
        assert!(ThresholdOp::Below.triggers(1.0, 2.0));
        assert!(!ThresholdOp::Below.triggers(2.0, 2.0));
    }

    #[test]
    fn infrastructure_metric_partition() {
        assert!(MetricKind::CpuUtilization.is_infrastructure());
        assert!(MetricKind::DiskUsage.is_infrastructure());
        assert!(!MetricKind::Latency.is_infrastructure());
        assert!(!MetricKind::ErrorRate.is_infrastructure());
        // Exactly 5 of the 8 metric kinds are infrastructure-level.
        let infra = MetricKind::ALL
            .iter()
            .filter(|m| m.is_infrastructure())
            .count();
        assert_eq!(infra, 5);
    }

    #[test]
    fn category_labels() {
        assert_eq!(
            StrategyKind::Probe(ProbeRule {
                no_response_timeout: SimDuration::from_secs(10)
            })
            .category(),
            "probe"
        );
        assert_eq!(
            StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            })
            .category(),
            "log"
        );
    }
}
