//! Alerts: notifications of anomalies sent to on-call engineers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AlertId, IStr, Location, MicroserviceId, Severity, SimDuration, SimTime, StrategyId};

/// How an alert was cleared.
///
/// Per the paper (§II-B4) alerts are cleared either *manually* (the OCE
/// confirms mitigation) or *automatically* (the monitoring system observes
/// the service returning to a normal state — only probe and metric
/// strategies support this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Clearance {
    /// Manually marked as cleared by an OCE after mitigation.
    Manual,
    /// Automatically cleared by the monitoring system.
    Auto,
}

impl fmt::Display for Clearance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clearance::Manual => "manual",
            Clearance::Auto => "auto",
        })
    }
}

/// The paper's *intermittent interruption threshold* (§III-A1): an alert
/// auto-cleared sooner than this after it was raised is transient. A4
/// judges toggling with it, A2 defers transient-dominated strategies to
/// A4 with it, and QoA counts it as a feature.
pub const INTERMITTENT_THRESHOLD: SimDuration = SimDuration::from_mins(5);

/// The lifecycle state of an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AlertState {
    /// Raised and not yet cleared.
    Active,
    /// Cleared at the given time, by the given mechanism.
    Cleared {
        /// When the alert was cleared.
        at: SimTime,
        /// Whether clearance was manual or automatic.
        by: Clearance,
    },
}

/// A notification sent to OCEs, of the form defined by its alert strategy,
/// about a specific anomaly of the cloud system.
///
/// An alert carries the attributes the paper lists (§II-B2): title,
/// severity level, time of occurrence, service name, duration (once
/// cleared), and location information. It additionally records the
/// per-alert OCE *processing time*, which drives the paper's candidate
/// mining for individual anti-patterns (strategies in the top 30% of
/// average processing time).
///
/// Construct with [`Alert::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    id: AlertId,
    strategy: StrategyId,
    title: IStr,
    severity: Severity,
    service_name: IStr,
    microservice: MicroserviceId,
    location: Location,
    raised_at: SimTime,
    state: AlertState,
    processing_time: Option<SimDuration>,
}

impl Alert {
    /// Starts building an alert raised by `strategy`.
    #[must_use]
    pub fn builder(id: AlertId, strategy: StrategyId) -> AlertBuilder {
        AlertBuilder {
            id,
            strategy,
            title: None,
            severity: Severity::Warning,
            service_name: None,
            microservice: MicroserviceId(0),
            location: None,
            raised_at: SimTime::EPOCH,
            processing_time: None,
        }
    }

    /// The alert id.
    #[must_use]
    pub fn id(&self) -> AlertId {
        self.id
    }

    /// The strategy that generated this alert.
    #[must_use]
    pub fn strategy(&self) -> StrategyId {
        self.strategy
    }

    /// The free-text title describing the alert.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The title as its interned handle — clone this instead of the
    /// text when the destination stores an [`IStr`] (refcount bump, no
    /// allocation).
    #[must_use]
    pub fn title_interned(&self) -> &IStr {
        &self.title
    }

    /// The severity level.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The affected cloud service, by name (as shown to the OCE).
    #[must_use]
    pub fn service_name(&self) -> &str {
        &self.service_name
    }

    /// The service name as its interned handle.
    #[must_use]
    pub fn service_name_interned(&self) -> &IStr {
        &self.service_name
    }

    /// The affected microservice.
    #[must_use]
    pub fn microservice(&self) -> MicroserviceId {
        self.microservice
    }

    /// The location information.
    #[must_use]
    pub fn location(&self) -> &Location {
        &self.location
    }

    /// The time of occurrence.
    #[must_use]
    pub fn raised_at(&self) -> SimTime {
        self.raised_at
    }

    /// The lifecycle state.
    #[must_use]
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Whether the alert is still active.
    #[must_use]
    pub fn is_active(&self) -> bool {
        matches!(self.state, AlertState::Active)
    }

    /// When the alert was cleared, if it has been.
    #[must_use]
    pub fn cleared_at(&self) -> Option<SimTime> {
        match self.state {
            AlertState::Active => None,
            AlertState::Cleared { at, .. } => Some(at),
        }
    }

    /// How the alert was cleared, if it has been.
    #[must_use]
    pub fn clearance(&self) -> Option<Clearance> {
        match self.state {
            AlertState::Active => None,
            AlertState::Cleared { by, .. } => Some(by),
        }
    }

    /// The duration between occurrence and clearance, if cleared.
    #[must_use]
    pub fn duration(&self) -> Option<SimDuration> {
        self.cleared_at()
            .map(|at| at.duration_since(self.raised_at))
    }

    /// Whether the alert is *transient*: auto-cleared less than
    /// [`INTERMITTENT_THRESHOLD`] after it was raised.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        self.clearance() == Some(Clearance::Auto)
            && self.duration().is_some_and(|d| d < INTERMITTENT_THRESHOLD)
    }

    /// The OCE processing time recorded for this alert, if any.
    ///
    /// `None` means no OCE ever worked on the alert (e.g. it auto-cleared
    /// before anyone picked it up).
    #[must_use]
    pub fn processing_time(&self) -> Option<SimDuration> {
        self.processing_time
    }

    /// The simulation hour this alert occurred in; together with the
    /// region this is the grouping key for collective anti-pattern mining.
    #[must_use]
    pub fn hour_bucket(&self) -> u64 {
        self.raised_at.hour_bucket()
    }

    /// Marks the alert cleared at `at` by mechanism `by`.
    ///
    /// # Errors
    ///
    /// Returns the alert unchanged inside `Err` if it was already cleared
    /// or if `at` precedes the raise time, so callers can't corrupt the
    /// lifecycle invariant `cleared_at >= raised_at`.
    pub fn clear(&mut self, at: SimTime, by: Clearance) -> Result<(), crate::ModelError> {
        if !self.is_active() {
            return Err(crate::ModelError::AlreadyCleared(self.id));
        }
        if at < self.raised_at {
            return Err(crate::ModelError::ClearanceBeforeRaise(self.id));
        }
        self.state = AlertState::Cleared { at, by };
        Ok(())
    }

    /// Records the OCE processing time for this alert.
    pub fn record_processing_time(&mut self, time: SimDuration) {
        self.processing_time = Some(time);
    }

    /// Returns the same alert under a new id.
    ///
    /// Alert producers (the monitoring system, the statistical engine)
    /// assign dense ids only after sorting the full stream by raise
    /// time; this is the re-labelling step.
    #[must_use]
    pub fn with_id(mut self, id: AlertId) -> Self {
        self.id = id;
        self
    }
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} | {} | {} | {}",
            self.severity.label(),
            self.raised_at,
            self.service_name,
            self.title,
            self.location
        )
    }
}

/// Builder for [`Alert`]; see [`Alert::builder`].
///
/// Unlike [`AlertStrategyBuilder`](crate::AlertStrategyBuilder) this
/// builder is infallible: alerts are produced in bulk by the monitoring
/// system from already-validated strategies, so empty titles are allowed
/// here (and are precisely what the A1 detector exists to flag).
///
/// Starting a builder touches no interner: a string field that is never
/// set is filled at [`build`](Self::build) with the thread's cached
/// [`IStr::empty`] handle, so a caller that sets every field (both
/// decoders and the simulator do) builds its alert without one lookup.
#[derive(Debug, Clone)]
pub struct AlertBuilder {
    id: AlertId,
    strategy: StrategyId,
    title: Option<IStr>,
    severity: Severity,
    service_name: Option<IStr>,
    microservice: MicroserviceId,
    location: Option<Location>,
    raised_at: SimTime,
    processing_time: Option<SimDuration>,
}

impl AlertBuilder {
    /// Sets the title. Interned: pass an existing [`IStr`] (e.g. a
    /// strategy's cached template) to skip the intern lookup entirely.
    #[must_use]
    pub fn title(mut self, title: impl Into<IStr>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Sets the severity.
    #[must_use]
    pub fn severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Sets the affected service name.
    #[must_use]
    pub fn service(mut self, name: impl Into<IStr>) -> Self {
        self.service_name = Some(name.into());
        self
    }

    /// Sets the affected microservice id.
    #[must_use]
    pub fn microservice(mut self, id: impl Into<MicroserviceId>) -> Self {
        self.microservice = id.into();
        self
    }

    /// Sets the location.
    #[must_use]
    pub fn location(mut self, location: Location) -> Self {
        self.location = Some(location);
        self
    }

    /// Sets the raise time.
    #[must_use]
    pub fn raised_at(mut self, at: SimTime) -> Self {
        self.raised_at = at;
        self
    }

    /// Sets the processing time (normally recorded later via
    /// [`Alert::record_processing_time`]).
    #[must_use]
    pub fn processing_time(mut self, time: SimDuration) -> Self {
        self.processing_time = Some(time);
        self
    }

    /// Finishes building the alert (active, uncleared). A title,
    /// service or location that was never set reads as empty.
    #[must_use]
    pub fn build(self) -> Alert {
        Alert {
            id: self.id,
            strategy: self.strategy,
            title: self.title.unwrap_or_else(IStr::empty),
            severity: self.severity,
            service_name: self.service_name.unwrap_or_else(IStr::empty),
            microservice: self.microservice,
            location: self
                .location
                .unwrap_or_else(|| Location::new(IStr::empty(), IStr::empty())),
            raised_at: self.raised_at,
            state: AlertState::Active,
            processing_time: self.processing_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelError;

    fn sample() -> Alert {
        Alert::builder(AlertId(1), StrategyId(2))
            .title("Failed to commit changes")
            .severity(Severity::Critical)
            .service("Database")
            .microservice(MicroserviceId(7))
            .location(Location::new("X", "1"))
            .raised_at(SimTime::from_secs(100))
            .build()
    }

    #[test]
    fn builder_produces_active_alert() {
        let a = sample();
        assert!(a.is_active());
        assert_eq!(a.cleared_at(), None);
        assert_eq!(a.clearance(), None);
        assert_eq!(a.duration(), None);
        assert_eq!(a.processing_time(), None);
        assert_eq!(a.strategy(), StrategyId(2));
        assert_eq!(a.service_name(), "Database");
        assert_eq!(a.microservice(), MicroserviceId(7));
    }

    #[test]
    fn clear_records_duration() {
        let mut a = sample();
        a.clear(SimTime::from_secs(400), Clearance::Auto).unwrap();
        assert!(!a.is_active());
        assert_eq!(a.cleared_at(), Some(SimTime::from_secs(400)));
        assert_eq!(a.clearance(), Some(Clearance::Auto));
        assert_eq!(a.duration(), Some(SimDuration::from_secs(300)));
    }

    #[test]
    fn transient_means_auto_cleared_within_the_intermittent_threshold() {
        let cleared = |secs: u64, by: Clearance| {
            let mut a = sample();
            a.clear(SimTime::from_secs(100 + secs), by).unwrap();
            a
        };
        assert!(cleared(4 * 60 + 59, Clearance::Auto).is_transient());
        // Exactly the threshold is not below it.
        assert!(!cleared(INTERMITTENT_THRESHOLD.as_secs(), Clearance::Auto).is_transient());
        assert!(!cleared(60, Clearance::Manual).is_transient());
        assert!(!sample().is_transient());
    }

    #[test]
    fn clear_twice_fails() {
        let mut a = sample();
        a.clear(SimTime::from_secs(200), Clearance::Manual).unwrap();
        let err = a.clear(SimTime::from_secs(300), Clearance::Manual);
        assert!(matches!(err, Err(ModelError::AlreadyCleared(AlertId(1)))));
        // State unchanged.
        assert_eq!(a.cleared_at(), Some(SimTime::from_secs(200)));
    }

    #[test]
    fn clear_before_raise_fails() {
        let mut a = sample();
        let err = a.clear(SimTime::from_secs(50), Clearance::Auto);
        assert!(matches!(
            err,
            Err(ModelError::ClearanceBeforeRaise(AlertId(1)))
        ));
        assert!(a.is_active());
    }

    #[test]
    fn hour_bucket_derives_from_raise_time() {
        let a = Alert::builder(AlertId(1), StrategyId(1))
            .raised_at(SimTime::from_hours(7))
            .build();
        assert_eq!(a.hour_bucket(), 7);
    }

    #[test]
    fn processing_time_recording() {
        let mut a = sample();
        a.record_processing_time(SimDuration::from_mins(12));
        assert_eq!(a.processing_time(), Some(SimDuration::from_mins(12)));
    }

    #[test]
    fn display_contains_key_attributes() {
        let s = sample().to_string();
        assert!(s.contains("CRITICAL"));
        assert!(s.contains("Database"));
        assert!(s.contains("Failed to commit changes"));
        assert!(s.contains("Region=X;DC=1;"));
    }

    #[test]
    fn with_id_relabels_without_touching_state() {
        let mut a = sample();
        a.clear(SimTime::from_secs(150), Clearance::Auto).unwrap();
        let b = a.clone().with_id(AlertId(99));
        assert_eq!(b.id(), AlertId(99));
        assert_eq!(b.title(), a.title());
        assert_eq!(b.cleared_at(), a.cleared_at());
        assert_eq!(b.clearance(), a.clearance());
    }

    #[test]
    fn a_fully_set_builder_keeps_the_handles_it_is_given() {
        // Fresh handles no set holds, so sharing can only come from
        // the builder passing them through.
        let title = IStr::new("Failed to commit changes");
        let service = IStr::new("Database");
        let region = IStr::new("X");
        let dc = IStr::new("1");
        let a = Alert::builder(AlertId(1), StrategyId(2))
            .title(title.clone())
            .service(service.clone())
            .location(Location::new(region.clone(), dc.clone()))
            .build();
        assert!(a.title_interned().ptr_eq(&title));
        assert!(a.service_name_interned().ptr_eq(&service));
        assert!(a.location().region().0.ptr_eq(&region));
        assert!(a.location().dc_interned().ptr_eq(&dc));
    }

    #[test]
    fn unset_strings_are_the_threads_empty_handle() {
        let a = Alert::builder(AlertId(1), StrategyId(2)).build();
        let empty = IStr::empty();
        // Compared as handles: every empty `Box<str>` shares one
        // dangling address, so `&str` addresses cannot tell the
        // thread's empty handle from a fresh one.
        for (field, handle) in [
            ("title", a.title_interned()),
            ("service", a.service_name_interned()),
            ("region", &a.location().region().0),
            ("dc", a.location().dc_interned()),
        ] {
            assert_eq!(handle.as_str(), "", "{field}");
            assert!(handle.ptr_eq(&empty), "{field}");
        }
        // An equal empty string from a fresh handle is told apart.
        let other = IStr::new("");
        assert!(!other.ptr_eq(&empty));
        assert_eq!(a.location().instance(), None);
    }

    /// The layout guard: a string handle is one word (`Option` of one
    /// too, through the niche), so a fat handle coming back fails here
    /// before it shows as peak RSS.
    #[test]
    fn handles_are_one_word_and_an_alert_fits_112_bytes() {
        use std::mem::size_of;
        let word = size_of::<usize>();
        assert_eq!(size_of::<IStr>(), word);
        assert_eq!(size_of::<Option<IStr>>(), word);
        assert_eq!(size_of::<Location>(), 3 * word);
        assert!(size_of::<Alert>() <= 112, "{} B", size_of::<Alert>());
    }

    #[test]
    fn a_default_built_alert_serializes_as_before() {
        let a = Alert::builder(AlertId(0), StrategyId(0)).build();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            concat!(
                r#"{"id":0,"strategy":0,"title":"","severity":"warning","service_name":"","#,
                r#""microservice":0,"location":{"region":"","dc":"","instance":null},"#,
                r#""raised_at":0,"state":"active","processing_time":null}"#,
            )
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mut a = sample();
        a.clear(SimTime::from_secs(160), Clearance::Manual).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let back: Alert = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
