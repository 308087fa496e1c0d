//! R3 — alert correlation analysis.
//!
//! "Two kinds of exogenous information are used to correlate alerts. The
//! first is the dependencies of alert strategies … They will associate
//! all the derived alerts with their source alerts and diagnose the
//! source alerts only. Another exogenous information is the topology of
//! cloud services" (§III-C). Both sources are supported: explicit
//! [`StrategyDependencies`] rules ("strategy A triggers strategy B") and
//! the microservice [`DependencyGraph`]. The topology link is the one
//! derivation relation A6's cascade edge also reads,
//! [`DependencyGraph::derives`], over its one window, [`DERIVATION_WINDOW`].
//!
//! R3 reads four fields of an alert, held as one `Copy` [`Representative`].
//! The batch pipeline correlates its R2 groups' representatives with an
//! [`AlertCorrelator`]; a streaming shard forwards them instead, and the
//! merge point correlates a window's merged list once, by topology
//! ([`correlate_by_topology`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use alertops_model::{
    Alert, AlertId, DependencyGraph, MicroserviceId, SimTime, StrategyId, DERIVATION_WINDOW,
};

/// Manually configured dependencies between alert strategies: an edge
/// `source → derived` means "an alert of `source` can trigger an alert
/// of `derived`".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategyDependencies {
    /// derived → sources that can trigger it.
    triggers: BTreeMap<StrategyId, BTreeSet<StrategyId>>,
}

impl StrategyDependencies {
    /// Creates an empty rule set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that `source` can trigger `derived`. Self-edges are
    /// ignored.
    pub fn add_trigger(&mut self, source: StrategyId, derived: StrategyId) {
        if source != derived {
            self.triggers.entry(derived).or_default().insert(source);
        }
    }

    /// Whether `source` is a declared trigger of `derived`.
    #[must_use]
    pub fn is_trigger(&self, source: StrategyId, derived: StrategyId) -> bool {
        self.triggers
            .get(&derived)
            .is_some_and(|s| s.contains(&source))
    }

    /// Number of declared edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.triggers.values().map(BTreeSet::len).sum()
    }

    /// Whether no edges are declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }
}

impl FromIterator<(StrategyId, StrategyId)> for StrategyDependencies {
    /// Collects `(source, derived)` pairs.
    fn from_iter<I: IntoIterator<Item = (StrategyId, StrategyId)>>(iter: I) -> Self {
        let mut deps = Self::new();
        for (source, derived) in iter {
            deps.add_trigger(source, derived);
        }
        deps
    }
}

/// What R3 reads of an alert. Ordered by (`raised_at`, `id`), the order
/// R3 takes its input in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Representative {
    /// When the alert was raised.
    pub raised_at: SimTime,
    /// The alert.
    pub id: AlertId,
    /// Its strategy, for strategy-dependency rules.
    pub strategy: StrategyId,
    /// Its microservice, for the topology.
    pub microservice: MicroserviceId,
}

impl From<&Alert> for Representative {
    fn from(alert: &Alert) -> Self {
        Self {
            raised_at: alert.raised_at(),
            id: alert.id(),
            strategy: alert.strategy(),
            microservice: alert.microservice(),
        }
    }
}

impl From<&Representative> for Representative {
    fn from(representative: &Representative) -> Self {
        *representative
    }
}

/// A correlated cluster: one source alert and the alerts derived from it
/// (directly or transitively).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorrelatedCluster {
    /// The source alert — "potentially the root cause of future service
    /// failures"; the only alert the OCE diagnoses.
    pub source: AlertId,
    /// Alerts associated to the source, in raise order.
    pub derived: Vec<AlertId>,
}

impl CorrelatedCluster {
    /// Total alerts in the cluster including the source.
    #[must_use]
    pub fn len(&self) -> usize {
        self.derived.len() + 1
    }

    /// Never empty: a cluster always has its source.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The correlation engine. It associates an alert with an earlier one
/// at most [`DERIVATION_WINDOW`] before it.
#[derive(Debug, Clone, Default)]
pub struct AlertCorrelator {
    strategy_deps: StrategyDependencies,
    topology: Option<Arc<DependencyGraph>>,
}

impl AlertCorrelator {
    /// Creates a correlator with no exogenous knowledge (every alert
    /// becomes its own cluster).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches strategy-dependency rules.
    #[must_use]
    pub fn with_strategy_dependencies(mut self, deps: StrategyDependencies) -> Self {
        self.strategy_deps = deps;
        self
    }

    /// Attaches the service topology. Shared, not copied: a holder that
    /// builds a correlator per window passes the same `Arc` each time.
    #[must_use]
    pub fn with_topology(mut self, graph: impl Into<Arc<DependencyGraph>>) -> Self {
        self.topology = Some(graph.into());
        self
    }

    /// Correlates a time-sorted alert stream into clusters. Every alert
    /// lands in exactly one cluster; alerts with no source of their own
    /// become cluster sources. The input may be alerts or their
    /// [`Representative`]s.
    ///
    /// Attribution is greedy-to-earliest: each alert is attached to the
    /// earliest alert in the window that can explain it, and attribution
    /// chains collapse to the chain's source.
    #[must_use]
    pub fn correlate<A>(&self, alerts: &[A]) -> Vec<CorrelatedCluster>
    where
        for<'a> &'a A: Into<Representative>,
    {
        clusters(alerts, &self.strategy_deps, self.topology.as_deref())
    }
}

/// R3 with the service topology as its one source of knowledge, over a
/// borrowed graph (none: every alert is its own cluster). Equal to an
/// [`AlertCorrelator`] given only `topology`; this is what the merge
/// point runs once per window over the representatives its shards
/// forward.
#[must_use]
pub fn correlate_by_topology(
    alerts: &[Representative],
    topology: Option<&DependencyGraph>,
) -> Vec<CorrelatedCluster> {
    clusters(alerts, &StrategyDependencies::new(), topology)
}

/// The one correlation pass, over either source of knowledge.
fn clusters<A>(
    alerts: &[A],
    strategy_deps: &StrategyDependencies,
    topology: Option<&DependencyGraph>,
) -> Vec<CorrelatedCluster>
where
    for<'a> &'a A: Into<Representative>,
{
    let alert = |ix: usize| -> Representative { (&alerts[ix]).into() };
    let is_derived_from = |source: &Representative, derived: &Representative| {
        derived.raised_at >= source.raised_at
            && derived.raised_at.duration_since(source.raised_at) <= DERIVATION_WINDOW
            && (strategy_deps.is_trigger(source.strategy, derived.strategy)
                || topology.is_some_and(|graph| {
                    graph.derives(
                        (source.raised_at, source.microservice),
                        (derived.raised_at, derived.microservice),
                        DERIVATION_WINDOW,
                    )
                }))
    };
    let n = alerts.len();
    // source_of[i] = index of the cluster source alert i belongs to.
    let mut source_of: Vec<usize> = (0..n).collect();
    let mut lo = 0usize;
    for hi in 0..n {
        let derived = alert(hi);
        while derived.raised_at.duration_since(alert(lo).raised_at) > DERIVATION_WINDOW {
            lo += 1;
        }
        for earlier in lo..hi {
            if is_derived_from(&alert(earlier), &derived) {
                // Collapse to the chain's source.
                source_of[hi] = source_of[earlier];
                break; // earliest explanation wins
            }
        }
    }
    // Sources come in index order and precede the alerts derived from
    // them, so one in-order pass opens each cluster and appends to its
    // list. A source's slot then holds its cluster's index.
    let sources = source_of.iter().enumerate().filter(|&(ix, &src)| ix == src);
    let mut clusters = Vec::with_capacity(sources.count());
    for ix in 0..n {
        let src = source_of[ix];
        if src == ix {
            source_of[ix] = clusters.len();
            clusters.push(CorrelatedCluster {
                source: alert(ix).id,
                derived: Vec::new(),
            });
        } else {
            clusters[source_of[src]].derived.push(alert(ix).id);
        }
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use alertops_model::{AlertId, MicroserviceId, SimTime};

    fn alert(id: u64, strategy: u64, ms: u64, t: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(strategy))
            .microservice(MicroserviceId(ms))
            .raised_at(SimTime::from_secs(t))
            .build()
    }

    #[test]
    fn no_knowledge_means_singleton_clusters() {
        let alerts = vec![alert(0, 1, 1, 0), alert(1, 2, 2, 60)];
        let clusters = AlertCorrelator::new().correlate(&alerts);
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().all(|c| c.derived.is_empty()));
    }

    #[test]
    fn strategy_rules_associate_derived_alerts() {
        let deps: StrategyDependencies = [(StrategyId(1), StrategyId(2))].into_iter().collect();
        let correlator = AlertCorrelator::new().with_strategy_dependencies(deps);
        let alerts = vec![alert(0, 1, 1, 0), alert(1, 2, 2, 120)];
        let clusters = correlator.correlate(&alerts);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].source, AlertId(0));
        assert_eq!(clusters[0].derived, vec![AlertId(1)]);
        assert_eq!(clusters[0].len(), 2);
    }

    #[test]
    fn topology_associates_dependent_microservices() {
        let graph: DependencyGraph = [
            (MicroserviceId(2), MicroserviceId(1)),
            (MicroserviceId(3), MicroserviceId(1)),
        ]
        .into_iter()
        .collect();
        let correlator = AlertCorrelator::new().with_topology(graph);
        // Table II: storage alert then two database alerts.
        let alerts = vec![
            alert(0, 10, 1, 0),
            alert(1, 20, 2, 120),
            alert(2, 21, 3, 120),
        ];
        let clusters = correlator.correlate(&alerts);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].source, AlertId(0));
        assert_eq!(clusters[0].derived.len(), 2);
    }

    #[test]
    fn default_correlator_uses_the_derivation_window() {
        let graph: DependencyGraph = [
            (MicroserviceId(2), MicroserviceId(1)),
            (MicroserviceId(3), MicroserviceId(1)),
        ]
        .into_iter()
        .collect();
        // Table II, 120 s apart: `default()` and `new()` agree.
        let alerts = vec![
            alert(0, 10, 1, 0),
            alert(1, 20, 2, 120),
            alert(2, 21, 3, 120),
        ];
        let clusters = AlertCorrelator::default()
            .with_topology(graph)
            .correlate(&alerts);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].derived, vec![AlertId(1), AlertId(2)]);
    }

    #[test]
    fn window_limits_attribution() {
        let deps: StrategyDependencies = [(StrategyId(1), StrategyId(2))].into_iter().collect();
        let correlator = AlertCorrelator::new().with_strategy_dependencies(deps);
        let window = DERIVATION_WINDOW.as_secs();
        let at_edge = vec![alert(0, 1, 1, 0), alert(1, 2, 2, window)];
        assert_eq!(correlator.correlate(&at_edge).len(), 1);
        let beyond = vec![alert(0, 1, 1, 0), alert(1, 2, 2, window + 1)];
        assert_eq!(correlator.correlate(&beyond).len(), 2);
    }

    #[test]
    fn chains_collapse_to_the_source() {
        // 1 triggers 2, 2 triggers 3: all three collapse to the first.
        let deps: StrategyDependencies = [
            (StrategyId(1), StrategyId(2)),
            (StrategyId(2), StrategyId(3)),
        ]
        .into_iter()
        .collect();
        let correlator = AlertCorrelator::new().with_strategy_dependencies(deps);
        let alerts = vec![alert(0, 1, 1, 0), alert(1, 2, 2, 60), alert(2, 3, 3, 120)];
        let clusters = correlator.correlate(&alerts);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].source, AlertId(0));
        assert_eq!(clusters[0].derived, vec![AlertId(1), AlertId(2)]);
    }

    #[test]
    fn every_alert_in_exactly_one_cluster() {
        let deps: StrategyDependencies = [
            (StrategyId(1), StrategyId(2)),
            (StrategyId(1), StrategyId(3)),
        ]
        .into_iter()
        .collect();
        let correlator = AlertCorrelator::new().with_strategy_dependencies(deps);
        let alerts: Vec<Alert> = (0..20)
            .map(|i| alert(i, 1 + i % 4, i % 4, i * 30))
            .collect();
        let clusters = correlator.correlate(&alerts);
        let mut all: Vec<AlertId> = clusters
            .iter()
            .flat_map(|c| std::iter::once(c.source).chain(c.derived.iter().copied()))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), alerts.len());
    }

    #[test]
    fn derived_alerts_never_precede_their_source() {
        let deps: StrategyDependencies = [(StrategyId(2), StrategyId(1))].into_iter().collect();
        let correlator = AlertCorrelator::new().with_strategy_dependencies(deps);
        // Alert of strategy 1 (derived kind) occurs BEFORE its would-be
        // trigger: no association.
        let alerts = vec![alert(0, 1, 1, 0), alert(1, 2, 2, 60)];
        let clusters = correlator.correlate(&alerts);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn strategy_dependencies_api() {
        let mut deps = StrategyDependencies::new();
        assert!(deps.is_empty());
        deps.add_trigger(StrategyId(1), StrategyId(2));
        deps.add_trigger(StrategyId(1), StrategyId(2)); // dedup
        deps.add_trigger(StrategyId(3), StrategyId(3)); // self-edge ignored
        assert_eq!(deps.len(), 1);
        assert!(deps.is_trigger(StrategyId(1), StrategyId(2)));
        assert!(!deps.is_trigger(StrategyId(2), StrategyId(1)));
    }

    #[test]
    fn empty_stream() {
        assert!(AlertCorrelator::new().correlate::<Alert>(&[]).is_empty());
        assert!(correlate_by_topology(&[], None).is_empty());
    }

    /// The construction the in-order pass replaced, whole: the same
    /// attribution loop, then a map from each source's index to its
    /// members, one `Vec` per cluster.
    fn correlate_by_map(
        alerts: &[Alert],
        deps: &StrategyDependencies,
        graph: &DependencyGraph,
    ) -> Vec<CorrelatedCluster> {
        let is_derived_from = |source: &Alert, derived: &Alert| {
            if derived.raised_at() < source.raised_at()
                || derived.raised_at().duration_since(source.raised_at()) > DERIVATION_WINDOW
            {
                return false;
            }
            deps.is_trigger(source.strategy(), derived.strategy())
                || graph.derives(
                    (source.raised_at(), source.microservice()),
                    (derived.raised_at(), derived.microservice()),
                    DERIVATION_WINDOW,
                )
        };
        let n = alerts.len();
        let mut source_of: Vec<usize> = (0..n).collect();
        let mut lo = 0usize;
        for hi in 0..n {
            while alerts[hi]
                .raised_at()
                .duration_since(alerts[lo].raised_at())
                > DERIVATION_WINDOW
            {
                lo += 1;
            }
            for earlier in lo..hi {
                if is_derived_from(&alerts[earlier], &alerts[hi]) {
                    source_of[hi] = source_of[earlier];
                    break;
                }
            }
        }
        let mut clusters: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ix, &src) in source_of.iter().enumerate() {
            clusters.entry(src).or_default().push(ix);
        }
        clusters
            .into_iter()
            .map(|(src, members)| CorrelatedCluster {
                source: alerts[src].id(),
                derived: members
                    .into_iter()
                    .filter(|&m| m != src)
                    .map(|m| alerts[m].id())
                    .collect(),
            })
            .collect()
    }

    proptest::proptest! {
        /// The in-order pass builds the clusters the map did, on random
        /// streams under random strategy rules and topologies, and the
        /// topology-only entry agrees with a correlator given only the
        /// topology.
        #[test]
        fn the_in_order_pass_equals_the_map(
            picks in proptest::collection::vec((0u64..6, 0u64..6, 0u64..1_200), 0..60),
            rules in proptest::collection::vec((0u64..6, 0u64..6), 0..8),
            edges in proptest::collection::vec((0u64..6, 0u64..6), 0..10),
        ) {
            let mut alerts: Vec<Alert> = picks
                .iter()
                .enumerate()
                .map(|(i, &(strategy, ms, t))| alert(i as u64, strategy, ms, t))
                .collect();
            alerts.sort_by_key(|a| (a.raised_at(), a.id()));
            let graph: DependencyGraph = edges
                .into_iter()
                .map(|(a, b)| (MicroserviceId(a), MicroserviceId(b)))
                .collect();
            let deps: StrategyDependencies =
                rules.into_iter().map(|(a, b)| (StrategyId(a), StrategyId(b))).collect();
            let correlator = AlertCorrelator::new()
                .with_strategy_dependencies(deps.clone())
                .with_topology(graph.clone());
            proptest::prop_assert_eq!(
                correlator.correlate(&alerts),
                correlate_by_map(&alerts, &deps, &graph)
            );
            let representatives: Vec<Representative> =
                alerts.iter().map(Representative::from).collect();
            proptest::prop_assert_eq!(
                correlate_by_topology(&representatives, Some(&graph)),
                correlate_by_map(&alerts, &StrategyDependencies::new(), &graph)
            );
        }
    }
}
