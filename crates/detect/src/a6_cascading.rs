//! A6 — cascading alerts.
//!
//! "When a service enters an anomalous state, other services that rely
//! on it will probably suffer from anomalous states as well. … Although
//! the alerts are different, they are implicitly related because they
//! originate from the cascading effect of one single failure"
//! (§III-A2). The paper's Table II example: a Block Storage "disk full"
//! alert followed within minutes by two Database "failed to commit
//! changes" alerts.
//!
//! The detector replays exactly the inference an experienced OCE makes:
//! alert *b* is **derived from** alert *a* when (1) *b* occurred within a
//! time window after *a*, and (2) *b*'s microservice transitively
//! depends on *a*'s — the one relation R3's topology link also reads,
//! [`DependencyGraph::derives`]. Derivation edges are grouped into connected
//! components; components spanning at least [`MIN_GROUP`] alerts and two
//! microservices are reported as cascades, rooted at their earliest
//! bottom-most alert.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use alertops_model::{
    AlertId, DependencyGraph, MicroserviceId, SimDuration, SimTime, TimeRange, DERIVATION_WINDOW,
};

use crate::input::DetectionInput;

/// One detected cascade: a set of causally-linked alerts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadeGroup {
    /// The inferred root-cause alert (earliest alert on the most
    /// depended-upon microservice of the group).
    pub root: AlertId,
    /// All member alerts, in raise order (includes the root).
    pub members: Vec<AlertId>,
    /// The time span from first to last member.
    pub window: TimeRange,
}

impl CascadeGroup {
    /// Number of member alerts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is empty (never true for detector output).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The alerts that are *not* the root — the ones alert correlation
    /// (R3) would suppress so the OCE diagnoses only the source.
    #[must_use]
    pub fn derived(&self) -> Vec<AlertId> {
        self.members
            .iter()
            .copied()
            .filter(|&m| m != self.root)
            .collect()
    }
}

/// The fewest alerts a cascade group has.
const MIN_GROUP: usize = 3;

/// Detector for cascading alerts. Requires the dependency graph; without
/// one, [`detect_groups`](Self::detect_groups) returns nothing.
#[derive(Debug, Clone)]
pub struct CascadingDetector {
    /// Maximum delay between a cause alert and a derived alert. The
    /// incremental engine uses the default, [`DERIVATION_WINDOW`].
    pub window: SimDuration,
}

impl Default for CascadingDetector {
    fn default() -> Self {
        Self {
            window: DERIVATION_WINDOW,
        }
    }
}

impl CascadingDetector {
    /// Finds cascade groups in the input's alert stream.
    ///
    /// Runtime is `O(n · w)` where `w` is the number of alerts inside
    /// the time window — each alert only checks dependency edges against
    /// its time-window neighbours. Both this batch entry point and the
    /// incremental engine ([`crate::IncrementalState`]) drive the same
    /// `CascadeState`, so their groups agree exactly; the output is a
    /// pure function of the alert *set* (ordered internally by raise
    /// time then id), independent of arrival order.
    #[must_use]
    pub fn detect_groups(&self, input: &DetectionInput<'_>) -> Vec<CascadeGroup> {
        let Some(graph) = input.graph() else {
            return Vec::new();
        };
        if input.alerts().is_empty() {
            return Vec::new();
        }
        let mut state = CascadeState::default();
        for alert in input.alerts() {
            state.insert(
                alert.raised_at(),
                alert.id(),
                alert.microservice(),
                self.window,
                graph,
            );
        }
        state.groups(graph)
    }
}

/// The cascade detector's incremental state: the set of alive alerts
/// and the derivation edges among them.
///
/// The edge set is a *pure function of the alive alert set* — an edge
/// `a — b` exists iff the later alert [derives](DependencyGraph::derives) from
/// the earlier one within the detector window. Because no edge depends
/// on arrival order, [`insert`](Self::insert) and
/// [`remove`](Self::remove) are exact: any interleaving of inserts and
/// removes that leaves the same alive set leaves the same state.
/// [`groups`](Self::groups) then reads connected components off the
/// adjacency map.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct CascadeState {
    /// Alive alerts, keyed by (raise time, id) → microservice. The key
    /// order fixes member order, root tie-breaks, and group order.
    alive: BTreeMap<(SimTime, AlertId), MicroserviceId>,
    /// Undirected derivation edges; nodes without edges carry no entry,
    /// so two states over the same alive set compare equal.
    adj: BTreeMap<(SimTime, AlertId), BTreeSet<(SimTime, AlertId)>>,
}

impl CascadeState {
    /// Adds one alive alert, discovering derivation edges against the
    /// alerts already alive within `window` of it (`O(w)` per insert).
    pub(crate) fn insert(
        &mut self,
        raised_at: SimTime,
        id: AlertId,
        ms: MicroserviceId,
        window: SimDuration,
        graph: &DependencyGraph,
    ) {
        let key = (raised_at, id);
        let lo = raised_at
            .checked_sub(window)
            .unwrap_or_else(|| SimTime::from_secs(0));
        let hi = raised_at.saturating_add(window);
        let neighbours = self.alive.range((lo, AlertId(0))..=(hi, AlertId(u64::MAX)));
        for (&other, &other_ms) in neighbours {
            if other == key {
                continue;
            }
            // Key order decides which of two same-second alerts is the
            // earlier one.
            let (earlier, later) = if other < key {
                ((other.0, other_ms), (raised_at, ms))
            } else {
                ((raised_at, ms), (other.0, other_ms))
            };
            if graph.derives(earlier, later, window) {
                self.adj.entry(key).or_default().insert(other);
                self.adj.entry(other).or_default().insert(key);
            }
        }
        self.alive.insert(key, ms);
    }

    /// Removes one alert and every edge incident to it, dropping
    /// neighbours' adjacency entries that become empty (so the state
    /// stays structurally identical to a fresh build).
    pub(crate) fn remove(&mut self, raised_at: SimTime, id: AlertId) {
        let key = (raised_at, id);
        self.alive.remove(&key);
        if let Some(neighbours) = self.adj.remove(&key) {
            for neighbour in neighbours {
                if let Some(set) = self.adj.get_mut(&neighbour) {
                    set.remove(&key);
                    if set.is_empty() {
                        self.adj.remove(&neighbour);
                    }
                }
            }
        }
    }

    /// Connected components of the derivation edges, filtered and
    /// rooted exactly as the paper describes: at least [`MIN_GROUP`]
    /// alerts spanning ≥ 2 microservices, rooted at the earliest alert
    /// whose microservice depends on no other member's.
    pub(crate) fn groups(&self, graph: &DependencyGraph) -> Vec<CascadeGroup> {
        let mut visited: BTreeSet<(SimTime, AlertId)> = BTreeSet::new();
        let mut groups = Vec::new();
        for &start in self.adj.keys() {
            if visited.contains(&start) {
                continue;
            }
            // BFS over the component. `start` is the least node not yet
            // visited, so it is the component's first member.
            let mut members: BTreeSet<(SimTime, AlertId)> = BTreeSet::new();
            let mut last = start;
            let mut queue = VecDeque::from([start]);
            visited.insert(start);
            while let Some(node) = queue.pop_front() {
                members.insert(node);
                last = last.max(node);
                if let Some(neighbours) = self.adj.get(&node) {
                    for &n in neighbours {
                        if visited.insert(n) {
                            queue.push_back(n);
                        }
                    }
                }
            }
            if members.len() < MIN_GROUP {
                continue;
            }
            let ms_of = |k: &(SimTime, AlertId)| self.alive.get(k).copied();
            let distinct_ms: BTreeSet<_> = members.iter().filter_map(ms_of).collect();
            if distinct_ms.len() < 2 {
                continue;
            }
            // Root: the earliest alert on a microservice that no other
            // group member's microservice is below — i.e. the bottom of
            // the dependency chain within the group — else the first.
            let member_ms: Vec<MicroserviceId> = members.iter().filter_map(ms_of).collect();
            let root = members
                .iter()
                .find(|&k| {
                    ms_of(k).is_some_and(|ms| {
                        !member_ms
                            .iter()
                            .any(|&other| graph.depends_transitively(ms, other))
                    })
                })
                .map_or(start.1, |&(_, id)| id);
            groups.push(CascadeGroup {
                root,
                members: members.iter().map(|&(_, id)| id).collect(),
                window: TimeRange::new(start.0, last.0.saturating_add(SimDuration::from_secs(1))),
            });
        }
        groups.sort_by_key(|g| g.window.start());
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::DetectionInput;
    use alertops_model::{
        Alert, AlertStrategy, DependencyGraph, LogRule, MicroserviceId, SimTime, StrategyId,
        StrategyKind,
    };

    fn strategy(id: u64) -> AlertStrategy {
        AlertStrategy::builder(StrategyId(id))
            .title_template("t")
            .kind(StrategyKind::Log(LogRule {
                keyword: "E".into(),
                min_count: 1,
                window: SimDuration::from_mins(1),
            }))
            .build()
            .unwrap()
    }

    fn alert(id: u64, ms: u64, t_secs: u64) -> Alert {
        Alert::builder(AlertId(id), StrategyId(id))
            .microservice(MicroserviceId(ms))
            .raised_at(SimTime::from_secs(t_secs))
            .build()
    }

    /// db-commit (2) and db-sync (3) call storage (1).
    fn graph() -> DependencyGraph {
        [
            (MicroserviceId(2), MicroserviceId(1)),
            (MicroserviceId(3), MicroserviceId(1)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn table2_shape_cascade_is_detected() {
        // Storage alert at 06:36, two database alerts at 06:38 — the
        // paper's Table II.
        let strategies = [strategy(0), strategy(1), strategy(2)];
        let t0 = 6 * 3_600 + 36 * 60;
        let alerts = [
            alert(0, 1, t0),
            alert(1, 2, t0 + 120),
            alert(2, 3, t0 + 120),
        ];
        let g = graph();
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        let groups = CascadingDetector::default().detect_groups(&input);
        assert_eq!(groups.len(), 1);
        let group = &groups[0];
        assert_eq!(group.root, AlertId(0), "root should be the storage alert");
        assert_eq!(group.len(), 3);
        assert_eq!(group.derived(), vec![AlertId(1), AlertId(2)]);
    }

    #[test]
    fn unrelated_alerts_do_not_group() {
        let strategies = [strategy(0), strategy(1), strategy(2)];
        // Microservices 5, 6, 7 share no dependency edges.
        let alerts = [alert(0, 5, 100), alert(1, 6, 160), alert(2, 7, 200)];
        let g = graph();
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        assert!(CascadingDetector::default()
            .detect_groups(&input)
            .is_empty());
    }

    #[test]
    fn window_limits_grouping() {
        let strategies = [strategy(0), strategy(1), strategy(2)];
        // Dependent alerts arrive 2 hours later: outside the window.
        let alerts = [alert(0, 1, 0), alert(1, 2, 7_200), alert(2, 3, 7_260)];
        let g = graph();
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        assert!(CascadingDetector::default()
            .detect_groups(&input)
            .is_empty());
    }

    #[test]
    fn min_group_size_is_enforced() {
        let strategies = [strategy(0), strategy(1), strategy(2)];
        let g = graph();
        let pair = [alert(0, 1, 0), alert(1, 2, 60)];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&pair)
            .with_graph(&g);
        assert!(
            CascadingDetector::default()
                .detect_groups(&input)
                .is_empty(),
            "2 alerts < MIN_GROUP 3"
        );
        // A third alert deriving from the storage one makes a
        // three-alert chain, which is flagged.
        let chain = [alert(0, 1, 0), alert(1, 2, 60), alert(2, 3, 90)];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&chain)
            .with_graph(&g);
        let groups = CascadingDetector::default().detect_groups(&input);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), MIN_GROUP);
    }

    #[test]
    fn same_microservice_repeats_do_not_cascade() {
        let strategies = [strategy(0), strategy(1), strategy(2)];
        let alerts = [alert(0, 1, 0), alert(1, 1, 30), alert(2, 1, 60)];
        let g = graph();
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        assert!(CascadingDetector::default()
            .detect_groups(&input)
            .is_empty());
    }

    #[test]
    fn no_graph_no_findings() {
        let strategies = [strategy(0)];
        let alerts = [alert(0, 1, 0)];
        let input = DetectionInput::new(&strategies).with_alerts(&alerts);
        assert!(CascadingDetector::default()
            .detect_groups(&input)
            .is_empty());
    }

    #[test]
    fn transitive_dependencies_cascade_too() {
        // 4 → 2 → 1: alert on 1, then on 2, then on 4.
        let strategies = [strategy(0), strategy(1), strategy(2)];
        let g: DependencyGraph = [
            (MicroserviceId(2), MicroserviceId(1)),
            (MicroserviceId(4), MicroserviceId(2)),
        ]
        .into_iter()
        .collect();
        let alerts = [alert(0, 1, 0), alert(1, 2, 60), alert(2, 4, 120)];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        let groups = CascadingDetector::default().detect_groups(&input);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].root, AlertId(0));
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn two_separate_cascades_stay_separate() {
        let strategies: Vec<AlertStrategy> = (0..6).map(strategy).collect();
        let g: DependencyGraph = [
            (MicroserviceId(2), MicroserviceId(1)),
            (MicroserviceId(3), MicroserviceId(1)),
            (MicroserviceId(12), MicroserviceId(11)),
            (MicroserviceId(13), MicroserviceId(11)),
        ]
        .into_iter()
        .collect();
        let alerts = [
            alert(0, 1, 0),
            alert(1, 2, 60),
            alert(2, 3, 90),
            // Second cascade 5 hours later.
            alert(3, 11, 18_000),
            alert(4, 12, 18_060),
            alert(5, 13, 18_090),
        ];
        let input = DetectionInput::new(&strategies)
            .with_alerts(&alerts)
            .with_graph(&g);
        let groups = CascadingDetector::default().detect_groups(&input);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].root, AlertId(0));
        assert_eq!(groups[1].root, AlertId(3));
    }
}
