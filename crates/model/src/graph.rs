//! A plain dependency graph between microservices, and the one
//! derivation relation read off it.
//!
//! Anti-pattern detection (cascading alerts, A6) and alert correlation
//! (R3) both need to ask "does microservice *a* depend on *b*?" without
//! caring where that knowledge came from — a simulator topology, a
//! service-mesh export, or hand-written rules. [`DependencyGraph`] is the
//! neutral data type they share: a set of directed `caller → callee`
//! edges with closure queries.
//!
//! Both also ask the same question of two alerts: is the later one
//! derived from the earlier one? A6 links such alerts into cascades
//! ("the cascading effect of one single failure", §III-A2) and R3
//! associates them with their source ("the topology of cloud services",
//! §III-C). [`Closures::derives`] is that one predicate, over one
//! window, [`DERIVATION_WINDOW`].

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::{MicroserviceId, SimDuration, SimTime};

/// How long after an alert another can still be derived from it: the
/// default window of A6's cascade edge and R3's topology link.
pub const DERIVATION_WINDOW: SimDuration = SimDuration::from_mins(10);

/// A directed dependency graph: an edge `a → b` means "`a` calls `b`"
/// (so a failure of `b` can cascade *up* to `a`).
///
/// # Example
///
/// ```
/// use alertops_model::{DependencyGraph, MicroserviceId};
///
/// let graph: DependencyGraph = [
///     (MicroserviceId(2), MicroserviceId(1)), // db-api calls storage
///     (MicroserviceId(3), MicroserviceId(1)), // db-sync calls storage
/// ]
/// .into_iter()
/// .collect();
///
/// assert!(graph.depends_on(MicroserviceId(2), MicroserviceId(1)));
/// assert_eq!(graph.dependents_of(MicroserviceId(1)).len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyGraph {
    /// callee → callers.
    dependents: BTreeMap<MicroserviceId, BTreeSet<MicroserviceId>>,
    /// caller → callees.
    dependencies: BTreeMap<MicroserviceId, BTreeSet<MicroserviceId>>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the edge `caller → callee`. Duplicate edges are ignored;
    /// self-edges are rejected (returns `false`).
    pub fn add_edge(&mut self, caller: MicroserviceId, callee: MicroserviceId) -> bool {
        if caller == callee {
            return false;
        }
        self.dependencies.entry(caller).or_default().insert(callee);
        self.dependents.entry(callee).or_default().insert(caller)
    }

    /// Whether the direct edge `caller → callee` exists.
    #[must_use]
    pub fn depends_on(&self, caller: MicroserviceId, callee: MicroserviceId) -> bool {
        self.dependencies
            .get(&caller)
            .is_some_and(|set| set.contains(&callee))
    }

    /// Direct callers of `callee` (who is affected if `callee` fails).
    #[must_use]
    pub fn dependents_of(&self, callee: MicroserviceId) -> Vec<MicroserviceId> {
        self.dependents
            .get(&callee)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Direct callees of `caller`.
    #[must_use]
    pub fn dependencies_of(&self, caller: MicroserviceId) -> Vec<MicroserviceId> {
        self.dependencies
            .get(&caller)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Whether `caller` transitively depends on `callee`.
    #[must_use]
    pub fn depends_transitively(&self, caller: MicroserviceId, callee: MicroserviceId) -> bool {
        if caller == callee {
            return false;
        }
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([caller]);
        while let Some(cur) = queue.pop_front() {
            if let Some(next) = self.dependencies.get(&cur) {
                for &n in next {
                    if n == callee {
                        return true;
                    }
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
        }
        false
    }

    /// Everything `caller` transitively depends on (downstream closure),
    /// excluding `caller` itself. [`Closures`] memoizes it per
    /// microservice to answer bulk `depends_transitively` queries in
    /// O(log n) instead of a BFS per pair.
    #[must_use]
    pub fn dependency_closure(&self, caller: MicroserviceId) -> BTreeSet<MicroserviceId> {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::from([caller]);
        while let Some(cur) = queue.pop_front() {
            if let Some(callees) = self.dependencies.get(&cur) {
                for &c in callees {
                    if c != caller && out.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        out
    }

    /// Everything transitively affected by a failure of `callee`
    /// (upstream closure), excluding `callee` itself.
    #[must_use]
    pub fn affected_by(&self, callee: MicroserviceId) -> BTreeSet<MicroserviceId> {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::from([callee]);
        while let Some(cur) = queue.pop_front() {
            if let Some(callers) = self.dependents.get(&cur) {
                for &c in callers {
                    if c != callee && out.insert(c) {
                        queue.push_back(c);
                    }
                }
            }
        }
        out
    }

    /// Total number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.dependencies.values().map(BTreeSet::len).sum()
    }

    /// Whether the graph has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edge_count() == 0
    }

    /// Iterates over all `(caller, callee)` edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (MicroserviceId, MicroserviceId)> + '_ {
        self.dependencies
            .iter()
            .flat_map(|(&caller, callees)| callees.iter().map(move |&callee| (caller, callee)))
    }
}

impl FromIterator<(MicroserviceId, MicroserviceId)> for DependencyGraph {
    fn from_iter<I: IntoIterator<Item = (MicroserviceId, MicroserviceId)>>(iter: I) -> Self {
        let mut graph = DependencyGraph::new();
        for (caller, callee) in iter {
            graph.add_edge(caller, callee);
        }
        graph
    }
}

impl Extend<(MicroserviceId, MicroserviceId)> for DependencyGraph {
    fn extend<I: IntoIterator<Item = (MicroserviceId, MicroserviceId)>>(&mut self, iter: I) {
        for (caller, callee) in iter {
            self.add_edge(caller, callee);
        }
    }
}

/// Memoized dependency closures of one graph, and the derivation
/// relation they answer. The memo is a cache: it holds each queried
/// microservice's [`dependency_closure`](DependencyGraph::dependency_closure)
/// and must only be asked about the graph it was filled from.
#[derive(Debug, Clone, Default)]
pub struct Closures {
    memo: HashMap<MicroserviceId, BTreeSet<MicroserviceId>>,
}

impl Closures {
    /// Whether `caller` transitively depends on `callee` in `graph`.
    #[must_use]
    pub fn depends(
        &mut self,
        graph: &DependencyGraph,
        caller: MicroserviceId,
        callee: MicroserviceId,
    ) -> bool {
        self.memo
            .entry(caller)
            .or_insert_with(|| graph.dependency_closure(caller))
            .contains(&callee)
    }

    /// Whether an alert raised at `later.0` on microservice `later.1` is
    /// derived from one raised at `earlier.0` on `earlier.1`: it follows
    /// within `window` (inclusive), sits on a different microservice, and
    /// its microservice transitively calls the earlier one's — a failure
    /// flows from callee up to caller.
    #[must_use]
    pub fn derives(
        &mut self,
        graph: &DependencyGraph,
        earlier: (SimTime, MicroserviceId),
        later: (SimTime, MicroserviceId),
        window: SimDuration,
    ) -> bool {
        later.0 >= earlier.0
            && later.0.duration_since(earlier.0) <= window
            && later.1 != earlier.1
            && self.depends(graph, later.1, earlier.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> MicroserviceId {
        MicroserviceId(n)
    }

    /// 3 → 2 → 1, plus 4 → 1.
    fn chain() -> DependencyGraph {
        [(ms(3), ms(2)), (ms(2), ms(1)), (ms(4), ms(1))]
            .into_iter()
            .collect()
    }

    #[test]
    fn add_edge_dedups_and_rejects_self_loops() {
        let mut g = DependencyGraph::new();
        assert!(g.add_edge(ms(1), ms(2)));
        assert!(!g.add_edge(ms(1), ms(2)));
        assert!(!g.add_edge(ms(1), ms(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn direct_queries() {
        let g = chain();
        assert!(g.depends_on(ms(3), ms(2)));
        assert!(!g.depends_on(ms(2), ms(3)));
        assert_eq!(g.dependents_of(ms(1)), vec![ms(2), ms(4)]);
        assert_eq!(g.dependencies_of(ms(3)), vec![ms(2)]);
        assert!(g.dependencies_of(ms(1)).is_empty());
    }

    #[test]
    fn transitive_queries() {
        let g = chain();
        assert!(g.depends_transitively(ms(3), ms(1)));
        assert!(!g.depends_transitively(ms(1), ms(3)));
        assert!(!g.depends_transitively(ms(4), ms(2)));
        assert!(!g.depends_transitively(ms(1), ms(1)));
    }

    #[test]
    fn dependency_closure_is_downstream() {
        let g = chain();
        assert_eq!(
            g.dependency_closure(ms(3)),
            [ms(2), ms(1)].into_iter().collect()
        );
        assert_eq!(g.dependency_closure(ms(4)), [ms(1)].into_iter().collect());
        assert!(g.dependency_closure(ms(1)).is_empty());
        // Consistent with the pairwise query.
        for a in [ms(1), ms(2), ms(3), ms(4)] {
            for b in [ms(1), ms(2), ms(3), ms(4)] {
                assert_eq!(
                    g.dependency_closure(a).contains(&b),
                    g.depends_transitively(a, b)
                );
            }
        }
    }

    #[test]
    fn affected_by_is_upstream_closure() {
        let g = chain();
        let affected = g.affected_by(ms(1));
        assert_eq!(affected, [ms(2), ms(3), ms(4)].into_iter().collect());
        assert!(g.affected_by(ms(3)).is_empty());
    }

    #[test]
    fn edges_iterates_everything() {
        let g = chain();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(ms(2), ms(1))));
    }

    #[test]
    fn empty_graph() {
        let g = DependencyGraph::new();
        assert!(g.is_empty());
        assert!(!g.depends_on(ms(1), ms(2)));
        assert!(g.affected_by(ms(1)).is_empty());
    }

    #[test]
    fn handles_cycles_without_hanging() {
        // Data from external sources may contain cycles; closure queries
        // must terminate.
        let g: DependencyGraph = [(ms(1), ms(2)), (ms(2), ms(3)), (ms(3), ms(1))]
            .into_iter()
            .collect();
        assert!(g.depends_transitively(ms(1), ms(3)));
        assert!(g.depends_transitively(ms(3), ms(2)));
        assert_eq!(g.affected_by(ms(1)).len(), 2);
    }
}
