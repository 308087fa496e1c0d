//! A dependency graph between microservices, and the one derivation
//! relation read off it.
//!
//! Anti-pattern detection (cascading alerts, A6) and alert correlation
//! (R3) both need to ask "does microservice *a* depend on *b*?" without
//! caring where that knowledge came from — a simulator topology, a
//! service-mesh export, or hand-written rules. [`DependencyGraph`] is the
//! neutral data type they share: a set of directed `caller → callee`
//! edges, built once, that holds each caller's transitive closure.
//!
//! Both also ask the same question of two alerts: is the later one
//! derived from the earlier one? A6 links such alerts into cascades
//! ("the cascading effect of one single failure", §III-A2) and R3
//! associates them with their source ("the topology of cloud services",
//! §III-C). [`DependencyGraph::derives`] is that one predicate, over one
//! window, [`DERIVATION_WINDOW`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::{MicroserviceId, SimDuration, SimTime};

/// How long after an alert another can still be derived from it: the
/// default window of A6's cascade edge and R3's topology link.
pub const DERIVATION_WINDOW: SimDuration = SimDuration::from_mins(10);

/// A directed dependency graph: an edge `a → b` means "`a` calls `b`"
/// (so a failure of `b` can cascade *up* to `a`).
///
/// A graph is collected once from its edges and never changes after
/// that. Collecting drops duplicate edges and self-edges, and computes
/// every caller's transitive closure, so a query is a lookup.
///
/// # Example
///
/// ```
/// use alertops_model::{DependencyGraph, MicroserviceId};
///
/// let graph: DependencyGraph = [
///     (MicroserviceId(3), MicroserviceId(2)), // frontend calls db-api
///     (MicroserviceId(2), MicroserviceId(1)), // db-api calls storage
/// ]
/// .into_iter()
/// .collect();
///
/// assert!(graph.depends_transitively(MicroserviceId(3), MicroserviceId(1)));
/// assert!(!graph.depends_transitively(MicroserviceId(1), MicroserviceId(3)));
/// assert_eq!(graph.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DependencyGraph {
    /// caller → its direct callees, ascending.
    callees: BTreeMap<MicroserviceId, Box<[MicroserviceId]>>,
    /// caller → every microservice it transitively calls, ascending,
    /// leaving out the caller itself.
    closures: BTreeMap<MicroserviceId, Box<[MicroserviceId]>>,
}

impl DependencyGraph {
    /// Whether `caller` transitively depends on `callee`.
    #[must_use]
    pub fn depends_transitively(&self, caller: MicroserviceId, callee: MicroserviceId) -> bool {
        self.closures
            .get(&caller)
            .is_some_and(|closure| closure.binary_search(&callee).is_ok())
    }

    /// Whether an alert raised at `later.0` on microservice `later.1` is
    /// derived from one raised at `earlier.0` on `earlier.1`: it follows
    /// within `window` (inclusive), sits on a different microservice, and
    /// its microservice transitively calls the earlier one's — a failure
    /// flows from callee up to caller.
    #[must_use]
    pub fn derives(
        &self,
        earlier: (SimTime, MicroserviceId),
        later: (SimTime, MicroserviceId),
        window: SimDuration,
    ) -> bool {
        later.0 >= earlier.0
            && later.0.duration_since(earlier.0) <= window
            && later.1 != earlier.1
            && self.depends_transitively(later.1, earlier.1)
    }

    /// Total number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.callees.values().map(|callees| callees.len()).sum()
    }

    /// Whether the graph has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// Iterates over all `(caller, callee)` edges in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (MicroserviceId, MicroserviceId)> + '_ {
        self.callees
            .iter()
            .flat_map(|(&caller, callees)| callees.iter().map(move |&callee| (caller, callee)))
    }
}

impl FromIterator<(MicroserviceId, MicroserviceId)> for DependencyGraph {
    /// Collects `(caller, callee)` edges, dropping duplicates and
    /// self-edges.
    fn from_iter<I: IntoIterator<Item = (MicroserviceId, MicroserviceId)>>(iter: I) -> Self {
        let mut edges: BTreeMap<MicroserviceId, BTreeSet<MicroserviceId>> = BTreeMap::new();
        for (caller, callee) in iter {
            if caller != callee {
                edges.entry(caller).or_default().insert(callee);
            }
        }
        let closures = edges
            .keys()
            .map(|&caller| (caller, reachable(&edges, caller)))
            .collect();
        let callees = edges
            .into_iter()
            .map(|(caller, callees)| (caller, callees.into_iter().collect()))
            .collect();
        Self { callees, closures }
    }
}

/// Everything `caller` reaches over `edges`, leaving out `caller`
/// itself, ascending. Breadth-first; each microservice is queued once,
/// so a cycle ends the search.
fn reachable(
    edges: &BTreeMap<MicroserviceId, BTreeSet<MicroserviceId>>,
    caller: MicroserviceId,
) -> Box<[MicroserviceId]> {
    let mut out = BTreeSet::new();
    let mut queue = VecDeque::from([caller]);
    while let Some(cur) = queue.pop_front() {
        for &callee in edges.get(&cur).into_iter().flatten() {
            if callee != caller && out.insert(callee) {
                queue.push_back(callee);
            }
        }
    }
    out.into_iter().collect()
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
    fn collect_dedups_and_drops_self_loops() {
        let g: DependencyGraph = [(ms(1), ms(2)), (ms(1), ms(2)), (ms(1), ms(1))]
            .into_iter()
            .collect();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(ms(1), ms(2))]);
        assert_eq!(g.edge_count(), 1);
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
    fn closure_is_downstream() {
        let g = chain();
        assert_eq!(&*g.closures[&ms(3)], &[ms(1), ms(2)]);
        assert_eq!(&*g.closures[&ms(4)], &[ms(1)]);
        assert!(!g.closures.contains_key(&ms(1)));
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
        let g = DependencyGraph::default();
        assert!(g.is_empty());
        assert!(!g.depends_transitively(ms(1), ms(2)));
    }

    #[test]
    fn handles_cycles_without_hanging() {
        // Data from external sources may contain cycles; building the
        // closures must terminate.
        let g: DependencyGraph = [(ms(1), ms(2)), (ms(2), ms(3)), (ms(3), ms(1))]
            .into_iter()
            .collect();
        assert!(g.depends_transitively(ms(1), ms(3)));
        assert!(g.depends_transitively(ms(3), ms(2)));
        assert!(!g.depends_transitively(ms(1), ms(1)));
    }
}
