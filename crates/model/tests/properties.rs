//! Property-based tests over the core data model.

use proptest::prelude::*;

use alertops_model::{
    Alert, AlertId, Clearance, DependencyGraph, MicroserviceId, Severity, SimDuration, SimTime,
    StrategyId, TimeRange,
};

/// Whether `from` reaches `to` over one or more of the raw `edges`,
/// cycles and self-loops included, searched afresh: the reference a
/// graph's stored closures must agree with.
fn reaches(edges: &[(u64, u64)], from: u64, to: u64) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    let mut stack = vec![from];
    while let Some(cur) = stack.pop() {
        for &(caller, callee) in edges {
            if caller == cur && seen.insert(callee) {
                stack.push(callee);
            }
        }
    }
    seen.contains(&to)
}

fn graph_of(edges: &[(u64, u64)]) -> DependencyGraph {
    edges
        .iter()
        .map(|&(a, b)| (MicroserviceId(a), MicroserviceId(b)))
        .collect()
}

proptest! {
    #[test]
    fn time_addition_is_associative_with_durations(
        base in 0u64..1_000_000,
        d1 in 0u64..100_000,
        d2 in 0u64..100_000,
    ) {
        let t = SimTime::from_secs(base);
        let a = (t + SimDuration::from_secs(d1)) + SimDuration::from_secs(d2);
        let b = t + SimDuration::from_secs(d1 + d2);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn duration_since_saturates_and_inverts(
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        let ta = SimTime::from_secs(a);
        let tb = SimTime::from_secs(b);
        let d = tb.duration_since(ta);
        if b >= a {
            prop_assert_eq!(ta + d, tb);
        } else {
            prop_assert_eq!(d, SimDuration::ZERO);
        }
    }

    #[test]
    fn hour_bucket_consistent_with_range(t in 0u64..10_000_000) {
        let time = SimTime::from_secs(t);
        let range = TimeRange::hour(time.hour_bucket());
        prop_assert!(range.contains(time));
    }

    #[test]
    fn range_merge_covers_both(
        s1 in 0u64..100_000, l1 in 0u64..100_000,
        s2 in 0u64..100_000, l2 in 0u64..100_000,
    ) {
        let a = TimeRange::new(SimTime::from_secs(s1), SimTime::from_secs(s1 + l1));
        let b = TimeRange::new(SimTime::from_secs(s2), SimTime::from_secs(s2 + l2));
        let merged = a.merge(&b);
        prop_assert!(merged.start() <= a.start());
        prop_assert!(merged.start() <= b.start());
        prop_assert!(merged.end() >= a.end());
        prop_assert!(merged.end() >= b.end());
    }

    #[test]
    fn severity_rank_roundtrip(rank in 0u8..4) {
        let sev = Severity::from_rank(rank).expect("rank < 4");
        prop_assert_eq!(sev.rank(), rank);
    }

    #[test]
    fn severity_distance_triangle(
        a in 0u8..4, b in 0u8..4, c in 0u8..4,
    ) {
        let sa = Severity::from_rank(a).unwrap();
        let sb = Severity::from_rank(b).unwrap();
        let sc = Severity::from_rank(c).unwrap();
        prop_assert!(sa.distance(sc) <= sa.distance(sb) + sb.distance(sc));
    }

    #[test]
    fn alert_lifecycle_invariant(
        raised in 0u64..1_000_000,
        clear_offset in prop::option::of(0u64..1_000_000),
        manual in any::<bool>(),
    ) {
        let mut alert = Alert::builder(AlertId(1), StrategyId(2))
            .raised_at(SimTime::from_secs(raised))
            .build();
        prop_assert!(alert.is_active());
        if let Some(offset) = clear_offset {
            let by = if manual { Clearance::Manual } else { Clearance::Auto };
            alert
                .clear(SimTime::from_secs(raised + offset), by)
                .expect("clearance after raise succeeds");
            // The invariant the whole duration analysis rests on.
            prop_assert!(alert.cleared_at().unwrap() >= alert.raised_at());
            prop_assert_eq!(
                alert.duration().unwrap(),
                SimDuration::from_secs(offset)
            );
            // Double clear always fails and preserves state.
            let before = alert.clone();
            prop_assert!(alert.clear(SimTime::from_secs(raised + offset + 1), by).is_err());
            prop_assert_eq!(alert, before);
        }
    }

    #[test]
    fn graph_closure_consistent_with_pairwise(
        edges in prop::collection::vec((0u64..12, 0u64..12), 0..40),
        raised in prop::collection::vec(0u64..1_500, 12),
        window in 0u64..900,
    ) {
        let graph = graph_of(&edges);
        // A microservice never depends on itself, even on a cycle.
        for a in 0..12u64 {
            for b in 0..12u64 {
                prop_assert_eq!(
                    graph.depends_transitively(MicroserviceId(a), MicroserviceId(b)),
                    a != b && reaches(&edges, a, b),
                    "closure/reference mismatch for {} -> {}", a, b
                );
            }
        }
        // `derives` is its definition: the later alert follows within the
        // window (inclusive), on a different microservice that calls the
        // earlier one's.
        let window = SimDuration::from_secs(window);
        for e in 0..12usize {
            for l in 0..12usize {
                let (te, tl) = (raised[e], raised[l]);
                let (me, ml) = (MicroserviceId(e as u64), MicroserviceId(l as u64));
                let expected = tl >= te
                    && tl - te <= window.as_secs()
                    && me != ml
                    && reaches(&edges, ml.0, me.0);
                prop_assert_eq!(
                    graph.derives(
                        (SimTime::from_secs(te), me),
                        (SimTime::from_secs(tl), ml),
                        window,
                    ),
                    expected,
                    "derives mismatch for {:?}@{} -> {:?}@{}", me, te, ml, tl
                );
            }
        }
    }

    #[test]
    fn graph_is_independent_of_edge_order(
        edges in prop::collection::vec((0u64..12, 0u64..12), 0..40),
        keys in prop::collection::vec(0u64..u64::MAX, 40),
    ) {
        let mut keyed: Vec<_> = keys.iter().zip(&edges).collect();
        keyed.sort_unstable();
        let shuffled: Vec<(u64, u64)> = keyed.into_iter().map(|(_, &edge)| edge).collect();
        prop_assert_eq!(graph_of(&shuffled), graph_of(&edges));
    }
}
