//! Cluster-level observability: topology, WAL depth, handoff latency,
//! and the cluster conservation counters, as one `alertops-obs`
//! registry rendered in Prometheus text exposition.
//!
//! Every series here is `alertops_cluster_*`, beside the daemon's
//! unprefixed `alertops_*` families. Node-scoped series
//! (WAL depth) carry a `node="<index>"` label so a 4-node cluster
//! scrapes as 4 labelled series per family, not 4 families.

use std::sync::Arc;

use alertops_core::{EmergingMetrics, QoaMetrics};
use alertops_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use alertops_react::ReactMetrics;

/// Per-node WAL depth gauges.
#[derive(Debug)]
pub(crate) struct NodeWalGauges {
    pub sealed_segments: Arc<Gauge>,
    pub pending_records: Arc<Gauge>,
}

/// The cluster's metric handles. Everything is an observer: recording
/// never changes routing, merging, or WAL contents.
#[derive(Debug)]
pub struct ClusterMetrics {
    registry: MetricsRegistry,
    /// Configured node count (static topology gauge).
    pub nodes: Arc<Gauge>,
    /// Nodes currently alive, read from the nodes at each
    /// [`crate::AlertCluster::render_metrics`].
    pub nodes_alive: Arc<Gauge>,
    /// Conservation: alerts accepted by [`crate::AlertCluster::route`]
    /// (including quarantined ones, mirroring the daemon convention).
    pub ingested: Arc<Counter>,
    /// Conservation: alerts folded into a published window close.
    pub delivered: Arc<Counter>,
    /// Conservation: alerts lost for good — node-internal overflow
    /// shedding surfaced at window close, alerts a failed WAL append
    /// shed, plus WAL truncation losses discovered at replay.
    pub dropped: Arc<Counter>,
    /// Conservation: alerts rejected at the cluster edge (strategy id
    /// outside the catalog — nothing would ever govern them).
    pub quarantined: Arc<Counter>,
    /// Conservation: alerts routed (and journaled) but not yet part of
    /// a closed window — the in-flight windows across all nodes.
    pub in_flight: Arc<Gauge>,
    /// Cluster windows closed (merged and published).
    pub windows_closed: Arc<Counter>,
    /// Closed windows that carried at least one degraded shard
    /// (including every shard of a dead node).
    pub degraded_windows: Arc<Counter>,
    /// Alerts recovered from WAL replay (sealed windows plus tails).
    pub wal_replayed_alerts: Arc<Counter>,
    /// Torn/corrupt WAL records detected at replay.
    pub wal_torn_records: Arc<Counter>,
    /// Failed WAL appends (each shed, counted `dropped` too), seals and
    /// QoA checkpoint writes.
    pub wal_write_errors: Arc<Counter>,
    /// QoA checkpoint files found damaged at restart: the model
    /// started fresh instead.
    pub qoa_checkpoints_discarded: Arc<Counter>,
    /// Completed range handoffs.
    pub handoffs: Arc<Counter>,
    /// End-to-end handoff latency (seal, ship, respawn both ends), µs.
    pub handoff_micros: Arc<Histogram>,
    /// The merge point's AO-LDA pass, when the emerging channel is on
    /// — the same `alertops_emerging_*` families a standalone daemon
    /// records into.
    pub emerging: EmergingMetrics,
    /// The merge point's online-QoA model update, when the feedback
    /// loop is on — the same `alertops_qoa_*` families a standalone
    /// daemon records into.
    pub qoa: QoaMetrics,
    /// The merge point's R3 pass, once per closed window — the same
    /// R3 series a standalone daemon records into, and none of R1's or
    /// R2's, which run on the nodes.
    pub react: ReactMetrics,
    pub(crate) wal: Vec<NodeWalGauges>,
}

impl ClusterMetrics {
    /// Registers the cluster families for a topology of `nodes` nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name, help| registry.counter(name, help, &[]);
        let gauge = |name, help| registry.gauge(name, help, &[]);
        let wal = (0..nodes)
            .map(|node| {
                let label = node.to_string();
                NodeWalGauges {
                    sealed_segments: registry.gauge(
                        "alertops_cluster_wal_sealed_segments",
                        "Sealed window segments retained in a node's write-ahead log.",
                        &[("node", &label)],
                    ),
                    pending_records: registry.gauge(
                        "alertops_cluster_wal_pending_records",
                        "Records in a node's open (in-flight window) WAL segment.",
                        &[("node", &label)],
                    ),
                }
            })
            .collect();
        Self {
            nodes: gauge("alertops_cluster_nodes", "Configured cluster node count."),
            nodes_alive: gauge(
                "alertops_cluster_nodes_alive",
                "Nodes currently running (kill decrements, rejoin increments).",
            ),
            ingested: counter(
                "alertops_cluster_ingested_total",
                "Alerts accepted at the cluster edge (quarantined included).",
            ),
            delivered: counter(
                "alertops_cluster_delivered_total",
                "Alerts folded into published cluster window closes.",
            ),
            dropped: counter(
                "alertops_cluster_dropped_total",
                "Alerts lost: overflow shedding, failed WAL appends and WAL truncation losses.",
            ),
            quarantined: counter(
                "alertops_cluster_quarantined_total",
                "Alerts rejected at the cluster edge (strategy outside the catalog).",
            ),
            in_flight: gauge(
                "alertops_cluster_in_flight",
                "Alerts journaled but not yet part of a closed window.",
            ),
            windows_closed: counter(
                "alertops_cluster_windows_closed_total",
                "Cluster windows merged and published.",
            ),
            degraded_windows: counter(
                "alertops_cluster_degraded_windows_total",
                "Published windows carrying at least one degraded shard.",
            ),
            wal_replayed_alerts: counter(
                "alertops_cluster_wal_replayed_alerts_total",
                "Alerts recovered from write-ahead-log replay.",
            ),
            wal_torn_records: counter(
                "alertops_cluster_wal_torn_records_total",
                "Torn or corrupt WAL records detected at replay.",
            ),
            wal_write_errors: counter(
                "alertops_cluster_wal_write_errors_total",
                "Failed WAL appends, seals and QoA checkpoint writes.",
            ),
            qoa_checkpoints_discarded: counter(
                "alertops_cluster_qoa_checkpoints_discarded_total",
                "QoA checkpoint files found damaged at restart (the model started fresh).",
            ),
            handoffs: counter(
                "alertops_cluster_handoffs_total",
                "Completed live range handoffs.",
            ),
            handoff_micros: registry.histogram(
                "alertops_cluster_handoff_micros",
                "End-to-end range handoff latency in microseconds.",
                &[],
            ),
            emerging: EmergingMetrics::register(&registry),
            qoa: QoaMetrics::register(&registry),
            react: ReactMetrics::register_correlation(&registry),
            wal,
            registry,
        }
    }

    /// Renders the Prometheus text exposition of every cluster series.
    /// Callers refresh point-in-time gauges (WAL depth, in-flight)
    /// first; [`crate::AlertCluster::render_metrics`] does.
    #[must_use]
    pub fn render(&self) -> String {
        self.registry.render()
    }
}
