//! Alert-strategy catalog generation with injected anti-patterns.
//!
//! "The configuration of alert strategies is empirical, which heavily
//! depends on human expertise" (§I) — and that is exactly where
//! anti-patterns creep in. The generator plays the role of those human
//! strategy authors: it writes a full catalog (the paper's study covers
//! **2010 strategies**) of probe/log/metric rules for every microservice,
//! and deliberately mis-writes a controlled fraction of them:
//!
//! | Injection | Anti-pattern | Mechanism |
//! |---|---|---|
//! | vague title | A1 | title replaced by "X is abnormal"-style text |
//! | misleading severity | A2 | severity ≥ 2 ranks away from impact-implied |
//! | improper rule | A3 | infra metric on a fault-tolerant microservice |
//! | over-sensitive | A4 | threshold inside the noise band, debounce 1 |
//! | chatty | A5 | fires on baseline log chatter with a short cooldown |
//!
//! The injected truth ([`InjectedProfile`]) is kept per strategy so the
//! detectors in `alertops-detect` can be scored with precision/recall.

use serde::{Deserialize, Serialize};

use alertops_model::{
    AlertStrategy, LogRule, MetricKind, MetricRule, ProbeRule, Severity, SimDuration, Sop,
    StrategyId, StrategyKind, ThresholdOp,
};

use crate::rng;
use crate::telemetry::default_profile;
use crate::topology::Topology;

/// Ground truth: which anti-patterns were deliberately injected into a
/// strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InjectedProfile {
    /// A1 — unclear name or description.
    pub vague_title: bool,
    /// A2 — misleading severity.
    pub misleading_severity: bool,
    /// A3 — improper/outdated generation rule (infra metric whose target
    /// is shielded by fault tolerance).
    pub improper_rule: bool,
    /// A4 — over-sensitive rule producing transient/toggling alerts.
    pub oversensitive: bool,
    /// A5 — chatty rule producing repeating alerts.
    pub chatty: bool,
}

impl InjectedProfile {
    /// Whether any anti-pattern was injected.
    #[must_use]
    pub fn any(&self) -> bool {
        self.vague_title
            || self.misleading_severity
            || self.improper_rule
            || self.oversensitive
            || self.chatty
    }

    /// Whether the strategy is clean (no injected anti-pattern).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        !self.any()
    }
}

/// Configuration for [`StrategyCatalog::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyCatalogConfig {
    /// Total number of strategies to generate (the paper: 2010). They are
    /// dealt round-robin over microservices.
    pub total_strategies: usize,
    /// Fraction with a vague title (A1).
    pub vague_fraction: f64,
    /// Fraction with misleading severity (A2).
    pub misleading_fraction: f64,
    /// Fraction with an over-sensitive threshold (A4).
    pub oversensitive_fraction: f64,
    /// Fraction of chatty log rules (A5).
    pub chatty_fraction: f64,
    /// Fraction of SOPs left incomplete (lowers handleability).
    pub poor_sop_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StrategyCatalogConfig {
    fn default() -> Self {
        Self {
            total_strategies: 2010,
            vague_fraction: 0.08,
            misleading_fraction: 0.07,
            oversensitive_fraction: 0.06,
            chatty_fraction: 0.04,
            poor_sop_fraction: 0.30,
            seed: 2,
        }
    }
}

/// The generated strategy catalog: strategies, their SOPs, and the
/// injected ground truth.
///
/// Ids are dense from zero (`generate` numbers the rows that way and
/// [`push`](Self::push) asserts it), so a strategy's id is its row, and
/// its profile and SOP sit at the same index of two row-aligned
/// vectors: a lookup is one index, with no hash table beside the rows.
/// A row is one pointer (see [`AlertStrategy`]), so a holder's copy of
/// [`strategies`](Self::strategies) costs 8 B a row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyCatalog {
    strategies: Vec<AlertStrategy>,
    /// `profiles[i]` is the ground truth of `strategies[i]`.
    profiles: Vec<InjectedProfile>,
    /// `sops[i]` is the SOP of `strategies[i]`.
    sops: Vec<Sop>,
}

/// The metric kinds cycled through when generating metric strategies.
const METRIC_CYCLE: [MetricKind; 7] = [
    MetricKind::CpuUtilization,
    MetricKind::MemoryUtilization,
    MetricKind::DiskUsage,
    MetricKind::Latency,
    MetricKind::ErrorRate,
    MetricKind::ConnectionCount,
    MetricKind::NetworkThroughput,
];

/// Vague title templates quoted (nearly verbatim) from the paper's A1
/// discussion.
const VAGUE_TEMPLATES: [&str; 4] = [
    "{service} is abnormal",
    "Instance x is abnormal",
    "Component y encounters exceptions",
    "Computing cluster has risks",
];

impl StrategyCatalog {
    /// An empty catalog, to be filled with [`push`](Self::push) — the
    /// bring-your-own-strategies path for users monitoring a real system
    /// rather than the simulator's generated one.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            strategies: Vec::new(),
            profiles: Vec::new(),
            sops: Vec::new(),
        }
    }

    /// Builds a catalog from hand-written strategies (ids must be dense
    /// from zero, in order). Ground truth defaults to clean; SOPs can be
    /// attached later via [`push`](Self::push)-style reconstruction or
    /// kept externally.
    ///
    /// # Panics
    ///
    /// Panics if ids are not dense from zero.
    #[must_use]
    pub fn from_strategies(strategies: Vec<AlertStrategy>) -> Self {
        let mut catalog = Self::empty();
        for strategy in strategies {
            let sop = Sop::builder(strategy.title_template().to_owned(), strategy.id())
                .build()
                .expect("strategy titles are non-empty");
            catalog.push(strategy, InjectedProfile::default(), sop);
        }
        catalog
    }

    /// Generates a catalog for `topology`. Deterministic in the seed.
    ///
    /// Strategies are assigned to microservices round-robin; each
    /// microservice's slots cycle through probe → log → the seven metric
    /// kinds, so a 2010-strategy catalog over 192 microservices yields
    /// ~10.5 strategies per microservice, matching the paper's ratio.
    ///
    /// # Panics
    ///
    /// Panics if `total_strategies` is zero.
    #[must_use]
    pub fn generate(topology: &Topology, config: &StrategyCatalogConfig) -> Self {
        assert!(config.total_strategies > 0, "need at least one strategy");
        let seed = config.seed;
        let n_ms = topology.microservices().len();
        let mut strategies = Vec::with_capacity(config.total_strategies);
        let mut profiles = Vec::with_capacity(config.total_strategies);
        let mut sops = Vec::with_capacity(config.total_strategies);

        for i in 0..config.total_strategies {
            let id = StrategyId(i as u64);
            let ms = &topology.microservices()[i % n_ms];
            let slot = i / n_ms; // which of the microservice's slots
            let service_name = topology
                .service(ms.service)
                .map_or("Unknown", |s| s.name.as_str());

            // --- decide injections (mutually independent draws) ---
            let mut profile = InjectedProfile {
                vague_title: rng::uniform(seed, 41, i as u64, 0) < config.vague_fraction,
                misleading_severity: rng::uniform(seed, 42, i as u64, 0)
                    < config.misleading_fraction,
                oversensitive: false,
                chatty: false,
                improper_rule: false,
            };

            // --- build the rule ---
            let (kind, appropriate_severity, base_title) = match slot % 9 {
                0 => (
                    StrategyKind::Probe(ProbeRule {
                        no_response_timeout: SimDuration::from_secs(
                            60 + 30 * (rng::hash3(seed, 43, i as u64, 0) % 4),
                        ),
                    }),
                    Severity::Critical,
                    format!("{} not responding to heartbeat probes", ms.name),
                ),
                1 => {
                    // Log rule; a configured fraction are chatty (A5).
                    let chatty = rng::uniform(seed, 44, i as u64, 0) < config.chatty_fraction * 4.5;
                    profile.chatty = chatty;
                    let rule = if chatty {
                        LogRule {
                            keyword: "WARN".into(),
                            min_count: 1,
                            window: SimDuration::from_mins(5),
                        }
                    } else {
                        LogRule {
                            keyword: "ERROR".into(),
                            min_count: 5,
                            window: SimDuration::from_mins(2),
                        }
                    };
                    let title = if chatty {
                        format!("{} process number warning", ms.name)
                    } else {
                        format!(
                            "{} logged {} errors within {} minutes",
                            ms.name,
                            rule.min_count,
                            rule.window.as_secs() / 60
                        )
                    };
                    let sev = if chatty {
                        Severity::Warning
                    } else {
                        Severity::Minor
                    };
                    (StrategyKind::Log(rule), sev, title)
                }
                slot_rest => {
                    let metric = METRIC_CYCLE[(slot_rest - 2) % METRIC_CYCLE.len()];
                    let mp = default_profile(metric);
                    let oversensitive =
                        rng::uniform(seed, 45, i as u64, 0) < config.oversensitive_fraction * 1.8;
                    profile.oversensitive = oversensitive;
                    // Clean thresholds sit well above the noise band;
                    // over-sensitive ones sit inside it (A4).
                    let sigmas = if oversensitive { 1.0 } else { 5.0 };
                    let seasonal_margin = mp.seasonal_amplitude * mp.baseline;
                    let threshold = mp.baseline + seasonal_margin + sigmas * mp.noise_std;
                    let rule = MetricRule {
                        metric,
                        op: ThresholdOp::Above,
                        threshold,
                        consecutive_samples: if oversensitive { 1 } else { 3 },
                    };
                    profile.improper_rule = metric.is_infrastructure() && ms.fault_tolerant;
                    let sev = if metric.is_infrastructure() {
                        if ms.fault_tolerant {
                            Severity::Warning
                        } else {
                            Severity::Minor
                        }
                    } else {
                        Severity::Major
                    };
                    let title = format!(
                        "{} of {} is higher than {:.0}",
                        metric.name().replace('_', " "),
                        ms.name,
                        threshold
                    );
                    (StrategyKind::Metric(rule), sev, title)
                }
            };

            // --- severity: appropriate unless injected misleading ---
            let severity = if profile.misleading_severity {
                mislead(appropriate_severity, rng::hash3(seed, 46, i as u64, 0))
            } else {
                appropriate_severity
            };

            // --- title: concrete unless injected vague ---
            let title = if profile.vague_title {
                let template = VAGUE_TEMPLATES
                    [(rng::hash3(seed, 47, i as u64, 0) % VAGUE_TEMPLATES.len() as u64) as usize];
                template.replace("{service}", service_name)
            } else {
                base_title
            };

            // --- cooldown: chatty rules re-fire quickly ---
            let cooldown = if profile.chatty {
                SimDuration::from_mins(5)
            } else {
                SimDuration::from_mins(30)
            };

            let strategy = AlertStrategy::builder(id)
                .title_template(title.clone())
                .severity(severity)
                .service(ms.service)
                .microservice(ms.id)
                .kind(kind)
                .cooldown(cooldown)
                .notify(format!(
                    "oce-{}@cloud.example",
                    service_name.to_ascii_lowercase().replace(' ', "-")
                ))
                .build()
                .expect("generated strategy is structurally valid");

            // --- SOP, complete or poor ---
            let poor_sop = rng::uniform(seed, 48, i as u64, 0) < config.poor_sop_fraction;
            let sop = if poor_sop {
                Sop::builder(title.clone(), id)
                    .description(title.clone())
                    .build()
            } else {
                Sop::builder(title.clone(), id)
                    .description(format!("Alert condition for {}", ms.name))
                    .generation_rule(describe_rule(strategy.kind()))
                    .potential_impact(format!(
                        "May degrade {service_name} for tenants in {}",
                        ms.region
                    ))
                    .possible_cause("Workload spike beyond provisioned capacity.")
                    .possible_cause("Recent deployment regression.")
                    .step(format!("Check dashboards for {}", ms.name))
                    .step("Inspect recent deployments and roll back if correlated.")
                    .step("If unresolved in 30 minutes, page the service owner.")
                    .build()
            }
            .expect("generated SOP is structurally valid");

            profiles.push(profile);
            sops.push(sop);
            strategies.push(strategy);
        }

        Self {
            strategies,
            profiles,
            sops,
        }
    }

    /// All strategies, ordered by id.
    #[must_use]
    pub fn strategies(&self) -> &[AlertStrategy] {
        &self.strategies
    }

    /// The strategy with the given id, if present.
    #[must_use]
    pub fn strategy(&self, id: StrategyId) -> Option<&AlertStrategy> {
        self.strategies.get(id.0 as usize)
    }

    /// The injected ground truth for a strategy (clean profile if the id
    /// is unknown).
    #[must_use]
    pub fn profile(&self, id: StrategyId) -> InjectedProfile {
        self.profiles
            .get(id.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The SOP of a strategy.
    #[must_use]
    pub fn sop(&self, id: StrategyId) -> Option<&Sop> {
        self.sops.get(id.0 as usize)
    }

    /// Number of strategies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.strategies.is_empty()
    }

    /// Ids of strategies with at least one injected anti-pattern, in
    /// ascending order.
    #[must_use]
    pub fn injected_ids(&self) -> Vec<StrategyId> {
        self.strategies
            .iter()
            .zip(&self.profiles)
            .filter(|(_, profile)| profile.any())
            .map(|(strategy, _)| strategy.id())
            .collect()
    }

    /// Appends a hand-crafted strategy (with its ground truth and SOP)
    /// to the catalog — used by scenarios that need one specific actor,
    /// e.g. the dominant "haproxy process number warning" repeater of
    /// the Fig. 3 storm.
    ///
    /// # Panics
    ///
    /// Panics if the strategy's id is not the next dense id.
    pub fn push(&mut self, strategy: AlertStrategy, profile: InjectedProfile, sop: Sop) {
        assert_eq!(
            strategy.id().0 as usize,
            self.strategies.len(),
            "catalog ids must stay dense"
        );
        self.profiles.push(profile);
        self.sops.push(sop);
        self.strategies.push(strategy);
    }
}

/// Pushes a severity at least two ranks away from `appropriate`.
fn mislead(appropriate: Severity, entropy: u64) -> Severity {
    let candidates: Vec<Severity> = Severity::ALL
        .into_iter()
        .filter(|s| s.distance(appropriate) >= 2)
        .collect();
    candidates[(entropy % candidates.len() as u64) as usize]
}

/// Renders a human-readable description of a generation rule, as it
/// would appear in the SOP's "Generation Rule" section.
fn describe_rule(kind: &StrategyKind) -> String {
    match kind {
        StrategyKind::Probe(p) => format!(
            "Probe the instance every 15s; alert after {}s without a response.",
            p.no_response_timeout.as_secs()
        ),
        StrategyKind::Log(l) => format!(
            "IF the logs contain {} {}s in the past {} minutes, THEN generate an alert.",
            l.min_count,
            l.keyword,
            l.window.as_secs() / 60
        ),
        StrategyKind::Metric(m) => format!(
            "Continuously check {}; generate the alert when the value is {} {:.0} for {} consecutive samples.",
            m.metric,
            m.op,
            m.threshold,
            m.consecutive_samples
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;

    fn catalog() -> (Topology, StrategyCatalog) {
        let topo = Topology::generate(&TopologyConfig::default());
        let cat = StrategyCatalog::generate(&topo, &StrategyCatalogConfig::default());
        (topo, cat)
    }

    #[test]
    fn paper_scale_catalog() {
        let (_, cat) = catalog();
        assert_eq!(cat.len(), 2010);
        assert!(!cat.is_empty());
    }

    #[test]
    fn deterministic() {
        let topo = Topology::generate(&TopologyConfig::default());
        let a = StrategyCatalog::generate(&topo, &StrategyCatalogConfig::default());
        let b = StrategyCatalog::generate(&topo, &StrategyCatalogConfig::default());
        assert_eq!(a.strategies(), b.strategies());
    }

    #[test]
    fn every_strategy_has_sop_and_profile() {
        let (_, cat) = catalog();
        for s in cat.strategies() {
            assert!(cat.sop(s.id()).is_some(), "missing SOP for {}", s.id());
            let _ = cat.profile(s.id()); // must not panic
        }
    }

    #[test]
    fn injection_fractions_are_plausible() {
        let (_, cat) = catalog();
        let n = cat.len() as f64;
        let count = |f: fn(&InjectedProfile) -> bool| {
            cat.strategies()
                .iter()
                .filter(|s| f(&cat.profile(s.id())))
                .count() as f64
        };
        let vague = count(|p| p.vague_title) / n;
        assert!((0.04..0.14).contains(&vague), "vague fraction {vague}");
        let misleading = count(|p| p.misleading_severity) / n;
        assert!(
            (0.03..0.12).contains(&misleading),
            "misleading fraction {misleading}"
        );
        let oversensitive = count(|p| p.oversensitive) / n;
        assert!(
            (0.02..0.15).contains(&oversensitive),
            "oversensitive fraction {oversensitive}"
        );
        let chatty = count(|p| p.chatty) / n;
        assert!((0.005..0.06).contains(&chatty), "chatty fraction {chatty}");
        let improper = count(|p| p.improper_rule) / n;
        assert!(
            (0.05..0.35).contains(&improper),
            "improper fraction {improper}"
        );
        // Most strategies remain clean.
        let clean = count(InjectedProfile::is_clean) / n;
        assert!(clean > 0.5, "clean fraction {clean}");
    }

    #[test]
    fn vague_titles_match_paper_patterns() {
        let (_, cat) = catalog();
        let vague: Vec<&AlertStrategy> = cat
            .strategies()
            .iter()
            .filter(|s| cat.profile(s.id()).vague_title)
            .collect();
        assert!(!vague.is_empty());
        for s in vague {
            let t = s.title_template();
            assert!(
                t.contains("abnormal") || t.contains("exceptions") || t.contains("risks"),
                "unexpected vague title {t:?}"
            );
        }
    }

    #[test]
    fn misleading_severity_is_far_from_appropriate() {
        // Probe strategies are appropriately Critical; misleading ones
        // must be ≥ 2 ranks away (Warning or Minor).
        let (_, cat) = catalog();
        for s in cat.strategies() {
            if matches!(s.kind(), StrategyKind::Probe(_)) {
                if cat.profile(s.id()).misleading_severity {
                    assert!(s.severity().distance(Severity::Critical) >= 2);
                } else {
                    assert_eq!(s.severity(), Severity::Critical);
                }
            }
        }
    }

    #[test]
    fn oversensitive_rules_sit_in_the_noise_band() {
        let (_, cat) = catalog();
        for s in cat.strategies() {
            if let StrategyKind::Metric(rule) = s.kind() {
                let mp = default_profile(rule.metric);
                let margin = mp.seasonal_amplitude * mp.baseline;
                if cat.profile(s.id()).oversensitive {
                    assert!(rule.threshold <= mp.baseline + margin + 1.5 * mp.noise_std);
                    assert_eq!(rule.consecutive_samples, 1);
                } else {
                    assert!(rule.threshold >= mp.baseline + margin + 4.0 * mp.noise_std);
                    assert!(rule.consecutive_samples >= 3);
                }
            }
        }
    }

    #[test]
    fn improper_rules_are_infra_on_fault_tolerant() {
        let (topo, cat) = catalog();
        for s in cat.strategies() {
            let p = cat.profile(s.id());
            if p.improper_rule {
                let StrategyKind::Metric(rule) = s.kind() else {
                    panic!("improper rule must be a metric rule");
                };
                assert!(rule.metric.is_infrastructure());
                assert!(topo.microservice(s.microservice()).unwrap().fault_tolerant);
            }
        }
    }

    #[test]
    fn chatty_rules_have_short_cooldowns() {
        let (_, cat) = catalog();
        for s in cat.strategies() {
            if cat.profile(s.id()).chatty {
                assert!(s.cooldown() <= SimDuration::from_mins(5));
                assert!(matches!(s.kind(), StrategyKind::Log(_)));
            }
        }
    }

    #[test]
    fn sop_completeness_is_bimodal() {
        let (_, cat) = catalog();
        let (mut poor, mut full) = (0, 0);
        for s in cat.strategies() {
            let c = cat.sop(s.id()).unwrap().completeness();
            if c < 0.5 {
                poor += 1;
            } else if c > 0.9 {
                full += 1;
            }
        }
        assert!(poor > 0 && full > 0);
        // Configured 30% poor.
        let frac = poor as f64 / cat.len() as f64;
        assert!((0.2..0.4).contains(&frac), "poor SOP fraction {frac}");
    }

    #[test]
    fn strategies_cover_all_microservices() {
        let (topo, cat) = catalog();
        for ms in topo.microservices() {
            assert!(
                cat.strategies()
                    .iter()
                    .filter(|s| s.microservice() == ms.id)
                    .count()
                    >= 10,
                "{} has too few strategies",
                ms.name
            );
        }
    }

    #[test]
    fn injected_ids_sorted_and_consistent() {
        let (_, cat) = catalog();
        let ids = cat.injected_ids();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        for id in &ids {
            assert!(cat.profile(*id).any());
        }
    }
}
