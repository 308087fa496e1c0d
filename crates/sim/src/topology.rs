//! Service / microservice topology generation.
//!
//! The paper's system: 11 cloud services, 192 microservices, multiple
//! regions. Microservices depend on one another; anomalies propagate
//! along those dependencies ("such anomalous states can propagate
//! through the service-calling structure"), producing the cascading
//! anti-pattern (A6). The generator builds a layered DAG so propagation
//! is acyclic and replayable.

use std::collections::{BTreeSet, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use alertops_model::{IStr, MicroserviceId, RegionId, ServiceId};

use crate::rng;

/// Human-readable service names, cycled if more services are requested.
const SERVICE_NAMES: &[&str] = &[
    "Block Storage",
    "Database",
    "Elastic Computing",
    "Object Storage",
    "Virtual Network",
    "Load Balancing",
    "Container Platform",
    "Message Queue",
    "Identity",
    "Monitoring",
    "CDN",
    "DNS",
    "Key Management",
];

/// Microservice role suffixes used to synthesize names.
const MS_ROLES: &[&str] = &[
    "api",
    "gateway",
    "scheduler",
    "worker",
    "replicator",
    "allocator",
    "metadata",
    "proxy",
    "cache",
    "quota",
    "billing",
    "agent",
    "controller",
    "indexer",
    "janitor",
    "router",
];

/// Configuration for [`Topology::generate`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Number of cloud services (the paper: 11).
    pub services: usize,
    /// Number of microservices (the paper: 192).
    pub microservices: usize,
    /// Region names, e.g. `["region-x", "region-y"]`.
    pub regions: Vec<String>,
    /// Mean number of dependencies per microservice (edges to lower
    /// layers).
    pub mean_dependencies: f64,
    /// Fraction of microservices with fault-tolerance (their
    /// infrastructure-level faults do not affect service quality — the
    /// substrate behind anti-pattern A3).
    pub fault_tolerant_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            services: 11,
            microservices: 192,
            regions: vec!["region-x".to_owned(), "region-y".to_owned()],
            mean_dependencies: 2.0,
            fault_tolerant_fraction: 0.35,
            seed: 1,
        }
    }
}

/// A cloud service: a named group of microservices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Service {
    /// The service id.
    pub id: ServiceId,
    /// The display name ("Block Storage", ...). Interned: every alert
    /// of every strategy of this service shares the one allocation.
    pub name: IStr,
}

/// A microservice: the unit of deployment, monitoring, and failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microservice {
    /// The microservice id.
    pub id: MicroserviceId,
    /// The owning service.
    pub service: ServiceId,
    /// Synthesized name, e.g. `block-storage-allocator-3`.
    pub name: String,
    /// Home region.
    pub region: RegionId,
    /// Data center within the region. Interned — cloned into every
    /// alert location this microservice raises.
    pub dc: IStr,
    /// Topological layer (0 = foundation; higher layers depend on lower).
    pub layer: usize,
    /// Whether fault-tolerance shields service quality from this
    /// microservice's infrastructure-level faults.
    pub fault_tolerant: bool,
}

/// The generated topology: services, microservices, and the dependency
/// graph between microservices.
///
/// Edges point from a microservice to the microservices it *depends on*
/// (callees). Cascades propagate the other way, via
/// [`dependents_of`](Self::dependents_of).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    services: Vec<Service>,
    microservices: Vec<Microservice>,
    /// dependencies[i] = ids the i-th microservice calls.
    dependencies: Vec<Vec<MicroserviceId>>,
    /// dependents[i] = ids that call the i-th microservice.
    dependents: Vec<Vec<MicroserviceId>>,
    regions: Vec<RegionId>,
}

impl Topology {
    /// Generates a topology from `config`. Deterministic in the seed.
    ///
    /// # Panics
    ///
    /// Panics if `services` or `microservices` is zero, or `regions` is
    /// empty.
    #[must_use]
    pub fn generate(config: &TopologyConfig) -> Self {
        assert!(config.services > 0, "need at least one service");
        assert!(config.microservices > 0, "need at least one microservice");
        assert!(!config.regions.is_empty(), "need at least one region");
        let seed = config.seed;

        let services: Vec<Service> = (0..config.services)
            .map(|i| Service {
                id: ServiceId(i as u64),
                name: SERVICE_NAMES[i % SERVICE_NAMES.len()].into(),
            })
            .collect();

        // Layered DAG: ~4 layers, foundation services (storage, network)
        // concentrated at the bottom.
        let layers = 4usize;
        let mut microservices = Vec::with_capacity(config.microservices);
        for i in 0..config.microservices {
            let id = MicroserviceId(i as u64);
            let service = ServiceId((i % config.services) as u64);
            let layer = {
                // Lower service ids sit lower in the stack on average.
                let base = (service.0 as usize * layers) / config.services;
                let jitter = (rng::hash3(seed, 11, i as u64, 0) % 2) as usize;
                (base + jitter).min(layers - 1)
            };
            let region_ix =
                (rng::hash3(seed, 12, i as u64, 0) % config.regions.len() as u64) as usize;
            let region = RegionId::new(config.regions[region_ix].clone());
            let dc = IStr::from(format!("dc-{}", 1 + rng::hash3(seed, 13, i as u64, 0) % 3));
            let role =
                MS_ROLES[(rng::hash3(seed, 14, i as u64, 0) % MS_ROLES.len() as u64) as usize];
            let service_slug = services[service.0 as usize]
                .name
                .to_ascii_lowercase()
                .replace(' ', "-");
            let fault_tolerant =
                rng::uniform(seed, 15, i as u64, 0) < config.fault_tolerant_fraction;
            microservices.push(Microservice {
                id,
                service,
                name: format!("{service_slug}-{role}-{i}"),
                region,
                dc,
                layer,
                fault_tolerant,
            });
        }

        // Dependencies: each microservice depends on a few microservices
        // in strictly lower layers (acyclic by construction).
        let mut dependencies: Vec<Vec<MicroserviceId>> = vec![Vec::new(); config.microservices];
        let by_layer: HashMap<usize, Vec<usize>> = {
            let mut m: HashMap<usize, Vec<usize>> = HashMap::new();
            for (ix, ms) in microservices.iter().enumerate() {
                m.entry(ms.layer).or_default().push(ix);
            }
            m
        };
        for (ix, ms) in microservices.iter().enumerate() {
            if ms.layer == 0 {
                continue;
            }
            let candidates: Vec<usize> = (0..ms.layer)
                .flat_map(|l| by_layer.get(&l).cloned().unwrap_or_default())
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let n_deps = {
                let draw = rng::uniform(seed, 16, ix as u64, 0);
                // 1 + geometric-ish around the configured mean.
                let extra = (draw * 2.0 * (config.mean_dependencies - 1.0).max(0.0)).round();
                (1.0 + extra) as usize
            };
            let mut chosen = BTreeSet::new();
            for d in 0..n_deps * 3 {
                if chosen.len() >= n_deps {
                    break;
                }
                let pick = candidates[(rng::hash3(seed, 17, ix as u64, d as u64)
                    % candidates.len() as u64) as usize];
                chosen.insert(pick);
            }
            dependencies[ix] = chosen
                .into_iter()
                .map(|c| MicroserviceId(c as u64))
                .collect();
        }

        let mut dependents: Vec<Vec<MicroserviceId>> = vec![Vec::new(); config.microservices];
        for (ix, deps) in dependencies.iter().enumerate() {
            for dep in deps {
                dependents[dep.0 as usize].push(MicroserviceId(ix as u64));
            }
        }

        Self {
            services,
            microservices,
            dependencies,
            dependents,
            regions: config.regions.iter().cloned().map(RegionId::new).collect(),
        }
    }

    /// All services.
    #[must_use]
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// All microservices.
    #[must_use]
    pub fn microservices(&self) -> &[Microservice] {
        &self.microservices
    }

    /// All regions.
    #[must_use]
    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }

    /// The microservice with id `id`, if it exists.
    #[must_use]
    pub fn microservice(&self, id: MicroserviceId) -> Option<&Microservice> {
        self.microservices.get(id.0 as usize)
    }

    /// The service with id `id`, if it exists.
    #[must_use]
    pub fn service(&self, id: ServiceId) -> Option<&Service> {
        self.services.get(id.0 as usize)
    }

    /// The display name of the service owning microservice `id`
    /// (empty string if unknown — callers treat it as cosmetic).
    #[must_use]
    pub fn service_name_of(&self, id: MicroserviceId) -> &str {
        self.microservice(id)
            .and_then(|ms| self.service(ms.service))
            .map_or("", |s| s.name.as_str())
    }

    /// The interned display name of the service owning microservice
    /// `id` — alert producers clone this handle per alert instead of
    /// re-interning the text.
    #[must_use]
    pub fn service_name_interned_of(&self, id: MicroserviceId) -> Option<&IStr> {
        self.microservice(id)
            .and_then(|ms| self.service(ms.service))
            .map(|s| &s.name)
    }

    /// Microservices that `id` depends on (its callees).
    #[must_use]
    pub fn dependencies_of(&self, id: MicroserviceId) -> &[MicroserviceId] {
        self.dependencies
            .get(id.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Microservices that depend on `id` (its callers) — the direction a
    /// failure cascades.
    #[must_use]
    pub fn dependents_of(&self, id: MicroserviceId) -> &[MicroserviceId] {
        self.dependents
            .get(id.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Breadth-first upstream closure: every microservice reachable from
    /// `id` via dependents edges, *excluding* `id`, paired with its hop
    /// distance. This is the blast radius of a failure in `id`.
    #[must_use]
    pub fn cascade_closure(&self, id: MicroserviceId) -> Vec<(MicroserviceId, usize)> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        seen.insert(id);
        let mut queue = VecDeque::new();
        queue.push_back((id, 0usize));
        while let Some((cur, dist)) = queue.pop_front() {
            for &dep in self.dependents_of(cur) {
                if seen.insert(dep) {
                    out.push((dep, dist + 1));
                    queue.push_back((dep, dist + 1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::generate(&TopologyConfig::default())
    }

    #[test]
    fn paper_scale_defaults() {
        let t = topo();
        assert_eq!(t.services().len(), 11);
        assert_eq!(t.microservices().len(), 192);
        assert_eq!(t.regions().len(), 2);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Topology::generate(&TopologyConfig::default());
        let b = Topology::generate(&TopologyConfig::default());
        assert_eq!(a, b);
        let c = Topology::generate(&TopologyConfig {
            seed: 99,
            ..TopologyConfig::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn dependencies_point_to_lower_layers_only() {
        // Every edge points strictly down a layer, so the graph is acyclic.
        let t = topo();
        for ms in t.microservices() {
            for &dep in t.dependencies_of(ms.id) {
                let dep_ms = t.microservice(dep).unwrap();
                assert!(
                    dep_ms.layer < ms.layer,
                    "{} (layer {}) depends on {} (layer {})",
                    ms.name,
                    ms.layer,
                    dep_ms.name,
                    dep_ms.layer
                );
            }
        }
    }

    #[test]
    fn dependents_inverse_of_dependencies() {
        let t = topo();
        for ms in t.microservices() {
            for &dep in t.dependencies_of(ms.id) {
                assert!(
                    t.dependents_of(dep).contains(&ms.id),
                    "missing inverse edge {dep} -> {}",
                    ms.id
                );
            }
        }
    }

    #[test]
    fn cascade_closure_excludes_source_and_has_distances() {
        let t = topo();
        // Find a layer-0 microservice with dependents.
        let source = t
            .microservices()
            .iter()
            .find(|ms| ms.layer == 0 && !t.dependents_of(ms.id).is_empty())
            .expect("a foundation microservice with dependents");
        let closure = t.cascade_closure(source.id);
        assert!(!closure.is_empty());
        assert!(closure.iter().all(|&(id, _)| id != source.id));
        assert!(closure.iter().all(|&(_, d)| d >= 1));
        // No duplicates.
        let ids: BTreeSet<_> = closure.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), closure.len());
    }

    #[test]
    fn names_embed_service_slug() {
        let t = topo();
        let ms = &t.microservices()[0];
        let service = t.service(ms.service).unwrap();
        let slug = service.name.to_ascii_lowercase().replace(' ', "-");
        assert!(ms.name.starts_with(&slug), "{} vs {}", ms.name, slug);
    }

    #[test]
    fn some_microservices_are_fault_tolerant() {
        let t = topo();
        let ft = t
            .microservices()
            .iter()
            .filter(|ms| ms.fault_tolerant)
            .count();
        // Configured fraction 0.35 of 192 ≈ 67; allow wide slack.
        assert!(ft > 30 && ft < 110, "fault-tolerant count {ft}");
    }

    #[test]
    fn service_name_lookup() {
        let t = topo();
        assert_eq!(t.service_name_of(MicroserviceId(0)), "Block Storage");
        assert_eq!(t.service_name_of(MicroserviceId(9999)), "");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn rejects_empty_regions() {
        let _ = Topology::generate(&TopologyConfig {
            regions: Vec::new(),
            ..TopologyConfig::default()
        });
    }
}

impl Topology {
    /// Exports the dependency edges as a neutral
    /// [`DependencyGraph`](alertops_model::DependencyGraph), the form the
    /// A6 detector and the R3 correlation reaction consume.
    #[must_use]
    pub fn dependency_graph(&self) -> alertops_model::DependencyGraph {
        self.microservices
            .iter()
            .flat_map(|ms| {
                self.dependencies_of(ms.id)
                    .iter()
                    .map(move |&dep| (ms.id, dep))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod graph_export_tests {
    use super::*;

    #[test]
    fn dependency_graph_matches_topology_edges() {
        let topo = Topology::generate(&TopologyConfig::default());
        let graph = topo.dependency_graph();
        let edge_total: usize = topo
            .microservices()
            .iter()
            .map(|ms| topo.dependencies_of(ms.id).len())
            .sum();
        assert_eq!(graph.edge_count(), edge_total);
        let edges: std::collections::BTreeSet<_> = graph.edges().collect();
        for ms in topo.microservices().iter().take(30) {
            for &dep in topo.dependencies_of(ms.id) {
                assert!(edges.contains(&(ms.id, dep)));
            }
        }
    }
}
