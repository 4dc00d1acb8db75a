//! Construction and validation of δ-expander decompositions (Definition 2.2).

use crate::cluster::Cluster;
use congest::{ChargePolicy, PrimitiveKind};
use graphcore::{spectral, Edge, EdgeSet, Graph, Orientation};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Tuning knobs of the decomposition construction.
///
/// The defaults implement the guarantees of Definition 2.2 with the hidden
/// constants instantiated as follows: clusters must have minimum internal
/// degree at least `degree_fraction · n^δ`, their estimated mixing time must
/// be at most `mixing_factor · log2(n)^mixing_exponent`, and at most
/// `max_er_fraction · |E|` edges may be placed in `E_r`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DecompositionConfig {
    /// Fraction of `n^δ` required as the minimum internal degree of a cluster.
    pub degree_fraction: f64,
    /// Multiplier of the polylogarithmic mixing-time acceptance threshold.
    pub mixing_factor: f64,
    /// Exponent of the `log2 n` term in the mixing-time acceptance threshold.
    pub mixing_exponent: u32,
    /// Maximum fraction of the input edges that may be assigned to `E_r`
    /// (the paper requires `1/6`).
    pub max_er_fraction: f64,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        DecompositionConfig {
            degree_fraction: 0.5,
            mixing_factor: 4.0,
            mixing_exponent: 2,
            max_er_fraction: 1.0 / 6.0,
        }
    }
}

impl DecompositionConfig {
    /// Minimum internal degree required of cluster nodes for an `n`-node graph.
    pub fn degree_threshold(&self, n: usize, delta: f64) -> usize {
        let raw = (n.max(1) as f64).powf(delta) * self.degree_fraction;
        raw.ceil().max(1.0) as usize
    }

    /// Mixing-time acceptance threshold for an `n`-node graph.
    pub fn mixing_limit(&self, n: usize) -> f64 {
        self.mixing_factor * (n.max(2) as f64).log2().powi(self.mixing_exponent as i32)
    }
}

/// A violation of the decomposition guarantees, reported by
/// [`Decomposition::verify`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// `E_m`, `E_s`, `E_r` do not partition the input edge set.
    NotAPartition {
        /// Number of input edges.
        expected: usize,
        /// Sum of the three parts (after checking pairwise disjointness).
        found: usize,
    },
    /// `|E_r|` exceeds the allowed fraction of `|E|`.
    ErTooLarge {
        /// Number of edges in `E_r`.
        er: usize,
        /// Maximum allowed.
        limit: usize,
    },
    /// A cluster node has too small an internal degree.
    LowClusterDegree {
        /// Cluster identifier.
        cluster: usize,
        /// Minimum internal degree found.
        found: usize,
        /// Required minimum.
        required: usize,
    },
    /// A cluster mixes too slowly.
    SlowMixing {
        /// Cluster identifier.
        cluster: usize,
        /// Estimated mixing time.
        mixing_time: f64,
        /// Acceptance threshold.
        limit: f64,
    },
    /// The `E_s` orientation has a vertex with too many outgoing edges.
    EsOutDegreeTooHigh {
        /// Offending vertex.
        vertex: u32,
        /// Its out-degree.
        out_degree: usize,
        /// The bound `n^δ`.
        limit: usize,
    },
    /// The `E_s` orientation does not cover exactly the `E_s` edges.
    EsOrientationMismatch,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotAPartition { expected, found } => {
                write!(
                    f,
                    "edge parts do not partition the input ({found} != {expected})"
                )
            }
            Violation::ErTooLarge { er, limit } => write!(f, "|E_r| = {er} exceeds limit {limit}"),
            Violation::LowClusterDegree {
                cluster,
                found,
                required,
            } => {
                write!(f, "cluster {cluster} has min degree {found} < {required}")
            }
            Violation::SlowMixing {
                cluster,
                mixing_time,
                limit,
            } => {
                write!(
                    f,
                    "cluster {cluster} mixing time {mixing_time:.1} exceeds {limit:.1}"
                )
            }
            Violation::EsOutDegreeTooHigh {
                vertex,
                out_degree,
                limit,
            } => {
                write!(f, "E_s out-degree of {vertex} is {out_degree} > {limit}")
            }
            Violation::EsOrientationMismatch => write!(f, "E_s orientation does not match E_s"),
        }
    }
}

/// A δ-expander decomposition of a graph.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The δ parameter the decomposition was built for.
    pub delta: f64,
    /// Minimum internal degree required of cluster nodes.
    pub degree_threshold: usize,
    /// Cluster edges.
    pub em: EdgeSet,
    /// Low-arboricity edges, oriented by [`Decomposition::es_orientation`].
    pub es: EdgeSet,
    /// Leftover edges (at most a sixth of the input).
    pub er: EdgeSet,
    /// Orientation of `E_s` with out-degree at most `n^δ`.
    pub es_orientation: Orientation,
    /// The clusters (connected components of `E_m` with at least two nodes).
    pub clusters: Vec<Cluster>,
    /// For every vertex, the id of the cluster containing it (if any).
    pub cluster_of: Vec<Option<usize>>,
    /// Configuration used during construction (also used by `verify`).
    pub config: DecompositionConfig,
}

impl Decomposition {
    /// The cluster containing vertex `v`, if any.
    pub fn cluster_containing(&self, v: u32) -> Option<&Cluster> {
        self.cluster_of[v as usize].map(|i| &self.clusters[i])
    }

    /// Builds the subgraph consisting of the `E_m` edges only.
    pub fn em_graph(&self, n: usize) -> Graph {
        Graph::from_edge_set(n, &self.em).expect("E_m endpoints are in range")
    }

    /// Rounds charged for constructing this decomposition distributively
    /// (Theorem 2.3: `~O(n^{1-δ})`).
    pub fn charged_rounds(&self, n: usize, policy: &ChargePolicy) -> u64 {
        policy.decomposition_rounds(n, self.delta)
    }

    /// The primitive kind under which the construction cost is charged.
    pub fn primitive_kind() -> PrimitiveKind {
        PrimitiveKind::ExpanderDecomposition
    }

    /// Checks every guarantee of Definition 2.2 against the original graph
    /// and returns all violations found (empty means the decomposition is
    /// valid).
    ///
    /// # Errors
    ///
    /// Returns the list of violations if any guarantee fails.
    pub fn verify(&self, graph: &Graph) -> Result<(), Vec<Violation>> {
        let mut violations = Vec::new();
        let n = graph.num_vertices();

        // Partition check.
        let total = self.em.len() + self.es.len() + self.er.len();
        let disjoint = self.em.is_disjoint(&self.es)
            && self.em.is_disjoint(&self.er)
            && self.es.is_disjoint(&self.er);
        let all_present = self
            .em
            .iter()
            .chain(self.es.iter())
            .chain(self.er.iter())
            .all(|e| graph.has_edge(e.u(), e.v()));
        if !disjoint || !all_present || total != graph.num_edges() {
            violations.push(Violation::NotAPartition {
                expected: graph.num_edges(),
                found: total,
            });
        }

        // E_r size.
        let limit = (self.config.max_er_fraction * graph.num_edges() as f64).floor() as usize;
        if self.er.len() > limit {
            violations.push(Violation::ErTooLarge {
                er: self.er.len(),
                limit,
            });
        }

        // Cluster guarantees.
        let em_graph = self.em_graph(n);
        let mixing_limit = self.config.mixing_limit(n);
        for cluster in &self.clusters {
            let min_deg = cluster.min_internal_degree(&em_graph);
            if min_deg < self.degree_threshold {
                violations.push(Violation::LowClusterDegree {
                    cluster: cluster.id,
                    found: min_deg,
                    required: self.degree_threshold,
                });
            }
            let mixing = cluster.mixing_time(&em_graph);
            if !mixing.is_finite() || mixing > mixing_limit {
                violations.push(Violation::SlowMixing {
                    cluster: cluster.id,
                    mixing_time: mixing,
                    limit: mixing_limit,
                });
            }
        }

        // E_s orientation: coverage and out-degree bound of n^δ.
        let es_limit = (n.max(1) as f64).powf(self.delta).ceil() as usize;
        let mut oriented = EdgeSet::new();
        for (u, v) in self.es_orientation.edges() {
            oriented.insert(Edge::new(u, v));
        }
        if oriented != self.es {
            violations.push(Violation::EsOrientationMismatch);
        }
        for v in 0..n as u32 {
            let d = self.es_orientation.out_degree(v);
            if d > es_limit {
                violations.push(Violation::EsOutDegreeTooHigh {
                    vertex: v,
                    out_degree: d,
                    limit: es_limit,
                });
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// Builds a δ-expander decomposition of `graph`.
///
/// The construction peels vertices of remaining degree below the cluster
/// degree threshold into `E_s` (oriented away from the peeled vertex, which
/// bounds the out-degree and hence the arboricity), and refines the remaining
/// dense components by sweep cuts on the second eigenvector of the lazy
/// random walk until every component mixes fast enough to be accepted as a
/// cluster. Cut edges go to `E_r`; if the `E_r` budget (`|E|/6` by default)
/// would be exceeded, the component is accepted as-is so the budget guarantee
/// always holds.
///
/// The construction is deterministic and ignores `_seed`: the power
/// iteration behind the sweep cuts starts from a fixed vector, so the same
/// `(graph, delta, config)` always yields the same decomposition whatever
/// seed is passed. The parameter stays in the signature for API stability.
pub fn decompose(
    graph: &Graph,
    delta: f64,
    config: &DecompositionConfig,
    _seed: u64,
) -> Decomposition {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let threshold = config.degree_threshold(n, delta);
    let mixing_limit = config.mixing_limit(n);
    let er_budget = (config.max_er_fraction * m as f64).floor() as usize;

    // Remaining graph as mutable adjacency sets.
    let mut remaining: Vec<BTreeSet<u32>> = (0..n as u32)
        .map(|v| graph.neighbors(v).iter().copied().collect())
        .collect();

    let mut es = EdgeSet::new();
    let mut es_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut er = EdgeSet::new();
    let mut em = EdgeSet::new();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of: Vec<Option<usize>> = vec![None; n];

    // Global peel.
    let all: Vec<u32> = (0..n as u32).collect();
    peel(&mut remaining, &all, threshold, &mut es, &mut es_out);

    // Component queue.
    let mut queue: Vec<Vec<u32>> = components(&remaining, &all);

    while let Some(component) = queue.pop() {
        if component.len() < 2 {
            continue;
        }
        let sub = subgraph(&remaining, n, &component);
        let mixing = spectral::mixing_time_estimate(&sub, &component);
        if mixing.is_finite() && mixing <= mixing_limit {
            accept_cluster(
                &component,
                &sub,
                &mut em,
                &mut clusters,
                &mut cluster_of,
                &mut remaining,
            );
            continue;
        }

        // Try to find a sparse cut.
        let cut = sweep_cut(&sub, &component);
        let cut_edges: Vec<Edge> = match &cut {
            Some((side, _)) => {
                let side_set: BTreeSet<u32> = side.iter().copied().collect();
                sub.edges()
                    .filter(|&(u, v)| side_set.contains(&u) != side_set.contains(&v))
                    .map(|(u, v)| Edge::new(u, v))
                    .collect()
            }
            None => Vec::new(),
        };

        if cut_edges.is_empty() || er.len() + cut_edges.len() > er_budget {
            // Accept the component as a (possibly slow-mixing) cluster; the
            // E_r budget takes precedence so the |E_r| <= |E|/6 guarantee
            // always holds.
            accept_cluster(
                &component,
                &sub,
                &mut em,
                &mut clusters,
                &mut cluster_of,
                &mut remaining,
            );
            continue;
        }

        // Apply the cut: the crossing edges go to E_r.
        for e in &cut_edges {
            er.insert(*e);
            remaining[e.u() as usize].remove(&e.v());
            remaining[e.v() as usize].remove(&e.u());
        }
        // Degrees dropped: re-peel within the component, then re-split it into
        // connected components and keep refining.
        peel(&mut remaining, &component, threshold, &mut es, &mut es_out);
        for part in components(&remaining, &component) {
            queue.push(part);
        }
    }

    Decomposition {
        delta,
        degree_threshold: threshold,
        em,
        es,
        er,
        es_orientation: Orientation::from_out_lists(es_out),
        clusters,
        cluster_of,
        config: *config,
    }
}

/// Repeatedly removes vertices (restricted to `scope`) whose remaining degree
/// is below `threshold`, assigning their remaining incident edges to `E_s`
/// oriented away from the removed vertex.
fn peel(
    remaining: &mut [BTreeSet<u32>],
    scope: &[u32],
    threshold: usize,
    es: &mut EdgeSet,
    es_out: &mut [Vec<u32>],
) {
    let mut stack: Vec<u32> = scope
        .iter()
        .copied()
        .filter(|&v| !remaining[v as usize].is_empty() && remaining[v as usize].len() < threshold)
        .collect();
    let mut queued: BTreeSet<u32> = stack.iter().copied().collect();
    while let Some(v) = stack.pop() {
        queued.remove(&v);
        if remaining[v as usize].is_empty() || remaining[v as usize].len() >= threshold {
            continue;
        }
        let nbrs: Vec<u32> = remaining[v as usize].iter().copied().collect();
        for w in nbrs {
            es.insert(Edge::new(v, w));
            es_out[v as usize].push(w);
            remaining[v as usize].remove(&w);
            remaining[w as usize].remove(&v);
            if !remaining[w as usize].is_empty()
                && remaining[w as usize].len() < threshold
                && queued.insert(w)
            {
                stack.push(w);
            }
        }
    }
}

/// Connected components of the remaining graph restricted to `scope`
/// (only vertices with at least one remaining edge are reported).
fn components(remaining: &[BTreeSet<u32>], scope: &[u32]) -> Vec<Vec<u32>> {
    let scope_set: BTreeSet<u32> = scope
        .iter()
        .copied()
        .filter(|&v| !remaining[v as usize].is_empty())
        .collect();
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    let mut out = Vec::new();
    for &start in &scope_set {
        if seen.contains(&start) {
            continue;
        }
        let mut stack = vec![start];
        seen.insert(start);
        let mut comp = Vec::new();
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in &remaining[v as usize] {
                if scope_set.contains(&w) && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Materialises the remaining edges among `component` as a graph (keeping the
/// original vertex identifiers).
fn subgraph(remaining: &[BTreeSet<u32>], n: usize, component: &[u32]) -> Graph {
    let comp_set: BTreeSet<u32> = component.iter().copied().collect();
    let mut edges = Vec::new();
    for &v in component {
        for &w in &remaining[v as usize] {
            if v < w && comp_set.contains(&w) {
                edges.push((v, w));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("remaining edges are in range")
}

fn accept_cluster(
    component: &[u32],
    sub: &Graph,
    em: &mut EdgeSet,
    clusters: &mut Vec<Cluster>,
    cluster_of: &mut [Option<usize>],
    remaining: &mut [BTreeSet<u32>],
) {
    let id = clusters.len();
    for (u, v) in sub.edges() {
        em.insert(Edge::new(u, v));
    }
    for &v in component {
        cluster_of[v as usize] = Some(id);
        remaining[v as usize].clear();
    }
    // Clear reverse entries pointing into the component from outside (there
    // should be none, since components are maximal, but stay defensive).
    clusters.push(Cluster::new(id, component.to_vec()));
}

/// Finds the prefix of the second-eigenvector ordering with minimum
/// conductance. Returns the chosen side and its conductance, or `None` if no
/// eigenvector is available (e.g. the component is disconnected).
fn sweep_cut(sub: &Graph, component: &[u32]) -> Option<(Vec<u32>, f64)> {
    let (_, vector) = spectral::second_eigenpair(sub, component)?;
    let mut order: Vec<usize> = (0..component.len()).collect();
    order.sort_by(|&a, &b| {
        vector[a]
            .partial_cmp(&vector[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let total_volume: usize = component.iter().map(|&v| sub.degree(v)).sum();
    let mut in_prefix: BTreeSet<u32> = BTreeSet::new();
    let mut volume = 0usize;
    let mut cut = 0usize;
    let mut best: Option<(usize, f64)> = None;
    for (i, &idx) in order.iter().enumerate().take(component.len() - 1) {
        let v = component[idx];
        let internal = sub
            .neighbors(v)
            .iter()
            .filter(|&&w| in_prefix.contains(&w))
            .count();
        volume += sub.degree(v);
        cut = cut + sub.degree(v) - 2 * internal;
        in_prefix.insert(v);
        let denom = volume.min(total_volume - volume);
        if denom == 0 {
            continue;
        }
        let conductance = cut as f64 / denom as f64;
        if best.is_none_or(|(_, c)| conductance < c) {
            best = Some((i, conductance));
        }
    }
    let (prefix_len, conductance) = best?;
    let side: Vec<u32> = order[..=prefix_len].iter().map(|&i| component[i]).collect();
    Some((side, conductance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    #[test]
    fn dense_random_graph_forms_one_cluster() {
        let g = gen::erdos_renyi(120, 0.4, 3);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(!d.clusters.is_empty());
        // Most edges should live in E_m for a dense expander-like graph.
        assert!(d.em.len() > g.num_edges() / 2, "em = {}", d.em.len());
        assert!(d.er.len() <= g.num_edges() / 6);
    }

    #[test]
    fn sparse_graph_goes_entirely_to_es() {
        let g = gen::path_graph(200);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(d.clusters.is_empty());
        assert_eq!(d.es.len(), g.num_edges());
        assert!(d.er.is_empty());
    }

    #[test]
    fn two_dense_communities_joined_by_a_bridge() {
        // Two K_20's joined by a single edge: the bridge should not prevent
        // finding two well-mixing clusters (it is either cut into E_r or the
        // merged component already mixes well enough to be accepted).
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20u32 {
                edges.push((u, v));
                edges.push((u + 20, v + 20));
            }
        }
        edges.push((0, 20));
        let g = Graph::from_edges(40, &edges).unwrap();
        let d = decompose(&g, 0.6, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(!d.clusters.is_empty());
        let clustered: usize = d.clusters.iter().map(Cluster::len).sum();
        assert!(clustered >= 38, "only {clustered} vertices clustered");
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::new(0);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid");
        let g1 = Graph::new(5);
        let d1 = decompose(&g1, 0.5, &DecompositionConfig::default(), 1);
        d1.verify(&g1).expect("valid");
        assert!(d1.clusters.is_empty() && d1.em.is_empty() && d1.es.is_empty());
    }

    #[test]
    fn partition_is_exact_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(150, 0.1, seed);
            let d = decompose(&g, 0.4, &DecompositionConfig::default(), seed);
            d.verify(&g).expect("valid decomposition");
            assert_eq!(d.em.len() + d.es.len() + d.er.len(), g.num_edges());
        }
    }

    #[test]
    fn es_orientation_out_degree_is_bounded() {
        let g = gen::barabasi_albert(300, 4, 9);
        let delta = 0.5;
        let d = decompose(&g, delta, &DecompositionConfig::default(), 2);
        d.verify(&g).expect("valid decomposition");
        let limit = (300f64).powf(delta).ceil() as usize;
        assert!(d.es_orientation.max_out_degree() <= limit);
    }

    #[test]
    fn charged_rounds_follow_theorem_2_3() {
        let g = gen::erdos_renyi(100, 0.3, 3);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        let bare = ChargePolicy::bare();
        assert_eq!(d.charged_rounds(10_000, &bare), 100); // 10000^{0.5}
        assert_eq!(
            Decomposition::primitive_kind(),
            PrimitiveKind::ExpanderDecomposition
        );
    }

    #[test]
    fn cluster_lookup() {
        let g = gen::complete_graph(30);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        assert_eq!(d.clusters.len(), 1);
        let c = d.cluster_containing(3).expect("vertex 3 clustered");
        assert_eq!(c.len(), 30);
        assert!(d.em_graph(30).num_edges() > 0);
    }

    #[test]
    fn verify_detects_corruption() {
        let g = gen::complete_graph(20);
        let mut d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        // Corrupt: move a cluster edge into E_r without removing it from E_m.
        let edge = d.em.iter().next().unwrap();
        d.er.insert(edge);
        let violations = d.verify(&g).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::NotAPartition { .. })));
        assert!(!format!("{}", violations[0]).is_empty());
    }
}
