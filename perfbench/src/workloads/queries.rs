//! `query`: sessions of mixed queries against one prepared snapshot.
//!
//! Set-up builds one R-MAT snapshot prepared for `K_4`. Each op is one
//! session: a fresh `QueryService` (so the cache starts empty and memory does
//! not grow with run length) answering one `execute_batch` of 64 queries. The
//! session's composition is fixed; the seed picks only which vertices and
//! edges are asked about, and the order. The work is the service, its result
//! cache and the index's containing-vertex and containing-edge reads.

use crate::harness::Workload;
use crate::rng::SplitMix64;
use crate::stats::mean;
use crate::trace::Tracer;
use cliquelist::Parallelism;
use graphcore::{gen, Clique, Graph};
use query::{
    CacheStats, GraphSnapshot, Query, QueryBuilder, QueryError, QueryOutcome, QueryResponse,
    QueryService,
};
use std::sync::Arc;

/// R-MAT scale of the snapshot: `2^14` vertices.
pub const SCALE: u32 = 14;
/// R-MAT edges per vertex.
pub const EDGE_FACTOR: usize = 8;
/// Generator seed of the snapshot graph. The graph is the same for every
/// workload seed, so a seed changes which queries are asked, not what the
/// data looks like.
pub const GRAPH_SEED: u64 = 0x51_A95E;
/// Clique size queried.
pub const P: usize = 4;
/// Queries per session.
pub const SESSION: usize = 64;
/// Every `REPEAT_EVERY`-th query repeats an earlier one (a cache hit).
pub const REPEAT_EVERY: usize = 4;
/// Non-hub containing-vertex queries per degree stratum: `(from, to, count)`
/// with the stratum given as degree-rank percentiles (0 = highest degree).
pub const VERTEX_STRATA: [(usize, usize, usize); 3] = [(1, 10, 6), (10, 50, 7), (50, 100, 8)];
/// Containing-edge queries per session.
pub const EDGES: usize = 24;
/// `k` of the session's first-k query.
pub const FIRST_K: usize = 1000;
/// Besides every hub query, every `CHECK_EVERY`-th query is checked against
/// a direct `CliqueIndex` answer.
pub const CHECK_EVERY: usize = 8;

const SALT: u64 = 0x0_5E55;

/// One query of a session, before it is built against the snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    /// Containing-vertex of a top-1% degree vertex.
    Hub(u32),
    /// Containing-vertex of a vertex from one of [`VERTEX_STRATA`].
    Vertex(u32),
    /// Containing-edge.
    Edge(u32, u32),
    /// The first [`FIRST_K`] cliques.
    FirstK,
    /// Whether any clique exists.
    Exists,
    /// The query at this earlier position, asked again.
    Repeat(usize),
}

impl Spec {
    /// The span a traced session records around this query.
    pub fn span(self) -> &'static str {
        match self {
            Spec::Hub(_) => "query.vertex_hub",
            Spec::Vertex(_) => "query.vertex",
            Spec::Edge(..) => "query.edge",
            Spec::FirstK => "query.first_k",
            Spec::Exists => "query.exists",
            Spec::Repeat(_) => "query.hit",
        }
    }
}

/// What sessions draw from: vertices by descending degree, and every edge.
pub struct Population {
    by_degree: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl Population {
    /// The population of `graph`.
    pub fn of(graph: &Graph) -> Self {
        let mut by_degree: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        // Stable sort: ties keep vertex order, so the ranking is deterministic.
        by_degree.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        Population {
            by_degree,
            edges: graph.edges().collect(),
        }
    }

    /// The top 1% of vertices by degree (at least one).
    pub fn hubs(&self) -> usize {
        self.by_degree.len().div_ceil(100).max(1)
    }

    fn rank_range(&self, from_pct: usize, to_pct: usize) -> std::ops::Range<usize> {
        let n = self.by_degree.len();
        (n * from_pct).div_ceil(100).max(self.hubs())..(n * to_pct).div_ceil(100)
    }
}

/// The plan of session `session` under `seed`. Its composition — one hub,
/// the [`VERTEX_STRATA`] counts, [`EDGES`] edges, one first-k, one exists,
/// and at every [`REPEAT_EVERY`]-th position a repeat of an earlier non-hub
/// query — is the same for every seed and session; session `s` asks about hub number `s mod hubs` of
/// a seed-shuffled hub order, so every run length up to a multiple of the
/// hub count sees each hub equally often.
pub fn plan(seed: u64, session: u64, hub_order: &[u32], population: &Population) -> Vec<Spec> {
    let mut rng = SplitMix64::derived(seed, SALT, session);
    let mut fresh = vec![Spec::Hub(
        hub_order[(session % hub_order.len() as u64) as usize],
    )];
    for (from, to, count) in VERTEX_STRATA {
        let range = population.rank_range(from, to);
        for rank in distinct(&mut rng, count, range.len()) {
            fresh.push(Spec::Vertex(population.by_degree[range.start + rank]));
        }
    }
    for i in distinct(&mut rng, EDGES, population.edges.len()) {
        let (u, v) = population.edges[i];
        fresh.push(Spec::Edge(u, v));
    }
    fresh.push(Spec::FirstK);
    fresh.push(Spec::Exists);
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let mut specs = Vec::with_capacity(SESSION);
    for position in 0..SESSION {
        if position % REPEAT_EVERY == REPEAT_EVERY - 1 {
            // Repeat an earlier first ask other than the hub's, so every
            // session copies exactly one hub answer.
            let earlier: Vec<usize> = (0..position)
                .filter(|&p| !matches!(specs[p], Spec::Repeat(_) | Spec::Hub(_)))
                .collect();
            specs.push(Spec::Repeat(earlier[rng.below(earlier.len())]));
        } else {
            specs.push(
                fresh
                    .next()
                    .expect("the composition fills every fresh position"),
            );
        }
    }
    debug_assert!(fresh.next().is_none());
    specs
}

/// `count` distinct values below `bound`, in draw order.
fn distinct(rng: &mut SplitMix64, count: usize, bound: usize) -> Vec<usize> {
    assert!(
        count <= bound,
        "cannot draw {count} distinct values below {bound}"
    );
    let mut out: Vec<usize> = Vec::with_capacity(count);
    while out.len() < count {
        let x = rng.below(bound);
        if !out.contains(&x) {
            out.push(x);
        }
    }
    out
}

/// One session: its plan and the validated queries.
pub struct Session {
    /// The plan, position by position.
    pub specs: Vec<Spec>,
    /// The query at each position.
    pub queries: Vec<Query>,
}

/// What a session returns: the responses and the cache counters after it.
pub type SessionOutput = (Result<Vec<QueryResponse>, QueryError>, CacheStats);

/// The `query` workload.
pub struct Queries {
    seed: u64,
    threads: usize,
    snapshot: Arc<GraphSnapshot>,
    population: Population,
    hub_order: Vec<u32>,
    hit_ratio: Vec<f64>,
    entries: Vec<f64>,
}

impl Queries {
    fn build(&self, spec: Spec, earlier: &[Query]) -> Query {
        let builder = QueryBuilder::new().p(P);
        let builder = match spec {
            Spec::Hub(v) | Spec::Vertex(v) => builder.containing_vertex(v),
            Spec::Edge(u, v) => builder.containing_edge(u, v),
            Spec::FirstK => builder.first(FIRST_K),
            Spec::Exists => builder.exists(),
            Spec::Repeat(i) => return earlier[i].clone(),
        };
        builder
            .build(&self.snapshot)
            .expect("session queries are valid for the snapshot")
    }

    /// The answer computed straight from the snapshot's `CliqueIndex`,
    /// without the service.
    fn direct(&self, spec: Spec) -> QueryOutcome {
        let graph = self.snapshot.graph();
        let index = self.snapshot.index();
        let mut cliques: Vec<Clique> = Vec::new();
        match spec {
            Spec::Hub(v) | Spec::Vertex(v) => {
                index.for_each_containing_vertex_while(graph, P, v, |c| {
                    cliques.push(c.to_vec());
                    true
                });
            }
            Spec::Edge(u, v) => {
                index.for_each_containing_edge_while(graph, P, u, v, |c| {
                    cliques.push(c.to_vec());
                    true
                });
            }
            Spec::FirstK => {
                index.for_each_clique_while_with(graph, P, self.snapshot.kernel(), |c| {
                    cliques.push(c.to_vec());
                    cliques.len() < FIRST_K
                });
            }
            Spec::Exists => {
                let found =
                    !index.for_each_clique_while_with(graph, P, self.snapshot.kernel(), |_| false);
                return QueryOutcome::Exists(found);
            }
            Spec::Repeat(_) => unreachable!("repeats are checked against their original"),
        }
        cliques.sort_unstable();
        QueryOutcome::Cliques(cliques)
    }
}

impl Workload for Queries {
    type Input = Session;
    type Output = SessionOutput;

    fn setup(seed: u64, threads: usize, tr: &mut Tracer) -> Self {
        let graph = gen::rmat(
            SCALE,
            EDGE_FACTOR,
            crate::workloads::stream::PROBS,
            GRAPH_SEED,
        );
        let snapshot = tr.span("query.snapshot_build", |_| {
            GraphSnapshot::builder(graph)
                .prepare_p(P)
                .build()
                .expect("p=4 is a valid prepared size")
                .into_shared()
        });
        let population = Population::of(snapshot.graph());
        let mut hub_order = population.by_degree[..population.hubs()].to_vec();
        SplitMix64::derived(seed, SALT, u64::MAX).shuffle(&mut hub_order);
        Queries {
            seed,
            threads,
            snapshot,
            population,
            hub_order,
            hit_ratio: Vec::new(),
            entries: Vec::new(),
        }
    }

    fn input(&mut self, op: u64) -> Session {
        let specs = plan(self.seed, op, &self.hub_order, &self.population);
        let mut queries = Vec::with_capacity(specs.len());
        for &spec in &specs {
            let query = self.build(spec, &queries);
            queries.push(query);
        }
        Session { specs, queries }
    }

    fn execute(&self, session: &Session, tr: &mut Tracer) -> SessionOutput {
        let parallelism = Parallelism::Threads(self.threads);
        if !tr.enabled() {
            let service = QueryService::with_parallelism(self.snapshot.clone(), parallelism);
            let responses = service.execute_batch(&session.queries);
            return (responses, service.cache_stats());
        }
        // Traced: the same queries one call each, so each gets its own span.
        let service = tr.span("query.service_new", |_| {
            QueryService::with_parallelism(self.snapshot.clone(), parallelism)
        });
        let responses = session
            .specs
            .iter()
            .zip(&session.queries)
            .map(|(spec, query)| tr.span(spec.span(), |_| service.execute(query)))
            .collect();
        let stats = service.cache_stats();
        // Ending the session frees the cache, which holds every answer.
        tr.span("query.service_drop", |_| drop(service));
        (responses, stats)
    }

    fn check(
        &mut self,
        _op: u64,
        session: &Session,
        (responses, stats): SessionOutput,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let responses = responses.map_err(|e| format!("session failed: {e}"))?;
        if responses.len() != SESSION {
            return Err(format!(
                "{} responses to {SESSION} queries",
                responses.len()
            ));
        }
        let probes = (stats.hits + stats.misses) as f64;
        self.hit_ratio.push(if probes > 0.0 {
            stats.hits as f64 / probes
        } else {
            0.0
        });
        self.entries.push(stats.entries as f64);
        for (position, (&spec, response)) in session.specs.iter().zip(&responses).enumerate() {
            if let Spec::Repeat(original) = spec {
                if !response.report.cache_hit || response.outcome != responses[original].outcome {
                    return Err(format!(
                        "position {position}: repeat of {original} was not the cached answer"
                    ));
                }
                continue;
            }
            if response.report.cache_hit {
                return Err(format!(
                    "position {position}: first ask of {spec:?} hit the cache"
                ));
            }
            let checked = matches!(spec, Spec::Hub(_)) || position % CHECK_EVERY == 0;
            if checked {
                let expected = match spec {
                    Spec::Hub(_) => tr.span("index.vertex_direct", |_| self.direct(spec)),
                    _ => self.direct(spec),
                };
                if response.outcome != expected {
                    return Err(format!(
                        "position {position}: {spec:?} disagrees with the index"
                    ));
                }
            }
        }
        Ok(())
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("query.snapshot_build_ms", tr.p50_ms("query.snapshot_build")),
            ("query.vertex_ms", tr.p50_ms("query.vertex")),
            ("query.edge_ms", tr.p50_ms("query.edge")),
            ("query.first_k_ms", tr.p50_ms("query.first_k")),
            ("query.exists_ms", tr.p50_ms("query.exists")),
            ("query.hit_ms", tr.p50_ms("query.hit")),
            ("query.vertex_hub_ms", tr.p50_ms("query.vertex_hub")),
            ("index.vertex_direct_ms", tr.p50_ms("index.vertex_direct")),
            ("query.cache_hit_ratio", mean(&self.hit_ratio)),
            ("query.cache_entries", mean(&self.entries)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(specs: &[Spec]) -> [usize; 6] {
        let mut c = [0; 6];
        for spec in specs {
            let k = match spec {
                Spec::Hub(_) => 0,
                Spec::Vertex(_) => 1,
                Spec::Edge(..) => 2,
                Spec::FirstK => 3,
                Spec::Exists => 4,
                Spec::Repeat(_) => 5,
            };
            c[k] += 1;
        }
        c
    }

    #[test]
    fn session_composition_does_not_depend_on_seed_or_session() {
        let graph = gen::rmat(10, EDGE_FACTOR, crate::workloads::stream::PROBS, GRAPH_SEED);
        let population = Population::of(&graph);
        let hubs = population.by_degree[..population.hubs()].to_vec();
        let expected = counts(&plan(1, 0, &hubs, &population));
        assert_eq!(expected, [1, 21, EDGES, 1, 1, SESSION / REPEAT_EVERY]);
        for seed in [1, 2, 99] {
            for session in [0, 1, 17, 1000] {
                let specs = plan(seed, session, &hubs, &population);
                assert_eq!(specs.len(), SESSION);
                assert_eq!(counts(&specs), expected);
                // Repeats point at earlier first asks; first asks are distinct.
                for (position, spec) in specs.iter().enumerate() {
                    if let Spec::Repeat(original) = *spec {
                        assert!(original < position);
                        assert!(!matches!(specs[original], Spec::Repeat(_) | Spec::Hub(_)));
                    } else {
                        assert!(!specs[..position].contains(spec));
                    }
                }
            }
        }
    }

    #[test]
    fn the_same_seed_plans_the_same_sessions() {
        let graph = gen::rmat(10, EDGE_FACTOR, crate::workloads::stream::PROBS, GRAPH_SEED);
        let population = Population::of(&graph);
        let hubs = population.by_degree[..population.hubs()].to_vec();
        assert_eq!(
            plan(5, 3, &hubs, &population),
            plan(5, 3, &hubs, &population)
        );
        assert_ne!(
            plan(5, 3, &hubs, &population),
            plan(6, 3, &hubs, &population)
        );
    }
}
