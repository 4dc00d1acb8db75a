//! The sparsity-aware in-cluster listing step (Section 2.4.3).
//!
//! Once a cluster knows every edge that can form a `K_p` with one of its goal
//! edges, it must actually list those instances within its own bandwidth
//! (Challenge 2). The paper's procedure:
//!
//! 1. assign new dense identifiers `1..k` to the cluster nodes (Lemma 2.5);
//! 2. **reshuffle** the known edges so that a single cluster node is
//!    responsible for all known edges oriented away from each original vertex;
//! 3. draw a random partition of the whole vertex set into `≈ k^{1/p}` parts
//!    and broadcast it inside the cluster;
//! 4. assign every cluster node `p` parts through the radix representation of
//!    its new identifier and deliver to it all known edges between its parts;
//! 5. let every node list the `K_p` instances it now sees, emitting each one
//!    into the caller's [`CliqueSink`].
//!
//! The data movement is performed on the pooled knowledge and the *loads* of
//! steps 2–4 are computed exactly per node; rounds are charged through the
//! cluster router of Theorem 2.4. The sparsity-awareness is step 4: the
//! number of edges between two parts is proportional to the *actual* number of
//! known edges (Lemma 2.7), not to the worst case; the
//! [`ExchangeMode::DenseAssumption`] mode deliberately ignores this and is
//! used by the ablation experiment and the Eden-et-al-style baseline. The
//! mode is selected by [`ListingConfig::exchange_mode`] (a builder option of
//! the [`Engine`](crate::Engine)).
//!
//! The emission into the sink may contain duplicates across goal edges (a
//! clique can contain several goal edges of the same cluster) and across
//! clusters; the caller (`arb_list`) wraps the downstream sink in a
//! per-invocation [`Dedup`](crate::sink::Dedup) layer, preserving the
//! engine's exactly-once contract. The emission *order* needs no such
//! repair: goal edges are visited in sorted order and each goal edge's
//! cliques stream in ascending canonical order, so the raw (pre-dedup)
//! sequence is already deterministic — the `Dedup` exists solely for the
//! genuine duplicates above, never to absorb iteration-order noise (see
//! `dedup_exists_for_duplicates_not_order` in `arb_list`).
//!
//! All load accounting is flat: per-rank loads live in `Vec`s keyed by the
//! dense identifiers of Lemma 2.5 ([`ClusterIds`]), part-pair counts in a
//! [`PairTable`] over the radix parts — no hashing on the per-edge path and
//! no hash-order iteration anywhere.

use crate::config::ListingConfig;
use crate::parts::TupleAssignment;
use crate::result::{phase, Rounds};
use crate::sink::CliqueSink;
use expander::{Cluster, ClusterIds, ClusterRouter, DenseTable, PairTable};
use graphcore::partition::VertexPartition;
use graphcore::{cliques, EdgeSet, Graph};

pub use crate::config::ExchangeMode;

/// Cost outcome of the in-cluster listing step for one cluster (the listed
/// cliques are streamed to the sink, not returned).
#[derive(Clone, Debug, Default)]
pub struct SparseListingOutcome {
    /// Rounds per phase (identifier assignment, reshuffle, partition
    /// broadcast, part exchange).
    pub rounds: Rounds,
    /// Maximum per-node word load of the reshuffle step.
    pub reshuffle_load: u64,
    /// Maximum per-node word load of the part-exchange step.
    pub exchange_load: u64,
}

/// Input of the in-cluster listing step.
pub struct SparseListingInput<'a> {
    /// The cluster performing the listing.
    pub cluster: &'a Cluster,
    /// The `E_m` graph (used for the cluster's internal bandwidth).
    pub em_graph: &'a Graph,
    /// Known edges as oriented `(source, target)` pairs, deduplicated.
    pub known_edges: &'a [(u32, u32)],
    /// Goal edges of the cluster.
    pub goal_edges: &'a EdgeSet,
    /// Per-cluster-node words of outside knowledge, keyed by dense rank (for
    /// the reshuffle's send load).
    pub learned_words: &'a DenseTable,
    /// Number of vertices of the whole graph.
    pub n: usize,
    /// Orientation out-degree bound of the current graph (`n^d`), used only
    /// by the dense-assumption mode.
    pub arboricity_bound: usize,
}

/// Runs the sparsity-aware listing for one cluster, streaming the listed
/// cliques into `sink` (in sorted-goal-edge order, possibly with duplicates —
/// see the module docs) and returning the rounds charged.
pub fn cluster_listing(
    input: &SparseListingInput<'_>,
    config: &ListingConfig,
    seed: u64,
    sink: &mut dyn CliqueSink,
) -> SparseListingOutcome {
    let mut outcome = SparseListingOutcome::default();
    let cluster = input.cluster;
    let k = cluster.len();
    let n = input.n;
    let p = config.p;
    let mode = config.exchange_mode;
    let words = config.words_per_edge;
    if k == 0 || input.known_edges.is_empty() {
        return outcome;
    }

    let policy = config.charge_policy;
    let ids = ClusterIds::assign(cluster);
    outcome
        .rounds
        .add(phase::ID_ASSIGNMENT, ClusterIds::charged_rounds(n, &policy));

    let router = ClusterRouter::new(cluster, input.em_graph, n, policy);

    // --- Step 2: reshuffle ------------------------------------------------
    // Responsibility: rank i handles original vertices in one contiguous
    // block of size ceil(n/k).
    let block = n.div_ceil(k).max(1);
    let responsible_rank = |vertex: u32| -> usize { ((vertex as usize) / block).min(k - 1) };

    // Send load: what each cluster node currently holds (its own outgoing
    // incident edges plus what it learned from outside). One pass over the
    // known edges, crediting cluster-member sources by dense rank.
    let mut send_load = DenseTable::new(k);
    // Receive load: each responsible node receives the known out-edges of the
    // vertices in its block.
    let mut recv_load = DenseTable::new(k);
    for &(src, _) in input.known_edges {
        if let Some(rank) = ids.rank(src) {
            send_load.add(rank, words);
        }
        recv_load.add(responsible_rank(src), words);
    }
    for (rank, learned) in input.learned_words.iter() {
        send_load.add(rank, learned);
    }
    outcome.reshuffle_load = send_load.max().max(recv_load.max());
    outcome.rounds.add(
        phase::RESHUFFLE,
        router.rounds_for_load(outcome.reshuffle_load),
    );

    // --- Step 3: random partition and its broadcast ------------------------
    let assignment = TupleAssignment::new(k, p);
    let partition = VertexPartition::random(n, assignment.num_parts, seed);
    // Every node announces the parts of the ~n/k vertices it is responsible
    // for to every other cluster node: load ≈ n words per node.
    outcome
        .rounds
        .add(phase::PARTITION_BROADCAST, router.rounds_for_load(n as u64));

    // --- Step 4: part exchange ---------------------------------------------
    // Count known edges between each unordered pair of parts — a flat
    // upper-triangular table over the `P ≈ k^{1/p}` parts.
    let mut pair_counts = PairTable::new(assignment.num_parts);
    for &(src, dst) in input.known_edges {
        pair_counts.add(partition.part_of(src), partition.part_of(dst), 1);
    }
    // Receive load per rank: sum over its tuples of the counts of every pair
    // of parts in the tuple.
    let dense_pair_load = {
        // Number of vertex pairs between two parts if the graph were complete:
        // used by the dense-assumption ablation.
        let part_size = (n as u64).div_ceil(u64::from(assignment.num_parts)).max(1);
        part_size * part_size
    };
    let max_exchange_recv = assignment.max_receive_load(|a, b| {
        let count = match mode {
            ExchangeMode::SparsityAware => pair_counts.get(a, b),
            ExchangeMode::DenseAssumption => dense_pair_load,
        };
        count * words
    });
    // Send load per rank: each known edge (owned by the responsible node of
    // its source) is sent to every node owning a tuple containing both
    // endpoint parts.
    let mut exchange_send = DenseTable::new(k);
    for &(src, dst) in input.known_edges {
        let (a, b) = (partition.part_of(src), partition.part_of(dst));
        let copies = assignment.owners_needing(a.min(b), a.max(b));
        exchange_send.add(responsible_rank(src), copies * words);
    }
    let max_exchange_send = match mode {
        ExchangeMode::SparsityAware => exchange_send.max(),
        ExchangeMode::DenseAssumption => {
            // Each responsible node nominally forwards its worst-case share of
            // a dense graph: (n/k)·n^d edges, each to p²·k^{1−2/p} owners.
            let share = (n as u64).div_ceil(k as u64) * input.arboricity_bound as u64;
            let owners =
                ((p * p) as u64) * ((k as f64).powf(1.0 - 2.0 / p as f64).ceil() as u64).max(1);
            share * owners * words
        }
    };
    outcome.exchange_load = max_exchange_send.max(max_exchange_recv);
    outcome.rounds.add(
        phase::PART_EXCHANGE,
        router.rounds_for_load(outcome.exchange_load),
    );

    // --- Step 5: local listing ---------------------------------------------
    // Every K_p whose edges are all known and which contains a goal edge is
    // listed by the owner of the tuple of its vertex parts; since every tuple
    // is owned, this equals the set of K_p in the known-edge graph containing
    // a goal edge. Goal edges are visited in sorted order so the emission
    // order is deterministic (EdgeSet iteration order is not). The
    // per-cluster enumerator amortises its bitsets and candidate arena over
    // all goal edges of the cluster.
    let undirected: Vec<(u32, u32)> = input
        .known_edges
        .iter()
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();
    let known_graph = Graph::from_edges(n, &undirected).expect("known edges are in range");
    let mut enumerator =
        cliques::EdgeCliqueEnumerator::with_strategy(&known_graph, p, config.kernel);
    for e in input.goal_edges.to_sorted_vec() {
        if sink.is_saturated() {
            break;
        }
        // Stream the cliques of this goal edge directly into the sink
        // (ascending canonical order, no per-edge clique materialisation); a
        // saturated sink aborts mid-edge and the enumerator resets its
        // scratch state at the next query.
        enumerator.for_each_containing_edge_while(e.u(), e.v(), |clique| {
            sink.accept(clique);
            !sink.is_saturated()
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, Dedup};
    use graphcore::{gen, Clique, Edge, Orientation};

    fn inputs_for(
        graph: &Graph,
        cluster_size: usize,
    ) -> (Cluster, Graph, Vec<(u32, u32)>, EdgeSet) {
        let cluster = Cluster::new(0, (0..cluster_size as u32).collect());
        let em: EdgeSet = graph
            .edges()
            .filter(|&(u, v)| (u as usize) < cluster_size && (v as usize) < cluster_size)
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let em_graph = Graph::from_edge_set(graph.num_vertices(), &em).unwrap();
        let orientation = Orientation::from_degeneracy(graph);
        let known: Vec<(u32, u32)> = graph
            .edges()
            .map(|(u, v)| match orientation.source_of(u, v) {
                Some(s) if s == v => (v, u),
                _ => (u, v),
            })
            .collect();
        (cluster, em_graph, known, em)
    }

    fn listed(
        input: &SparseListingInput<'_>,
        config: &ListingConfig,
        seed: u64,
    ) -> (SparseListingOutcome, std::collections::HashSet<Clique>) {
        let mut collect = Dedup::new(CollectSink::new());
        let outcome = cluster_listing(input, config, seed, &mut collect);
        (outcome, collect.into_inner().into_cliques())
    }

    #[test]
    fn lists_all_cliques_with_a_goal_edge() {
        let g = gen::erdos_renyi(40, 0.3, 5);
        let (cluster, em_graph, known, em) = inputs_for(&g, 15);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 40,
            arboricity_bound: 10,
        };
        let cfg = ListingConfig::for_p(4);
        let (out, got) = listed(&input, &cfg, 3);
        // Expected: all K4 of g containing an edge inside the cluster prefix.
        let expected: std::collections::HashSet<Clique> = cliques::list_cliques(&g, 4)
            .into_iter()
            .filter(|c| {
                c.iter()
                    .enumerate()
                    .any(|(i, &a)| c[i + 1..].iter().any(|&b| em.contains_pair(a, b)))
            })
            .collect();
        assert_eq!(got, expected);
        assert!(out.rounds.total() > 0);
    }

    #[test]
    fn dense_mode_charges_at_least_as_many_rounds() {
        let g = gen::erdos_renyi(60, 0.2, 9);
        let (cluster, em_graph, known, em) = inputs_for(&g, 20);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 60,
            arboricity_bound: 12,
        };
        let cfg = ListingConfig::for_p(4);
        let dense_cfg = cfg.with_exchange_mode(ExchangeMode::DenseAssumption);
        let (sparse, sparse_cliques) = listed(&input, &cfg, 1);
        let (dense, dense_cliques) = listed(&input, &dense_cfg, 1);
        assert!(
            dense.rounds.for_phase(phase::PART_EXCHANGE)
                >= sparse.rounds.for_phase(phase::PART_EXCHANGE)
        );
        // Both list exactly the same cliques.
        assert_eq!(sparse_cliques, dense_cliques);
    }

    #[test]
    fn empty_inputs_are_cheap() {
        let g = gen::path_graph(10);
        let cluster = Cluster::new(0, vec![0, 1]);
        let em_graph = g.clone();
        let learned = DenseTable::new(cluster.len());
        let goal = EdgeSet::new();
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &[],
            goal_edges: &goal,
            learned_words: &learned,
            n: 10,
            arboricity_bound: 1,
        };
        let cfg = ListingConfig::for_p(4);
        let (out, got) = listed(&input, &cfg, 1);
        assert!(got.is_empty());
        assert_eq!(out.rounds.total(), 0);
    }

    #[test]
    fn loads_grow_with_edge_count() {
        let sparse_graph = gen::erdos_renyi(50, 0.08, 2);
        let dense_graph = gen::erdos_renyi(50, 0.5, 2);
        let cfg = ListingConfig::for_p(5);
        let mut loads = Vec::new();
        for g in [&sparse_graph, &dense_graph] {
            let (cluster, em_graph, known, em) = inputs_for(g, 25);
            let learned = DenseTable::new(cluster.len());
            let input = SparseListingInput {
                cluster: &cluster,
                em_graph: &em_graph,
                known_edges: &known,
                goal_edges: &em,
                learned_words: &learned,
                n: 50,
                arboricity_bound: 20,
            };
            let (out, _) = listed(&input, &cfg, 7);
            loads.push(out.exchange_load);
        }
        assert!(
            loads[1] > loads[0],
            "dense load {} <= sparse load {}",
            loads[1],
            loads[0]
        );
    }

    #[test]
    fn saturated_sinks_stop_the_local_enumeration_but_not_the_rounds() {
        let g = gen::complete_graph(20);
        let (cluster, em_graph, known, em) = inputs_for(&g, 20);
        let learned = DenseTable::new(cluster.len());
        let input = SparseListingInput {
            cluster: &cluster,
            em_graph: &em_graph,
            known_edges: &known,
            goal_edges: &em,
            learned_words: &learned,
            n: 20,
            arboricity_bound: 19,
        };
        let cfg = ListingConfig::for_p(4);
        let mut first = crate::sink::FirstK::new(1);
        let out = cluster_listing(&input, &cfg, 3, &mut first);
        assert_eq!(first.cliques.len(), 1);
        // Rounds are still the full communication cost.
        let (full, _) = listed(&input, &cfg, 3);
        assert_eq!(out.rounds.total(), full.rounds.total());
    }
}
