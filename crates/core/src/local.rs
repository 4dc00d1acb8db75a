//! The shared local enumeration behind the dense listing paths.
//!
//! The `congested-clique` and `naive-broadcast` algorithms end in one dense
//! local step — enumerate every `K_p` of an (aggregate) graph into the
//! run's [`CliqueSink`] — and the CONGEST drivers (`general`/`fast-k4`'s
//! final broadcast, `eden-k4`'s naive finish) end in the same step over
//! their surviving graph. This module is that step's single implementation —
//! sequential by default, sharded across [`std::thread::scope`] workers when
//! the `parallel` feature is on and the validated
//! [`Parallelism`](crate::Parallelism) knob resolves above one thread.
//!
//! The parallel path keeps the engine's exactly-once deterministic emission
//! contract by construction: workers claim contiguous shards of the
//! degeneracy ordering from a
//! [`ShardedEnumerator`](graphcore::cliques::ShardedEnumerator) and fill one
//! [`ShardBuffer`](crate::sink::ShardBuffer) per shard; only the
//! orchestrating thread touches the real sink, replaying buffers in
//! ascending shard order. Shard boundaries vary with the thread count but
//! their concatenation is always the full root sequence, so the accept
//! sequence is byte-identical to the sequential path's (`DESIGN.md` §8).
//! Saturation stops the replay immediately and tells the workers to abandon
//! their remaining shards.

use crate::config::ListingConfig;
use crate::sink::CliqueSink;
use graphcore::cliques::CliqueIndex;
use graphcore::Graph;

/// Cliques the sequential path buffers before handing them to the sink in
/// one [`CliqueSink::accept_rows`] call. It also bounds the enumeration that
/// runs past the row that saturates the sink.
const BATCH_ROWS: usize = 256;

/// Emits every `p`-clique of `graph` into `sink` exactly once, in the
/// deterministic sequential order, honouring saturation. Uses
/// [`ListingConfig::effective_threads`] to decide between the sequential and
/// the sharded parallel path; callers are algorithms that opted into sharded
/// local enumeration.
///
/// Returns the worker count the enumeration **actually** fanned out to
/// (1 = sequential). This is what `RunReport.parallelism.threads_used`
/// records: a grant can exceed it on degenerate inputs (single-shard plans,
/// already-saturated sinks), and scaling reports must not attribute such runs
/// to the granted thread count.
pub(crate) fn stream_cliques(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> usize {
    if sink.is_saturated() {
        return 1;
    }
    stream_indexed_cliques(graph, &CliqueIndex::build(graph), config, sink)
}

/// [`stream_cliques`] against a prebuilt index of `graph` (ordering + DAG +
/// bitsets), for callers that already needed the index for something else —
/// the same build/query split the `query` crate's `GraphSnapshot` amortises
/// across whole batches.
pub(crate) fn stream_indexed_cliques(
    graph: &Graph,
    index: &CliqueIndex,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> usize {
    if sink.is_saturated() {
        return 1;
    }
    #[cfg(feature = "parallel")]
    {
        let threads = config.effective_threads(true);
        if threads > 1 && config.p >= 3 {
            return parallel_stream(graph, index, config, threads, sink);
        }
    }
    sequential_stream(graph, index, config, sink);
    1
}

/// The sequential path: enumerates on this thread and hands the cliques to
/// `sink` in batches of [`BATCH_ROWS`]. `accept_rows` keeps the per-clique
/// accept/saturation sequence, so the sink sees exactly the cliques a
/// per-clique loop would hand it.
fn sequential_stream(
    graph: &Graph,
    index: &CliqueIndex,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) {
    let p = config.p;
    let mut batch: Vec<u32> = Vec::with_capacity(BATCH_ROWS * p);
    let mut flush = |batch: &mut Vec<u32>| {
        sink.accept_rows(batch, p);
        batch.clear();
        !sink.is_saturated()
    };
    let completed = index.for_each_clique_while_with(graph, p, config.kernel, |c| {
        batch.extend_from_slice(c);
        batch.len() < BATCH_ROWS * p || flush(&mut batch)
    });
    if completed {
        flush(&mut batch);
    }
}

/// The sharded path: fan shards out over scoped worker threads through
/// [`graphcore::ordered_merge::ordered_merge`] (the single orchestration
/// shared with the graph-level drivers and the cluster fan-out of
/// `arb_list` — stop flag, ordered replay and backpressure live there), with
/// one [`ShardBuffer`](crate::sink::ShardBuffer) per shard bridging the
/// enumeration to the `dyn CliqueSink`. Only this thread ever touches
/// `sink`, one `accept_rows` call per shard. Returns the worker count
/// actually spawned (`threads` capped by the shard count; 1 when the plan
/// degenerates to a single shard and the enumeration runs inline).
#[cfg(feature = "parallel")]
fn parallel_stream(
    graph: &Graph,
    index: &CliqueIndex,
    config: &ListingConfig,
    threads: usize,
    sink: &mut dyn CliqueSink,
) -> usize {
    use crate::sink::ShardBuffer;
    use graphcore::cliques::{ShardedEnumerator, SHARDS_PER_THREAD};
    use graphcore::ordered_merge::ordered_merge as merge_shards;

    let p = config.p;
    let enumerator =
        ShardedEnumerator::with_index(graph, index, p, threads.saturating_mul(SHARDS_PER_THREAD))
            .with_kernel(config.kernel);
    let shards = enumerator.num_shards();
    if shards <= 1 {
        sequential_stream(graph, index, config, sink);
        return 1;
    }
    merge_shards(
        shards,
        threads,
        |shard| {
            let mut buffer = ShardBuffer::new(shard, p);
            enumerator.for_each_in_shard(shard, |c| buffer.accept(c));
            buffer
        },
        |buffer| buffer.replay_into(sink),
    );
    threads.min(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ListingConfig, Parallelism};
    use crate::sink::{CollectSink, FirstK};
    use graphcore::{cliques, gen};

    fn config(p: usize, parallelism: Parallelism) -> ListingConfig {
        ListingConfig {
            parallelism,
            ..ListingConfig::for_p(p)
        }
    }

    #[test]
    fn stream_matches_ground_truth_at_every_setting() {
        let g = gen::erdos_renyi(60, 0.3, 4);
        for p in [3usize, 4, 5] {
            let truth = cliques::list_cliques(&g, p);
            for parallelism in [
                Parallelism::Off,
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(8),
            ] {
                for kernel in [
                    cliques::KernelStrategy::Recursive,
                    cliques::KernelStrategy::Trie,
                    cliques::KernelStrategy::Auto,
                ] {
                    let mut sink = CollectSink::new();
                    let cfg = ListingConfig {
                        kernel,
                        ..config(p, parallelism)
                    };
                    stream_cliques(&g, &cfg, &mut sink);
                    assert_eq!(sink.sorted(), truth, "p={p} {parallelism:?} {kernel}");
                }
            }
        }
    }

    #[test]
    fn saturated_sinks_get_the_sequential_prefix() {
        // 1820 cliques: several sequential batches. Limits around the batch
        // boundary saturate the sink on a batch's last row, its first row
        // and mid-batch; each must see exactly the per-clique prefix.
        let g = gen::complete_graph(16);
        let mut order = Vec::new();
        cliques::for_each_clique_while(&g, 4, |c| {
            order.push(c.to_vec());
            true
        });
        for k in [7, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 1000] {
            for parallelism in [
                Parallelism::Off,
                Parallelism::Threads(2),
                Parallelism::Threads(8),
            ] {
                let mut first = FirstK::new(k);
                stream_cliques(&g, &config(4, parallelism), &mut first);
                assert_eq!(first.cliques, order[..k], "k={k} {parallelism:?}");
            }
        }
        // An already-saturated sink costs nothing.
        let mut full = FirstK::new(0);
        stream_cliques(&g, &config(4, Parallelism::Threads(4)), &mut full);
        assert!(full.cliques.is_empty());
    }
}
