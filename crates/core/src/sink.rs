//! Streaming output sinks for listed cliques.
//!
//! Every algorithm behind the [`Engine`](crate::Engine) *emits* cliques into
//! a [`CliqueSink`] instead of materialising a `HashSet` per phase and
//! merging. The engine guarantees that [`CliqueSink::accept`] is called
//! **exactly once per distinct clique** of a run (directly or through a
//! [`CliqueSink::accept_rows`] batch), in a deterministic order, with the
//! clique in canonical form (vertices sorted ascending). Sinks can
//! therefore be as cheap as a single counter ([`CountSink`]) — no per-clique
//! allocation on the output path, which is measurably faster on dense
//! workloads where the listing itself dominates.
//!
//! A sink can declare itself *saturated* ([`CliqueSink::is_saturated`]);
//! the pipeline then skips further local enumeration work. Saturation never
//! changes the simulated round counts — rounds model communication, which
//! the distributed algorithm performs regardless of how much output a
//! client consumes.

use graphcore::Clique;
use std::collections::HashSet;

/// A consumer of listed cliques.
///
/// Implementations receive each distinct clique of a run exactly once (see
/// the module docs for the emission contract). The slice is only valid for
/// the duration of the call — copy it if the sink retains cliques.
pub trait CliqueSink {
    /// Accepts one listed clique (canonical form: sorted, deduplicated).
    fn accept(&mut self, clique: &[u32]);

    /// Whether the sink has seen enough: when `true`, the pipeline may skip
    /// the remaining *local enumeration* (it still charges the full
    /// communication rounds).
    fn is_saturated(&self) -> bool {
        false
    }

    /// Accepts a batch of cliques stored as consecutive rows of `width`
    /// vertices each, with exactly the per-row semantics: `accept` one row,
    /// then stop if [`CliqueSink::is_saturated`]. Returns the number of rows
    /// accepted (the saturating row included).
    ///
    /// Batching lets the pipeline hand a whole shard to the sink in one call
    /// instead of two dynamic calls per clique; sinks override it where the
    /// batch can be taken at once (a counter adds the row count).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    fn accept_rows(&mut self, rows: &[u32], width: usize) -> usize {
        debug_assert_eq!(rows.len() % width, 0, "rows must be whole");
        let mut accepted = 0;
        for clique in rows.chunks_exact(width) {
            self.accept(clique);
            accepted += 1;
            if self.is_saturated() {
                break;
            }
        }
        accepted
    }
}

impl<S: CliqueSink + ?Sized> CliqueSink for &mut S {
    fn accept(&mut self, clique: &[u32]) {
        (**self).accept(clique);
    }

    fn is_saturated(&self) -> bool {
        (**self).is_saturated()
    }

    fn accept_rows(&mut self, rows: &[u32], width: usize) -> usize {
        (**self).accept_rows(rows, width)
    }
}

/// Collects every clique into a `HashSet` — the drop-in replacement for the
/// pre-Engine `ListingResult::cliques` field.
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    /// The collected cliques.
    pub cliques: HashSet<Clique>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Number of collected cliques.
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// The collected cliques as a sorted vector (deterministic order).
    pub fn sorted(&self) -> Vec<Clique> {
        let mut v: Vec<Clique> = self.cliques.iter().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Consumes the sink and returns the collected set.
    pub fn into_cliques(self) -> HashSet<Clique> {
        self.cliques
    }
}

impl CliqueSink for CollectSink {
    fn accept(&mut self, clique: &[u32]) {
        self.cliques.insert(clique.to_vec());
    }
}

/// Counts cliques without storing them — no allocation per clique.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountSink {
    /// Number of cliques accepted so far.
    pub count: u64,
}

impl CountSink {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        CountSink::default()
    }
}

impl CliqueSink for CountSink {
    fn accept(&mut self, _clique: &[u32]) {
        self.count += 1;
    }

    fn accept_rows(&mut self, rows: &[u32], width: usize) -> usize {
        // Never saturated, so every row is accepted.
        let accepted = rows.len() / width;
        self.count += accepted as u64;
        accepted
    }
}

/// Keeps only the first `k` cliques of the (deterministic) emission order,
/// then reports saturation so the pipeline can stop enumerating.
#[derive(Clone, Debug)]
pub struct FirstK {
    limit: usize,
    /// The retained cliques, in emission order.
    pub cliques: Vec<Clique>,
}

impl FirstK {
    /// Creates a sink that retains at most `k` cliques.
    pub fn new(k: usize) -> Self {
        FirstK {
            limit: k,
            cliques: Vec::new(),
        }
    }

    /// The configured retention limit.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

impl CliqueSink for FirstK {
    fn accept(&mut self, clique: &[u32]) {
        if self.cliques.len() < self.limit {
            self.cliques.push(clique.to_vec());
        }
    }

    fn is_saturated(&self) -> bool {
        self.cliques.len() >= self.limit
    }
}

/// Forwards each distinct clique to an inner sink once, dropping duplicates.
///
/// The engine already guarantees exactly-once emission, so user code rarely
/// needs this directly; it exists for composing *multiple* runs into one
/// downstream sink (e.g. a comparison matrix that unions several algorithms)
/// and is what the pipeline itself uses internally where two listing paths
/// can overlap (per-`ARB-LIST` cross-cluster overlap, and the fast-`K_4`
/// light-node listing).
#[derive(Debug)]
pub struct Dedup<S: CliqueSink> {
    seen: HashSet<Clique>,
    inner: S,
}

impl<S: CliqueSink> Dedup<S> {
    /// Wraps `inner` with a dedup layer.
    pub fn new(inner: S) -> Self {
        Dedup {
            seen: HashSet::new(),
            inner,
        }
    }

    /// Number of distinct cliques forwarded so far.
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    /// Consumes the wrapper and returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CliqueSink> CliqueSink for Dedup<S> {
    fn accept(&mut self, clique: &[u32]) {
        if self.seen.insert(clique.to_vec()) {
            self.inner.accept(clique);
        }
    }

    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }
}

/// Per-shard clique buffer for the sharded parallel enumeration.
///
/// Worker threads cannot emit into the run's sink directly — the sink is a
/// single `&mut` consumer and the exactly-once contract promises a
/// deterministic order. Instead each worker fills one `ShardBuffer` per
/// claimed shard (the buffer is itself a [`CliqueSink`], so the worker-side
/// enumeration code is sink-agnostic) and the orchestrating thread calls
/// [`ShardBuffer::replay_into`] in **ascending shard order**: shards are
/// contiguous ranges of the degeneracy ordering, so the replayed sequence is
/// byte-identical to the sequential emission regardless of thread count or
/// worker scheduling. Storage is one flat `u32` array (rows of width `p`),
/// so buffering allocates nothing per clique.
///
/// The cluster fan-out of `arb_list` uses the same buffer for its per-cluster
/// emissions — on every path, sequential builds included, so the sequential
/// pipeline and the parallel one run literally the same produce/replay code.
#[derive(Clone, Debug)]
pub struct ShardBuffer {
    shard: usize,
    width: usize,
    flat: Vec<u32>,
}

impl ShardBuffer {
    /// Creates an empty buffer for shard `shard` holding cliques of `width`
    /// vertices.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` (a zero-width row cannot delimit cliques).
    pub fn new(shard: usize, width: usize) -> Self {
        assert!(width > 0, "clique width must be at least 1");
        ShardBuffer {
            shard,
            width,
            flat: Vec::new(),
        }
    }

    /// The shard index this buffer belongs to (its merge position).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of buffered cliques.
    pub fn len(&self) -> usize {
        self.flat.len() / self.width
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Replays every buffered clique into `sink` in one
    /// [`CliqueSink::accept_rows`] call, in buffered order, stopping after
    /// the accept that saturates the sink; returns whether the sink is still
    /// accepting. The accept/saturation-check sequence is exactly the
    /// sequential path's (`accept`, then `is_saturated`), which keeps the
    /// exactly-once emission byte-identical.
    pub fn replay_into(&self, sink: &mut dyn CliqueSink) -> bool {
        sink.accept_rows(&self.flat, self.width);
        !sink.is_saturated()
    }
}

impl CliqueSink for ShardBuffer {
    fn accept(&mut self, clique: &[u32]) {
        debug_assert_eq!(clique.len(), self.width, "clique width mismatch");
        self.flat.extend_from_slice(clique);
    }
}

/// Suppresses the cliques owned by crash-stopped nodes; used by the engine
/// to turn a crash schedule in the [`Resilience`](crate::Resilience)
/// envelope into a deterministic *partial* listing.
///
/// A clique's owner is its canonical minimum vertex — in every listing
/// pipeline that vertex is the node responsible for reporting the instance,
/// so when it crash-stops the instance goes unreported. Ownership is a pure
/// function of the clique and the (pre-computed) crash schedule, never of
/// thread scheduling, so filtered listings stay byte-identical at any thread
/// grant.
#[derive(Debug)]
pub struct CrashFilter<S: CliqueSink> {
    inner: S,
    crashed: Vec<bool>,
    suppressed: u64,
}

impl<S: CliqueSink> CrashFilter<S> {
    /// Wraps `inner`, suppressing cliques whose minimum vertex is marked
    /// crashed in `crashed` (indexed by vertex id; vertices beyond the slice
    /// are treated as alive).
    pub fn new(inner: S, crashed: Vec<bool>) -> Self {
        CrashFilter {
            inner,
            crashed,
            suppressed: 0,
        }
    }

    /// Number of cliques suppressed so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Consumes the wrapper and returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CliqueSink> CliqueSink for CrashFilter<S> {
    fn accept(&mut self, clique: &[u32]) {
        // Canonical form is sorted ascending, so the owner is the first entry.
        let owner = clique.first().map(|&v| v as usize);
        if owner.is_some_and(|v| self.crashed.get(v).copied().unwrap_or(false)) {
            self.suppressed += 1;
            return;
        }
        self.inner.accept(clique);
    }

    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }
}

/// Counts the cliques passing through to an inner sink; used by the engine
/// to fill the [`SinkSummary`](crate::SinkSummary) of a
/// [`RunReport`](crate::RunReport).
///
/// Respects saturation: once the inner sink reports
/// [`CliqueSink::is_saturated`], further cliques are dropped instead of
/// forwarded, so `emitted` is exactly the number of cliques the inner sink
/// received.
#[derive(Debug)]
pub struct Counted<S: CliqueSink> {
    inner: S,
    emitted: u64,
}

impl<S: CliqueSink> Counted<S> {
    /// Wraps `inner` with an emission counter.
    pub fn new(inner: S) -> Self {
        Counted { inner, emitted: 0 }
    }

    /// Number of cliques forwarded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Consumes the wrapper and returns the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CliqueSink> CliqueSink for Counted<S> {
    fn accept(&mut self, clique: &[u32]) {
        if self.inner.is_saturated() {
            return;
        }
        self.emitted += 1;
        self.inner.accept(clique);
    }

    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }

    fn accept_rows(&mut self, rows: &[u32], width: usize) -> usize {
        if self.inner.is_saturated() {
            // Per row, the first accept is dropped and the saturation check
            // after it ends the batch.
            return usize::from(!rows.is_empty());
        }
        let accepted = self.inner.accept_rows(rows, width);
        self.emitted += accepted as u64;
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_deduplicates() {
        let mut sink = CollectSink::new();
        assert!(sink.is_empty());
        sink.accept(&[1, 2, 3]);
        sink.accept(&[1, 2, 3]);
        sink.accept(&[2, 3, 4]);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.sorted()[0], vec![1, 2, 3]);
        assert!(!sink.is_saturated());
        assert_eq!(sink.into_cliques().len(), 2);
    }

    #[test]
    fn count_sink_counts_every_accept() {
        let mut sink = CountSink::new();
        sink.accept(&[1, 2, 3]);
        sink.accept(&[2, 3, 4]);
        assert_eq!(sink.count, 2);
    }

    #[test]
    fn first_k_saturates() {
        let mut sink = FirstK::new(2);
        assert_eq!(sink.limit(), 2);
        sink.accept(&[1, 2, 3]);
        assert!(!sink.is_saturated());
        sink.accept(&[2, 3, 4]);
        assert!(sink.is_saturated());
        sink.accept(&[3, 4, 5]);
        assert_eq!(sink.cliques, vec![vec![1, 2, 3], vec![2, 3, 4]]);
    }

    #[test]
    fn dedup_forwards_each_clique_once() {
        let mut sink = Dedup::new(CountSink::new());
        sink.accept(&[1, 2, 3]);
        sink.accept(&[1, 2, 3]);
        sink.accept(&[2, 3, 4]);
        assert_eq!(sink.distinct(), 2);
        assert_eq!(sink.into_inner().count, 2);
    }

    #[test]
    fn shard_buffers_replay_in_order_and_respect_saturation() {
        let mut a = ShardBuffer::new(0, 3);
        let mut b = ShardBuffer::new(1, 3);
        assert!(a.is_empty());
        b.accept(&[7, 8, 9]);
        a.accept(&[1, 2, 3]);
        a.accept(&[2, 3, 4]);
        assert_eq!(a.len(), 2);
        assert_eq!((a.shard(), b.shard()), (0, 1));

        // Ascending-shard replay reproduces the sequential emission order.
        let mut collected = Vec::new();
        {
            struct Probe<'a>(&'a mut Vec<Vec<u32>>);
            impl CliqueSink for Probe<'_> {
                fn accept(&mut self, clique: &[u32]) {
                    self.0.push(clique.to_vec());
                }
            }
            let mut probe = Probe(&mut collected);
            assert!(a.replay_into(&mut probe));
            assert!(b.replay_into(&mut probe));
        }
        assert_eq!(collected, vec![vec![1, 2, 3], vec![2, 3, 4], vec![7, 8, 9]]);

        // Replay stops with the accept that saturates the sink, exactly like
        // the sequential accept-then-check loop.
        let mut first = FirstK::new(1);
        assert!(!a.replay_into(&mut first));
        assert_eq!(first.cliques, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn crash_filter_suppresses_cliques_owned_by_crashed_nodes() {
        // Node 2 crashed: cliques whose canonical owner (minimum vertex) is 2
        // vanish; cliques merely *containing* 2 but owned elsewhere survive
        // only if their owner is alive.
        let crashed = vec![false, false, true];
        let mut sink = CrashFilter::new(CollectSink::new(), crashed);
        sink.accept(&[2, 3, 4]); // owned by 2 -> suppressed
        sink.accept(&[1, 2, 3]); // owned by 1 -> kept
        sink.accept(&[5, 6, 7]); // owner beyond the slice -> alive, kept
        assert_eq!(sink.suppressed(), 1);
        assert!(!sink.is_saturated());
        assert_eq!(sink.into_inner().len(), 2);
    }

    #[test]
    fn counted_tracks_forwarded_cliques_and_saturation() {
        let mut sink = Counted::new(FirstK::new(1));
        sink.accept(&[1, 2, 3]);
        assert_eq!(sink.emitted(), 1);
        assert!(sink.is_saturated());
    }

    /// The reference semantics `accept_rows` must reproduce: per row,
    /// `accept`, then stop if the sink is saturated.
    fn per_row(sink: &mut impl CliqueSink, rows: &[u32], width: usize) -> usize {
        let mut accepted = 0;
        for clique in rows.chunks_exact(width) {
            sink.accept(clique);
            accepted += 1;
            if sink.is_saturated() {
                break;
            }
        }
        accepted
    }

    /// Checks `accept_rows` against [`per_row`] on fresh sinks from `make`,
    /// bare and behind the engine's `Counted<&mut S>` wrapper: same rows
    /// accepted, same final sink state, same emission count.
    fn assert_batch_contract<S: CliqueSink, T: PartialEq + std::fmt::Debug>(
        label: &str,
        make: impl Fn() -> S,
        state: impl Fn(&S) -> T,
        rows: &[u32],
    ) {
        let (mut batched, mut reference) = (make(), make());
        let accepted = batched.accept_rows(rows, 3);
        assert_eq!(accepted, per_row(&mut reference, rows, 3), "{label}: rows");
        assert_eq!(state(&batched), state(&reference), "{label}: state");

        let (mut batched, mut reference) = (make(), make());
        let (accepted, emitted) = {
            let mut counted = Counted::new(&mut batched);
            (counted.accept_rows(rows, 3), counted.emitted())
        };
        let mut counted = Counted::new(&mut reference);
        let expected = per_row(&mut counted, rows, 3);
        assert_eq!(accepted, expected, "{label}: counted rows");
        assert_eq!(emitted, counted.emitted(), "{label}: emitted");
        assert_eq!(state(&batched), state(&reference), "{label}: counted state");
    }

    #[test]
    fn accept_rows_matches_the_per_row_loop_on_every_sink() {
        // Four rows of width 3: a repeat for `Dedup`, one row owned by the
        // crashed node 2 for `CrashFilter`.
        const ROWS: [u32; 12] = [1, 2, 3, 2, 3, 4, 2, 5, 6, 1, 2, 3];
        let crashed = || vec![false, false, true];
        for batch in [&ROWS[..0], &ROWS[..]] {
            assert_batch_contract("count", CountSink::new, |s| s.count, batch);
            assert_batch_contract("collect", CollectSink::new, CollectSink::sorted, batch);
            assert_batch_contract(
                "shard",
                || ShardBuffer::new(0, 3),
                |s| s.flat.clone(),
                batch,
            );
            assert_batch_contract(
                "dedup",
                || Dedup::new(CollectSink::new()),
                |s| (s.distinct(), s.inner.sorted()),
                batch,
            );
            assert_batch_contract(
                "crash",
                || CrashFilter::new(CountSink::new(), crashed()),
                |s| (s.suppressed(), s.inner.count),
                batch,
            );
            // Already saturated, saturated on the first row, mid-batch and
            // on the last row.
            for k in [0, 1, 3, 4] {
                let first = |s: &FirstK| s.cliques.clone();
                assert_batch_contract(&format!("first-{k}"), || FirstK::new(k), first, batch);
                assert_batch_contract(
                    &format!("dedup first-{k}"),
                    || Dedup::new(FirstK::new(k)),
                    |s| (s.distinct(), first(&s.inner)),
                    batch,
                );
                assert_batch_contract(
                    &format!("crash first-{k}"),
                    || CrashFilter::new(FirstK::new(k), crashed()),
                    |s| (s.suppressed(), first(&s.inner)),
                    batch,
                );
                assert_batch_contract(
                    &format!("counted first-{k}"),
                    || Counted::new(FirstK::new(k)),
                    |s| (s.emitted(), first(&s.inner)),
                    batch,
                );
            }
        }
    }

    #[test]
    fn mutable_references_are_sinks_too() {
        fn emit(sink: &mut dyn CliqueSink) {
            sink.accept(&[1, 2, 3]);
        }
        let mut count = CountSink::new();
        let mut as_ref: &mut dyn CliqueSink = &mut count;
        emit(&mut as_ref);
        assert_eq!(count.count, 1);
    }
}
