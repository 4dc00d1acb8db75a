//! Radix-based assignment of part tuples to cluster nodes.
//!
//! The sparsity-aware listing step partitions the vertex set into `P ≈ k^{1/p}`
//! parts and has every cluster node learn all edges between the parts of a
//! `p`-tuple assigned to it. The paper assigns node `i` the tuple given by the
//! `P`-radix representation of `i`; because `P^p` can exceed `k` after
//! rounding, we additionally wrap the surplus tuples around so that **every**
//! tuple is owned by some node — this is what makes the listing complete, at
//! the cost of at most a constant-factor increase in per-node load.

use serde::{Deserialize, Serialize};

/// Assignment of the `P^p` part tuples to `k` cluster nodes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleAssignment {
    /// Number of parts `P`.
    pub num_parts: u32,
    /// Tuple length `p`.
    pub p: usize,
    /// Number of cluster nodes `k`.
    pub k: usize,
    /// Total number of tuples (`P^p`).
    pub num_tuples: u64,
}

impl TupleAssignment {
    /// Creates the assignment for a cluster of `k ≥ 1` nodes and clique size
    /// `p`, using `P = ceil(k^{1/p})` parts.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `p == 0`.
    pub fn new(k: usize, p: usize) -> Self {
        assert!(k > 0, "a cluster must have at least one node");
        assert!(p > 0, "tuples must have positive length");
        let mut num_parts = (k as f64).powf(1.0 / p as f64).ceil() as u32;
        num_parts = num_parts.max(1);
        // Guard against floating-point undershoot: ensure P^p >= k.
        while (num_parts as u64).pow(p as u32) < k as u64 {
            num_parts += 1;
        }
        let num_tuples = (num_parts as u64).pow(p as u32);
        TupleAssignment {
            num_parts,
            p,
            k,
            num_tuples,
        }
    }

    /// Decodes tuple index `t` into its `p` part digits (least significant
    /// digit first).
    pub fn tuple_parts(&self, t: u64) -> Vec<u32> {
        let mut digits = Vec::with_capacity(self.p);
        let mut rest = t;
        for _ in 0..self.p {
            digits.push((rest % u64::from(self.num_parts)) as u32);
            rest /= u64::from(self.num_parts);
        }
        digits
    }

    /// The tuples owned by the node with rank `rank` (tuples are distributed
    /// round-robin: rank `r` owns `r, r + k, r + 2k, …`).
    pub fn tuples_of(&self, rank: usize) -> Vec<u64> {
        (rank as u64..self.num_tuples).step_by(self.k).collect()
    }

    /// The rank of the node that owns tuple `t`.
    pub fn owner_of(&self, t: u64) -> usize {
        (t % self.k as u64) as usize
    }

    /// Maximum number of tuples owned by a single node.
    pub fn max_tuples_per_node(&self) -> u64 {
        self.num_tuples.div_ceil(self.k as u64)
    }

    /// Number of tuples that contain part `a` and part `b` (with `a == b`
    /// meaning "contains `a` at least once"), computed by inclusion–exclusion.
    ///
    /// This is the number of destinations an edge with endpoint parts `a`,
    /// `b` must reach in the worst case; the paper bounds it by
    /// `O(p² k^{1−2/p})`.
    pub fn tuples_containing(&self, a: u32, b: u32) -> u64 {
        let total = self.num_tuples as i128;
        let pp = self.p as u32;
        let q = i128::from(self.num_parts);
        if a == b {
            (total - (q - 1).pow(pp)) as u64
        } else {
            (total - 2 * (q - 1).pow(pp) + (q - 2).max(0).pow(pp)) as u64
        }
    }

    /// Number of distinct nodes that own at least one tuple containing both
    /// `a` and `b` — an upper bound used for send-load accounting.
    pub fn owners_needing(&self, a: u32, b: u32) -> u64 {
        self.tuples_containing(a, b).min(self.k as u64)
    }

    /// Calls `visit(a, b)` once per distinct unordered part pair of tuple
    /// `t` — `a ≤ b`, with `(a, a)` when part `a` occurs twice — in
    /// ascending order. Allocation-free: the digits are decoded and sorted on
    /// the stack.
    pub fn for_each_distinct_pair(&self, t: u64, mut visit: impl FnMut(u32, u32)) {
        // `P^p` fits a `u64`, so `p ≤ 64` whenever `P ≥ 2`; with `P = 1`
        // every digit is 0 and the first 64 digits carry the same pairs.
        let mut buffer = [0u32; 64];
        let digits = &mut buffer[..self.p.min(64)];
        let mut rest = t;
        for digit in digits.iter_mut() {
            *digit = (rest % u64::from(self.num_parts)) as u32;
            rest /= u64::from(self.num_parts);
        }
        digits.sort_unstable();
        for (i, &a) in digits.iter().enumerate() {
            if i > 0 && digits[i - 1] == a {
                continue;
            }
            if digits.get(i + 1) == Some(&a) {
                visit(a, a);
            }
            for (j, &b) in digits.iter().enumerate().skip(i + 1) {
                if b != a && digits[j - 1] != b {
                    visit(a, b);
                }
            }
        }
    }

    /// The receive load of the part exchange: the maximum, over node ranks,
    /// of `count(a, b)` summed over the distinct part pairs of every tuple
    /// the rank owns ([`TupleAssignment::for_each_distinct_pair`]).
    ///
    /// Both exchange-load accountings (in-cluster and CONGESTED CLIQUE) are
    /// this one pass; `count` is typically a [`expander::PairTable`] lookup
    /// times the words per edge. No allocation, and the summation order is
    /// structural.
    pub fn max_receive_load(&self, mut count: impl FnMut(u32, u32) -> u64) -> u64 {
        let mut max = 0;
        for rank in 0..self.k {
            let mut load = 0;
            for t in (rank as u64..self.num_tuples).step_by(self.k) {
                self.for_each_distinct_pair(t, |a, b| load += count(a, b));
            }
            max = max.max(load);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_tuple_is_owned_exactly_once() {
        let asg = TupleAssignment::new(10, 3);
        assert!(asg.num_tuples >= 10);
        let mut seen = HashSet::new();
        for rank in 0..10 {
            for t in asg.tuples_of(rank) {
                assert!(seen.insert(t), "tuple {t} owned twice");
                assert_eq!(asg.owner_of(t), rank);
            }
        }
        assert_eq!(seen.len() as u64, asg.num_tuples);
        assert!(asg.max_tuples_per_node() <= asg.num_tuples.div_ceil(10));
    }

    #[test]
    fn tuple_digits_roundtrip() {
        let asg = TupleAssignment::new(27, 3);
        assert_eq!(asg.num_parts, 3);
        assert_eq!(asg.num_tuples, 27);
        let parts = asg.tuple_parts(26);
        assert_eq!(parts, vec![2, 2, 2]);
        assert_eq!(asg.tuple_parts(5), vec![2, 1, 0]);
    }

    #[test]
    fn tuples_containing_matches_bruteforce() {
        let asg = TupleAssignment::new(30, 4);
        let p = asg.num_parts;
        for (a, b) in [(0u32, 0u32), (0, 1), (1, 2), (p - 1, 0)] {
            let brute = (0..asg.num_tuples)
                .filter(|&t| {
                    let digits = asg.tuple_parts(t);
                    digits.contains(&a) && digits.contains(&b)
                })
                .count() as u64;
            assert_eq!(asg.tuples_containing(a, b), brute, "({a},{b})");
            assert!(asg.owners_needing(a, b) <= 30);
        }
    }

    #[test]
    fn covering_guarantee_for_cliques() {
        // Any multiset of p parts must appear as some tuple, so any K_p whose
        // vertices land in those parts has an owner.
        let asg = TupleAssignment::new(7, 3);
        let mut covered = HashSet::new();
        for t in 0..asg.num_tuples {
            let mut parts = asg.tuple_parts(t);
            parts.sort_unstable();
            covered.insert(parts);
        }
        for a in 0..asg.num_parts {
            for b in a..asg.num_parts {
                for c in b..asg.num_parts {
                    assert!(covered.contains(&vec![a, b, c]), "({a},{b},{c}) uncovered");
                }
            }
        }
    }

    #[test]
    fn distinct_pairs_are_sorted_and_deduped() {
        for asg in [
            TupleAssignment::new(27, 3),
            TupleAssignment::new(30, 4),
            TupleAssignment::new(1, 70),
        ] {
            for t in 0..asg.num_tuples {
                let mut pairs = Vec::new();
                asg.for_each_distinct_pair(t, |a, b| pairs.push((a, b)));
                // Reference: brute-force set of unordered digit pairs.
                let digits = asg.tuple_parts(t);
                let mut expected: Vec<(u32, u32)> = Vec::new();
                for (i, &a) in digits.iter().enumerate() {
                    for &b in &digits[i + 1..] {
                        let pair = (a.min(b), a.max(b));
                        if !expected.contains(&pair) {
                            expected.push(pair);
                        }
                    }
                }
                expected.sort_unstable();
                assert_eq!(pairs, expected, "p={} tuple {t}", asg.p);
                assert!(
                    pairs.windows(2).all(|w| w[0] < w[1]),
                    "tuple {t} not strict"
                );
            }
        }
    }

    #[test]
    fn receive_load_sums_every_owned_tuple() {
        let asg = TupleAssignment::new(30, 4);
        let count = |a: u32, b: u32| u64::from(a * 7 + b + 1);
        let mut expected = 0;
        for rank in 0..30 {
            let mut load = 0;
            for t in asg.tuples_of(rank) {
                asg.for_each_distinct_pair(t, |a, b| load += count(a, b));
            }
            expected = expected.max(load);
        }
        assert_eq!(asg.max_receive_load(count), expected);
        assert_eq!(TupleAssignment::new(1, 3).max_receive_load(|_, _| 5), 5);
    }

    #[test]
    fn single_node_cluster() {
        let asg = TupleAssignment::new(1, 4);
        assert_eq!(asg.num_parts, 1);
        assert_eq!(asg.num_tuples, 1);
        assert_eq!(asg.tuples_of(0), vec![0]);
        assert_eq!(asg.tuples_containing(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_k_panics() {
        TupleAssignment::new(0, 3);
    }
}
