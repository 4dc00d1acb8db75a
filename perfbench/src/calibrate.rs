//! Host-speed calibration.
//!
//! The cores of a small virtual machine can slow down by up to 2x for
//! minutes at a time when neighbouring machines are busy, with no steal time
//! showing in the guest. Timings from two runs are only comparable at the
//! same host speed, so every run also times a fixed reference kernel — code
//! of the benchmark's own, never of the program under test — every
//! [`REF_PERIOD`] through set-up and the op loop, and reports its timings
//! scaled to the speed at which the kernel takes
//! [`REF_NOMINAL_MS`]: `scaled = measured × REF_NOMINAL_MS / median(kernel)`.
//! A change to the program moves the scaled timings exactly as it moves the
//! measured ones; a change in host speed moves both the op and the kernel.
//!
//! The kernel counts the triangles of a fixed random graph by sorted-list
//! intersection, the same kind of work (sorted adjacency merges over a
//! working set of a few hundred KiB) as the clique enumeration it calibrates.

use crate::rng::SplitMix64;
use crate::stats::median;
use std::time::{Duration, Instant};

/// The kernel's time at nominal host speed: the time implied for it on a
/// quiet 2-vCPU virtual machine, so reported timings read close to that
/// machine's uncontended milliseconds.
pub const REF_NOMINAL_MS: f64 = 1.6;

/// How often the loop samples the kernel.
pub const REF_PERIOD: Duration = Duration::from_millis(100);

/// Vertices of the reference graph.
const REF_N: usize = 4096;
/// Edges of the reference graph.
const REF_M: usize = 49_152;
/// One sample intersects the neighbourhoods of every `REF_STRIDE`-th vertex
/// with those of all its higher neighbours, which span the whole graph.
const REF_STRIDE: usize = 8;

/// The reference graph in compressed sparse rows, neighbours sorted, and the
/// kernel timings taken so far.
#[derive(Debug)]
pub struct Reference {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    triangles: u64,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    /// Builds the fixed reference graph (the same on every run) and counts
    /// its triangles once, the answer every later sample must repeat.
    pub fn new() -> Self {
        let mut rng = SplitMix64::new(0x0CA1_1B8A7E);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * REF_M);
        while edges.len() < 2 * REF_M {
            let (u, v) = (rng.below(REF_N) as u32, rng.below(REF_N) as u32);
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; REF_N + 1];
        for &(u, _) in &edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..REF_N {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|&(_, v)| v).collect();
        let mut reference = Reference {
            offsets,
            targets,
            triangles: 0,
            samples_ms: Vec::new(),
            last: None,
        };
        reference.triangles = reference.count_triangles();
        reference
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Triangles `u < v < w` with `u` a multiple of [`REF_STRIDE`], each
    /// found once by merging the neighbourhoods of `u` and `v`.
    fn count_triangles(&self) -> u64 {
        let mut count = 0u64;
        for u in (0..REF_N).step_by(REF_STRIDE) {
            let nu = self.neighbors(u);
            for &v in nu.iter().filter(|&&v| v as usize > u) {
                let nv = self.neighbors(v as usize);
                let (mut i, mut j) = (0, 0);
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            count += u64::from(nu[i] > v);
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        }
        count
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let triangles = std::hint::black_box(&*self).count_triangles();
        self.samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            triangles, self.triangles,
            "the reference kernel is deterministic"
        );
        self.last = Some(Instant::now());
    }

    /// Samples the kernel if [`REF_PERIOD`] has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= REF_PERIOD) {
            self.sample();
        }
    }

    /// Every kernel timing so far, ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// The factor that turns this run's timings into timings at nominal
    /// host speed (1 before any sample).
    pub fn scale(&self) -> f64 {
        let med = median(&self.samples_ms);
        if med > 0.0 {
            REF_NOMINAL_MS / med
        } else {
            1.0
        }
    }
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_graph_is_fixed() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.targets, b.targets);
        assert!(a.triangles > 0);
        assert_eq!(a.count_triangles(), a.triangles);
    }
}
