//! A small deterministic generator for the benchmark's own input choices.
//!
//! The benchmark derives every input from `--seed` alone, so it keeps its own
//! SplitMix64 rather than depending on a generator whose stream could change
//! underneath it.

/// SplitMix64: a 64-bit state advanced by a Weyl step and finalised by the
/// MurmurHash3 mixer.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// A generator for item `index` of stream `salt` under `seed`: distinct
    /// `(seed, salt, index)` triples give independent-looking streams.
    pub fn derived(seed: u64, salt: u64, index: u64) -> Self {
        SplitMix64::new(mix(mix(seed ^ salt.rotate_left(17)) ^ index))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// A uniform value in `0..bound` (`bound > 0`), by multiply-shift.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        ((u128::from(self.next_u64()) * bound as u128) >> 64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The MurmurHash3 64-bit finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::derived(1, 2, 3);
        for bound in 1..50 {
            assert!(rng.below(bound) < bound);
        }
    }
}
