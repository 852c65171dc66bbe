//! Named, independently seeded random streams.
//!
//! Every stochastic component (each meter's noise, each rack's power draw,
//! each controller's jitter) should draw from its own stream so that adding
//! or removing one consumer never perturbs the draws of another — the key
//! to debuggable, reproducible experiments.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives independent [`SmallRng`] streams from a root seed and a name.
///
/// Streams are derived with the 64-bit FNV-1a hash of the name mixed with
/// the root seed through SplitMix64, which is cheap and has no detectable
/// correlation between adjacent streams for this use.
///
/// ```
/// use flex_sim::rng::RngPool;
/// use rand::Rng;
///
/// let pool = RngPool::new(42);
/// let mut a = pool.stream("meter/UPS0");
/// let mut b = pool.stream("meter/UPS1");
/// let (x, y): (f64, f64) = (a.gen(), b.gen());
/// assert_ne!(x, y); // different names, independent streams
/// // Same name => identical stream.
/// let mut a2 = pool.stream("meter/UPS0");
/// assert_eq!(a.gen::<u64>(), { let _ : f64 = a2.gen(); a2.gen::<u64>() });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngPool {
    root_seed: u64,
}

impl RngPool {
    /// Creates a pool from a root seed.
    pub fn new(root_seed: u64) -> Self {
        RngPool { root_seed }
    }

    /// The root seed, for experiment logs.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// A stream named by an arbitrary string.
    pub fn stream(&self, name: &str) -> SmallRng {
        SmallRng::seed_from_u64(splitmix64(self.root_seed ^ fnv1a(name.as_bytes())))
    }

    /// A stream named by a string plus an index — convenient for per-rack
    /// or per-meter streams.
    pub fn indexed_stream(&self, name: &str, index: u64) -> SmallRng {
        let h = fnv1a(name.as_bytes()) ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15));
        SmallRng::seed_from_u64(splitmix64(self.root_seed ^ h))
    }
}

/// 64-bit FNV-1a hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates structured seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let pool = RngPool::new(7);
        let a: Vec<u64> = (0..10).map(|_| pool.stream("x").gen()).collect();
        // Note: fresh stream each call; first draw must be identical.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn different_names_differ() {
        let pool = RngPool::new(7);
        let a: u64 = pool.stream("a").gen();
        let b: u64 = pool.stream("b").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngPool::new(1).stream("x").gen();
        let b: u64 = RngPool::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let pool = RngPool::new(3);
        let vals: Vec<u64> = (0..100)
            .map(|i| pool.indexed_stream("rack", i).gen())
            .collect();
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len(), "collision between streams");
    }

    #[test]
    fn streams_look_uniform() {
        // Cheap sanity: mean of 10k uniform draws near 0.5.
        let pool = RngPool::new(11);
        let mut rng = pool.stream("uniformity");
        let mean: f64 = (0..10_000).map(|_| rng.gen::<f64>()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
