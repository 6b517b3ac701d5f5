//! Seedable pseudo-random generators and 64-bit mixing functions.
//!
//! The simulation must be *bit-for-bit deterministic* for a given scenario
//! seed, across platforms and across parallel sweep execution. We therefore
//! avoid process-global entropy and implement two tiny, well-known PRNGs:
//!
//! * [`SplitMix64`] — used to expand a single `u64` seed into independent
//!   seed streams (one per node, one per sampler, ...). Its output is a
//!   bijective mix of a Weyl sequence, so distinct seeds can never collide.
//! * [`Xoshiro256StarStar`] — the general-purpose generator carried by every
//!   simulated node.
//!
//! [`mix64`] is the finalizer of SplitMix64 used on its own as a cheap,
//! statistically strong keyed hash for the min-wise-independent permutation
//! family of the Brahms sampler (see `raptee-sampler`).

/// SplitMix64 generator (Steele, Lea & Flood, 2014).
///
/// Primarily used for seeding: it turns one `u64` into a stream of
/// decorrelated `u64`s. It is also the recommended seeder for xoshiro
/// generators.
///
/// # Examples
///
/// ```
/// use raptee_util::rng::SplitMix64;
/// let mut sm = SplitMix64::new(7);
/// assert_ne!(sm.next_u64(), sm.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed. Any value, including zero, is a
    /// valid seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The 64-bit finalizer of SplitMix64: a fast bijective mixer with full
/// avalanche behaviour.
///
/// Used directly as the keyed hash `h_k(x) = mix64(k ^ mix64(x))` in the
/// sampler hash family; a bijective finalizer over distinct inputs gives a
/// family that is close enough to min-wise independent for simulation
/// purposes (the Brahms paper itself only requires approximate min-wise
/// independence).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash draw (typically a [`mix64`] output) to a uniform in
/// `(0, 1]`: the top 53 bits, centred in their bucket, so `0` is never
/// produced. The centre of the topmost bucket is not representable and
/// rounds to exactly `1.0`, so compare draws with a strict `<`.
///
/// ```
/// use raptee_util::rng::hash_unit;
/// assert_eq!(hash_unit(0), 0.5 / (1u64 << 53) as f64);
/// assert!(hash_unit(u64::MAX - (1 << 11)) < 1.0);
/// assert_eq!(hash_unit(u64::MAX), 1.0);
/// ```
#[inline]
pub fn hash_unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// xoshiro256** 1.0 (Blackman & Vigna, 2018).
///
/// The workhorse generator of the simulation: every node owns one, seeded
/// from the scenario seed through [`SplitMix64`], which keeps node behaviour
/// independent of iteration order.
///
/// # Examples
///
/// ```
/// use raptee_util::rng::Xoshiro256StarStar;
/// let mut a = Xoshiro256StarStar::seed_from_u64(1);
/// let mut b = Xoshiro256StarStar::seed_from_u64(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeroes, which is the single invalid
    /// xoshiro state (the generator would be stuck at zero forever).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must be non-zero"
        );
        Self { s }
    }

    /// Seeds the 256-bit state from a single `u64` through SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 output of four consecutive values cannot be all zero.
        Self { s }
    }

    /// Returns the next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `k` distinct elements from `slice` by partial Fisher–Yates on a
    /// scratch index vector; order of the sample is random.
    ///
    /// If `k >= slice.len()`, returns a shuffled copy of the whole slice.
    pub fn sample<T: Clone>(&mut self, slice: &[T], k: usize) -> Vec<T> {
        let mut idx = Vec::new();
        let mut out = Vec::with_capacity(k.min(slice.len()));
        self.sample_into(slice, k, &mut idx, &mut out);
        out
    }

    /// Exactly [`Xoshiro256StarStar::sample`], but writing into
    /// caller-owned scratch (`idx`) and output (`out`) buffers so hot
    /// loops can sample without allocating. The draw sequence is
    /// *bit-identical* to `sample` — the simulation engine depends on
    /// this to keep optimized runs reproducible against golden results.
    pub fn sample_into<T: Clone>(
        &mut self,
        slice: &[T],
        k: usize,
        idx: &mut Vec<u32>,
        out: &mut Vec<T>,
    ) {
        out.clear();
        let n = slice.len();
        if k >= n {
            out.extend_from_slice(slice);
            self.shuffle(out);
            return;
        }
        // Partial shuffle over indices: O(n) setup, O(k) draws.
        idx.clear();
        idx.extend(0..n as u32);
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
            out.push(slice[idx[i] as usize].clone());
        }
    }

    /// Picks one element uniformly, or `None` when the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// Splits off an independent child generator; used to derive per-node
    /// generators from the scenario generator without sharing state.
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let expect = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expect {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_differs_by_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        let mut c = Xoshiro256StarStar::seed_from_u64(100);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for the all-ones state, cross-checked against the
        // public-domain xoshiro256starstar.c reference implementation.
        let mut x = Xoshiro256StarStar::from_state([1, 1, 1, 1]);
        assert_eq!(x.next_u64(), 5760);
        assert_eq!(x.next_u64(), 5760);
        assert_eq!(x.next_u64(), 754974720);
        assert_eq!(x.next_u64(), 754980480);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        Xoshiro256StarStar::seed_from_u64(1).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let v: Vec<u32> = (0..50).collect();
        let s = rng.sample(&v, 20);
        assert_eq!(s.len(), 20);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20, "sample must not repeat elements");
    }

    #[test]
    fn sample_more_than_len_returns_all() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let v: Vec<u32> = (0..10).collect();
        let mut s = rng.sample(&v, 25);
        s.sort_unstable();
        assert_eq!(s, v);
    }

    #[test]
    fn sample_into_matches_sample() {
        let v: Vec<u32> = (0..200).collect();
        for k in [0usize, 1, 50, 199, 200, 500] {
            let mut a = Xoshiro256StarStar::seed_from_u64(77);
            let mut b = Xoshiro256StarStar::seed_from_u64(77);
            let plain = a.sample(&v, k);
            let mut idx = Vec::new();
            let mut out = vec![999]; // stale content must be cleared
            b.sample_into(&v, k, &mut idx, &mut out);
            assert_eq!(plain, out, "k={k}");
            assert_eq!(a.next_u64(), b.next_u64(), "identical draw count, k={k}");
        }
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert!(rng.choose::<u8>(&[]).is_none());
        assert!(rng.choose(&[42]).is_some());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn split_children_are_independent() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(11);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let v1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn mix64_bijective_on_sample() {
        // Spot-check injectivity over a contiguous range.
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
