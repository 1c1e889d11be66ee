//! Seeded, reproducible randomness: SplitMix64 seeding into xoshiro256**.
//!
//! This is the only source of randomness in the workspace. There is no
//! entropy-based constructor on purpose — every stream derives from an
//! explicit `u64` seed, so the same seed yields the same stream on every
//! platform (the generator is pure wrapping `u64` arithmetic).

/// One step of SplitMix64 (Steele, Lea, Flood 2014); used to expand a
/// single `u64` seed into the xoshiro256** state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator (Blackman & Vigna).
///
/// Replaces `rand::rngs::StdRng`: same call-site surface (`seed_from_u64`,
/// `gen`, `gen_range`, `gen_bool`) but with a fixed, documented algorithm
/// whose output is stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
}

impl Rng64 {
    /// Build a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut sm);
        }
        Rng64 { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value of any [`FromRng`] type (`u32`, `u64`, `f64`, ...).
    pub fn gen<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// A uniform value in the given (non-empty) range.
    ///
    /// Accepts `a..b` and `a..=b` over the common integer types. Uses a
    /// modulo reduction: for the span sizes used in the simulator the
    /// bias is below 2^-32 and irrelevant next to model error.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform index in `0..len` (`len` must be non-zero).
    pub fn index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0, "index() on empty range");
        (self.next_u64() % len as u64) as usize
    }
}

/// Derive an independent stream from a master seed: `seed ⊕ stream`
/// fed through the usual SplitMix64 expansion.
///
/// This is the sanctioned way to hand each work shard its own
/// generator (stream = shard id): the XOR keeps every stream traceable
/// to the one top-level seed, while SplitMix64 decorrelates streams
/// whose ids differ in a single bit.
#[expect(clippy::disallowed_methods, reason = "seed plumbing: a stream derives from its seed")]
pub fn derive(seed: u64, stream: u64) -> Rng64 {
    Rng64::seed_from_u64(seed ^ stream)
}

/// Types a [`Rng64`] can draw uniformly.
pub trait FromRng {
    /// Draw one uniform value.
    fn from_rng(rng: &mut Rng64) -> Self;
}

macro_rules! from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng(rng: &mut Rng64) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    fn from_rng(rng: &mut Rng64) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn from_rng(rng: &mut Rng64) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn from_rng(rng: &mut Rng64) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges a [`Rng64`] can sample uniformly.
pub trait SampleRange {
    /// The element type of the range.
    type Output;
    /// Draw one uniform value from the range.
    fn sample(self, rng: &mut Rng64) -> Self::Output;
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut Rng64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % span as u64) as $t)
            }
        }
    )*};
}
sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut Rng64) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "the generator's own tests construct it")]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(3..=6);
            assert!((3..=6).contains(&v));
            let w = rng.gen_range(10usize..20);
            assert!((10..20).contains(&w));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng64::seed_from_u64(99);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        let mut rng = Rng64::seed_from_u64(99);
        assert!((0..1000).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn derived_streams_are_stable_and_distinct() {
        let mut a0 = derive(42, 0);
        let mut a0b = derive(42, 0);
        let mut a1 = derive(42, 1);
        // Stream 0 of seed s is the plain seed-s stream.
        let mut plain = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            let v = a0.next_u64();
            assert_eq!(v, a0b.next_u64());
            assert_eq!(v, plain.next_u64());
        }
        let same = (0..64).filter(|_| a0.next_u64() == a1.next_u64()).count();
        assert_eq!(same, 0, "adjacent streams must decorrelate");
    }

    #[test]
    fn full_range_inclusive_u64() {
        let mut rng = Rng64::seed_from_u64(5);
        // Must not overflow the span computation.
        let _ = rng.gen_range(0u64..=u64::MAX);
        let _ = rng.gen_range(i64::MIN..=i64::MAX);
    }
}
