//! Offline stand-in for `rand` 0.8: the slice of the API the simulators
//! use (`StdRng::seed_from_u64`, `gen::<f64>()`, `gen_range`). The
//! generator is xoshiro256++ seeded through splitmix64, so a seed gives
//! the same stream on every host; the streams differ from the real crate's.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// A type `gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform in `[low, high)`; `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range: empty range");
        T::sample_between(rng, low, high, true)
    }
}

pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// 53 random mantissa bits: uniform in `[0, 1)`.
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        _inclusive: bool,
    ) -> Self {
        let v = low + (high - low) * unit_f64(rng);
        // Rounding can land on `high`; keep the half-open contract.
        if v < high {
            v
        } else {
            low
        }
    }
}

impl SampleUniform for f32 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        _inclusive: bool,
    ) -> Self {
        let v = low + (high - low) * unit_f64(rng) as f32;
        if v < high {
            v
        } else {
            low
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self, inclusive: bool) -> Self {
                // Width as u128 so the full range of every type fits.
                let span = (high as i128 - low as i128) as u128 + u128::from(inclusive);
                let wide = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                (low as i128 + (wide % span) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                x ^ (x >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
