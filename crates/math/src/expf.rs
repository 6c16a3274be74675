//! The one single-precision exponential of the renderer.
//!
//! Stage 3 blends every pixel with `α = o·exp(power)`, the operation for
//! which GauRast adds an EXP unit to the triangle datapath. The scalar
//! reference `rasterize_tile`, the AVX2 Stage-3 kernel, the hardware PE
//! (`FpOps::exp`) and `Splat2D::density_at` all evaluate [`exp_f32`], the
//! AVX2 kernel through a lane-exact 4 × `f64` copy built from the
//! constants below. Frames therefore do not depend on the platform's libm.
//!
//! [`exp_f32`] transcribes glibc 2.36's `expf`
//! (`sysdeps/ieee754/flt-32/e_expf.c`) in its form for targets without
//! FMA: every step is one separately rounded `f64` operation, so a vector
//! unit with plain `f64` multiply and add reproduces it bit for bit. With
//! `x·N/ln2 = k + r`, `k` an integer, `|r| ≤ 1/2` and `N = 32`:
//!
//! ```text
//! exp(x) = 2^(k/N) · 2^(r/N) ≈ s · (C0·r³ + C1·r² + C2·r + 1),   s = 2^(k/N)
//! ```
//!
//! The FMA form (`r = fma(InvLn2N, x, −kd)` and three fused polynomial
//! steps) is not used: without the `fma` target feature, which this build
//! does not enable, each `f64::mul_add` is a call to libm's `fma`, about
//! as costly as a whole libm `expf`, and that form makes four of them.
//!
//! On x86-64 glibc the result equals `f32::exp` on every `f32` in
//! [−104, −0] except x = −63.09946 (`0xC27C65D9`), where glibc's FMA
//! variant rounds the other way (3.9468667e-28 against 3.9468665e-28);
//! `exp_f32_matches_libm_exhaustively` checks every input.

/// Table bits: `N = 2^TABLE_BITS` subintervals per octave.
const TABLE_BITS: u32 = 5;

/// `N`, the number of [`TABLE`] entries.
const N: u64 = 1 << TABLE_BITS;

/// `TABLE[i] = bits(2^(i/N)) − (i << (52 − TABLE_BITS))`: adding
/// `ki << (52 − TABLE_BITS)` to `TABLE[ki % N]` gives the bits of
/// `2^(k/N)`, the low `TABLE_BITS` bits of `k` cancelling the subtracted
/// term and the rest landing in the exponent field.
pub static TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `N / ln 2`.
pub const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);

/// `0x1.8p52`: `(z + SHIFT) − SHIFT` rounds `z` to the nearest integer
/// (ties to even), and the low bits of `z + SHIFT` hold that integer.
pub const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// Cubic coefficient of `2^(r/N)`, pre-scaled by `N⁻³`.
pub const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);

/// Quadratic coefficient of `2^(r/N)`, pre-scaled by `N⁻²`.
pub const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);

/// Linear coefficient of `2^(r/N)`, pre-scaled by `N⁻¹`.
pub const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);

/// `−0x1.9fe368p6 ≈ log(2⁻¹⁵⁰)`: every `x` below it returns `+0`.
pub const UNDERFLOW_BOUND: f32 = f32::from_bits(0xc2cf_f1b4);

/// `0x1.62e42ep6 ≈ log(2¹²⁸)`: every `x` above it returns `+∞`.
const OVERFLOW_BOUND: f32 = f32::from_bits(0x42b1_7217);

/// The top 12 bits of `x`: sign and exponent.
const fn top12(x: f32) -> u32 {
    x.to_bits() >> 20
}

/// `e^x` in single precision, with the same bits on every platform.
///
/// NaN returns `x + x` (a quiet NaN), `−∞` and `x <` [`UNDERFLOW_BOUND`]
/// return `+0`, and `x > 0x1.62e42ep6` returns `+∞`.
///
/// ```
/// use gaurast_math::exp_f32;
///
/// assert_eq!(exp_f32(0.0), 1.0);
/// assert_eq!(exp_f32(-0.5).to_bits(), 0x3F1B_4598);
/// assert_eq!(exp_f32(f32::NEG_INFINITY), 0.0);
/// ```
#[must_use]
#[inline]
pub fn exp_f32(x: f32) -> f32 {
    let abstop = top12(x) & 0x7ff;
    if abstop >= top12(88.0) {
        // |x| >= 88 or x is NaN.
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= top12(f32::INFINITY) {
            return x + x;
        }
        if x > OVERFLOW_BOUND {
            return f32::INFINITY;
        }
        if x < UNDERFLOW_BOUND {
            return 0.0;
        }
    }
    let z = INV_LN2_N * f64::from(x);
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = z - kd;
    // gaurast-check: allow(panic): `ki % N < N == TABLE.len()`.
    let t = TABLE[(ki % N) as usize].wrapping_add(ki << (52 - TABLE_BITS));
    let s = f64::from_bits(t);
    let y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
    (y * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact outputs of glibc's non-FMA `expf`, asserted without libm, so
    /// they hold on every platform.
    #[test]
    fn golden_bits() {
        let cases: [(f32, u32); 10] = [
            (-0.5, 0x3F1B_4598),
            (-5.6, 0x3B72_57DD),
            // glibc's FMA variant returns 0x11FA_2993 here.
            (f32::from_bits(0xC27C_65D9), 0x11FA_2992),
            (-0.0, 0x3F80_0000),
            (0.0, 0x3F80_0000),
            (UNDERFLOW_BOUND, 0x0000_0001),
            (f32::from_bits(0xC2CF_F1B5), 0),
            (-104.0, 0),
            (f32::NEG_INFINITY, 0),
            (f32::INFINITY, 0x7F80_0000),
        ];
        for (x, want) in cases {
            assert_eq!(exp_f32(x).to_bits(), want, "exp_f32({x:e})");
        }
        assert!(exp_f32(f32::NAN).is_nan());
        assert!(exp_f32(-f32::NAN).is_nan());
    }

    /// Every `f32` in [−104, −0], compared with the platform's `expf`:
    /// 1,120,927,745 inputs. The only mismatch allowed is `0xC27C65D9`,
    /// where glibc's FMA variant rounds differently; its SSE2 variant
    /// matches everywhere.
    #[test]
    #[ignore = "exhaustive: about 13 s in release; run with --ignored"]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn exp_f32_matches_libm_exhaustively() {
        let mismatches: Vec<u32> = ((-0.0f32).to_bits()..=(-104.0f32).to_bits())
            .filter(|&bits| {
                let x = f32::from_bits(bits);
                bits != 0xC27C_65D9 && exp_f32(x).to_bits() != x.exp().to_bits()
            })
            .take(16)
            .collect();
        assert!(mismatches.is_empty(), "mismatches: {mismatches:#010x?}");
    }
}
