//! Stage-3 AVX2 kernel: per-pixel conic evaluation + front-to-back
//! blending over 8-pixel lane groups along tile rows.
//!
//! [`rasterize_tile_avx2`] is the lane-group counterpart of the verbatim
//! scalar reference `rasterize_tile` (crate::rasterize) and reads the same
//! `Splat2D` slice: the lanes hold pixels, so each splat's fields are read
//! once per row and broadcast to all eight. The rules that preserve
//! bit-identity:
//!
//! * Pixels are independent: every per-pixel quantity (`d`, `power`,
//!   `alpha`, the blended color and transmittance) depends only on that
//!   pixel's own state, so evaluating a row in groups of 8 pixels instead
//!   of one-by-one cannot change any value — only the order in which
//!   identical, independent computations happen.
//! * Every scalar FP operation maps to the per-lane-exact vector
//!   instruction with the *same operand order* (`vaddps`/`vsubps`/
//!   `vmulps`/`vminps` are IEEE-754 correctly rounded per lane; no FMA, no
//!   reassociation). The exponential is the reference's own
//!   [`exp_f32`](gaurast_math::exp_f32), evaluated 8 lanes at a time by
//!   [`exp8`]: its `f64` steps run as two 4 × `f64` halves with the same
//!   operations in the same order, and its table read becomes a gather.
//! * A lane group whose every lane that passed the `power > 0` gate lies
//!   below [`EXP_SKIP_THRESHOLD`] skips the exponential and the blend:
//!   for `opacity` in `[f32::MIN, 1]` none of those lanes could pass the
//!   alpha cutoff, and their tallies are already taken.
//! * Branches become lane masks built with the *complement-aware*
//!   predicates (`NLT`, `NGT`) so NaN falls on the same side of every
//!   gate as in the scalar `if` chain; op-count tallies become popcounts
//!   of those masks scaled by the constant per-branch op bundle.
//! * Each tile row is padded to whole lane groups with dead pixels
//!   (transmittance 0, below the epsilon). The dead-pixel gate masks them
//!   off before any tally or store, and `alive` counts only the real
//!   pixels, so a row of any width runs through the one kernel.
//! * The whole-tile saturation exit moves from mid-splat to end-of-row
//!   granularity: once `alive == 0` every pixel has `t <` the epsilon, so
//!   any remaining pixel visits of the current splat would take the dead
//!   gate and tally nothing — observationally identical to the reference
//!   kernel's immediate `break`.
//!
//! The `tests/vector.rs` suites prove the kernel bit-identical to
//! `rasterize_tile` on every AVX2 host, at every edge-tile row width.

use crate::ops::Subtask;
use crate::preprocess::Splat2D;
use crate::rasterize::{TilePixels, TileProgress, LANES};
use crate::simd::{detected_level, SimdLevel};
use crate::{ALPHA_CUTOFF, TRANSMITTANCE_EPS};
use core::arch::x86_64::{
    __m128, __m256, _mm256_add_epi64, _mm256_add_pd, _mm256_add_ps, _mm256_and_ps,
    _mm256_and_si256, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castpd_si256,
    _mm256_castps256_ps128, _mm256_castsi256_pd, _mm256_cmp_ps, _mm256_cvtpd_ps, _mm256_cvtps_pd,
    _mm256_extractf128_ps, _mm256_i64gather_epi64, _mm256_loadu_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_epi64x, _mm256_set1_pd,
    _mm256_set1_ps, _mm256_set_m128, _mm256_slli_epi64, _mm256_storeu_ps, _mm256_sub_pd,
    _mm256_sub_ps, _CMP_LT_OQ, _CMP_NGT_UQ, _CMP_NLT_UQ, _CMP_UNORD_Q,
};
use gaurast_math::expf::{C0, C1, C2, INV_LN2_N, SHIFT, TABLE, UNDERFLOW_BOUND};

/// `power` threshold of the group skip: for `power < -5.6`,
/// `exp_f32(power) < exp(-5.6)·(1 + 2⁻²¹) ≈ 0.003699`, so for a finite
/// `opacity <= 1` the scalar kernel's `alpha < ALPHA_CUTOFF = 1/255 ≈
/// 0.003922` branch is taken with certainty. When every lane of a group
/// that passed the `power > 0` gate lies below the threshold, no lane of
/// the group blends, and the kernel skips the group's exponential and
/// blend — the tallies up to the exponential are already taken, so
/// nothing observable changes. Splats with `opacity > 1` or NaN (not
/// produced by Stage 1, but constructible by hand) disable the skip, and
/// so does `opacity = −∞`: `−∞ · exp_f32(power)` is NaN where the
/// exponential underflows to 0, and NaN clamps to an alpha of 0.99.
const EXP_SKIP_THRESHOLD: f32 = -5.6;

/// Tile-local op tallies, folded into the tile's statistics once per call
/// exactly like the scalar kernel's local counters.
#[derive(Default)]
struct Tallies {
    pairs: u64,
    shift_add: u64,
    det_add: u64,
    det_mul: u64,
    det_exp: u64,
    det_cmp: u64,
    wgt_mul: u64,
    red_add: u64,
    red_mul: u64,
    red_cmp: u64,
    blends: u64,
}

/// [`gaurast_math::exp_f32`] on 8 lanes, bit for bit, for every lane
/// `x <= 0` (−0 and −∞ included), `x = +0` and NaN. Lanes with `x > 0`
/// are unspecified: the `power > 0` gate masks them off before their
/// result is read.
#[target_feature(enable = "avx2")]
fn exp8(x: __m256) -> __m256 {
    let y = _mm256_set_m128(
        exp4(_mm256_extractf128_ps::<1>(x)),
        exp4(_mm256_castps256_ps128(x)),
    );
    // `exp_f32`'s special cases: `x < UNDERFLOW_BOUND` (−∞ included)
    // returns +0, NaN returns `x + x`.
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(UNDERFLOW_BOUND));
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(_mm256_andnot_ps(under, y), _mm256_add_ps(x, x), nan)
}

/// The main path of [`gaurast_math::exp_f32`] on 4 lanes: the same
/// separately rounded `f64` operations in the same order.
#[target_feature(enable = "avx2")]
fn exp4(x: __m128) -> __m128 {
    let z = _mm256_mul_pd(_mm256_set1_pd(INV_LN2_N), _mm256_cvtps_pd(x));
    let shift = _mm256_set1_pd(SHIFT);
    let kd = _mm256_add_pd(z, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_sub_pd(z, kd);
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(TABLE.len() as i64 - 1));
    // SAFETY: every index is `ki & 31 < 32 == TABLE.len()`, so each of
    // the four 8-byte reads (scale 8) lies inside the `TABLE` static.
    let t = unsafe { _mm256_i64gather_epi64::<8>(TABLE.as_ptr() as *const i64, idx) };
    // s = 2^(k/N) = TABLE[ki % N] + (ki << (52 − 5)), as in `exp_f32`.
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(C0), r), _mm256_set1_pd(C1));
    let q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(C2), r), _mm256_set1_pd(1.0));
    let y = _mm256_add_pd(_mm256_mul_pd(p, _mm256_mul_pd(r, r)), q);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// One splat across one padded tile row, one lane group at a time. Every
/// slice has the same length, a whole number of lane groups. Safe to call
/// only in an AVX2-enabled context (enforced by the Stage-3 dispatch,
/// which clamps its level to the host's).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn row_avx2(
    s: &Splat2D,
    xc: &[f32],
    yc: f32,
    red: &mut [f32],
    grn: &mut [f32],
    blu: &mut [f32],
    trans: &mut [f32],
    t: &mut Tallies,
    alive: &mut u32,
) {
    let w = trans.len();
    debug_assert_eq!(w % LANES, 0, "tile rows are padded to whole lane groups");
    let [a, b, c] = s.conic;
    // Precondition of the EXP_SKIP_THRESHOLD group skip.
    let exp_skip_ok = (f32::MIN..=1.0).contains(&s.opacity);
    let dy = yc - s.mean.y;
    // Row-invariant scalars, computed once with the exact scalar ops the
    // reference repeats per pixel (same operands -> same bits).
    let cdy2 = c * dy * dy;

    let eps = _mm256_set1_ps(TRANSMITTANCE_EPS);
    let zero = _mm256_set1_ps(0.0);
    let neg_half = _mm256_set1_ps(-0.5);
    let one = _mm256_set1_ps(1.0);
    let cutoff = _mm256_set1_ps(ALPHA_CUTOFF);
    let cap = _mm256_set1_ps(0.99);
    let skip = _mm256_set1_ps(EXP_SKIP_THRESHOLD);
    let mxv = _mm256_set1_ps(s.mean.x);
    let av = _mm256_set1_ps(a);
    let bv = _mm256_set1_ps(b);
    let dyv = _mm256_set1_ps(dy);
    let cdy2v = _mm256_set1_ps(cdy2);
    let opv = _mm256_set1_ps(s.opacity);
    let crv = _mm256_set1_ps(s.color.x);
    let cgv = _mm256_set1_ps(s.color.y);
    let cbv = _mm256_set1_ps(s.color.z);

    for px in (0..w).step_by(LANES) {
        // SAFETY: `w` is a multiple of LANES, so `px + LANES <= w`, and
        // every slice has length `w`: all lane loads/stores below stay in
        // bounds of their slices.
        // gaurast-check: allow(race): all accesses go through this tile
        // job's exclusive `&mut` row slices — no cross-thread sharing.
        let tv = unsafe { _mm256_loadu_ps(trans.as_ptr().add(px)) };
        // Dead-pixel gate: scalar `if t < EPS continue` == keep iff
        // NOT(t < EPS); NLT sends NaN to the kept side like the scalar.
        // Padding pixels (t = 0) never pass it.
        let m_t = _mm256_cmp_ps::<_CMP_NLT_UQ>(tv, eps);
        let bits_t = _mm256_movemask_ps(m_t) as u32;
        if bits_t == 0 {
            continue;
        }
        let n0 = u64::from(bits_t.count_ones());
        t.pairs += n0;
        t.shift_add += 2 * n0;
        t.det_mul += 7 * n0;
        t.det_add += 3 * n0;
        t.det_cmp += n0;

        // SAFETY: as above — `xc` also has length `w`.
        let xv = unsafe { _mm256_loadu_ps(xc.as_ptr().add(px)) };
        let dx = _mm256_sub_ps(xv, mxv);
        let adx2 = _mm256_mul_ps(_mm256_mul_ps(av, dx), dx);
        let quad = _mm256_add_ps(adx2, cdy2v);
        let lead = _mm256_mul_ps(neg_half, quad);
        let cross = _mm256_mul_ps(_mm256_mul_ps(bv, dx), dyv);
        let power = _mm256_sub_ps(lead, cross);
        // Scalar `if power > 0 continue` == keep iff NOT(power > 0).
        let m1 = _mm256_and_ps(m_t, _mm256_cmp_ps::<_CMP_NGT_UQ>(power, zero));
        let bits1 = _mm256_movemask_ps(m1) as u32;
        if bits1 == 0 {
            continue;
        }
        let n1 = u64::from(bits1.count_ones());
        t.det_exp += n1;
        t.det_mul += n1;
        t.det_cmp += 2 * n1;

        // Group skip: no lane that reaches the exponential can pass the
        // alpha cutoff (see EXP_SKIP_THRESHOLD).
        let deep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(power, skip)) as u32;
        if exp_skip_ok && bits1 & !deep == 0 {
            continue;
        }
        // vminps(x, 0.99) returns 0.99 for NaN x, matching f32::min.
        let alpha = _mm256_min_ps(_mm256_mul_ps(opv, exp8(power)), cap);
        // Scalar `if alpha < CUTOFF continue` == keep iff NOT(alpha < CUTOFF).
        let m2 = _mm256_and_ps(m1, _mm256_cmp_ps::<_CMP_NLT_UQ>(alpha, cutoff));
        let bits2 = _mm256_movemask_ps(m2) as u32;
        if bits2 == 0 {
            continue;
        }
        let n2 = u64::from(bits2.count_ones());
        t.wgt_mul += 4 * n2;
        t.red_add += 4 * n2;
        t.red_mul += n2;
        t.red_cmp += n2;
        t.blends += n2;

        let weight = _mm256_mul_ps(tv, alpha);
        // SAFETY: in-bounds lane loads as established above.
        let rv = unsafe { _mm256_loadu_ps(red.as_ptr().add(px)) };
        // SAFETY: as above.
        let gv = unsafe { _mm256_loadu_ps(grn.as_ptr().add(px)) };
        // SAFETY: as above.
        let bv3 = unsafe { _mm256_loadu_ps(blu.as_ptr().add(px)) };
        let nr = _mm256_add_ps(rv, _mm256_mul_ps(crv, weight));
        let ng = _mm256_add_ps(gv, _mm256_mul_ps(cgv, weight));
        let nb = _mm256_add_ps(bv3, _mm256_mul_ps(cbv, weight));
        let nt = _mm256_mul_ps(tv, _mm256_sub_ps(one, alpha));
        // SAFETY: in-bounds lane stores through the exclusive &mut
        // slices (see the loop-top SAFETY note).
        // gaurast-check: allow(race): exclusive &mut row slices.
        unsafe {
            _mm256_storeu_ps(red.as_mut_ptr().add(px), _mm256_blendv_ps(rv, nr, m2));
            _mm256_storeu_ps(grn.as_mut_ptr().add(px), _mm256_blendv_ps(gv, ng, m2));
            _mm256_storeu_ps(blu.as_mut_ptr().add(px), _mm256_blendv_ps(bv3, nb, m2));
            _mm256_storeu_ps(trans.as_mut_ptr().add(px), _mm256_blendv_ps(tv, nt, m2));
        }
        let died =
            _mm256_movemask_ps(_mm256_and_ps(m2, _mm256_cmp_ps::<_CMP_LT_OQ>(nt, eps))) as u32;
        *alive -= died.count_ones();
    }
}

/// Resumes one tile in 8-pixel lane groups over `entries`, the next
/// splats of its depth-sorted list of `len` splats, from the state in
/// `pixels` and `tile`; the drop-in counterpart of the scalar
/// `rasterize_tile`, reading the same splats and state, with bit-identical
/// outputs (pixels, processed count, every statistic).
///
/// The host must support AVX2: the Stage-3 rounds, the one Stage-3
/// dispatch, reach this kernel only at a level clamped to
/// [`crate::simd::detected_level`].
// gaurast-check: hot-path
pub(crate) fn rasterize_tile_avx2(
    splats: &[Splat2D],
    entries: &[u32],
    len: u32,
    rect: (u32, u32, u32, u32),
    pixels: &mut TilePixels<'_>,
    tile: &mut TileProgress,
) {
    debug_assert_eq!(
        detected_level(),
        SimdLevel::Avx2,
        "AVX2 tile kernel reached on a host without AVX2"
    );
    let (_, y0, _, y1) = rect;
    let h = (y1 - y0) as usize;
    // The tile's channel planes (the scalar kernel's per-pixel state,
    // transposed so a lane group loads and stores contiguously), rows
    // padded to whole lane groups with dead pixels, and the pixel-center x
    // coordinates, precomputed with the scalar kernel's exact expression
    // (same bits, hoisted out of the splat loop).
    let TilePixels {
        stride,
        red,
        grn,
        blu,
        trans,
        xc,
    } = pixels;
    let stride = *stride;

    let mut alive = tile.alive;
    let mut processed = tile.processed;
    let mut t = Tallies::default();
    let stats = &mut tile.stats;

    'list: for &si in entries {
        processed += 1;
        let s = &splats[si as usize];
        let rows = red
            .chunks_exact_mut(stride)
            .zip(grn.chunks_exact_mut(stride))
            .zip(blu.chunks_exact_mut(stride))
            .zip(trans.chunks_exact_mut(stride));
        for (py, (((red, grn), blu), trans)) in (0..h).zip(rows) {
            let yc = (y0 + py as u32) as f32 + 0.5;
            // SAFETY: the Stage-3 dispatch clamps its level to
            // `simd::detected_level()`, so AVX2 was detected on this CPU
            // before this kernel could be reached.
            unsafe {
                row_avx2(s, xc, yc, red, grn, blu, trans, &mut t, &mut alive);
            }
            if alive == 0 {
                break;
            }
        }
        if alive == 0 {
            // Whole tile saturated. The scalar kernel breaks at the exact
            // pixel where `alive` hit zero; every pixel this end-of-row
            // check "skips" is dead and would have tallied nothing.
            if processed < len {
                stats.tiles_early_terminated += 1;
            }
            break 'list;
        }
    }
    tile.alive = alive;
    tile.processed = processed;

    let stats = &mut tile.stats;
    stats.pairs_evaluated += t.pairs;
    stats.blends_committed += t.blends;
    stats.ops.pairs += t.pairs;
    stats.ops.at(Subtask::CoordinateShift).add += t.shift_add;
    let det = stats.ops.at(Subtask::Detection);
    det.add += t.det_add;
    det.mul += t.det_mul;
    det.exp += t.det_exp;
    det.cmp += t.det_cmp;
    stats.ops.at(Subtask::WeightComputation).mul += t.wgt_mul;
    let red_ops = stats.ops.at(Subtask::Reduction);
    red_ops.add += t.red_add;
    red_ops.mul += t.red_mul;
    red_ops.cmp += t.red_cmp;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::exp_f32;

    /// Runs [`exp8`] over `xs` (a whole number of lane groups) and
    /// asserts each lane's bits equal [`exp_f32`]'s; two NaNs are equal.
    fn assert_exp8_matches(xs: &[f32]) {
        for group in xs.chunks_exact(LANES) {
            let mut out = [0.0f32; LANES];
            // SAFETY: the callers return early unless AVX2 was detected,
            // and `group` and `out` are both LANES long.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), exp8(_mm256_loadu_ps(group.as_ptr()))) };
            for (&x, y) in group.iter().zip(out) {
                let want = exp_f32(x);
                assert!(
                    y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()),
                    "exp8({x:e} = {:#010x}) = {:#010x}, exp_f32 = {:#010x}",
                    x.to_bits(),
                    y.to_bits(),
                    want.to_bits()
                );
            }
        }
    }

    /// Special values (signed zeros, the underflow bound and its
    /// neighbour, the extreme negatives, −∞ and NaNs) and every 997th
    /// `f32` in [−104, −0].
    #[test]
    fn exp8_matches_exp_f32_on_a_sample() {
        if detected_level() != SimdLevel::Avx2 {
            return;
        }
        let mut xs = vec![
            0.0,
            -0.0,
            -0.5,
            -5.6,
            f32::from_bits(0xC27C_65D9),
            UNDERFLOW_BOUND,
            f32::from_bits(UNDERFLOW_BOUND.to_bits() + 1),
            -104.0,
            f32::MIN,
            -f32::MIN_POSITIVE,
            -f32::from_bits(1),
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0xFFC0_0001),
            f32::from_bits(0xFF80_0001),
        ];
        xs.extend(
            ((-0.0f32).to_bits()..=(-104.0f32).to_bits())
                .step_by(997)
                .map(f32::from_bits),
        );
        xs.resize(xs.len().div_ceil(LANES) * LANES, -1.0);
        assert_exp8_matches(&xs);
    }

    /// Every `f32` with the sign bit set (all negatives, −0, −∞ and the
    /// negative NaNs), plus +0 and a positive NaN.
    #[test]
    #[ignore = "exhaustive: 2^31 inputs, about 15 s in release; run with --ignored"]
    fn exp8_matches_exp_f32_exhaustively() {
        if detected_level() != SimdLevel::Avx2 {
            return;
        }
        assert_exp8_matches(&[0.0, f32::NAN, -0.0, -1.0, -2.0, -3.0, -4.0, -5.0]);
        let mut xs = [0.0f32; 1 << 16];
        for hi in 0x8000u32..=0xFFFF {
            for (lo, x) in (0u32..).zip(xs.iter_mut()) {
                *x = f32::from_bits(hi << 16 | lo);
            }
            assert_exp8_matches(&xs);
        }
    }
}
