//! Stage-3 AVX2 kernel: per-pixel conic evaluation + front-to-back
//! blending over 8-pixel lane groups along tile rows.
//!
//! [`rasterize_tile_avx2`] is the lane-group counterpart of the verbatim
//! scalar reference `rasterize_tile` (crate::rasterize). The rules that
//! preserve bit-identity:
//!
//! * Pixels are independent: every per-pixel quantity (`d`, `power`,
//!   `alpha`, the blended color and transmittance) depends only on that
//!   pixel's own state, so evaluating a row in groups of 8 pixels instead
//!   of one-by-one cannot change any value — only the order in which
//!   identical, independent computations happen.
//! * Every scalar FP operation maps to the per-lane-exact vector
//!   instruction with the *same operand order* (`vaddps`/`vsubps`/
//!   `vmulps`/`vminps` are IEEE-754 correctly rounded per lane; no FMA, no
//!   reassociation). `exp` has no exact vector form, so it is extracted
//!   and computed per active lane with the very same `f32::exp` the
//!   reference calls.
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

use crate::framebuffer::TileViewMut;
use crate::ops::Subtask;
use crate::rasterize::RasterStats;
use crate::simd::{detected_level, SimdLevel};
use crate::workload::SplatSoA;
use crate::{ALPHA_CUTOFF, TRANSMITTANCE_EPS};
use core::arch::x86_64::{
    _mm256_add_ps, _mm256_and_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps, _mm256_sub_ps, _CMP_LT_OQ,
    _CMP_NGT_UQ, _CMP_NLT_UQ,
};
use gaurast_math::Vec3;

/// Pixels per lane group (8 × f32 in one AVX2 register).
const LANES: usize = 8;

/// `power` threshold below which the serial `exp` extraction may be
/// skipped: for `power < -5.6` and `opacity <= 1`,
/// `opacity · exp(power) < exp(-5.6)·(1 + 2⁻²¹) ≈ 0.003699`, strictly
/// below `ALPHA_CUTOFF = 1/255 ≈ 0.003922` for *any* faithfully rounded
/// `exp` — so the scalar kernel's `alpha < ALPHA_CUTOFF` branch is taken
/// with certainty and the lane may substitute `exp = 0` (yielding
/// `alpha = 0`, the same branch, the same tallies, no output change).
/// Splats with `opacity > 1` (impossible via Stage 1, but constructible
/// by hand) disable the shortcut.
const EXP_SKIP_THRESHOLD: f32 = -5.6;

/// One splat's fields, broadcast-ready (gathered once per splat from the
/// [`SplatSoA`] columns).
#[derive(Clone, Copy)]
struct SplatIn {
    mx: f32,
    my: f32,
    a: f32,
    b: f32,
    c: f32,
    opacity: f32,
    cr: f32,
    cg: f32,
    cb: f32,
    /// `opacity <= 1.0` — precondition of the [`EXP_SKIP_THRESHOLD`]
    /// shortcut.
    exp_skip_ok: bool,
}

/// Tile-local op tallies, folded into [`RasterStats`] once per tile
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

/// One splat across one padded tile row, one lane group at a time. Every
/// slice has the same length, a whole number of lane groups. Safe to call
/// only in an AVX2-enabled context (enforced by the dispatch in
/// `rasterize_with_level`).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn row_avx2(
    s: &SplatIn,
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
    let dy = yc - s.my;
    // Row-invariant scalars, computed once with the exact scalar ops the
    // reference repeats per pixel (same operands -> same bits).
    let cdy2 = s.c * dy * dy;

    let eps = _mm256_set1_ps(TRANSMITTANCE_EPS);
    let zero = _mm256_set1_ps(0.0);
    let neg_half = _mm256_set1_ps(-0.5);
    let one = _mm256_set1_ps(1.0);
    let cutoff = _mm256_set1_ps(ALPHA_CUTOFF);
    let cap = _mm256_set1_ps(0.99);
    let mxv = _mm256_set1_ps(s.mx);
    let av = _mm256_set1_ps(s.a);
    let bv = _mm256_set1_ps(s.b);
    let dyv = _mm256_set1_ps(dy);
    let cdy2v = _mm256_set1_ps(cdy2);
    let opv = _mm256_set1_ps(s.opacity);
    let crv = _mm256_set1_ps(s.cr);
    let cgv = _mm256_set1_ps(s.cg);
    let cbv = _mm256_set1_ps(s.cb);

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

        // Serial exp extraction: the same `f32::exp` the scalar calls,
        // per active lane, skipped only when provably below the cutoff
        // (see EXP_SKIP_THRESHOLD — the substituted 0 takes the same
        // branch with the same tallies).
        let mut pbuf = [0.0f32; LANES];
        let mut ebuf = [0.0f32; LANES];
        // SAFETY: `pbuf` is a LANES-long stack array.
        unsafe { _mm256_storeu_ps(pbuf.as_mut_ptr(), power) };
        for (lane, (e, p)) in ebuf.iter_mut().zip(pbuf).enumerate() {
            if bits1 & (1 << lane) != 0 && !(s.exp_skip_ok && p < EXP_SKIP_THRESHOLD) {
                *e = p.exp();
            }
        }
        // SAFETY: `ebuf` is a LANES-long stack array.
        let ev = unsafe { _mm256_loadu_ps(ebuf.as_ptr()) };
        // vminps(x, 0.99) returns 0.99 for NaN x, matching f32::min.
        let alpha = _mm256_min_ps(_mm256_mul_ps(opv, ev), cap);
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

/// Rasterizes one tile through the SoA lane-group data path; the drop-in
/// counterpart of the scalar `rasterize_tile` with bit-identical outputs
/// (image, processed count, every statistic).
///
/// The host must support AVX2: `rasterize_with_level`, the one Stage-3
/// dispatch, reaches this kernel only at a level clamped to
/// [`crate::simd::detected_level`].
// gaurast-check: hot-path
pub(crate) fn rasterize_tile_avx2(
    soa: &SplatSoA,
    list: &[u32],
    rect: (u32, u32, u32, u32),
    view: Option<&mut TileViewMut<'_>>,
) -> (u32, RasterStats) {
    debug_assert_eq!(
        detected_level(),
        SimdLevel::Avx2,
        "AVX2 tile kernel reached on a host without AVX2"
    );
    let mut stats = RasterStats::default();
    if list.is_empty() {
        return (0, stats);
    }
    let (x0, y0, x1, y1) = rect;
    let w = (x1 - x0) as usize;
    let h = (y1 - y0) as usize;
    // Row stride: `w` rounded up to whole lane groups.
    let stride = w.div_ceil(LANES) * LANES;
    let n_px = stride * h;

    // Tile-local pixel planes: the same per-pixel state as the scalar
    // kernel's `Vec<Vec3>` color + `Vec<f32>` transmittance, transposed
    // into channel planes so a lane group loads/stores contiguously.
    // gaurast-check: allow(alloc): tile-local pixel buffers, one bounded
    // (tile_size²) allocation per tile job — ROADMAP item: move into a
    // per-worker arena.
    let mut red = vec![0.0f32; n_px];
    // gaurast-check: allow(alloc): same tile-local buffer as above.
    let mut grn = vec![0.0f32; n_px];
    // gaurast-check: allow(alloc): same tile-local buffer as above.
    let mut blu = vec![0.0f32; n_px];
    // gaurast-check: allow(alloc): same tile-local buffer as above.
    let mut trans = vec![1.0f32; n_px];
    // The padding pixels start dead.
    for row in trans.chunks_exact_mut(stride) {
        row[w..].fill(0.0);
    }
    // Pixel-center x coordinates, precomputed with the scalar kernel's
    // exact expression (same bits, hoisted out of the splat loop). The
    // padding entries stay 0; the dead-pixel gate masks their lanes off.
    // gaurast-check: allow(alloc): tile-local buffer, O(tile_size).
    let mut xc = vec![0.0f32; stride];
    for (px, x) in xc.iter_mut().take(w).enumerate() {
        *x = (x0 + px as u32) as f32 + 0.5;
    }

    let mut alive = (w * h) as u32;
    let mut processed = 0u32;
    let mut t = Tallies::default();

    'list: for &si in list {
        processed += 1;
        let i = si as usize;
        let s = SplatIn {
            mx: soa.x[i],
            my: soa.y[i],
            a: soa.conic_a[i],
            b: soa.conic_b[i],
            c: soa.conic_c[i],
            opacity: soa.alpha[i],
            cr: soa.r[i],
            cg: soa.g[i],
            cb: soa.b[i],
            exp_skip_ok: soa.alpha[i] <= 1.0,
        };
        for py in 0..h {
            let yc = (y0 + py as u32) as f32 + 0.5;
            let (lo, hi) = (py * stride, (py + 1) * stride);
            // SAFETY: the Stage-3 dispatch clamps its level to
            // `simd::detected_level()`, so AVX2 was detected on this CPU
            // before this kernel could be reached.
            unsafe {
                row_avx2(
                    &s,
                    &xc,
                    yc,
                    &mut red[lo..hi],
                    &mut grn[lo..hi],
                    &mut blu[lo..hi],
                    &mut trans[lo..hi],
                    &mut t,
                    &mut alive,
                );
            }
            if alive == 0 {
                break;
            }
        }
        if alive == 0 {
            // Whole tile saturated. The scalar kernel breaks at the exact
            // pixel where `alive` hit zero; every pixel this end-of-row
            // check "skips" is dead and would have tallied nothing.
            if processed < list.len() as u32 {
                stats.tiles_early_terminated += 1;
            }
            break 'list;
        }
    }

    if let Some(view) = view {
        for py in 0..h {
            for px in 0..w {
                let i = py * stride + px;
                view.write(
                    px as u32,
                    py as u32,
                    Vec3::new(red[i], grn[i], blu[i]),
                    trans[i],
                );
            }
        }
    }

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

    (processed, stats)
}
