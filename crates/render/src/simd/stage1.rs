//! Stage-1 AVX2 kernel: EWA projection over 8-Gaussian lane groups.
//!
//! The kernel replicates `preprocess::preprocess_over`'s per-Gaussian
//! arithmetic **operation for operation** — same operand order, same
//! association, same comparison semantics — so the projected splats, cull
//! decisions, and op tallies are bit-identical to the scalar reference.
//! The rules:
//!
//! * Gaussians are processed in lane groups of 8. The partial tail group
//!   of an index range runs through the same kernel with its unused
//!   lanes zeroed; only the gathered lanes are finalized.
//! * The scalar kernel culls with early `continue`s; the vector kernel
//!   computes every stage unconditionally and then classifies each lane by
//!   the *first* cull it would have hit (`CODE_*`, in scalar branch order).
//!   Values computed past a lane's cull point are garbage and never read.
//! * Per-lane op tallies depend only on the cull class, so
//!   [`finalize_lane`] charges a constant bundle per class — the same
//!   running totals the scalar kernel accumulates in place.
//! * Culling, SH color, normalization, and the `Splat2D` push happen
//!   serially per lane in index order, exactly like the scalar loop.
//!
//! Per-lane IEEE exactness of the x86-64 packed add/sub/mul/div/sqrt/min/
//! max/ceil instructions (each lane is the correctly rounded scalar result)
//! is what makes the vector arithmetic identical; no FMA contraction or
//! reassociation is ever introduced.

use crate::ops::OpCounts;
use crate::preprocess::{PreprocessOutput, Splat2D, COV2D_LOW_PASS};
use crate::simd::{detected_level, SimdLevel};
use core::arch::x86_64::{
    _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castsi256_ps,
    _mm256_ceil_ps, _mm256_cmp_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_xor_ps, _CMP_GT_OQ, _CMP_LT_OQ,
    _CMP_UNORD_Q,
};
use gaurast_math::{Mat3, Vec2, Vec3};
use gaurast_scene::{Camera, Gaussian3};

/// Gaussians per lane group (8 × f32 in one AVX2 register).
const LANES: usize = 8;

/// Cull classes, in the scalar kernel's branch order (smaller = earlier).
const CODE_DEPTH: u8 = 0;
const CODE_CONIC: u8 = 1;
const CODE_NON_FINITE: u8 = 2;
const CODE_RADIUS: u8 = 3;
const CODE_OFFSCREEN: u8 = 4;
const CODE_SURVIVOR: u8 = 5;

/// Kernel output, one array slot per lane: the cull class plus the values
/// a surviving splat needs. Value slots are meaningful only for lanes
/// whose `code` reached the stage that produces them (all of them for
/// survivors).
#[derive(Debug, Default)]
struct GroupOut {
    code: [u8; LANES],
    mean_x: [f32; LANES],
    mean_y: [f32; LANES],
    depth: [f32; LANES],
    conic_a: [f32; LANES],
    conic_b: [f32; LANES],
    conic_c: [f32; LANES],
    radius: [f32; LANES],
}

/// Per-frame camera constants, precomputed once per Stage-1 call and
/// broadcast into lanes by the kernel. Every value is the bitwise result
/// of the exact scalar expression the reference kernel evaluates (the
/// reference recomputes some of them per Gaussian; the inputs are
/// loop-invariant so the results are identical).
#[derive(Debug)]
struct FrameConsts {
    /// Rows 0..2 of the view matrix (`vm[r][c] = view.at(r, c)`).
    vm: [[f32; 4]; 3],
    /// Rotation block columns: `r3[k] = (view_rot.at(0,k), at(1,k), at(2,k))`.
    r3: [[f32; 3]; 3],
    fx: f32,
    fy: f32,
    /// `-focal` — the scalar kernel's literal unary negations.
    neg_fx: f32,
    neg_fy: f32,
    cx: f32,
    cy: f32,
    near: f32,
    far: f32,
    w: f32,
    h: f32,
    /// Clamp bounds `∓1.3 · tan_half` (scalar computes them per Gaussian
    /// from loop-invariant inputs — same bits).
    lo_x: f32,
    hi_x: f32,
    lo_y: f32,
    hi_y: f32,
}

impl FrameConsts {
    fn new(camera: &Camera) -> Self {
        let focal = camera.focal();
        let principal = camera.principal();
        let w = camera.width() as f32;
        let h = camera.height() as f32;
        let tan_half_x = 0.5 * w / focal.x;
        let tan_half_y = 0.5 * h / focal.y;
        let view = camera.view();
        let mut vm = [[0.0f32; 4]; 3];
        for (r, row) in vm.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = view.at(r, c);
            }
        }
        let view_rot = view.upper_left_3x3();
        let mut r3 = [[0.0f32; 3]; 3];
        for (k, col) in r3.iter_mut().enumerate() {
            *col = [view_rot.at(0, k), view_rot.at(1, k), view_rot.at(2, k)];
        }
        Self {
            vm,
            r3,
            fx: focal.x,
            fy: focal.y,
            neg_fx: -focal.x,
            neg_fy: -focal.y,
            cx: principal.x,
            cy: principal.y,
            near: camera.near(),
            far: camera.far(),
            w,
            h,
            lo_x: -1.3 * tan_half_x,
            hi_x: 1.3 * tan_half_x,
            lo_y: -1.3 * tan_half_y,
            hi_y: 1.3 * tan_half_y,
        }
    }
}

/// AVX2 twin of `preprocess::preprocess_over`: projects `gaussians`, the
/// scene's Gaussians from index `first` on, with `covariances` their
/// world-space covariances, in lane groups of 8, the last group partial
/// when the count is not a multiple of 8.
///
/// The host must support AVX2: `preprocess::preprocess_over_level`, the
/// one Stage-1 dispatch, reaches this kernel only at a level clamped to
/// [`crate::simd::detected_level`].
// gaurast-check: hot-path
pub(crate) fn preprocess_over_avx2(
    gaussians: &[Gaussian3],
    covariances: &[Mat3],
    first: usize,
    camera: &Camera,
) -> PreprocessOutput {
    debug_assert_eq!(
        detected_level(),
        SimdLevel::Avx2,
        "AVX2 Stage-1 kernel reached on a host without AVX2"
    );
    let mut out = PreprocessOutput::default();
    out.splats.reserve(gaussians.len());
    let fc = FrameConsts::new(camera);
    let cam_pos = camera.position();
    let groups = gaussians.chunks(LANES).zip(covariances.chunks(LANES));
    for (g, (group, covs)) in groups.enumerate() {
        run_group(&mut out, group, covs, first + g * LANES, &fc, cam_pos);
    }
    out
}

/// Gathers a group of up to 8 Gaussians and their covariances, the first
/// at scene index `first`, into lanes (a partial group leaves its unused
/// lanes zero), runs the vector kernel, and finalizes the gathered lanes
/// in lane order.
fn run_group(
    out: &mut PreprocessOutput,
    group: &[Gaussian3],
    covs: &[Mat3],
    first: usize,
    fc: &FrameConsts,
    cam_pos: Vec3,
) {
    debug_assert!(!group.is_empty() && group.len() <= LANES);
    let mut pos = [[0.0f32; LANES]; 3];
    // Column-major 3×3 covariance, one lane row per element:
    // `cov[c * 3 + r][lane] = cov3.at(r, c)`.
    let mut cov = [[0.0f32; LANES]; 9];
    for (lane, (g, cov3)) in group.iter().zip(covs).enumerate() {
        pos[0][lane] = g.position.x;
        pos[1][lane] = g.position.y;
        pos[2][lane] = g.position.z;
        for (c, cols) in cov.chunks_exact_mut(3).enumerate() {
            cols[0][lane] = cov3.at(0, c);
            cols[1][lane] = cov3.at(1, c);
            cols[2][lane] = cov3.at(2, c);
        }
    }

    let mut lanes = GroupOut::default();
    // SAFETY: `preprocess_over_level`, the only caller of
    // `preprocess_over_avx2`, clamps its level to
    // `simd::detected_level()`, so the AVX2 feature is present on this CPU.
    unsafe { group_avx2(fc, &pos, &cov, &mut lanes) }

    for (lane, g) in group.iter().enumerate() {
        finalize_lane(out, first + lane, g, &lanes, lane, cam_pos);
    }
}

/// Op bundle for everything from the depth-cull comparisons through the
/// low-pass filter — what the reference tallies before attempting the
/// conic inversion: depth cmp (2), mean (1 div, 4 mul, 2 add), Jacobian
/// (8 mul, 2 cmp), both 3×3 covariance products (54+36 mul, 36+24 add),
/// low-pass (2 add).
fn charge_through_low_pass(ops: &mut OpCounts) {
    ops.add += 64;
    ops.mul += 102;
    ops.div += 1;
    ops.cmp += 4;
}

/// Op bundle for the conic inversion (3 mul, 1 div, 1 add) and the
/// eigenvalue/radius computation (3 mul, 2 add, 1 cmp) — tallied by every
/// Gaussian whose inversion succeeds.
fn charge_inverse_and_radius(ops: &mut OpCounts) {
    ops.mul += 6;
    ops.div += 1;
    ops.add += 3;
    ops.cmp += 1;
}

/// Applies lane `lane` of a projected group to the output: charges the
/// constant op bundle for its cull class, then (for survivors) evaluates
/// SH color and pushes the splat — the serial part of the scalar kernel,
/// unchanged.
fn finalize_lane(
    out: &mut PreprocessOutput,
    i: usize,
    g: &Gaussian3,
    group: &GroupOut,
    lane: usize,
    cam_pos: Vec3,
) {
    let code = group.code[lane];
    match code {
        CODE_DEPTH => {
            out.culled += 1;
        }
        CODE_CONIC => {
            charge_through_low_pass(&mut out.ops);
            out.culled += 1;
        }
        CODE_NON_FINITE | CODE_RADIUS | CODE_OFFSCREEN => {
            // The late cull branches all charge the full pre-cull bundle
            // (`preprocess::tests::offscreen_cull_bundle_matches_kernel`
            // pins it on the scalar kernel).
            charge_through_low_pass(&mut out.ops);
            charge_inverse_and_radius(&mut out.ops);
            out.culled += 1;
            if code == CODE_NON_FINITE {
                out.culled_non_finite += 1;
            }
        }
        _ => {
            charge_through_low_pass(&mut out.ops);
            charge_inverse_and_radius(&mut out.ops);
            // The four screen-bounds comparisons, tallied only on survival.
            out.ops.cmp += 4;
            let dir = (g.position - cam_pos)
                .try_normalized()
                .unwrap_or(Vec3::new(0.0, 0.0, 1.0));
            let color = g.color.eval(dir);
            let n_coeff = g.color.coeffs().len() as u64;
            out.ops.mul += 3 * n_coeff + 9;
            out.ops.add += 3 * n_coeff;
            out.splats.push(Splat2D {
                mean: Vec2::new(group.mean_x[lane], group.mean_y[lane]),
                conic: [
                    group.conic_a[lane],
                    group.conic_b[lane],
                    group.conic_c[lane],
                ],
                depth: group.depth[lane],
                color,
                opacity: g.opacity,
                radius: group.radius[lane],
                source: i as u32,
            });
        }
    }
}

/// The projection kernel: one lane group of 8 Gaussians through the
/// reference's depth cull, 2D mean, clamped EWA Jacobian, covariance
/// products, low-pass filter, conic inversion and 3σ radius. The ordered
/// `LT`/`GT` and unordered (`UNORD`) comparisons are exactly the
/// predicates the scalar `<`, `>`, and `is_nan` checks lower to (NaN
/// compares false under the ordered predicates).
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_lines, clippy::similar_names)]
fn group_avx2(
    fc: &FrameConsts,
    pos: &[[f32; LANES]; 3],
    cov: &[[f32; LANES]; 9],
    out: &mut GroupOut,
) {
    let zero = _mm256_set1_ps(0.0);
    let one = _mm256_set1_ps(1.0);
    let [[v00, v01, v02, v03], [v10, v11, v12, v13], [v20, v21, v22, v23]] = fc.vm;
    let [[r00, r01, r02], [r10, r11, r12], [r20, r21, r22]] = fc.r3;
    let [px, py, pz] = pos;
    let [k0, k1, k2, k3, k4, k5, k6, k7, k8] = cov;

    // SAFETY: every source is an `[f32; LANES]` array, exactly one
    // 8-lane load wide, so all reads are in bounds.
    let (gx, gy, gz) = unsafe {
        (
            _mm256_loadu_ps(px.as_ptr()),
            _mm256_loadu_ps(py.as_ptr()),
            _mm256_loadu_ps(pz.as_ptr()),
        )
    };
    // SAFETY: as above — nine `[f32; LANES]` arrays.
    let (c0x, c0y, c0z, c1x, c1y, c1z, c2x, c2y, c2z) = unsafe {
        (
            _mm256_loadu_ps(k0.as_ptr()),
            _mm256_loadu_ps(k1.as_ptr()),
            _mm256_loadu_ps(k2.as_ptr()),
            _mm256_loadu_ps(k3.as_ptr()),
            _mm256_loadu_ps(k4.as_ptr()),
            _mm256_loadu_ps(k5.as_ptr()),
            _mm256_loadu_ps(k6.as_ptr()),
            _mm256_loadu_ps(k7.as_ptr()),
            _mm256_loadu_ps(k8.as_ptr()),
        )
    };

    // world_to_camera: rows 0..2 of `view * [p, 1]`. The scalar
    // path's trailing `cols[3][r] * 1.0` is bitwise `cols[3][r]`
    // (IEEE multiplication by one is exact), so the translation
    // column is added directly.
    let pcx = _mm256_add_ps(
        _mm256_add_ps(
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(v00), gx),
                _mm256_mul_ps(_mm256_set1_ps(v01), gy),
            ),
            _mm256_mul_ps(_mm256_set1_ps(v02), gz),
        ),
        _mm256_set1_ps(v03),
    );
    let pcy = _mm256_add_ps(
        _mm256_add_ps(
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(v10), gx),
                _mm256_mul_ps(_mm256_set1_ps(v11), gy),
            ),
            _mm256_mul_ps(_mm256_set1_ps(v12), gz),
        ),
        _mm256_set1_ps(v13),
    );
    let pcz = _mm256_add_ps(
        _mm256_add_ps(
            _mm256_add_ps(
                _mm256_mul_ps(_mm256_set1_ps(v20), gx),
                _mm256_mul_ps(_mm256_set1_ps(v21), gy),
            ),
            _mm256_mul_ps(_mm256_set1_ps(v22), gz),
        ),
        _mm256_set1_ps(v23),
    );

    // Depth cull: `z < near || z > far` (ordered — NaN z falls
    // through exactly like the scalar comparisons and is caught by
    // the non-finite cull).
    let m_depth = _mm256_or_ps(
        _mm256_cmp_ps::<_CMP_LT_OQ>(pcz, _mm256_set1_ps(fc.near)),
        _mm256_cmp_ps::<_CMP_GT_OQ>(pcz, _mm256_set1_ps(fc.far)),
    );

    let inv_z = _mm256_div_ps(one, pcz);
    let mean_x = _mm256_add_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(fc.fx), pcx), inv_z),
        _mm256_set1_ps(fc.cx),
    );
    let mean_y = _mm256_add_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(fc.fy), pcy), inv_z),
        _mm256_set1_ps(fc.cy),
    );

    // `f32::clamp` via min/max. The packed min/max return the
    // *second* operand on NaN, which would pin a NaN ratio to the
    // bound where the scalar clamp propagates it — restore NaN
    // lanes explicitly (reachable when the view transform
    // overflows to `inf - inf`).
    let t0x = _mm256_mul_ps(pcx, inv_z);
    let clx = _mm256_min_ps(
        _mm256_max_ps(t0x, _mm256_set1_ps(fc.lo_x)),
        _mm256_set1_ps(fc.hi_x),
    );
    let clx = _mm256_blendv_ps(clx, t0x, _mm256_cmp_ps::<_CMP_UNORD_Q>(t0x, t0x));
    let tx = _mm256_mul_ps(clx, pcz);
    let t0y = _mm256_mul_ps(pcy, inv_z);
    let cly = _mm256_min_ps(
        _mm256_max_ps(t0y, _mm256_set1_ps(fc.lo_y)),
        _mm256_set1_ps(fc.hi_y),
    );
    let cly = _mm256_blendv_ps(cly, t0y, _mm256_cmp_ps::<_CMP_UNORD_Q>(t0y, t0y));
    let ty = _mm256_mul_ps(cly, pcz);

    // EWA Jacobian `j` (row 2 is all zero and never materialized).
    let jxx = _mm256_mul_ps(_mm256_set1_ps(fc.fx), inv_z);
    let jyy = _mm256_mul_ps(_mm256_set1_ps(fc.fy), inv_z);
    let jxz = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(fc.neg_fx), tx), inv_z),
        inv_z,
    );
    let jyz = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(fc.neg_fy), ty), inv_z),
        inv_z,
    );

    // t = j * view_rot, rows 0..1 (`t<r><k>` = row r, column k).
    // The literal `0.0 * r` terms reproduce the scalar kernel's
    // signed-zero products from `j`'s structural zeros.
    let r00 = _mm256_set1_ps(r00);
    let r01 = _mm256_set1_ps(r01);
    let r02 = _mm256_set1_ps(r02);
    let r10 = _mm256_set1_ps(r10);
    let r11 = _mm256_set1_ps(r11);
    let r12 = _mm256_set1_ps(r12);
    let r20 = _mm256_set1_ps(r20);
    let r21 = _mm256_set1_ps(r21);
    let r22 = _mm256_set1_ps(r22);
    let t00 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(jxx, r00), _mm256_mul_ps(zero, r01)),
        _mm256_mul_ps(jxz, r02),
    );
    let t01 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(jxx, r10), _mm256_mul_ps(zero, r11)),
        _mm256_mul_ps(jxz, r12),
    );
    let t02 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(jxx, r20), _mm256_mul_ps(zero, r21)),
        _mm256_mul_ps(jxz, r22),
    );
    let t10 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(zero, r00), _mm256_mul_ps(jyy, r01)),
        _mm256_mul_ps(jyz, r02),
    );
    let t11 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(zero, r10), _mm256_mul_ps(jyy, r11)),
        _mm256_mul_ps(jyz, r12),
    );
    let t12 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(zero, r20), _mm256_mul_ps(jyy, r21)),
        _mm256_mul_ps(jyz, r22),
    );

    // m1 = t * cov3, rows 0..1 (`m<r><c>` = row r, column c).
    let m00 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t00, c0x), _mm256_mul_ps(t01, c0y)),
        _mm256_mul_ps(t02, c0z),
    );
    let m01 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t00, c1x), _mm256_mul_ps(t01, c1y)),
        _mm256_mul_ps(t02, c1z),
    );
    let m02 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t00, c2x), _mm256_mul_ps(t01, c2y)),
        _mm256_mul_ps(t02, c2z),
    );
    let m10 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t10, c0x), _mm256_mul_ps(t11, c0y)),
        _mm256_mul_ps(t12, c0z),
    );
    let m11 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t10, c1x), _mm256_mul_ps(t11, c1y)),
        _mm256_mul_ps(t12, c1z),
    );
    let m12 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(t10, c2x), _mm256_mul_ps(t11, c2y)),
        _mm256_mul_ps(t12, c2z),
    );

    // Upper-left 2×2 of m1 * tᵀ (`e<r><c>`), then the low-pass
    // filter — the scalar path adds a `from_rows(0.3, 0, 0, 0.3)`
    // matrix component-wise, so the off-diagonals add literal zero.
    let e00 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(m00, t00), _mm256_mul_ps(m01, t01)),
        _mm256_mul_ps(m02, t02),
    );
    let e01 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(m00, t10), _mm256_mul_ps(m01, t11)),
        _mm256_mul_ps(m02, t12),
    );
    let e10 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(m10, t00), _mm256_mul_ps(m11, t01)),
        _mm256_mul_ps(m12, t02),
    );
    let e11 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(m10, t10), _mm256_mul_ps(m11, t11)),
        _mm256_mul_ps(m12, t12),
    );
    let lp = _mm256_set1_ps(COV2D_LOW_PASS);
    let c00 = _mm256_add_ps(e00, lp);
    let c01 = _mm256_add_ps(e01, zero);
    let c10 = _mm256_add_ps(e10, zero);
    let c11 = _mm256_add_ps(e11, lp);

    // Conic inversion. Cull mask is `Mat2::inverse`'s None
    // condition: `!det.is_finite() || det.abs() < 1e-20`.
    let det = _mm256_sub_ps(_mm256_mul_ps(c00, c11), _mm256_mul_ps(c01, c10));
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let sign_mask = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
    let all_ones = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    let inf = _mm256_set1_ps(f32::INFINITY);
    let abs_det = _mm256_and_ps(det, abs_mask);
    let m_conic = _mm256_or_ps(
        _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(abs_det, inf), all_ones),
        _mm256_cmp_ps::<_CMP_LT_OQ>(abs_det, _mm256_set1_ps(1e-20)),
    );
    let inv_det = _mm256_div_ps(one, det);
    let conic_a = _mm256_mul_ps(c11, inv_det);
    let conic_b = _mm256_mul_ps(_mm256_xor_ps(c01, sign_mask), inv_det);
    let conic_c = _mm256_mul_ps(c00, inv_det);

    // Eigenvalues and the 3σ radius. `f32::max(x, 0.0)` returns the
    // second operand (0.0) on NaN — exactly the packed-max rule.
    let mid = _mm256_mul_ps(_mm256_set1_ps(0.5), _mm256_add_ps(c00, c11));
    let disc = _mm256_sqrt_ps(_mm256_max_ps(
        _mm256_sub_ps(_mm256_mul_ps(mid, mid), det),
        zero,
    ));
    let l1 = _mm256_add_ps(mid, disc);
    let radius = _mm256_ceil_ps(_mm256_mul_ps(
        _mm256_set1_ps(3.0),
        _mm256_sqrt_ps(_mm256_max_ps(l1, zero)),
    ));

    // Non-finite cull: `!(mean.is_finite() && radius.is_finite())`.
    let fin = _mm256_and_ps(
        _mm256_and_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(mean_x, abs_mask), inf),
            _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(mean_y, abs_mask), inf),
        ),
        _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(radius, abs_mask), inf),
    );
    let m_nf = _mm256_andnot_ps(fin, all_ones);
    let m_rad = _mm256_cmp_ps::<_CMP_LT_OQ>(radius, one);
    let m_off = _mm256_or_ps(
        _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_add_ps(mean_x, radius), zero),
            _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_sub_ps(mean_x, radius), _mm256_set1_ps(fc.w)),
        ),
        _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_add_ps(mean_y, radius), zero),
            _mm256_cmp_ps::<_CMP_GT_OQ>(_mm256_sub_ps(mean_y, radius), _mm256_set1_ps(fc.h)),
        ),
    );

    // Classify every lane by the first cull it hit, in the scalar
    // kernel's branch order.
    let bd = _mm256_movemask_ps(m_depth);
    let bc = _mm256_movemask_ps(m_conic);
    let bn = _mm256_movemask_ps(m_nf);
    let br = _mm256_movemask_ps(m_rad);
    let bo = _mm256_movemask_ps(m_off);
    for (lane, code) in out.code.iter_mut().enumerate() {
        let bit = 1i32 << lane;
        *code = if bd & bit != 0 {
            CODE_DEPTH
        } else if bc & bit != 0 {
            CODE_CONIC
        } else if bn & bit != 0 {
            CODE_NON_FINITE
        } else if br & bit != 0 {
            CODE_RADIUS
        } else if bo & bit != 0 {
            CODE_OFFSCREEN
        } else {
            CODE_SURVIVOR
        };
    }

    // SAFETY: every destination is an `[f32; LANES]` array, exactly one
    // 8-lane store wide — all in bounds.
    unsafe {
        _mm256_storeu_ps(out.mean_x.as_mut_ptr(), mean_x);
        _mm256_storeu_ps(out.mean_y.as_mut_ptr(), mean_y);
        _mm256_storeu_ps(out.depth.as_mut_ptr(), pcz);
        _mm256_storeu_ps(out.conic_a.as_mut_ptr(), conic_a);
        _mm256_storeu_ps(out.conic_b.as_mut_ptr(), conic_b);
        _mm256_storeu_ps(out.conic_c.as_mut_ptr(), conic_c);
        _mm256_storeu_ps(out.radius.as_mut_ptr(), radius);
    }
}
