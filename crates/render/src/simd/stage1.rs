//! Stage-1 SIMD kernels: 4/8-wide EWA projection over lane groups of
//! Gaussians.
//!
//! The vector kernels replicate `preprocess::preprocess_over`'s per-Gaussian
//! arithmetic **operation for operation** — same operand order, same
//! association, same comparison semantics — so the projected splats, cull
//! decisions, and op tallies are bit-identical to the scalar reference at
//! every [`SimdLevel`]. The restructuring rules:
//!
//! * Gaussians are processed in lane groups of 4 (SSE) or 8 (AVX2); the
//!   partial tail group of an index range runs through [`lane_scalar`], a
//!   restructured-but-textually-verbatim copy of the scalar kernel.
//! * The scalar kernel culls with early `continue`s; the vector kernels
//!   compute every stage unconditionally and then classify each lane by the
//!   *first* cull it would have hit (`CODE_*`, in scalar branch order).
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
use crate::simd::SimdLevel;
#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_blendv_ps, _mm256_castsi256_ps,
    _mm256_ceil_ps, _mm256_div_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps,
    _mm256_movemask_ps, _mm256_mul_ps, _mm256_or_ps, _mm256_set1_epi32, _mm256_set1_ps,
    _mm256_sqrt_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm256_xor_ps, _mm_add_ps, _mm_and_ps,
    _mm_andnot_ps, _mm_blendv_ps, _mm_castsi128_ps, _mm_ceil_ps, _mm_div_ps, _mm_loadu_ps,
    _mm_max_ps, _mm_min_ps, _mm_movemask_ps, _mm_mul_ps, _mm_or_ps, _mm_set1_epi32, _mm_set1_ps,
    _mm_sqrt_ps, _mm_storeu_ps, _mm_sub_ps, _mm_xor_ps,
};
use gaurast_math::{Mat2, Mat3, Vec2, Vec3};
use gaurast_scene::{Camera, Gaussian3, GaussianScene};

/// Widest lane group any kernel uses (AVX2, 8 × f32).
const LANES_MAX: usize = 8;

/// Cull classes, in the scalar kernel's branch order (smaller = earlier).
const CODE_DEPTH: u8 = 0;
const CODE_CONIC: u8 = 1;
const CODE_NON_FINITE: u8 = 2;
const CODE_RADIUS: u8 = 3;
const CODE_OFFSCREEN: u8 = 4;
const CODE_SURVIVOR: u8 = 5;

/// Per-lane projection result: the cull class plus the values a surviving
/// splat needs. Value fields are meaningful only for lanes whose `code`
/// reached the stage that produces them (all of them for survivors).
#[derive(Clone, Copy, Debug, Default)]
struct LaneOut {
    code: u8,
    mean_x: f32,
    mean_y: f32,
    depth: f32,
    conic_a: f32,
    conic_b: f32,
    conic_c: f32,
    radius: f32,
}

/// Vector-kernel output: [`LaneOut`] transposed into lane arrays.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Default)]
struct GroupOut {
    code: [u8; LANES_MAX],
    mean_x: [f32; LANES_MAX],
    mean_y: [f32; LANES_MAX],
    depth: [f32; LANES_MAX],
    conic_a: [f32; LANES_MAX],
    conic_b: [f32; LANES_MAX],
    conic_c: [f32; LANES_MAX],
    radius: [f32; LANES_MAX],
}

/// Per-frame camera constants, precomputed once per Stage-1 call and
/// broadcast into lanes by the kernels. Every value is the bitwise result
/// of the exact scalar expression the reference kernel evaluates (the
/// reference recomputes some of them per Gaussian; the inputs are
/// loop-invariant so the results are identical).
#[derive(Debug)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct FrameConsts {
    /// Rows 0..2 of the view matrix (`vm[r][c] = view.at(r, c)`).
    vm: [[f32; 4]; 3],
    /// Rotation block columns: `r3[k] = (view_rot.at(0,k), at(1,k), at(2,k))`.
    r3: [[f32; 3]; 3],
    /// Rotation block as a matrix, for the scalar lane path.
    view_rot: Mat3,
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
    tan_half_x: f32,
    tan_half_y: f32,
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
            view_rot,
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
            tan_half_x,
            tan_half_y,
            lo_x: -1.3 * tan_half_x,
            hi_x: 1.3 * tan_half_x,
            lo_y: -1.3 * tan_half_y,
            hi_y: 1.3 * tan_half_y,
        }
    }
}

/// SIMD twin of `preprocess::preprocess_over`: projects `indices` in lane
/// groups of `level.lanes()` Gaussians, scalar-lane tail for the remainder.
///
/// `level` must not exceed `simd::detected_level()`; the one Stage-1
/// dispatch, `preprocess::preprocess_over_level`, clamps it.
// gaurast-check: hot-path
pub(crate) fn preprocess_over_simd(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &Gaussian3) -> Mat3 + Sync),
    count: usize,
    indices: impl Iterator<Item = usize>,
    level: SimdLevel,
) -> PreprocessOutput {
    debug_assert!(level <= crate::simd::detected_level());
    let mut out = PreprocessOutput::default();
    out.splats.reserve(count);
    let fc = FrameConsts::new(camera);
    let cam_pos = camera.position();
    let width = level.lanes();

    let mut idx = [0usize; LANES_MAX];
    let mut n = 0;
    for i in indices {
        idx[n] = i;
        n += 1;
        if n < width {
            continue;
        }
        n = 0;
        match level {
            SimdLevel::Scalar => {
                run_lanes_scalar(
                    &mut out,
                    scene,
                    camera,
                    covariance_of,
                    &idx[..width],
                    &fc,
                    cam_pos,
                );
            }
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse | SimdLevel::Avx2 => {
                run_group_x86(
                    &mut out,
                    scene,
                    covariance_of,
                    &idx[..width],
                    level,
                    &fc,
                    cam_pos,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => {
                run_lanes_scalar(
                    &mut out,
                    scene,
                    camera,
                    covariance_of,
                    &idx[..width],
                    &fc,
                    cam_pos,
                );
            }
        }
    }
    // Partial tail group: restructured scalar lanes (bit-identical to the
    // vector kernels by construction, and to the reference by inspection).
    run_lanes_scalar(
        &mut out,
        scene,
        camera,
        covariance_of,
        &idx[..n],
        &fc,
        cam_pos,
    );
    out
}

/// Runs `idx` through the restructured scalar kernel, one lane at a time.
#[allow(clippy::too_many_arguments)]
fn run_lanes_scalar(
    out: &mut PreprocessOutput,
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &Gaussian3) -> Mat3 + Sync),
    idx: &[usize],
    fc: &FrameConsts,
    cam_pos: Vec3,
) {
    for &i in idx {
        // gaurast-check: allow(panic): indices come from an in-bounds range
        // or a validated `VisibleSet`; out-of-range is a constructor bug.
        let g = scene.get(i).expect("index within scene");
        // Hoisted ahead of the depth cull (the reference evaluates it
        // after); `covariance_of` is pure, so the extra evaluation on
        // depth-culled lanes changes no output. The vector path needs the
        // hoist to gather whole lane groups.
        let cov3 = covariance_of(i, g);
        let lane = lane_scalar(camera, g, cov3, fc);
        finalize_lane(out, i, g, &lane, cam_pos);
    }
}

/// Gathers a full lane group, runs the vector kernel, finalizes in lane
/// order. `idx.len()` must equal `level.lanes()` and `level` must be a
/// vector level no wider than the detected one.
#[cfg(target_arch = "x86_64")]
fn run_group_x86(
    out: &mut PreprocessOutput,
    scene: &GaussianScene,
    covariance_of: &(impl Fn(usize, &Gaussian3) -> Mat3 + Sync),
    idx: &[usize],
    level: SimdLevel,
    fc: &FrameConsts,
    cam_pos: Vec3,
) {
    debug_assert!(level != SimdLevel::Scalar && idx.len() == level.lanes());
    let mut pos = [[0.0f32; LANES_MAX]; 3];
    // Column-major 3×3 covariance, one lane row per element:
    // `cov[c * 3 + r][lane] = cov3.at(r, c)`.
    let mut cov = [[0.0f32; LANES_MAX]; 9];
    let mut gs: [Option<&Gaussian3>; LANES_MAX] = [None; LANES_MAX];
    for (lane, &i) in idx.iter().enumerate() {
        // gaurast-check: allow(panic): indices come from an in-bounds range
        // or a validated `VisibleSet`; out-of-range is a constructor bug.
        let g = scene.get(i).expect("index within scene");
        // Pure, so hoisting it ahead of the depth cull (the reference
        // evaluates it after) changes no output — see `run_lanes_scalar`.
        let cov3 = covariance_of(i, g);
        pos[0][lane] = g.position.x;
        pos[1][lane] = g.position.y;
        pos[2][lane] = g.position.z;
        for (c, cols) in cov.chunks_exact_mut(3).enumerate() {
            cols[0][lane] = cov3.at(0, c);
            cols[1][lane] = cov3.at(1, c);
            cols[2][lane] = cov3.at(2, c);
        }
        gs[lane] = Some(g);
    }

    let mut group = GroupOut::default();
    if level == SimdLevel::Avx2 {
        // SAFETY: `preprocess_over_level`, the only caller of
        // `preprocess_over_simd`, clamps `level` to
        // `simd::detected_level()`, so the AVX2 feature is present on this
        // CPU.
        unsafe { group_avx2(fc, &pos, &cov, &mut group) }
    } else {
        // SAFETY: as above — the clamp leaves `Sse` only when SSE4.1 is present.
        unsafe { group_sse(fc, &pos, &cov, &mut group) }
    }

    for (lane, &i) in idx.iter().enumerate() {
        // gaurast-check: allow(panic): filled by the gather loop above for
        // every lane of the (full) group.
        let g = gs[lane].expect("lane gathered above");
        let lane_out = LaneOut {
            code: group.code[lane],
            mean_x: group.mean_x[lane],
            mean_y: group.mean_y[lane],
            depth: group.depth[lane],
            conic_a: group.conic_a[lane],
            conic_b: group.conic_b[lane],
            conic_c: group.conic_c[lane],
            radius: group.radius[lane],
        };
        finalize_lane(out, i, g, &lane_out, cam_pos);
    }
}

/// The reference Stage-1 kernel for one Gaussian, restructured to *return*
/// its cull class and splat values instead of tallying/pushing in place.
/// Every expression is textually the one `preprocess::preprocess_over`
/// evaluates, in the same order.
fn lane_scalar(camera: &Camera, g: &Gaussian3, cov3: Mat3, fc: &FrameConsts) -> LaneOut {
    let p_cam = camera.world_to_camera(g.position);
    if p_cam.z < camera.near() || p_cam.z > camera.far() {
        return LaneOut {
            code: CODE_DEPTH,
            ..LaneOut::default()
        };
    }
    let focal = camera.focal();
    let inv_z = 1.0 / p_cam.z;
    let mean = Vec2::new(
        focal.x * p_cam.x * inv_z + camera.principal().x,
        focal.y * p_cam.y * inv_z + camera.principal().y,
    );
    let tx = (p_cam.x * inv_z).clamp(-1.3 * fc.tan_half_x, 1.3 * fc.tan_half_x) * p_cam.z;
    let ty = (p_cam.y * inv_z).clamp(-1.3 * fc.tan_half_y, 1.3 * fc.tan_half_y) * p_cam.z;
    let j = Mat3::from_rows(
        focal.x * inv_z,
        0.0,
        -focal.x * tx * inv_z * inv_z,
        0.0,
        focal.y * inv_z,
        -focal.y * ty * inv_z * inv_z,
        0.0,
        0.0,
        0.0,
    );
    let t = j * fc.view_rot;
    let cov2_full = t * cov3 * t.transposed();
    let mut cov2 = cov2_full.upper_left_2x2();
    cov2 = cov2 + Mat2::from_rows(COV2D_LOW_PASS, 0.0, 0.0, COV2D_LOW_PASS);
    let Some(inv) = cov2.inverse() else {
        return LaneOut {
            code: CODE_CONIC,
            ..LaneOut::default()
        };
    };
    let (l1, _l2) = cov2.symmetric_eigenvalues();
    let radius = (3.0 * l1.max(0.0).sqrt()).ceil();
    let vals = LaneOut {
        code: CODE_SURVIVOR,
        mean_x: mean.x,
        mean_y: mean.y,
        depth: p_cam.z,
        conic_a: inv.at(0, 0),
        conic_b: inv.at(0, 1),
        conic_c: inv.at(1, 1),
        radius,
    };
    if !(mean.is_finite() && radius.is_finite()) {
        return LaneOut {
            code: CODE_NON_FINITE,
            ..vals
        };
    }
    if radius < 1.0 {
        return LaneOut {
            code: CODE_RADIUS,
            ..vals
        };
    }
    if mean.x + radius < 0.0
        || mean.x - radius > fc.w
        || mean.y + radius < 0.0
        || mean.y - radius > fc.h
    {
        return LaneOut {
            code: CODE_OFFSCREEN,
            ..vals
        };
    }
    vals
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

/// Applies one projected lane to the output: charges the constant op
/// bundle for its cull class, then (for survivors) evaluates SH color and
/// pushes the splat — the serial part of the scalar kernel, unchanged.
fn finalize_lane(
    out: &mut PreprocessOutput,
    i: usize,
    g: &Gaussian3,
    lane: &LaneOut,
    cam_pos: Vec3,
) {
    match lane.code {
        CODE_DEPTH => {
            out.culled += 1;
        }
        CODE_CONIC => {
            charge_through_low_pass(&mut out.ops);
            out.culled += 1;
        }
        CODE_NON_FINITE | CODE_RADIUS | CODE_OFFSCREEN => {
            // Identical to `preprocess::OFFSCREEN_CULL_OPS` — the late cull
            // branches all charge the full pre-cull bundle.
            charge_through_low_pass(&mut out.ops);
            charge_inverse_and_radius(&mut out.ops);
            out.culled += 1;
            if lane.code == CODE_NON_FINITE {
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
                mean: Vec2::new(lane.mean_x, lane.mean_y),
                conic: [lane.conic_a, lane.conic_b, lane.conic_c],
                depth: lane.depth,
                color,
                opacity: g.opacity,
                radius: lane.radius,
                source: i as u32,
            });
        }
    }
}

/// Emits one vector projection kernel. The two instantiations (SSE4.1 ×4,
/// AVX2 ×8) share this single body so they cannot drift apart; only the
/// intrinsic names and lane count differ. `$lt`/`$gt`/`$unord` are the
/// ordered less-than / ordered greater-than / unordered comparisons —
/// exactly the predicates the scalar `<`, `>`, and `is_nan` checks lower
/// to (NaN compares false under the ordered predicates).
#[cfg(target_arch = "x86_64")]
macro_rules! stage1_kernel {
    (
        $name:ident, $feat:literal, $lanes:expr,
        $loadu:ident, $storeu:ident, $set1:ident, $castsi:ident, $set1_epi32:ident,
        $add:ident, $sub:ident, $mul:ident, $div:ident, $sqrt:ident,
        $min:ident, $max:ident, $ceil:ident,
        $and:ident, $or:ident, $andnot:ident, $xor:ident, $blendv:ident, $movemask:ident,
        $lt:ident, $gt:ident, $unord:ident
    ) => {
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_lines, clippy::similar_names)]
        fn $name(
            fc: &FrameConsts,
            pos: &[[f32; LANES_MAX]; 3],
            cov: &[[f32; LANES_MAX]; 9],
            out: &mut GroupOut,
        ) {
            let zero = $set1(0.0);
            let one = $set1(1.0);

            // SAFETY: every source is a stack array of `LANES_MAX` (8) f32s
            // and the widest load reads 8 lanes, so all reads are in bounds.
            let (gx, gy, gz) = unsafe {
                (
                    $loadu(pos[0].as_ptr()),
                    $loadu(pos[1].as_ptr()),
                    $loadu(pos[2].as_ptr()),
                )
            };
            // SAFETY: as above — nine `LANES_MAX`-float stack arrays.
            let (c0x, c0y, c0z, c1x, c1y, c1z, c2x, c2y, c2z) = unsafe {
                (
                    $loadu(cov[0].as_ptr()),
                    $loadu(cov[1].as_ptr()),
                    $loadu(cov[2].as_ptr()),
                    $loadu(cov[3].as_ptr()),
                    $loadu(cov[4].as_ptr()),
                    $loadu(cov[5].as_ptr()),
                    $loadu(cov[6].as_ptr()),
                    $loadu(cov[7].as_ptr()),
                    $loadu(cov[8].as_ptr()),
                )
            };

            // world_to_camera: rows 0..2 of `view * [p, 1]`. The scalar
            // path's trailing `cols[3][r] * 1.0` is bitwise `cols[3][r]`
            // (IEEE multiplication by one is exact), so the translation
            // column is added directly.
            let pcx = $add(
                $add(
                    $add($mul($set1(fc.vm[0][0]), gx), $mul($set1(fc.vm[0][1]), gy)),
                    $mul($set1(fc.vm[0][2]), gz),
                ),
                $set1(fc.vm[0][3]),
            );
            let pcy = $add(
                $add(
                    $add($mul($set1(fc.vm[1][0]), gx), $mul($set1(fc.vm[1][1]), gy)),
                    $mul($set1(fc.vm[1][2]), gz),
                ),
                $set1(fc.vm[1][3]),
            );
            let pcz = $add(
                $add(
                    $add($mul($set1(fc.vm[2][0]), gx), $mul($set1(fc.vm[2][1]), gy)),
                    $mul($set1(fc.vm[2][2]), gz),
                ),
                $set1(fc.vm[2][3]),
            );

            // Depth cull: `z < near || z > far` (ordered — NaN z falls
            // through exactly like the scalar comparisons and is caught by
            // the non-finite cull).
            let m_depth = $or($lt(pcz, $set1(fc.near)), $gt(pcz, $set1(fc.far)));

            let inv_z = $div(one, pcz);
            let mean_x = $add($mul($mul($set1(fc.fx), pcx), inv_z), $set1(fc.cx));
            let mean_y = $add($mul($mul($set1(fc.fy), pcy), inv_z), $set1(fc.cy));

            // `f32::clamp` via min/max. The packed min/max return the
            // *second* operand on NaN, which would pin a NaN ratio to the
            // bound where the scalar clamp propagates it — restore NaN
            // lanes explicitly (reachable when the view transform
            // overflows to `inf - inf`).
            let t0x = $mul(pcx, inv_z);
            let clx = $min($max(t0x, $set1(fc.lo_x)), $set1(fc.hi_x));
            let clx = $blendv(clx, t0x, $unord(t0x, t0x));
            let tx = $mul(clx, pcz);
            let t0y = $mul(pcy, inv_z);
            let cly = $min($max(t0y, $set1(fc.lo_y)), $set1(fc.hi_y));
            let cly = $blendv(cly, t0y, $unord(t0y, t0y));
            let ty = $mul(cly, pcz);

            // EWA Jacobian `j` (row 2 is all zero and never materialized).
            let jxx = $mul($set1(fc.fx), inv_z);
            let jyy = $mul($set1(fc.fy), inv_z);
            let jxz = $mul($mul($mul($set1(fc.neg_fx), tx), inv_z), inv_z);
            let jyz = $mul($mul($mul($set1(fc.neg_fy), ty), inv_z), inv_z);

            // t = j * view_rot, rows 0..1 (`t<r><k>` = row r, column k).
            // The literal `0.0 * r` terms reproduce the scalar kernel's
            // signed-zero products from `j`'s structural zeros.
            let r00 = $set1(fc.r3[0][0]);
            let r01 = $set1(fc.r3[0][1]);
            let r02 = $set1(fc.r3[0][2]);
            let r10 = $set1(fc.r3[1][0]);
            let r11 = $set1(fc.r3[1][1]);
            let r12 = $set1(fc.r3[1][2]);
            let r20 = $set1(fc.r3[2][0]);
            let r21 = $set1(fc.r3[2][1]);
            let r22 = $set1(fc.r3[2][2]);
            let t00 = $add($add($mul(jxx, r00), $mul(zero, r01)), $mul(jxz, r02));
            let t01 = $add($add($mul(jxx, r10), $mul(zero, r11)), $mul(jxz, r12));
            let t02 = $add($add($mul(jxx, r20), $mul(zero, r21)), $mul(jxz, r22));
            let t10 = $add($add($mul(zero, r00), $mul(jyy, r01)), $mul(jyz, r02));
            let t11 = $add($add($mul(zero, r10), $mul(jyy, r11)), $mul(jyz, r12));
            let t12 = $add($add($mul(zero, r20), $mul(jyy, r21)), $mul(jyz, r22));

            // m1 = t * cov3, rows 0..1 (`m<r><c>` = row r, column c).
            let m00 = $add($add($mul(t00, c0x), $mul(t01, c0y)), $mul(t02, c0z));
            let m01 = $add($add($mul(t00, c1x), $mul(t01, c1y)), $mul(t02, c1z));
            let m02 = $add($add($mul(t00, c2x), $mul(t01, c2y)), $mul(t02, c2z));
            let m10 = $add($add($mul(t10, c0x), $mul(t11, c0y)), $mul(t12, c0z));
            let m11 = $add($add($mul(t10, c1x), $mul(t11, c1y)), $mul(t12, c1z));
            let m12 = $add($add($mul(t10, c2x), $mul(t11, c2y)), $mul(t12, c2z));

            // Upper-left 2×2 of m1 * tᵀ (`e<r><c>`), then the low-pass
            // filter — the scalar path adds a `from_rows(0.3, 0, 0, 0.3)`
            // matrix component-wise, so the off-diagonals add literal zero.
            let e00 = $add($add($mul(m00, t00), $mul(m01, t01)), $mul(m02, t02));
            let e01 = $add($add($mul(m00, t10), $mul(m01, t11)), $mul(m02, t12));
            let e10 = $add($add($mul(m10, t00), $mul(m11, t01)), $mul(m12, t02));
            let e11 = $add($add($mul(m10, t10), $mul(m11, t11)), $mul(m12, t12));
            let lp = $set1(COV2D_LOW_PASS);
            let c00 = $add(e00, lp);
            let c01 = $add(e01, zero);
            let c10 = $add(e10, zero);
            let c11 = $add(e11, lp);

            // Conic inversion. Cull mask is `Mat2::inverse`'s None
            // condition: `!det.is_finite() || det.abs() < 1e-20`.
            let det = $sub($mul(c00, c11), $mul(c01, c10));
            let abs_mask = $castsi($set1_epi32(0x7fff_ffff));
            let sign_mask = $castsi($set1_epi32(i32::MIN));
            let all_ones = $castsi($set1_epi32(-1));
            let inf = $set1(f32::INFINITY);
            let abs_det = $and(det, abs_mask);
            let m_conic = $or(
                $andnot($lt(abs_det, inf), all_ones),
                $lt(abs_det, $set1(1e-20)),
            );
            let inv_det = $div(one, det);
            let conic_a = $mul(c11, inv_det);
            let conic_b = $mul($xor(c01, sign_mask), inv_det);
            let conic_c = $mul(c00, inv_det);

            // Eigenvalues and the 3σ radius. `f32::max(x, 0.0)` returns the
            // second operand (0.0) on NaN — exactly the packed-max rule.
            let mid = $mul($set1(0.5), $add(c00, c11));
            let disc = $sqrt($max($sub($mul(mid, mid), det), zero));
            let l1 = $add(mid, disc);
            let radius = $ceil($mul($set1(3.0), $sqrt($max(l1, zero))));

            // Non-finite cull: `!(mean.is_finite() && radius.is_finite())`.
            let fin = $and(
                $and(
                    $lt($and(mean_x, abs_mask), inf),
                    $lt($and(mean_y, abs_mask), inf),
                ),
                $lt($and(radius, abs_mask), inf),
            );
            let m_nf = $andnot(fin, all_ones);
            let m_rad = $lt(radius, one);
            let m_off = $or(
                $or(
                    $lt($add(mean_x, radius), zero),
                    $gt($sub(mean_x, radius), $set1(fc.w)),
                ),
                $or(
                    $lt($add(mean_y, radius), zero),
                    $gt($sub(mean_y, radius), $set1(fc.h)),
                ),
            );

            // Classify every lane by the first cull it hit, in the scalar
            // kernel's branch order.
            let bd = $movemask(m_depth);
            let bc = $movemask(m_conic);
            let bn = $movemask(m_nf);
            let br = $movemask(m_rad);
            let bo = $movemask(m_off);
            for (lane, code) in out.code.iter_mut().take($lanes).enumerate() {
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

            // SAFETY: every destination is a stack array of `LANES_MAX` (8)
            // f32s and the widest store writes 8 lanes — all in bounds.
            unsafe {
                $storeu(out.mean_x.as_mut_ptr(), mean_x);
                $storeu(out.mean_y.as_mut_ptr(), mean_y);
                $storeu(out.depth.as_mut_ptr(), pcz);
                $storeu(out.conic_a.as_mut_ptr(), conic_a);
                $storeu(out.conic_b.as_mut_ptr(), conic_b);
                $storeu(out.conic_c.as_mut_ptr(), conic_c);
                $storeu(out.radius.as_mut_ptr(), radius);
            }
        }
    };
}

/// Ordered `<` / `>` and unordered (NaN) comparison wrappers — the SSE
/// legacy predicates and the AVX immediate-predicate form spelled the same
/// way so [`stage1_kernel!`] can name them uniformly.
#[cfg(target_arch = "x86_64")]
mod cmp {
    use core::arch::x86_64::*;

    #[target_feature(enable = "sse4.1")]
    pub(super) fn lt_128(a: __m128, b: __m128) -> __m128 {
        _mm_cmplt_ps(a, b)
    }
    #[target_feature(enable = "sse4.1")]
    pub(super) fn gt_128(a: __m128, b: __m128) -> __m128 {
        _mm_cmpgt_ps(a, b)
    }
    #[target_feature(enable = "sse4.1")]
    pub(super) fn unord_128(a: __m128, b: __m128) -> __m128 {
        _mm_cmpunord_ps(a, b)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn lt_256(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_LT_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn gt_256(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_GT_OQ>(a, b)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn unord_256(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_UNORD_Q>(a, b)
    }
}

#[cfg(target_arch = "x86_64")]
use cmp::{gt_128, gt_256, lt_128, lt_256, unord_128, unord_256};

#[cfg(target_arch = "x86_64")]
stage1_kernel!(
    group_sse,
    "sse4.1",
    4,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_castsi128_ps,
    _mm_set1_epi32,
    _mm_add_ps,
    _mm_sub_ps,
    _mm_mul_ps,
    _mm_div_ps,
    _mm_sqrt_ps,
    _mm_min_ps,
    _mm_max_ps,
    _mm_ceil_ps,
    _mm_and_ps,
    _mm_or_ps,
    _mm_andnot_ps,
    _mm_xor_ps,
    _mm_blendv_ps,
    _mm_movemask_ps,
    lt_128,
    gt_128,
    unord_128
);

#[cfg(target_arch = "x86_64")]
stage1_kernel!(
    group_avx2,
    "avx2",
    8,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_castsi256_ps,
    _mm256_set1_epi32,
    _mm256_add_ps,
    _mm256_sub_ps,
    _mm256_mul_ps,
    _mm256_div_ps,
    _mm256_sqrt_ps,
    _mm256_min_ps,
    _mm256_max_ps,
    _mm256_ceil_ps,
    _mm256_and_ps,
    _mm256_or_ps,
    _mm256_andnot_ps,
    _mm256_xor_ps,
    _mm256_blendv_ps,
    _mm256_movemask_ps,
    lt_256,
    gt_256,
    unord_256
);
