//! Stage 3 — Gaussian rasterization (the operator GauRast accelerates).
//!
//! Per tile, per pixel, splats arrive front-to-back; each contributes
//! `α = o · exp(-½ dᵀΣ'⁻¹d)` and colors blend as `C += T·α·c`,
//! `T ← T·(1-α)` until the transmittance saturates. This is a faithful port
//! of `renderCUDA` from the reference implementation, with two additions:
//!
//! * full FP-operation accounting per Table II subtask ([`crate::ops`]),
//! * per-tile *processed counts* written back into the workload so the
//!   architecture models bill exactly the work this reference performed.

use crate::framebuffer::{Framebuffer, TileViewMut};
use crate::ops::{Subtask, SubtaskCounts};
use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::simd::SimdLevel;
use crate::workload::RasterWorkload;
use crate::{ALPHA_CUTOFF, TRANSMITTANCE_EPS};
use gaurast_math::{exp_f32, Vec2, Vec3};

/// Statistics of one rasterization pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RasterStats {
    /// (splat, pixel) pairs evaluated (before any cutoff).
    pub pairs_evaluated: u64,
    /// Blends actually committed (alpha above cutoff, pixel not saturated).
    pub blends_committed: u64,
    /// Tiles whose every pixel saturated before the list was exhausted.
    pub tiles_early_terminated: u64,
    /// Per-subtask FP operation tallies.
    pub ops: SubtaskCounts,
}

impl std::ops::AddAssign for RasterStats {
    /// Merges another pass's tallies (used to fold per-tile statistics in
    /// tile order; every field is an integer counter, so the merged totals
    /// equal the serial pass's).
    fn add_assign(&mut self, rhs: RasterStats) {
        self.pairs_evaluated += rhs.pairs_evaluated;
        self.blends_committed += rhs.blends_committed;
        self.tiles_early_terminated += rhs.tiles_early_terminated;
        self.ops += rhs.ops;
    }
}

/// Rasterizes a workload, returning the image and statistics, and recording
/// per-tile processed counts into `workload`.
///
/// # Example
/// ```
/// use gaurast_render::{rasterize::rasterize, tile::bin_splats, Splat2D};
/// use gaurast_math::{Vec2, Vec3};
///
/// let splat = Splat2D {
///     mean: Vec2::new(8.0, 8.0), conic: [0.08, 0.0, 0.08], depth: 1.0,
///     color: Vec3::new(1.0, 0.0, 0.0), opacity: 0.9, radius: 6.0, source: 0,
/// };
/// let mut workload = bin_splats(vec![splat], 16, 16, 16);
/// let (image, stats) = rasterize(&mut workload);
/// assert!(image.color_at(8, 8).x > 0.5);
/// assert!(stats.blends_committed > 0);
/// ```
pub fn rasterize(workload: &mut RasterWorkload) -> (Framebuffer, RasterStats) {
    let mut fb = Framebuffer::new(workload.width(), workload.height());
    let stats = rasterize_with_level(
        workload,
        Some(&mut fb),
        &WorkerPool::serial(),
        SimdLevel::Scalar,
    );
    (fb, stats)
}

/// One tile's rasterization job: its depth-sorted CSR slice, its exclusive
/// framebuffer view (absent in record-only mode), and its output slot.
struct TileJob<'l, 'fb> {
    list: &'l [u32],
    view: Option<TileViewMut<'fb>>,
    processed: u32,
    stats: RasterStats,
}

/// The tile-major rasterization pass — the single Stage-3 code path
/// (behind [`rasterize`] too). Tiles run the 8-pixel lane-group AVX2
/// kernel (`crate::simd::stage3`) at [`SimdLevel::Avx2`] and the verbatim
/// scalar kernel at [`SimdLevel::Scalar`], both over the workload's
/// splats; a `level` above the host's detected capability is clamped
/// down, so a host without AVX2 runs the scalar kernel (sound, because
/// both levels agree bit for bit).
///
/// Each tile is an independent job over its own depth-sorted CSR range of
/// the workload (Stage 2 wrote every range in depth order up front via
/// its depth sort and counting scatter — there is no in-job sort),
/// rasterizing into its own
/// disjoint framebuffer view ([`Framebuffer::tile_views_mut`]) with no
/// locking. Jobs are fanned over `pool`; per-tile statistics and processed
/// counts are merged in tile order on the calling thread, so every output
/// — image bytes, op tallies, processed counts — is bit-identical for
/// every worker count and level, including the serial scalar pass.
///
/// Passing `None` for `fb` selects record-only mode: per-tile processed
/// counts and statistics are recorded exactly as with an image (the
/// blending math runs identically, so every tally is bit-for-bit the
/// same), but no pixel is written. A provided buffer is cleared in place
/// and refilled, so a caller may reuse one across frames.
///
/// The front-to-back invariant is checked only in debug builds
/// ([`crate::sort::is_depth_sorted`] is a full scan — too expensive for
/// the hot path); both binning entry points establish it by construction.
///
/// The framebuffer is cleared once up front (only the depth plane actually
/// needs it for the Gaussian path: tile views cover and overwrite every
/// color/transmittance pixel), never inside the per-tile hot loop.
///
/// # Panics
/// Panics when a provided framebuffer's dimensions do not match the
/// workload.
pub fn rasterize_with_level(
    workload: &mut RasterWorkload,
    mut fb: Option<&mut Framebuffer>,
    pool: &WorkerPool,
    level: SimdLevel,
) -> RasterStats {
    let level = level.min(crate::simd::detected_level());
    if let Some(fb) = fb.as_deref_mut() {
        assert_eq!(
            (fb.width(), fb.height()),
            (workload.width(), workload.height()),
            "framebuffer dimensions must match the workload"
        );
        fb.clear();
    }
    let (tiles_x, tile_size) = (workload.tiles_x(), workload.tile_size());
    let n_tiles = workload.tile_count();
    // Recycled counts buffer: refilled below, handed back via
    // `set_processed` (no per-frame allocation in steady state).
    let mut processed = workload.take_processed_scratch();

    // One grid authority: the same tile_rect the workload exposes to the
    // architecture models also shapes the jobs (and matches the views
    // `tile_views_mut` builds on the identical grid).
    let rects: Vec<(u32, u32, u32, u32)> = (0..n_tiles as u32)
        .map(|i| workload.tile_rect(i % tiles_x, i / tiles_x))
        // gaurast-check: allow(alloc): per-frame tile-job staging, O(tiles)
        // not O(pairs); the Stage-2 data path stays arena-recycled.
        .collect();

    let mut views: Vec<Option<TileViewMut<'_>>> = match fb {
        // gaurast-check: allow(alloc): borrowed per-frame tile views cannot
        // outlive the framebuffer borrow, so they cannot be arena-cached.
        Some(fb) => fb.tile_views_mut(tile_size).into_iter().map(Some).collect(),
        None => (0..n_tiles).map(|_| None).collect(), // gaurast-check: allow(alloc): same staging list, record-only shape
    };
    let splats = workload.splats();
    let mut jobs: Vec<TileJob<'_, '_>> = (0..n_tiles)
        .zip(views.drain(..))
        .map(|(i, view)| TileJob {
            list: workload.tile_list_at(i),
            view,
            processed: 0,
            stats: RasterStats::default(),
        })
        // gaurast-check: allow(alloc): per-frame job list, O(tiles); holds
        // the borrowed views above and dies with the frame.
        .collect();

    pool.run_mut(&mut jobs, |i, job| {
        // Full-scan front-to-back check, debug builds only (demoted from
        // the hot path; `is_depth_sorted` stays public for tests).
        debug_assert!(
            crate::sort::is_depth_sorted(job.list, splats),
            "tile {i} list reached Stage 3 unsorted"
        );
        let rect = rects[i];
        if let Some(view) = &job.view {
            // Shadow race detection: claim this job's disjoint pixel rows.
            view.race_register();
            debug_assert_eq!(
                (rect.0, rect.1, rect.2 - rect.0, rect.3 - rect.1),
                (view.x0(), view.y0(), view.width(), view.height()),
                "tile view must cover exactly the workload's tile rect"
            );
        }
        (job.processed, job.stats) = match level {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                crate::simd::stage3::rasterize_tile_avx2(splats, job.list, rect, job.view.as_mut())
            }
            _ => rasterize_tile(splats, job.list, rect, job.view.as_mut()),
        };
    });

    let mut stats = RasterStats::default();
    processed.reserve(n_tiles);
    for job in jobs {
        stats += job.stats;
        processed.push(job.processed);
    }
    workload.set_processed(processed);
    stats
}

/// Rasterizes one tile; returns how many splats of its list were processed
/// before every pixel saturated, plus the tile-local statistics.
// gaurast-check: hot-path
fn rasterize_tile(
    splats: &[Splat2D],
    list: &[u32],
    rect: (u32, u32, u32, u32),
    view: Option<&mut TileViewMut<'_>>,
) -> (u32, RasterStats) {
    let mut stats = RasterStats::default();
    if list.is_empty() {
        return (0, stats);
    }
    let (x0, y0, x1, y1) = rect;
    let w = (x1 - x0) as usize;
    let h = (y1 - y0) as usize;
    let n_px = w * h;

    // Per-pixel accumulation state, tile-local (this is the pixel data held
    // in GauRast's tile buffers).
    // gaurast-check: allow(alloc): tile-local pixel buffers, one bounded
    // (tile_size²) allocation per tile job — ROADMAP item: move into a
    // per-worker arena.
    let mut color = vec![Vec3::zero(); n_px];
    // gaurast-check: allow(alloc): same tile-local buffer as above.
    let mut transmittance = vec![1.0f32; n_px];
    let mut alive = n_px as u32;

    let mut processed = 0u32;

    // Local op tallies; folded into stats once per tile to keep the inner
    // loop lean.
    let (mut shift_add, mut det_add, mut det_mul, mut det_exp, mut det_cmp) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut wgt_mul, mut red_add, mut red_mul, mut red_cmp) = (0u64, 0u64, 0u64, 0u64);
    let mut pairs = 0u64;

    'list: for &si in list {
        processed += 1;
        let s = &splats[si as usize];
        let (a, b, c) = (s.conic[0], s.conic[1], s.conic[2]);

        for py in 0..h {
            for px in 0..w {
                let i = py * w + px;
                if transmittance[i] < TRANSMITTANCE_EPS {
                    continue;
                }
                pairs += 1;

                // Subtask 1: coordinate shift (pixel center convention).
                let p = Vec2::new((x0 + px as u32) as f32 + 0.5, (y0 + py as u32) as f32 + 0.5);
                let d = p - s.mean;
                shift_add += 2;

                // Subtask 2: Gaussian probability and alpha.
                let power = -0.5 * (a * d.x * d.x + c * d.y * d.y) - b * d.x * d.y;
                det_mul += 7; // dx², dy², dx·dy, a·, c·, b·, ½·
                det_add += 3;
                det_cmp += 1;
                if power > 0.0 {
                    continue;
                }
                let alpha = (s.opacity * exp_f32(power)).min(0.99);
                det_exp += 1;
                det_mul += 1;
                det_cmp += 2;
                if alpha < ALPHA_CUTOFF {
                    continue;
                }

                // Subtask 3: color weight.
                let weight = transmittance[i] * alpha;
                let contribution = s.color * weight;
                wgt_mul += 4;

                // Subtask 4: accumulate and update transmittance.
                color[i] += contribution;
                transmittance[i] *= 1.0 - alpha;
                red_add += 4;
                red_mul += 1;
                red_cmp += 1;
                stats.blends_committed += 1;

                if transmittance[i] < TRANSMITTANCE_EPS {
                    alive -= 1;
                    if alive == 0 {
                        // Whole tile saturated: the reference kernel's warps
                        // all exit; later splats cost nothing.
                        if processed < list.len() as u32 {
                            stats.tiles_early_terminated += 1;
                        }
                        break 'list;
                    }
                }
            }
        }
    }

    // Write the tile back through its exclusive framebuffer view
    // (background stays black, as in the reference with a black background
    // color). The remaining transmittance is kept for downstream
    // compositing (see `compose`). In record-only mode there is no view
    // and the writeback is skipped.
    if let Some(view) = view {
        for py in 0..h {
            for px in 0..w {
                let i = py * w + px;
                view.write(px as u32, py as u32, color[i], transmittance[i]);
            }
        }
    }

    stats.pairs_evaluated += pairs;
    stats.ops.pairs += pairs;
    stats.ops.at(Subtask::CoordinateShift).add += shift_add;
    let det = stats.ops.at(Subtask::Detection);
    det.add += det_add;
    det.mul += det_mul;
    det.exp += det_exp;
    det.cmp += det_cmp;
    stats.ops.at(Subtask::WeightComputation).mul += wgt_mul;
    let red = stats.ops.at(Subtask::Reduction);
    red.add += red_add;
    red.mul += red_mul;
    red.cmp += red_cmp;

    (processed, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::bin_splats;
    use crate::Splat2D;

    fn splat(x: f32, y: f32, opacity: f32, color: Vec3, depth: f32) -> Splat2D {
        Splat2D {
            mean: Vec2::new(x, y),
            conic: [0.05, 0.0, 0.05],
            depth,
            color,
            opacity,
            radius: 12.0,
            source: 0,
        }
    }

    #[test]
    fn single_splat_peak_color() {
        // Mean exactly on the pixel-center grid so density there is 1.
        let s = splat(8.5, 8.5, 0.9, Vec3::new(1.0, 0.0, 0.0), 1.0);
        let mut w = bin_splats(vec![s], 16, 16, 16);
        let (fb, stats) = rasterize(&mut w);
        let c = fb.color_at(8, 8);
        // At the mean the density is 1 so color = opacity × red.
        assert!((c.x - 0.9).abs() < 1e-5, "got {c:?}");
        assert!(c.y < 1e-6 && c.z < 1e-6);
        assert!(stats.blends_committed > 0);
        assert_eq!(stats.tiles_early_terminated, 0);
    }

    #[test]
    fn color_decays_away_from_mean() {
        let s = splat(8.0, 8.0, 0.9, Vec3::one(), 1.0);
        let mut w = bin_splats(vec![s], 16, 16, 16);
        let (fb, _) = rasterize(&mut w);
        let center = fb.color_at(8, 8).x;
        let edge = fb.color_at(15, 8).x;
        assert!(center > edge);
    }

    #[test]
    fn front_to_back_occlusion() {
        // An opaque near-white splat in front of a red one: red barely shows.
        let front = Splat2D {
            opacity: 0.99,
            ..splat(8.0, 8.0, 0.99, Vec3::one(), 1.0)
        };
        let back = splat(8.0, 8.0, 0.99, Vec3::new(1.0, 0.0, 0.0), 2.0);
        let mut w = bin_splats(vec![back, front], 16, 16, 16);
        let (fb, _) = rasterize(&mut w);
        let c = fb.color_at(8, 8);
        // Front is white; back contributes at most (1-0.99) of its color.
        assert!(c.y > 0.9);
        assert!(c.x - c.y < 0.05);
    }

    #[test]
    fn order_independence_of_binning_depth_sort() {
        // Same two splats in either submission order must render identically
        // because the tiler depth-sorts.
        let a = splat(8.0, 8.0, 0.8, Vec3::new(1.0, 0.0, 0.0), 1.0);
        let b = splat(8.0, 8.0, 0.8, Vec3::new(0.0, 1.0, 0.0), 2.0);
        let mut w1 = bin_splats(vec![a, b], 16, 16, 16);
        let mut w2 = bin_splats(vec![b, a], 16, 16, 16);
        let (fb1, _) = rasterize(&mut w1);
        let (fb2, _) = rasterize(&mut w2);
        assert_eq!(fb1.mean_abs_diff(&fb2), 0.0);
    }

    #[test]
    fn transmittance_never_negative_color_bounded() {
        // Stack many opaque splats; accumulated color must stay <= 1 + eps.
        let splats: Vec<Splat2D> = (0..50)
            .map(|i| splat(8.0, 8.0, 0.95, Vec3::one(), 1.0 + i as f32))
            .collect();
        let mut w = bin_splats(splats, 16, 16, 16);
        let (fb, _) = rasterize(&mut w);
        let c = fb.color_at(8, 8);
        assert!(c.max_component() <= 1.0 + 1e-4, "got {c:?}");
    }

    #[test]
    fn saturated_tile_terminates_early() {
        // Wide, nearly opaque splats saturate the whole 16x16 tile quickly;
        // the tail of the list must not be processed.
        let splats: Vec<Splat2D> = (0..200)
            .map(|i| Splat2D {
                conic: [1e-4, 0.0, 1e-4], // essentially flat across the tile
                ..splat(8.0, 8.0, 0.99, Vec3::one(), 1.0 + i as f32)
            })
            .collect();
        let mut w = bin_splats(splats, 16, 16, 16);
        let (_, stats) = rasterize(&mut w);
        assert_eq!(stats.tiles_early_terminated, 1);
        assert!(w.processed_count(0, 0) < 200);
        assert!(w.blend_work() < 200 * 256);
    }

    #[test]
    fn alpha_cutoff_skips_blend() {
        // A splat with tiny opacity commits no blends.
        let s = splat(8.0, 8.0, 0.003, Vec3::one(), 1.0);
        let mut w = bin_splats(vec![s], 16, 16, 16);
        let (fb, stats) = rasterize(&mut w);
        assert_eq!(stats.blends_committed, 0);
        assert_eq!(fb.coverage(), 0.0);
    }

    #[test]
    fn ops_tally_matches_pairs() {
        let s = splat(8.0, 8.0, 0.9, Vec3::one(), 1.0);
        let mut w = bin_splats(vec![s], 16, 16, 16);
        let (_, stats) = rasterize(&mut w);
        assert_eq!(stats.ops.pairs, stats.pairs_evaluated);
        // Every evaluated pair costs exactly 2 shift adds.
        assert_eq!(
            stats.ops.of(Subtask::CoordinateShift).add,
            2 * stats.pairs_evaluated
        );
        // Detection uses the exponential; weight/reduction do not.
        assert!(stats.ops.of(Subtask::Detection).exp > 0);
        assert_eq!(stats.ops.of(Subtask::WeightComputation).exp, 0);
        assert_eq!(stats.ops.of(Subtask::Reduction).exp, 0);
        assert_eq!(stats.ops.of(Subtask::Reduction).div, 0);
    }

    #[test]
    fn empty_workload_renders_black() {
        let mut w = bin_splats(vec![], 32, 32, 16);
        let (fb, stats) = rasterize(&mut w);
        assert_eq!(fb.coverage(), 0.0);
        assert_eq!(stats.pairs_evaluated, 0);
        assert_eq!(w.blend_work(), 0);
    }

    #[test]
    fn record_only_matches_full_rasterization() {
        let splats: Vec<Splat2D> = (0..40)
            .map(|i| splat(4.0 + i as f32, 9.0, 0.7, Vec3::one(), 1.0 + i as f32))
            .collect();
        let mut full = bin_splats(splats.clone(), 48, 48, 16);
        let mut counts_only = bin_splats(splats, 48, 48, 16);
        let (_, full_stats) = rasterize(&mut full);
        let counts_stats = rasterize_with_level(
            &mut counts_only,
            None,
            &WorkerPool::serial(),
            SimdLevel::Scalar,
        );
        assert_eq!(full_stats, counts_stats);
        assert_eq!(full.blend_work(), counts_only.blend_work());
        for ty in 0..full.tiles_y() {
            for tx in 0..full.tiles_x() {
                assert_eq!(
                    full.processed_count(tx, ty),
                    counts_only.processed_count(tx, ty)
                );
            }
        }
    }

    #[test]
    fn caller_framebuffer_is_cleared_and_reused() {
        let s = splat(8.5, 8.5, 0.9, Vec3::new(0.0, 1.0, 0.0), 1.0);
        let mut w = bin_splats(vec![s], 16, 16, 16);
        let mut fb = Framebuffer::new(16, 16);
        // Dirty the scratch buffer, then rasterize into it twice.
        fb.set_color(0, 0, Vec3::one());
        let serial = WorkerPool::serial();
        let _ = rasterize_with_level(&mut w, Some(&mut fb), &serial, SimdLevel::Scalar);
        let first = fb.clone();
        let _ = rasterize_with_level(&mut w, Some(&mut fb), &serial, SimdLevel::Scalar);
        assert_eq!(fb.mean_abs_diff(&first), 0.0, "reuse must be idempotent");
        let (fresh, _) = rasterize(&mut w.clone());
        assert_eq!(
            fb.mean_abs_diff(&fresh),
            0.0,
            "scratch must equal a fresh buffer"
        );
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn mismatched_framebuffer_is_rejected() {
        let mut w = bin_splats(vec![], 32, 32, 16);
        let mut fb = Framebuffer::new(16, 16);
        let _ = rasterize_with_level(
            &mut w,
            Some(&mut fb),
            &WorkerPool::serial(),
            SimdLevel::Scalar,
        );
    }
}
