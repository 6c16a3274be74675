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
//!
//! Stage 3 is resumable: each tile's job keeps its pixel state and its
//! progress through its list between rounds, so the frame driver can
//! rasterize the part of every list that Stage 2 has scattered so far and
//! stop scattering into tiles that have saturated. A tile ends up with
//! exactly the pixels, counts and statistics of one pass over its whole
//! list, because the per-pixel arithmetic runs over the same splats in the
//! same order and every tally is an integer sum. The jobs are plain data
//! that the session's arena keeps across frames, and the image is written
//! once per frame, after the last round: as in GauRast's tile buffers and
//! the reference kernel, each pixel is drained once, after its blending.

use crate::framebuffer::Framebuffer;
use crate::ops::{Subtask, SubtaskCounts};
use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::simd::SimdLevel;
use crate::workload::{tile_pixel_rect, RasterWorkload};
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

/// Pixels per lane group of the AVX2 kernel. Rows of the Stage-3 pixel
/// state are padded to whole groups, for both kernels, so one layout
/// serves every level.
pub(crate) const LANES: usize = 8;

/// One tile's pixel state between Stage-3 rounds, split out of its job's
/// pixel planes: the accumulated color in three channel planes, the
/// transmittance plane, each `stride × h` pixels with rows padded to whole
/// lane groups, and the row's pixel-center x coordinates. The padding
/// pixels start dead (transmittance 0).
pub(crate) struct TilePixels<'a> {
    /// Row stride in pixels: the tile width rounded up to [`LANES`].
    pub(crate) stride: usize,
    /// Red channel.
    pub(crate) red: &'a mut [f32],
    /// Green channel.
    pub(crate) grn: &'a mut [f32],
    /// Blue channel.
    pub(crate) blu: &'a mut [f32],
    /// Transmittance.
    pub(crate) trans: &'a mut [f32],
    /// Pixel-center x of each column of the row, `stride` entries (0 in
    /// the padding).
    pub(crate) xc: &'a mut [f32],
}

impl<'a> TilePixels<'a> {
    /// The planes of a `w × h` tile in `slot`.
    // gaurast-check: hot-path
    fn of_slot(slot: &'a mut [f32], w: usize, h: usize) -> Self {
        let stride = w.div_ceil(LANES) * LANES;
        let n = stride * h;
        let (red, rest) = slot.split_at_mut(n);
        let (grn, rest) = rest.split_at_mut(n);
        let (blu, rest) = rest.split_at_mut(n);
        let (trans, rest) = rest.split_at_mut(n);
        Self {
            stride,
            red,
            grn,
            blu,
            trans,
            xc: &mut rest[..stride],
        }
    }

    /// The state before the tile's first splat: black, transmittance 1,
    /// padding dead, pixel centers of the tile at column `x0` on, computed
    /// with the scalar kernel's exact expression.
    // gaurast-check: hot-path
    fn start(&mut self, x0: u32, w: usize) {
        self.red.fill(0.0);
        self.grn.fill(0.0);
        self.blu.fill(0.0);
        for row in self.trans.chunks_exact_mut(self.stride) {
            let (real, padding) = row.split_at_mut(w);
            real.fill(1.0);
            padding.fill(0.0);
        }
        self.xc.fill(0.0);
        for (px, x) in self.xc.iter_mut().take(w).enumerate() {
            *x = (x0 + px as u32) as f32 + 0.5;
        }
    }
}

/// A tile's progress through its list, carried from one Stage-3 round to
/// the next.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TileProgress {
    /// Splats of the list read so far: the processed count once the tile
    /// is done.
    pub(crate) processed: u32,
    /// Real pixels whose transmittance is still at or above
    /// [`TRANSMITTANCE_EPS`]; 0 once the tile has saturated.
    pub(crate) alive: u32,
    /// The tile's statistics so far.
    pub(crate) stats: RasterStats,
}

/// One tile's Stage-3 job: plain data that lives in the session's
/// [`FrameArena`](crate::FrameArena) across frames and is restaged in
/// place every frame. It holds the tile's rectangle, full list length,
/// progress and its own pixel planes in the [`TilePixels`] layout — the
/// pixel state GauRast keeps in its tile buffers.
#[derive(Debug, Default)]
pub(crate) struct TileJob {
    rect: (u32, u32, u32, u32),
    len: u32,
    progress: TileProgress,
    /// The tile has nothing left to do: its list is empty, or it has
    /// saturated, or it has read its whole list, or the last round is
    /// over.
    done: bool,
    /// Four planes and the pixel-center row ([`TilePixels::of_slot`]).
    pixels: Vec<f32>,
}

impl TileJob {
    /// Writes the tile's pixels into `image` (background stays black, as
    /// in the reference with a black background color). The remaining
    /// transmittance is kept for downstream compositing (see `compose`).
    // gaurast-check: hot-path
    fn write_back(&mut self, image: &mut Framebuffer) {
        // Shadow race detection: the calling thread reads the planes the
        // rounds' jobs wrote.
        crate::race_read!(self.pixels.as_ptr(), self.pixels.len());
        let (x0, y0, x1, y1) = self.rect;
        let pixels = TilePixels::of_slot(&mut self.pixels, (x1 - x0) as usize, (y1 - y0) as usize);
        let rows = pixels
            .red
            .chunks_exact(pixels.stride)
            .zip(pixels.grn.chunks_exact(pixels.stride))
            .zip(pixels.blu.chunks_exact(pixels.stride))
            .zip(pixels.trans.chunks_exact(pixels.stride));
        for (y, (((red, grn), blu), trans)) in (y0..y1).zip(rows) {
            let row = red.iter().zip(grn).zip(blu).zip(trans);
            for (x, (((&r, &g), &b), &t)) in (x0..x1).zip(row) {
                image.set_color(x, y, Vec3::new(r, g, b));
                image.set_transmittance(x, y, t);
            }
        }
    }
}

/// Stage 3 as resumable rounds over one frame's tiles. Each round runs the
/// tiles that are not done over the part of their list that is filled so
/// far; a tile's pixels wait in its job between rounds, and
/// [`Stage3::end_frame`] writes the image once.
/// [`rasterize_with_level`] is the one-round instance over a finished
/// workload, and the frame driver
/// ([`crate::pipeline::bin_and_rasterize_chunked`]) runs one round after
/// each scatter round.
pub(crate) struct Stage3 {
    level: SimdLevel,
    /// The image's width and height.
    size: (u32, u32),
    jobs: Vec<TileJob>,
}

impl Stage3 {
    /// Restages `jobs` in place as one job per tile of the `width ×
    /// height` grid of `tile_size` tiles whose full lists `offsets`
    /// delimits, at SIMD `level` clamped to the host's.
    // gaurast-check: hot-path
    pub(crate) fn new(
        (width, height, tile_size): (u32, u32, u32),
        offsets: &[u32],
        mut jobs: Vec<TileJob>,
        level: SimdLevel,
    ) -> Self {
        let level = level.min(crate::simd::detected_level());
        let tiles_x = width.div_ceil(tile_size);
        jobs.resize_with(offsets.len() - 1, TileJob::default);
        let lists = offsets.iter().zip(offsets.iter().skip(1));
        for ((job, (&first, &end)), i) in jobs.iter_mut().zip(lists).zip(0..) {
            // One grid authority: the rectangle the workload exposes to
            // the architecture models shapes the job.
            let rect = tile_pixel_rect((width, height, tile_size), i % tiles_x, i / tiles_x);
            let (w, h) = (rect.2 - rect.0, rect.3 - rect.1);
            let mut pixels = std::mem::take(&mut job.pixels);
            // The tile's first round sets up every plane before reading
            // it, so the planes are resized without clearing.
            pixels.resize(
                (w as usize).div_ceil(LANES) * LANES * (4 * h as usize + 1),
                0.0,
            );
            *job = TileJob {
                rect,
                len: end - first,
                progress: TileProgress {
                    alive: w * h,
                    ..TileProgress::default()
                },
                done: end == first,
                pixels,
            };
        }
        Self {
            level,
            size: (width, height),
            jobs,
        }
    }

    /// One round: every tile `t` that is not done reads its list on from
    /// its processed count up to slot `filled[t]` of `values` (CSR slots;
    /// tile `t`'s list starts at `offsets[t]`), over `pool`. A tile that
    /// saturates or reads its whole list is done, and after the `last`
    /// round every tile is.
    // gaurast-check: hot-path
    pub(crate) fn resume(
        &mut self,
        splats: &[Splat2D],
        values: &[u32],
        offsets: &[u32],
        filled: &[u32],
        last: bool,
        pool: &WorkerPool,
    ) {
        let level = self.level;
        pool.run_mut(&mut self.jobs, |t, job| {
            if job.done {
                return;
            }
            let start = offsets[t] as usize + job.progress.processed as usize;
            let entries = &values[start..(filled[t] as usize).max(start)];
            crate::race_read!(entries.as_ptr(), entries.len());
            // Shadow race detection: claim this tile's pixel planes, which
            // only its own job touches, in every round.
            crate::race_write!(job.pixels.as_ptr(), job.pixels.len());
            if !entries.is_empty() {
                // Full-scan front-to-back check, debug builds only
                // (demoted from the hot path; `is_depth_sorted` stays
                // public for tests).
                debug_assert!(
                    crate::sort::is_depth_sorted(entries, splats),
                    "tile {t} list reached Stage 3 unsorted"
                );
                let rect = job.rect;
                let w = (rect.2 - rect.0) as usize;
                let mut pixels =
                    TilePixels::of_slot(&mut job.pixels, w, (rect.3 - rect.1) as usize);
                if job.progress.processed == 0 {
                    pixels.start(rect.0, w);
                }
                let tile = &mut job.progress;
                match level {
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx2 => crate::simd::stage3::rasterize_tile_avx2(
                        splats,
                        entries,
                        job.len,
                        rect,
                        &mut pixels,
                        tile,
                    ),
                    _ => rasterize_tile(splats, entries, job.len, rect, &mut pixels, tile),
                }
            }
            job.done = last || job.progress.alive == 0 || job.progress.processed == job.len;
        });
    }

    /// Writes each tile's saturation into `saturated` (one flag per tile)
    /// for the next scatter round, and returns whether any tile is not
    /// done yet.
    // gaurast-check: hot-path
    pub(crate) fn flag_saturated(&self, saturated: &mut [bool]) -> bool {
        crate::race_write!(saturated.as_ptr(), saturated.len());
        let mut waiting = false;
        for (flag, job) in saturated.iter_mut().zip(&self.jobs) {
            *flag = job.progress.alive == 0;
            waiting |= !job.done;
        }
        waiting
    }

    /// Ends the frame on the calling thread: merges the statistics in tile
    /// order, writes each tile's processed count into `processed`
    /// (cleared first) and, given an image, clears it and writes every
    /// tile that read a splat into it. Returns the statistics and the
    /// jobs, for the arena to keep.
    ///
    /// # Panics
    /// Panics when a given image's dimensions do not match the frame's.
    // gaurast-check: hot-path
    pub(crate) fn end_frame(
        mut self,
        image: Option<&mut Framebuffer>,
        processed: &mut Vec<u32>,
    ) -> (RasterStats, Vec<TileJob>) {
        processed.clear();
        let mut stats = RasterStats::default();
        for job in &self.jobs {
            stats += job.progress.stats;
            processed.push(job.progress.processed);
        }
        if let Some(image) = image {
            assert_eq!(
                (image.width(), image.height()),
                self.size,
                "framebuffer dimensions must match the workload"
            );
            image.clear();
            for job in &mut self.jobs {
                if job.progress.processed > 0 {
                    job.write_back(image);
                }
            }
        }
        (stats, self.jobs)
    }
}

/// The tile-major rasterization pass over a finished workload — the
/// one-round instance of the resumable Stage 3 the frame driver runs
/// (behind [`rasterize`] too). Tiles run the 8-pixel lane-group AVX2
/// kernel (`crate::simd::stage3`) at [`SimdLevel::Avx2`] and the verbatim
/// scalar kernel at [`SimdLevel::Scalar`], both over the workload's
/// splats; a `level` above the host's detected capability is clamped
/// down, so a host without AVX2 runs the scalar kernel (sound, because
/// both levels agree bit for bit).
///
/// Each tile is an independent job over the list the workload holds for
/// it (Stage 2 wrote every list in depth order up front via its ordered
/// keys and counting scatter — there is no in-job sort), blending into its own
/// pixel planes with no locking. Jobs are fanned over `pool`; per-tile
/// statistics and processed counts are merged and the image is written
/// in tile order on the calling thread, so every output — image bytes, op
/// tallies, processed counts — is bit-identical for every worker count
/// and level, including the serial scalar pass. The jobs are staged
/// fresh for each call: this pass serves tests and replays, while served
/// frames keep theirs in the session's arena.
///
/// Afterwards the workload holds each tile's processed prefix. A workload
/// that already holds prefixes rasterizes them to the same image, counts
/// and statistics, because each tile saturates (or ends) exactly where its
/// prefix ends.
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
/// # Panics
/// Panics when a provided framebuffer's dimensions do not match the
/// workload.
pub fn rasterize_with_level(
    workload: &mut RasterWorkload,
    fb: Option<&mut Framebuffer>,
    pool: &WorkerPool,
    level: SimdLevel,
) -> RasterStats {
    let mut processed = std::mem::take(&mut workload.processed);
    let geometry = (workload.width(), workload.height(), workload.tile_size());
    let offsets = &workload.offsets;
    let mut stage3 = Stage3::new(geometry, offsets, Vec::new(), level);
    // The end of each tile's held list: its processed prefix when a pass
    // recorded one (the counts become slots in place), else its whole
    // list.
    let held: &[u32] = if processed.is_empty() {
        &offsets[1..]
    } else {
        for (p, &start) in processed.iter_mut().zip(offsets) {
            *p += start;
        }
        &processed
    };
    stage3.resume(
        workload.splats(),
        &workload.values,
        offsets,
        held,
        true,
        pool,
    );
    let (stats, _) = stage3.end_frame(fb, &mut processed);
    workload.set_processed(processed);
    stats
}

/// Resumes one tile over `entries`, the next splats of its depth-sorted
/// list of `len` splats, from the state in `pixels` and `tile`; stops when
/// every pixel has saturated.
// gaurast-check: hot-path
fn rasterize_tile(
    splats: &[Splat2D],
    entries: &[u32],
    len: u32,
    rect: (u32, u32, u32, u32),
    pixels: &mut TilePixels<'_>,
    tile: &mut TileProgress,
) {
    let (x0, y0, x1, y1) = rect;
    let w = (x1 - x0) as usize;
    let h = (y1 - y0) as usize;

    // Per-pixel accumulation state of the tile (this is the pixel data
    // held in GauRast's tile buffers), resumed from the previous round.
    let TilePixels {
        stride,
        red,
        grn,
        blu,
        trans: transmittance,
        ..
    } = pixels;
    let stride = *stride;
    let mut alive = tile.alive;
    let mut processed = tile.processed;
    let stats = &mut tile.stats;

    // Local op tallies; folded into stats once per call to keep the inner
    // loop lean.
    let (mut shift_add, mut det_add, mut det_mul, mut det_exp, mut det_cmp) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut wgt_mul, mut red_add, mut red_mul, mut red_cmp) = (0u64, 0u64, 0u64, 0u64);
    let mut pairs = 0u64;

    'list: for &si in entries {
        processed += 1;
        let s = &splats[si as usize];
        let (a, b, c) = (s.conic[0], s.conic[1], s.conic[2]);

        for py in 0..h {
            for px in 0..w {
                let i = py * stride + px;
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
                red[i] += contribution.x;
                grn[i] += contribution.y;
                blu[i] += contribution.z;
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
                        if processed < len {
                            stats.tiles_early_terminated += 1;
                        }
                        break 'list;
                    }
                }
            }
        }
    }
    tile.alive = alive;
    tile.processed = processed;

    let stats = &mut tile.stats;
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
