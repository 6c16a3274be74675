//! The enhanced rasterizer: top controller + tile buffers + PE block +
//! result collector, simulated cycle-accurately at tile granularity.
//!
//! The simulator follows the paper's evaluation methodology (§V-A): the
//! functional datapath was validated against the software reference
//! (bit-exact in FP32 — see `pe`), and frame-level runtime/power come from
//! this fast cycle model. Timing per instance is an exact event calculation
//! of the ping-pong schedule: while the PE block processes the tile staged
//! in buffer A, the memory interface fills buffer B with the next tile and
//! drains the previous tile's results; whichever takes longer bounds the
//! step.

use crate::config::RasterizerConfig;
use crate::dispatch::{assign_tiles, issued_pairs, processing_cycles};
use crate::pe::{GaussianPixel, Pe, PeActivity, TrianglePixel};
use crate::tile_buffer::{TileBufferModel, WORDS_PER_SPLAT, WORDS_PER_TRIANGLE};
use gaurast_math::Vec2;
use gaurast_render::triangle::TriangleWorkload;
use gaurast_render::{Framebuffer, RasterWorkload};

/// Which datapath a frame ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RasterMode {
    /// 3DGS splatting (the enhanced path).
    Gaussian,
    /// Classic triangle rasterization (the pre-existing path).
    Triangle,
}

/// Cycle-accurate result of simulating one frame.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameReport {
    /// Datapath mode.
    pub mode: RasterMode,
    /// Total cycles (maximum over instances — they run concurrently).
    pub cycles: u64,
    /// Wall-clock seconds at the configured clock.
    pub time_s: f64,
    /// (primitive, pixel) pairs issued to PEs.
    pub pairs: u64,
    /// PE utilization: issued pairs / (cycles × total PEs).
    pub utilization: f64,
    /// Cycles lost to the memory interface (load/writeback longer than
    /// compute), summed over instances.
    pub stall_cycles: u64,
    /// Per-instance completion cycles (load imbalance diagnostic).
    pub instance_cycles: Vec<u64>,
    /// Arithmetic-unit activations (power-model input).
    pub activity: PeActivity,
    /// Tile-buffer words moved (power-model input).
    pub buffer_traffic_words: u64,
}

impl FrameReport {
    /// Frames per second this rasterization rate alone would sustain.
    pub fn raster_fps(&self) -> f64 {
        1.0 / self.time_s
    }
}

/// One per-instance work item: a chunk of a tile's primitive list.
#[derive(Clone, Copy, Debug)]
struct WorkItem {
    load: u64,
    process: u64,
    writeback: u64,
}

/// The GauRast enhanced rasterizer.
#[derive(Clone, Debug)]
pub struct EnhancedRasterizer {
    config: RasterizerConfig,
    buffer: TileBufferModel,
}

impl EnhancedRasterizer {
    /// Rasterizer with the given configuration.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use
    /// [`RasterizerConfig::validate`] to check first.
    pub fn new(config: RasterizerConfig) -> Self {
        // gaurast-check: allow(panic): documented `# Panics` constructor
        // contract; every serving path validates the config first
        // (`RenderServiceBuilder::build` → `RasterizerConfig::validate`).
        config.validate().expect("invalid rasterizer configuration");
        Self {
            config,
            buffer: TileBufferModel::new(config.bus_words_per_cycle),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RasterizerConfig {
        &self.config
    }

    /// Simulates Gaussian-mode timing for a workload (no image). Each tile
    /// bills its processed prefix.
    pub fn simulate_gaussian(&self, workload: &RasterWorkload) -> FrameReport {
        let tiles = (workload.tiles_x(), workload.tiles_y());
        let mut report = self.run_timing(tiles, WORDS_PER_SPLAT, RasterMode::Gaussian, |tx, ty| {
            (
                workload.processed_count(tx, ty),
                workload.tile_pixels(tx, ty) as u32,
            )
        });
        report.activity = PeActivity::GAUSSIAN_PER_PAIR.scaled(report.pairs);
        report
    }

    /// Simulates triangle-mode timing for a workload (no image).
    pub fn simulate_triangles(&self, workload: &TriangleWorkload) -> FrameReport {
        let tiles = (workload.tiles_x(), workload.tiles_y());
        let mut report =
            self.run_timing(tiles, WORDS_PER_TRIANGLE, RasterMode::Triangle, |tx, ty| {
                (
                    workload.tile_list(tx, ty).len() as u32,
                    workload.tile_pixels(tx, ty) as u32,
                )
            });
        report.activity = PeActivity::TRIANGLE_PER_PAIR.scaled(report.pairs);
        // One divider activation per primitive dispatch: every binned
        // (triangle, tile) pair is dispatched once.
        report.activity.div += workload.total_pairs();
        report
    }

    /// Functionally renders a Gaussian workload through the PE datapath and
    /// returns the image with the timing report (the same report
    /// [`Self::simulate_gaussian`] gives). It has two roles:
    ///
    /// * the FP16 image path: at FP16 every intermediate rounds through
    ///   half precision, so this is the only source of that image;
    /// * the FP32 oracle: at FP32 the image is bit-exact with the software
    ///   reference, and tests compare the two. The engine's enhanced
    ///   backend does not call it at FP32: it serves the reference image,
    ///   which those tests prove equal.
    pub fn render_gaussian(&self, workload: &RasterWorkload) -> (Framebuffer, FrameReport) {
        let report = self.simulate_gaussian(workload);
        let mut fb = Framebuffer::new(workload.width(), workload.height());
        let mut pe = Pe::new(self.config.precision);
        let splats = workload.splats();
        // One pass over the CSR tile ranges: each tile's saturation-
        // truncated prefix of its sorted slice streams through the PE.
        for tile in workload.tiles() {
            let (x0, y0, x1, y1) = tile.rect;
            let w = (x1 - x0) as usize;
            let h = (y1 - y0) as usize;
            let mut px_state = vec![GaussianPixel::default(); w * h];
            for &si in &tile.list[..tile.processed as usize] {
                let s = &splats[si as usize];
                for py in 0..h {
                    for px in 0..w {
                        let p =
                            Vec2::new((x0 + px as u32) as f32 + 0.5, (y0 + py as u32) as f32 + 0.5);
                        pe.blend_gaussian(s, p, &mut px_state[py * w + px]);
                    }
                }
            }
            for py in 0..h {
                for px in 0..w {
                    let s = &px_state[py * w + px];
                    fb.set_color(x0 + px as u32, y0 + py as u32, s.color);
                    fb.set_transmittance(x0 + px as u32, y0 + py as u32, s.transmittance);
                }
            }
        }
        (fb, report)
    }

    /// Functionally renders a triangle workload through the PE datapath.
    /// In FP32 the image is bit-exact with the software reference.
    pub fn render_triangles(&self, workload: &TriangleWorkload) -> (Framebuffer, FrameReport) {
        let report = self.simulate_triangles(workload);
        let mut fb = Framebuffer::new(workload.width(), workload.height());
        let mut pe = Pe::new(self.config.precision);
        let tris = workload.triangles();
        for ty in 0..workload.tiles_y() {
            for tx in 0..workload.tiles_x() {
                let list = workload.tile_list(tx, ty);
                if list.is_empty() {
                    continue;
                }
                let (x0, y0, x1, y1) = workload.tile_rect(tx, ty);
                let w = (x1 - x0) as usize;
                let h = (y1 - y0) as usize;
                let mut px_state = vec![TrianglePixel::default(); w * h];
                for &tidx in list {
                    let tri = &tris[tidx as usize];
                    let inv_area = pe.reciprocal(tri.area2);
                    for py in 0..h {
                        for px in 0..w {
                            let p = Vec2::new(
                                (x0 + px as u32) as f32 + 0.5,
                                (y0 + py as u32) as f32 + 0.5,
                            );
                            pe.shade_triangle(tri, inv_area, p, &mut px_state[py * w + px]);
                        }
                    }
                }
                for py in 0..h {
                    for px in 0..w {
                        let s = &px_state[py * w + px];
                        if s.depth.is_finite() {
                            fb.set_color(x0 + px as u32, y0 + py as u32, s.color);
                            fb.set_depth(x0 + px as u32, y0 + py as u32, s.depth);
                        }
                    }
                }
            }
        }
        (fb, report)
    }

    /// The buffer-capacity chunks one tile streams through: `n`
    /// primitives of `words_each` words over a `pixels`-pixel tile.
    fn tile_chunks(
        &self,
        n: u32,
        words_each: u32,
        pixels: u32,
    ) -> impl Iterator<Item = WorkItem> + '_ {
        let cap = self.buffer.capacity_primitives;
        let passes = self.buffer.passes(n);
        (0..passes).map(move |pass| {
            let chunk = (n - pass * cap).min(cap);
            WorkItem {
                // Pixel state streams in once (first chunk) and out once
                // (last chunk).
                load: self.buffer.load_cycles(
                    chunk,
                    words_each,
                    if pass == 0 { pixels } else { 0 },
                ),
                process: processing_cycles(chunk, pixels, self.config.pes_per_module)
                    + u64::from(self.config.pipeline_latency),
                writeback: if pass + 1 == passes {
                    self.buffer.writeback_cycles(pixels)
                } else {
                    0
                },
            }
        })
    }

    /// Runs the ping-pong (or single-buffer) schedule over all instances
    /// of a `tiles_x × tiles_y` frame. `tile(tx, ty)` gives a tile's
    /// primitive count and pixel count; each instance streams the chunks
    /// of its round-robin tiles (linear order `ty * tiles_x + tx`) in
    /// order, looking one chunk ahead for the load the ping-pong step
    /// overlaps.
    fn run_timing(
        &self,
        (tiles_x, tiles_y): (u32, u32),
        words_each: u32,
        mode: RasterMode,
        tile: impl Fn(u32, u32) -> (u32, u32),
    ) -> FrameReport {
        let tile_count = tiles_x as usize * tiles_y as usize;
        let mut instance_cycles = Vec::with_capacity(self.config.modules as usize);
        let mut stall_cycles = 0u64;
        let mut pairs = 0u64;
        let mut traffic = 0u64;

        for queue in assign_tiles(tile_count, self.config.modules) {
            let mut items = queue
                .flat_map(|t| {
                    let (n, pixels) =
                        tile((t % tiles_x as usize) as u32, (t / tiles_x as usize) as u32);
                    pairs += issued_pairs(n, pixels);
                    self.tile_chunks(n, words_each, pixels)
                })
                .peekable();
            // Ping-pong: the first chunk's load is exposed, then each step
            // overlaps the next chunk's load and the previous chunk's
            // writeback with the current chunk's processing.
            let mut t = if self.config.ping_pong {
                items.peek().map_or(0, |first| first.load)
            } else {
                0
            };
            let mut moved = 0u64;
            let mut prev_wb = 0u64;
            while let Some(item) = items.next() {
                moved += item.load + item.writeback;
                if self.config.ping_pong {
                    let next_load = items.peek().map_or(0, |next| next.load);
                    let step = item.process.max(next_load + prev_wb);
                    stall_cycles += step - item.process;
                    t += step;
                    prev_wb = item.writeback;
                } else {
                    t += item.load + item.process + item.writeback;
                }
            }
            // The last chunk's writeback drains after its processing.
            t += prev_wb;
            traffic += moved * u64::from(self.config.bus_words_per_cycle);
            instance_cycles.push(t);
        }

        let cycles = instance_cycles.iter().copied().max().unwrap_or(0);
        let time_s = cycles as f64 / self.config.clock_hz;
        let capacity = cycles.saturating_mul(u64::from(self.config.total_pes()));
        let utilization = if capacity > 0 {
            pairs as f64 / capacity as f64
        } else {
            0.0
        };

        FrameReport {
            mode,
            cycles,
            time_s,
            pairs,
            utilization,
            stall_cycles,
            instance_cycles,
            activity: PeActivity::default(),
            buffer_traffic_words: traffic,
        }
    }
}

impl Default for EnhancedRasterizer {
    fn default() -> Self {
        Self::new(RasterizerConfig::prototype())
    }
}

/// Cycles to switch the PE datapath mode: drain the pipelines, flip the
/// input muxes, reload mode state. One switch per mode change per frame.
pub const MODE_SWITCH_CYCLES: u64 = 64;

/// Result of a mixed triangle + Gaussian frame (an AR-style overlay frame:
/// mesh UI plus splat environment on the same hardware).
#[derive(Clone, Debug, PartialEq)]
pub struct MixedFrameReport {
    /// The triangle pass.
    pub triangle: FrameReport,
    /// The Gaussian pass.
    pub gaussian: FrameReport,
    /// Mode-switch overhead cycles charged between the passes.
    pub switch_cycles: u64,
}

impl MixedFrameReport {
    /// Total frame cycles (passes are serialized on the shared hardware).
    pub fn total_cycles(&self) -> u64 {
        self.triangle.cycles + self.gaussian.cycles + self.switch_cycles
    }

    /// Total frame time at the triangle pass's clock.
    pub fn total_time_s(&self, clock_hz: f64) -> f64 {
        self.total_cycles() as f64 / clock_hz
    }

    /// Fraction of the frame spent in Gaussian mode.
    pub fn gaussian_fraction(&self) -> f64 {
        self.gaussian.cycles as f64 / self.total_cycles() as f64
    }
}

impl EnhancedRasterizer {
    /// Simulates a mixed frame: the triangle pass, a mode switch, then the
    /// Gaussian pass — the dual-mode usage the paper's design preserves
    /// (§IV-A: "seamless switching between traditional triangle rendering
    /// and Gaussian rasterization").
    pub fn simulate_mixed(
        &self,
        triangles: &TriangleWorkload,
        gaussians: &RasterWorkload,
    ) -> MixedFrameReport {
        MixedFrameReport {
            triangle: self.simulate_triangles(triangles),
            gaussian: self.simulate_gaussian(gaussians),
            switch_cycles: MODE_SWITCH_CYCLES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Precision;
    use gaurast_math::Vec3;
    use gaurast_render::pipeline::{render, RenderConfig};
    use gaurast_render::triangle::{project_mesh, render_mesh};
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::{Camera, TriangleMesh};

    fn camera(w: u32, h: u32) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            w,
            h,
            1.05,
        )
        .unwrap()
    }

    fn gaussian_workload(n: usize, w: u32, h: u32) -> (RasterWorkload, Framebuffer) {
        let scene = SceneParams::new(n).seed(21).generate().unwrap();
        let out = render(&scene, &camera(w, h), &RenderConfig::default());
        (out.workload, out.image)
    }

    #[test]
    fn gaussian_image_bit_exact_with_reference() {
        let (workload, reference) = gaussian_workload(800, 96, 64);
        let hw = EnhancedRasterizer::new(RasterizerConfig::prototype());
        let (image, report) = hw.render_gaussian(&workload);
        assert_eq!(
            image.mean_abs_diff(&reference),
            0.0,
            "FP32 must match bit-for-bit"
        );
        assert_eq!(image.psnr(&reference), f32::INFINITY);
        assert!(report.cycles > 0);
    }

    #[test]
    fn fp16_image_close_to_reference() {
        let (workload, reference) = gaussian_workload(400, 64, 64);
        let hw = EnhancedRasterizer::new(RasterizerConfig {
            precision: Precision::Fp16,
            ..RasterizerConfig::prototype()
        });
        let (image, _) = hw.render_gaussian(&workload);
        let psnr = image.psnr(&reference);
        assert!(psnr > 35.0, "fp16 PSNR {psnr}");
        assert!(psnr < f32::INFINITY, "fp16 must not be bit-exact");
    }

    #[test]
    fn triangle_image_bit_exact_with_reference() {
        let cam = camera(128, 128);
        let mesh = TriangleMesh::cube(Vec3::zero(), 8.0);
        let (reference, _) = render_mesh(&mesh, &cam);
        let tris = project_mesh(&mesh, &cam);
        let workload = TriangleWorkload::bin(tris, 128, 128, 16);
        let hw = EnhancedRasterizer::default();
        let (image, report) = hw.render_triangles(&workload);
        assert_eq!(image.mean_abs_diff(&reference), 0.0);
        assert_eq!(report.mode, RasterMode::Triangle);
        assert!(report.activity.div > 0, "triangles must use the divider");
        assert_eq!(
            report.activity.exp, 0,
            "triangles must not use the exp unit"
        );
    }

    #[test]
    fn gaussian_mode_never_uses_divider() {
        let (workload, _) = gaussian_workload(300, 64, 64);
        let report = EnhancedRasterizer::default().simulate_gaussian(&workload);
        assert_eq!(report.activity.div, 0);
        assert!(report.activity.exp > 0);
    }

    #[test]
    fn more_pes_make_it_faster() {
        let (workload, _) = gaussian_workload(1500, 128, 96);
        let t16 = EnhancedRasterizer::new(RasterizerConfig::prototype())
            .simulate_gaussian(&workload)
            .time_s;
        let t300 = EnhancedRasterizer::new(RasterizerConfig::scaled())
            .simulate_gaussian(&workload)
            .time_s;
        assert!(t300 < t16, "300 PEs must beat 16 ({t300} vs {t16})");
        // Not perfectly linear (load imbalance, memory), but substantial.
        assert!(t16 / t300 > 4.0, "speedup {}", t16 / t300);
    }

    #[test]
    fn ping_pong_beats_single_buffer() {
        let (workload, _) = gaussian_workload(1500, 128, 96);
        let pp =
            EnhancedRasterizer::new(RasterizerConfig::prototype()).simulate_gaussian(&workload);
        let single = EnhancedRasterizer::new(RasterizerConfig {
            ping_pong: false,
            ..RasterizerConfig::prototype()
        })
        .simulate_gaussian(&workload);
        assert!(pp.cycles < single.cycles);
        assert_eq!(pp.pairs, single.pairs);
    }

    #[test]
    fn utilization_in_unit_range_and_reasonable() {
        let (workload, _) = gaurast_workload_big();
        let report =
            EnhancedRasterizer::new(RasterizerConfig::scaled()).simulate_gaussian(&workload);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
        assert_eq!(report.instance_cycles.len(), 15);
    }

    fn gaurast_workload_big() -> (RasterWorkload, Framebuffer) {
        gaussian_workload(3000, 192, 128)
    }

    #[test]
    fn empty_workload_costs_only_housekeeping() {
        let workload = gaurast_render::tile::bin_splats(vec![], 64, 64, 16);
        let report = EnhancedRasterizer::default().simulate_gaussian(&workload);
        assert_eq!(report.pairs, 0);
        assert!(report.cycles > 0, "pixel clear/writeback still cost cycles");
    }

    #[test]
    fn time_matches_cycles_and_clock() {
        let (workload, _) = gaussian_workload(200, 64, 64);
        let report = EnhancedRasterizer::default().simulate_gaussian(&workload);
        assert!((report.time_s - report.cycles as f64 / 1e9).abs() < 1e-15);
        assert!((report.raster_fps() - 1.0 / report.time_s).abs() < 1e-9);
    }

    #[test]
    fn mixed_frame_serializes_passes() {
        let cam = camera(64, 64);
        let mesh = TriangleMesh::cube(Vec3::zero(), 8.0);
        let tris = project_mesh(&mesh, &cam);
        let tri_w = TriangleWorkload::bin(tris, 64, 64, 16);
        let (gauss_w, _) = gaussian_workload(300, 64, 64);
        let hw = EnhancedRasterizer::default();
        let mixed = hw.simulate_mixed(&tri_w, &gauss_w);
        assert_eq!(
            mixed.total_cycles(),
            mixed.triangle.cycles + mixed.gaussian.cycles + MODE_SWITCH_CYCLES
        );
        assert!(mixed.gaussian_fraction() > 0.0 && mixed.gaussian_fraction() < 1.0);
        assert!(mixed.total_time_s(1e9) > 0.0);
    }

    #[test]
    fn hw_transmittance_matches_software() {
        let (workload, reference) = gaussian_workload(400, 64, 64);
        let hw = EnhancedRasterizer::default();
        let (image, _) = hw.render_gaussian(&workload);
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(
                    image.transmittance_at(x, y),
                    reference.transmittance_at(x, y),
                    "T bits differ at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn activity_profile_consistency() {
        // The timing path's activity (profile × pairs) must equal what the
        // functional path accumulates, pair for pair.
        let (workload, _) = gaussian_workload(200, 64, 64);
        let hw = EnhancedRasterizer::default();
        let report = hw.simulate_gaussian(&workload);
        let mut pe = Pe::new(Precision::Fp32);
        let splats = workload.splats();
        for ty in 0..workload.tiles_y() {
            for tx in 0..workload.tiles_x() {
                let list = workload.tile_list(tx, ty);
                let n = workload.processed_count(tx, ty) as usize;
                let (x0, y0, x1, y1) = workload.tile_rect(tx, ty);
                for &si in &list[..n] {
                    for py in y0..y1 {
                        for px in x0..x1 {
                            let mut st = GaussianPixel::default();
                            pe.blend_gaussian(
                                &splats[si as usize],
                                Vec2::new(px as f32 + 0.5, py as f32 + 0.5),
                                &mut st,
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(pe.activity(), report.activity);
    }
}
