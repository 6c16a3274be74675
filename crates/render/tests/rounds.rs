//! Equivalence suite of the saturation-aware Stage 2: the frame driver's
//! fused rounds (scatter a growing range of depth-order chunks, skipping
//! saturated tiles, then resume Stage 3 on the tiles still waiting) must
//! leave exactly what the two-call path leaves — `bin_splats_chunked`
//! scattering every pair, then one `rasterize_with_level` pass. Workload
//! (offsets and every tile's held prefix), processed counts, `RasterStats`
//! and image must agree at widths 1–4, at both SIMD levels, imaged and
//! record-only, at chunk sizes 1, 7 and `BIN_CHUNK`, on arenas that carry
//! stale slots from earlier frames. Random splats are tie-heavy and mix
//! opaque flat splats (which saturate tiles within a few entries) with
//! faint ones; directed cases pin the round boundaries.

use gaurast_math::{Vec2, Vec3};
use gaurast_render::pipeline::{bin_and_rasterize_chunked, run_frame, Stage1Input};
use gaurast_render::preprocess::preprocess_pooled_level;
use gaurast_render::rasterize::{rasterize_with_level, RasterStats};
use gaurast_render::tile::{bin_splats_chunked, bin_splats_pooled, BIN_CHUNK};
use gaurast_render::{
    FrameArena, Framebuffer, RasterWorkload, SimdLevel, Splat2D, WorkerPool, DEFAULT_TILE_SIZE,
};
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;

/// Everything a frame's Stages 2–3 produce.
type Frame = (RasterWorkload, RasterStats, Option<Framebuffer>);

/// Asserts two frames agree: workload (which compares offsets and held
/// prefixes), processed counts, statistics and image.
fn assert_same(got: &Frame, want: &Frame, what: &str) {
    assert_eq!(got.0, want.0, "{what}: workload");
    let counts = |w: &RasterWorkload| w.tiles().map(|t| t.processed).collect::<Vec<_>>();
    assert_eq!(counts(&got.0), counts(&want.0), "{what}: processed");
    assert_eq!(got.0.total_pairs(), want.0.total_pairs(), "{what}: pairs");
    assert_eq!(got.1, want.1, "{what}: stats");
    assert_eq!(got.2, want.2, "{what}: image");
}

/// Runs `splats` through the fused rounds and through the two-call path
/// in every configuration, asserting each pair equal and every
/// configuration equal to the serial scalar imaged frame, which it
/// returns. Each width keeps one arena per path and recycles every
/// workload into it, so later frames run over stale slots.
fn check_rounds(splats: &[Splat2D], width: u32, height: u32, tile_size: u32) -> Frame {
    let mut reference: Option<Frame> = None;
    for workers in 1..=4 {
        let pool = WorkerPool::new(workers);
        let (mut fused_arena, mut two_arena) = (FrameArena::new(), FrameArena::new());
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            for imaged in [true, false] {
                for chunk in [1, 7, BIN_CHUNK] {
                    let what =
                        format!("width {workers}, {level:?}, imaged {imaged}, chunk {chunk}");
                    let mut image = imaged.then(|| Framebuffer::new(width, height));
                    let (workload, stats) = bin_and_rasterize_chunked(
                        splats.to_vec(),
                        (width, height, tile_size),
                        level,
                        &pool,
                        &mut fused_arena,
                        image.as_mut(),
                        chunk,
                        || {},
                    );
                    let fused = (workload, stats, image);

                    let mut workload = bin_splats_chunked(
                        splats.to_vec(),
                        width,
                        height,
                        tile_size,
                        &mut two_arena,
                        &pool,
                        chunk,
                    );
                    let mut image = imaged.then(|| Framebuffer::new(width, height));
                    let stats = rasterize_with_level(&mut workload, image.as_mut(), &pool, level);
                    let two_call = (workload, stats, image);

                    assert_same(&fused, &two_call, &what);
                    match &reference {
                        None => reference = Some(fused.clone()),
                        Some(r) => {
                            assert_eq!(fused.0, r.0, "{what}: workload vs serial scalar");
                            assert_eq!(fused.1, r.1, "{what}: stats vs serial scalar");
                            if imaged {
                                assert_eq!(fused.2, r.2, "{what}: image vs serial scalar");
                            }
                        }
                    }
                    fused.0.recycle_into(&mut fused_arena);
                    two_call.0.recycle_into(&mut two_arena);
                }
            }
        }
    }
    reference.expect("at least one configuration ran")
}

/// A splat at `(x, y)` with `radius` and `depth`; `flat` makes its
/// density 1 over the whole box, so at opacity ≥ 0.99 three of them
/// saturate every pixel they cover.
fn splat(x: f32, y: f32, radius: f32, depth: f32, opacity: f32, flat: bool) -> Splat2D {
    let k = if flat { 1.0e-6 } else { 0.08 };
    Splat2D {
        mean: Vec2::new(x, y),
        conic: [k, 0.0, k],
        depth,
        color: Vec3::new(0.9, 0.4, 0.2),
        opacity,
        radius,
        source: 0,
    }
}

/// Tie-heavy splats: at most 6 distinct depths, quantized radii that put
/// boxes on tile boundaries, means on and off the 48×40 image, and a mix
/// of opaque flat splats and faint peaked ones.
fn splat_strategy() -> impl Strategy<Value = Splat2D> {
    (
        -12.0f32..60.0,
        -12.0f32..52.0,
        0u32..48,
        0u32..6,
        0u32..4,
        any::<bool>(),
    )
        .prop_map(|(x, y, r2, d, o, flat)| {
            let opacity = [0.02, 0.3, 0.8, 0.99][o as usize];
            splat(x, y, r2 as f32 * 0.5, 1.0 + d as f32 * 0.5, opacity, flat)
        })
}

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -6.0f32..6.0,
        -4.0f32..4.0,
        -6.0f32..6.0,
        0.05f32..1.5,
        0.05f32..0.99,
    )
        .prop_map(|(x, y, z, sigma, opacity)| {
            Gaussian3::isotropic(Vec3::new(x, y, z), sigma, opacity, Vec3::new(0.2, 0.7, 0.5))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random tie-heavy splats on a ragged 48×40 grid of 16-pixel tiles.
    #[test]
    fn fused_rounds_equal_the_two_call_path(
        mut splats in prop::collection::vec(splat_strategy(), 0..90),
    ) {
        for (i, s) in splats.iter_mut().enumerate() {
            s.source = i as u32;
        }
        check_rounds(&splats, 48, 40, 16);
    }

    /// The same on 8-pixel tiles of a 30×22 image: more, partial tiles.
    #[test]
    fn fused_rounds_equal_the_two_call_path_on_small_tiles(
        splats in prop::collection::vec(splat_strategy(), 1..60),
    ) {
        check_rounds(&splats, 30, 22, 8);
    }

    /// Whole frames: `run_frame` equals Stage 1 followed by
    /// `bin_splats_pooled` and `rasterize_with_level`, at every width and
    /// level, imaged and record-only.
    #[test]
    fn run_frame_equals_the_two_call_path(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..200),
        theta in 0.0f32..std::f32::consts::TAU,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("valid scene");
        let camera = Camera::look_at(
            Vec3::new(14.0 * theta.sin(), 3.0, -14.0 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            72,
            56,
            1.05,
        )
        .expect("valid camera");
        for workers in 1..=4 {
            let pool = WorkerPool::new(workers);
            let mut arena = FrameArena::new();
            for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
                for imaged in [true, false] {
                    let what = format!("width {workers}, {level:?}, imaged {imaged}");
                    let mut image = imaged.then(|| Framebuffer::new(72, 56));
                    let out = run_frame(
                        Stage1Input::Raw(&scene),
                        &camera,
                        DEFAULT_TILE_SIZE,
                        level,
                        &pool,
                        &mut arena,
                        image.as_mut(),
                        |_| {},
                    );
                    let served = (out.workload, out.raster, image);

                    let splats = preprocess_pooled_level(&scene, &camera, &pool, level).splats;
                    let mut workload = bin_splats_pooled(
                        splats,
                        72,
                        56,
                        DEFAULT_TILE_SIZE,
                        &mut FrameArena::new(),
                        &pool,
                    );
                    let mut image = imaged.then(|| Framebuffer::new(72, 56));
                    let stats = rasterize_with_level(&mut workload, image.as_mut(), &pool, level);
                    assert_same(&served, &(workload, stats, image), &what);
                    served.0.recycle_into(&mut arena);
                }
            }
        }
    }
}

/// Faint splats never saturate a tile, so every round runs and every
/// list is read to its end.
#[test]
fn no_tile_saturates_so_every_round_runs() {
    let splats: Vec<Splat2D> = (0..40)
        .map(|i| {
            splat(
                (i * 7 % 48) as f32,
                (i * 11 % 40) as f32,
                20.0,
                1.0 + (i % 3) as f32,
                0.02,
                false,
            )
        })
        .collect();
    let (w, stats, _) = check_rounds(&splats, 48, 40, 16);
    assert_eq!(stats.tiles_early_terminated, 0);
    assert!(w.total_pairs() > 40, "boxes must span several tiles");
    for t in w.tiles() {
        let len = w.offsets()[t.index + 1] - w.offsets()[t.index];
        assert_eq!(
            t.processed, len,
            "tile {} must read its whole list",
            t.index
        );
    }
}

/// Three opaque flat splats in front of everything cover the whole image,
/// so every tile saturates within the first seven splats of the depth
/// order (round 0 at chunk size 7) and no later entry is read.
#[test]
fn every_tile_saturates_in_round_zero() {
    let mut splats: Vec<Splat2D> = (0..3)
        .map(|i| splat(24.0, 20.0, 60.0, 0.1 + i as f32 * 0.01, 0.99, true))
        .collect();
    splats.extend((0..30).map(|i| {
        splat(
            (i * 5 % 48) as f32,
            (i * 3 % 40) as f32,
            12.0,
            2.0 + i as f32,
            0.8,
            false,
        )
    }));
    let (w, stats, _) = check_rounds(&splats, 48, 40, 16);
    assert_eq!(stats.tiles_early_terminated, w.tile_count() as u64);
    for t in w.tiles() {
        assert_eq!(
            t.processed, 3,
            "tile {} saturates on its third splat",
            t.index
        );
        assert_eq!(t.list, &[0, 1, 2]);
    }
}

/// At chunk size 1 the rounds cover depth positions {0}, {1, 2},
/// {3 … 6}, …: a tile whose third opaque splat sits at position 2
/// saturates on the last splat of round 1.
#[test]
fn a_tile_saturates_on_the_last_splat_of_a_round() {
    let mut splats: Vec<Splat2D> = (0..3)
        .map(|i| splat(8.0, 8.0, 7.0, 1.0 + i as f32, 0.99, true))
        .collect();
    // Later entries of the same tile, and a neighbour that keeps the
    // rounds going.
    splats.extend((0..12).map(|i| splat(8.0, 8.0, 7.0, 10.0 + i as f32, 0.5, false)));
    splats.extend((0..12).map(|i| splat(40.0, 8.0, 7.0, 10.5 + i as f32, 0.02, false)));
    let (w, _, _) = check_rounds(&splats, 48, 16, 16);
    assert_eq!(w.processed_count(0, 0), 3);
    assert_eq!(w.tile_list(0, 0), &[0, 1, 2]);
    assert_eq!(
        w.processed_count(2, 0),
        12,
        "the faint tile reads its whole list"
    );
}

/// A tile whose list ends exactly at a round boundary (depth position 2,
/// the end of round 1 at chunk size 1) without saturating, while its
/// neighbour's list runs on for several more rounds.
#[test]
fn a_tile_list_ends_at_a_round_boundary() {
    let mut splats: Vec<Splat2D> = (0..3)
        .map(|i| splat(8.0, 8.0, 7.0, 1.0 + i as f32, 0.3, false))
        .collect();
    splats.extend((0..20).map(|i| splat(24.0, 8.0, 7.0, 0.5 + i as f32, 0.3, false)));
    let (w, _, _) = check_rounds(&splats, 48, 16, 16);
    assert_eq!(w.tile_list(0, 0), &[0, 1, 2]);
    assert_eq!(w.processed_count(0, 0), 3);
    assert_eq!(w.processed_count(1, 0), 20);
}

/// No splat at all, and splats that all miss the image: no pair, no
/// round with work, a black image with transmittance 1.
#[test]
fn empty_frames_render_empty() {
    for splats in [
        Vec::new(),
        vec![
            splat(-40.0, -40.0, 3.0, 1.0, 0.9, false),
            splat(200.0, 8.0, 3.0, 1.0, 0.9, true),
        ],
    ] {
        let (w, stats, image) = check_rounds(&splats, 48, 40, 16);
        assert_eq!(w.total_pairs(), 0);
        assert_eq!(stats, RasterStats::default());
        let image = image.expect("the reference frame is imaged");
        assert_eq!(image.coverage(), 0.0);
        assert_eq!(image, Framebuffer::new(48, 40));
    }
}

/// Deterministic splats over a `width × height` image, varied by `seed`:
/// tie-heavy depths, means on and off the image, and a mix of opaque flat
/// splats and faint peaked ones, so some tiles saturate and some read
/// their whole list.
fn grid_splats(width: u32, height: u32, seed: u32) -> Vec<Splat2D> {
    (0..60u32)
        .map(|i| {
            let x = ((i * 37 + seed * 11) % (width + 16)) as f32 - 8.0;
            let y = ((i * 23 + seed * 5) % (height + 16)) as f32 - 8.0;
            let opacity = [0.02, 0.3, 0.8, 0.99][(i % 4) as usize];
            let radius = 2.0 + (i * 13 % 20) as f32;
            Splat2D {
                source: i,
                ..splat(
                    x,
                    y,
                    radius,
                    1.0 + (i % 6) as f32 * 0.5,
                    opacity,
                    i % 3 == 0,
                )
            }
        })
        .collect()
}

/// One arena carried through frames of larger, smaller and ragged grids
/// must leave every frame exactly what a fresh arena leaves: Stage 3's
/// jobs are restaged in place, so a smaller grid must drop the surplus
/// jobs of a larger one and a larger grid must size every job's pixel
/// planes anew. Each frame images into a dirty caller framebuffer, which
/// must come out equal to a fresh one.
#[test]
fn one_arena_serves_every_grid() {
    let grids = [
        (80, 64, 16),
        (30, 22, 8),
        (72, 56, 16),
        (17, 9, 16),
        (80, 64, 16),
    ];
    let pool = WorkerPool::new(2);
    for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
        let mut arena = FrameArena::new();
        for (frame, (width, height, tile_size)) in (0u32..).zip(grids) {
            let what =
                format!("{level:?}, frame {frame}: {width}x{height} on {tile_size}-pixel tiles");
            let splats = grid_splats(width, height, frame);
            let render = |arena: &mut FrameArena, image: &mut Framebuffer| {
                bin_and_rasterize_chunked(
                    splats.clone(),
                    (width, height, tile_size),
                    level,
                    &pool,
                    arena,
                    Some(image),
                    7,
                    || {},
                )
            };
            let mut dirty = Framebuffer::new(width, height);
            for y in 0..height {
                for x in 0..width {
                    dirty.set_color(x, y, Vec3::new(0.3, 0.6, 0.9));
                    dirty.set_transmittance(x, y, 0.25);
                    dirty.set_depth(x, y, 2.0);
                }
            }
            let (workload, stats) = render(&mut arena, &mut dirty);
            let carried = (workload, stats, Some(dirty));
            let mut image = Framebuffer::new(width, height);
            let (workload, stats) = render(&mut FrameArena::new(), &mut image);
            assert!(stats.blends_committed > 0, "{what}: the frame must blend");
            assert_same(&carried, &(workload, stats, Some(image)), &what);
            carried.0.recycle_into(&mut arena);
        }
    }
}
