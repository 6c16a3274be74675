//! Stage-2 suite: the splat pass, the rounds' depth ordering and the
//! counting scatter of `gaurast_render::tile` must equal a test-local
//! oracle — emit one
//! `(tile, depth_key_bits, index)` pair per covered tile in splat order,
//! stably sort the pairs by `(tile, depth bits)`, and rebuild the CSR
//! table — for random scenes, cameras, tie-heavy depth distributions,
//! boundary-exact tile boxes, off-image means, ragged grids whose edge
//! tiles are partial, every worker count 1–8 and every chunk size.

use gaurast_math::{Vec2, Vec3};
use gaurast_render::pipeline::{bin_and_rasterize_chunked, render, RenderConfig};
use gaurast_render::sort::{depth_key_bits, is_depth_sorted};
use gaurast_render::tile::{bin_splats_chunked, bin_splats_pooled, tile_range, BIN_CHUNK};
use gaurast_render::{FrameArena, RasterWorkload, SimdLevel, Splat2D, WorkerPool};
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;

/// The oracle's CSR table `(values, offsets)` for `splats`.
fn oracle(splats: &[Splat2D], width: u32, height: u32, tile_size: u32) -> (Vec<u32>, Vec<u32>) {
    let tiles_x = width.div_ceil(tile_size);
    let tiles = (tiles_x * height.div_ceil(tile_size)) as usize;
    // 1. One (tile, depth bits, index) pair per covered tile, splat order.
    let mut pairs = Vec::new();
    for (i, s) in splats.iter().enumerate() {
        if let Some((x0, y0, x1, y1)) = tile_range(s, width, height, tile_size) {
            for ty in y0..=y1 {
                for tx in x0..=x1 {
                    pairs.push((ty * tiles_x + tx, depth_key_bits(s.depth), i as u32));
                }
            }
        }
    }
    // 2. Stable sort by (tile, depth bits): ties keep splat order.
    pairs.sort_by_key(|&(tile, depth, _)| (tile, depth));
    // 3. The CSR table.
    let mut offsets = vec![0u32; tiles + 1];
    for &(tile, _, _) in &pairs {
        offsets[tile as usize + 1] += 1;
    }
    for t in 0..tiles {
        offsets[t + 1] += offsets[t];
    }
    (pairs.iter().map(|&(_, _, i)| i).collect(), offsets)
}

/// Asserts `w`'s CSR table equals the oracle's for its own splats: the
/// same offsets (so every full list length), and each tile's held prefix
/// equal to the oracle's list cut at the tile's processed count (the whole
/// list when nothing was rasterized).
fn assert_matches_oracle(w: &RasterWorkload, what: &str) {
    let (values, offsets) = oracle(w.splats(), w.width(), w.height(), w.tile_size());
    assert_eq!(w.offsets(), offsets.as_slice(), "{what}: offsets");
    for t in w.tiles() {
        let list = &values[offsets[t.index] as usize..offsets[t.index + 1] as usize];
        assert_eq!(
            t.list,
            &list[..t.processed as usize],
            "{what}: tile {}",
            t.index
        );
    }
}

/// Random splats with deliberately nasty Stage-2 shapes: quantized depths
/// (many exact ties), radii that can land the 3σ box exactly on tile
/// boundaries, and means both on and off the image.
fn splat_strategy() -> impl Strategy<Value = Splat2D> {
    (
        -20.0f32..84.0,
        -20.0f32..84.0,
        // Quantized radii: integer and half-integer values produce
        // boundary-exact boxes (e.g. mean 8, radius 8 → box [0, 16]).
        0u32..32,
        // Quantized depths: at most 8 distinct values over dozens of
        // splats → guaranteed equal-depth runs per tile.
        0u32..8,
    )
        .prop_map(|(x, y, r2, d)| Splat2D {
            mean: Vec2::new(x, y),
            conic: [0.05, 0.0, 0.05],
            depth: 0.5 + d as f32 * 0.25,
            color: Vec3::new(0.8, 0.4, 0.2),
            opacity: 0.7,
            radius: r2 as f32 * 0.5,
            source: 0,
        })
}

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -8.0f32..8.0,
        -8.0f32..8.0,
        -8.0f32..8.0,
        0.02f32..1.2,
        0.05f32..0.99,
        0.0f32..1.0,
    )
        .prop_map(|(x, y, z, sigma, opacity, hue)| {
            Gaussian3::isotropic(
                Vec3::new(x, y, z),
                sigma,
                opacity,
                Vec3::new(hue, 1.0 - hue, 0.5),
            )
        })
}

fn camera_strategy() -> impl Strategy<Value = Camera> {
    (0.0f32..std::f32::consts::TAU, 2.0f32..10.0, -4.0f32..6.0).prop_map(|(theta, dist, height)| {
        Camera::look_at(
            Vec3::new(dist * 2.5 * theta.sin(), height, -dist * 2.5 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            80,
            1.05,
        )
        .expect("valid orbit camera")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full pipeline at widths 1–8: every width renders the serial frame
    /// bit for bit — image, workload (splats + CSR + processed) and every
    /// statistic — and its workload equals the oracle.
    #[test]
    fn full_pipeline_equals_oracle_at_every_width(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..300),
        camera in camera_strategy(),
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("non-empty scene");
        let serial = render(&scene, &camera, &RenderConfig::default().with_workers(1));
        assert_matches_oracle(&serial.workload, "serial frame");
        for workers in 2..=8 {
            let out = render(&scene, &camera, &RenderConfig::default().with_workers(workers));
            prop_assert_eq!(&out.image, &serial.image, "image planes must be bit-identical");
            prop_assert_eq!(&out.workload, &serial.workload, "workloads must be bit-identical");
            prop_assert_eq!(out.preprocess, serial.preprocess);
            prop_assert_eq!(out.raster, serial.raster);
        }
    }

    /// Raw-splat binning, including equal-depth ties, boundary-exact boxes
    /// and off-image means, at chunk sizes 1, 3 and the production size
    /// and widths 1–8, on a whole 64×64 grid and a ragged 70×53 one at
    /// tile sizes 8 and 16: the CSR table must equal the oracle entry for
    /// entry.
    #[test]
    fn binning_equals_oracle_on_adversarial_splats(
        mut splats in prop::collection::vec(splat_strategy(), 0..120),
    ) {
        for (i, s) in splats.iter_mut().enumerate() {
            s.source = i as u32;
        }
        for workers in 1..=8 {
            let pool = WorkerPool::new(workers);
            for chunk in [1, 3, BIN_CHUNK] {
                for (width, height, tile_size) in [(64, 64, 16), (70, 53, 8), (70, 53, 16)] {
                    let w = bin_splats_chunked(
                        splats.clone(), width, height, tile_size, &mut FrameArena::new(), &pool,
                        chunk,
                    );
                    assert_matches_oracle(
                        &w,
                        &format!("width {workers}, chunk {chunk}, {width}x{height}/{tile_size}"),
                    );
                    // Equal-depth runs keep submission order: within a
                    // tile, ties are ordered by ascending splat index.
                    let s = w.splats();
                    for tile in w.tiles() {
                        prop_assert!(is_depth_sorted(tile.list, s));
                        for pair in tile.list.windows(2) {
                            if s[pair[0] as usize].depth == s[pair[1] as usize].depth {
                                prop_assert!(pair[0] < pair[1], "tie broke submission order");
                            }
                        }
                    }
                }
            }
        }
    }

    /// CSR structural invariants on arbitrary binned input.
    #[test]
    fn csr_offsets_are_a_monotone_cover(
        splats in prop::collection::vec(splat_strategy(), 0..100),
    ) {
        let w = bin_splats_pooled(splats, 96, 48, 16, &mut FrameArena::new(), &WorkerPool::serial());
        let offsets = w.offsets();
        prop_assert_eq!(offsets.len(), w.tile_count() + 1);
        prop_assert_eq!(offsets[0], 0);
        prop_assert_eq!(u64::from(*offsets.last().unwrap()), w.total_pairs());
        prop_assert!(offsets.windows(2).all(|x| x[0] <= x[1]));
        // Before a reference pass every tile holds its whole list, and
        // the per-tile slices add up to every pair.
        let mut reassembled = Vec::new();
        for t in w.tiles() {
            prop_assert_eq!(t.list, w.tile_list(t.tx, t.ty));
            prop_assert_eq!(t.list.len(), (offsets[t.index + 1] - offsets[t.index]) as usize);
            reassembled.extend_from_slice(t.list);
        }
        prop_assert_eq!(reassembled.len() as u64, w.total_pairs());
    }

    /// The ordered-u32 depth mapping is exactly total_cmp order — over
    /// arbitrary bit patterns, so NaNs, infinities, subnormals and both
    /// zeros are all drawn.
    #[test]
    fn depth_key_bits_matches_total_cmp(a_bits in any::<u32>(), b_bits in any::<u32>()) {
        let (a, b) = (f32::from_bits(a_bits), f32::from_bits(b_bits));
        prop_assert_eq!(
            depth_key_bits(a).cmp(&depth_key_bits(b)),
            a.total_cmp(&b),
            "{} vs {}", a, b
        );
    }
}

/// Inputs spanning several production-size chunks (10,000 splats → 3
/// chunks of [`BIN_CHUNK`]) equal the oracle at chunk sizes 1, 3 and
/// [`BIN_CHUNK`] and widths 1–8, both as the two-call path's whole lists
/// and as the frame driver's record-only rounds, whose held prefixes are
/// the oracle's lists cut at each tile's processed count. At
/// [`BIN_CHUNK`] some tile reads past the first chunk of the depth order,
/// so the rounds' selections and later sorts meet the oracle too.
#[test]
fn multi_chunk_inputs_equal_oracle_at_every_chunk_size() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |modulus: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % modulus) as f32
    };
    let splats: Vec<Splat2D> = (0..10_000)
        .map(|i| Splat2D {
            mean: Vec2::new(next(300) - 20.0, next(230) - 20.0),
            conic: [0.05, 0.0, 0.05],
            // 16 distinct depths: long tie runs across chunk boundaries.
            depth: 1.0 + next(16) * 0.5,
            color: Vec3::one(),
            opacity: 0.6,
            radius: next(40) * 0.5,
            source: i,
        })
        .collect();
    let (values, offsets) = oracle(&splats, 256, 192, 16);
    // The splats of the first production chunk of the depth order.
    let mut keys: Vec<u64> = (0u64..)
        .zip(&splats)
        .map(|(i, s)| u64::from(depth_key_bits(s.depth)) << 32 | i)
        .collect();
    keys.sort_unstable();
    let mut in_first_chunk = vec![false; splats.len()];
    for &key in &keys[..BIN_CHUNK] {
        in_first_chunk[key as u32 as usize] = true;
    }
    for workers in 1..=8 {
        let pool = WorkerPool::new(workers);
        for chunk in [1, 3, BIN_CHUNK] {
            let what = format!("width {workers}, chunk {chunk}");
            let w = bin_splats_chunked(
                splats.clone(),
                256,
                192,
                16,
                &mut FrameArena::new(),
                &pool,
                chunk,
            );
            assert_eq!(w.offsets(), offsets.as_slice(), "{what}");
            for t in w.tiles() {
                assert_eq!(
                    t.list,
                    &values[offsets[t.index] as usize..offsets[t.index + 1] as usize],
                    "{what}, tile {}",
                    t.index
                );
            }
            let (rounds, _) = bin_and_rasterize_chunked(
                splats.clone(),
                (256, 192, 16),
                SimdLevel::Avx2,
                &pool,
                &mut FrameArena::new(),
                None,
                chunk,
                || {},
            );
            assert_matches_oracle(&rounds, &format!("{what}, rounds"));
            if chunk == BIN_CHUNK {
                assert!(
                    rounds
                        .tiles()
                        .any(|t| t.list.iter().any(|&i| !in_first_chunk[i as usize])),
                    "{what}: some tile must read past the first chunk"
                );
            }
        }
    }
}

/// Steady-state Stage 2 must not allocate: after the first frame warms the
/// arena, identical frames reuse every buffer (observable as
/// pointer-stable CSR buffers).
#[test]
fn arena_reuse_is_pointer_stable_across_frames() {
    let splats: Vec<Splat2D> = (0..500)
        .map(|i| Splat2D {
            mean: Vec2::new((i * 13 % 96) as f32, (i * 29 % 48) as f32),
            conic: [0.05, 0.0, 0.05],
            depth: 1.0 + (i % 17) as f32 * 0.125,
            color: Vec3::one(),
            opacity: 0.6,
            radius: 4.0,
            source: i as u32,
        })
        .collect();
    let pool = WorkerPool::serial();
    let mut arena = FrameArena::new();

    // The warm-up frame sizes every buffer.
    let w = bin_splats_pooled(splats.clone(), 96, 48, 16, &mut arena, &pool);
    // Tile 0's list starts the value buffer.
    let (values, offsets) = (w.tile_list_at(0).as_ptr(), w.offsets().as_ptr());
    w.recycle_into(&mut arena);

    // Steady-state frames must hand back those same buffers.
    for _ in 0..4 {
        let w = bin_splats_pooled(splats.clone(), 96, 48, 16, &mut arena, &pool);
        assert_eq!(
            w.tile_list_at(0).as_ptr(),
            values,
            "steady-state Stage 2 allocated a new value buffer"
        );
        assert_eq!(
            w.offsets().as_ptr(),
            offsets,
            "steady-state Stage 2 allocated a new offset buffer"
        );
        w.recycle_into(&mut arena);
    }
}
