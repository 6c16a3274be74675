//! Buffer-capacity chunking coverage and a golden-image regression lock.

use gaurast_hw::{EnhancedRasterizer, FrameReport, RasterizerConfig};
use gaurast_math::{Vec2, Vec3};
use gaurast_render::rasterize::rasterize;
use gaurast_render::tile::bin_splats;
use gaurast_render::triangle::{ScreenTriangle, TriangleWorkload};
use gaurast_render::{RasterWorkload, Splat2D};

fn splat(i: u32) -> Splat2D {
    Splat2D {
        mean: Vec2::new(8.0 + (i % 5) as f32, 8.0 + (i % 7) as f32),
        conic: [0.2, 0.0, 0.2],
        depth: 1.0 + i as f32 * 0.001,
        color: Vec3::new(0.001, 0.002, 0.003) * ((i % 11) as f32),
        opacity: 0.02 + 0.0001 * (i % 50) as f32,
        radius: 6.0,
        source: i,
    }
}

#[test]
fn oversized_tile_list_chunks_through_buffer() {
    // 3000 low-opacity splats in one 16x16 tile: the 1024-primitive buffer
    // must take 3 passes, and the result must still be bit-exact.
    let splats: Vec<Splat2D> = (0..3000).map(splat).collect();
    let mut workload = bin_splats(splats, 16, 16, 16);
    let (reference, _) = rasterize(&mut workload);

    let hw = EnhancedRasterizer::new(RasterizerConfig::prototype());
    let report = hw.simulate_gaussian(&workload);
    let processed = workload.processed_count(0, 0);
    assert!(
        processed > 1024,
        "need multiple chunks, processed {processed}"
    );

    // Chunked loads mean extra primitive traffic relative to a single pass.
    let single_pass_equivalent = u64::from(processed) * 9 + 256 * 4 + 256 * 3;
    assert!(
        report.buffer_traffic_words >= single_pass_equivalent,
        "traffic {} < single-pass {}",
        report.buffer_traffic_words,
        single_pass_equivalent
    );

    let (image, _) = hw.render_gaussian(&workload);
    assert_eq!(image.mean_abs_diff(&reference), 0.0);
}

#[test]
fn chunked_and_unchunked_work_bill_identically() {
    // Chunking changes memory timing, not compute: pairs must be identical
    // for a large-capacity and a small-capacity schedule of the same list.
    let splats: Vec<Splat2D> = (0..2000).map(splat).collect();
    let mut workload = bin_splats(splats, 16, 16, 16);
    let _ = rasterize(&mut workload);

    let hw = EnhancedRasterizer::new(RasterizerConfig::prototype());
    let report = hw.simulate_gaussian(&workload);
    assert_eq!(
        report.pairs,
        u64::from(workload.processed_count(0, 0)) * 256
    );
}

/// A fixed 100x72 Gaussian workload over 16-pixel tiles (7x5 tiles, the
/// last column and row partial): 400 scattered splats of mixed radius, plus
/// 2,500 piled onto tile (0, 0) so that tile streams through the
/// 1,024-primitive buffer in three chunks. No reference pass runs, so each
/// tile bills its whole list.
fn pinned_gaussian_workload() -> RasterWorkload {
    let mut splats: Vec<Splat2D> = (0..400u32)
        .map(|i| Splat2D {
            mean: Vec2::new(((i * 37) % 100) as f32 + 0.25, ((i * 53) % 72) as f32 + 0.5),
            radius: 1.0 + (i % 9) as f32 * 2.5,
            ..splat(i)
        })
        .collect();
    splats.extend((400..2900).map(splat));
    bin_splats(splats, 100, 72, 16)
}

/// The triangle counterpart: 60 scattered triangles of mixed size plus
/// 1,100 small ones inside tile (1, 1), which therefore takes two chunks.
fn pinned_triangle_workload() -> TriangleWorkload {
    let tri = |x: f32, y: f32, size: f32| ScreenTriangle {
        v: [
            Vec2::new(x, y),
            Vec2::new(x + size, y),
            Vec2::new(x, y + size),
        ],
        depth: [1.0; 3],
        uv: [Vec2::new(0.0, 0.0); 3],
        color: [Vec3::new(0.5, 0.5, 0.5); 3],
        area2: size * size,
    };
    let mut tris: Vec<ScreenTriangle> = (0..60u32)
        .map(|i| {
            tri(
                ((i * 29) % 100) as f32,
                ((i * 41) % 72) as f32,
                2.0 + (i % 7) as f32 * 6.0,
            )
        })
        .collect();
    tris.extend((0..1100u32).map(|i| tri(17.0 + (i % 9) as f32, 18.0 + (i % 5) as f32, 3.0)));
    TriangleWorkload::bin(tris, 100, 72, 16)
}

/// What the timing model must reproduce exactly: cycles, stall cycles,
/// buffer traffic, the bits of the utilization and the per-instance
/// completion cycles.
fn timing_facts(r: &FrameReport) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        r.cycles,
        r.stall_cycles,
        r.buffer_traffic_words,
        r.utilization.to_bits(),
        r.instance_cycles.clone(),
    )
}

#[test]
fn timing_model_is_pinned() {
    // Exact values: the schedule arithmetic must not drift in either
    // datapath mode, with or without ping-pong buffering, or on a
    // memory-bound bus (the last configuration stalls).
    let configs = [
        RasterizerConfig::prototype(),
        RasterizerConfig::scaled(),
        RasterizerConfig {
            ping_pong: false,
            ..RasterizerConfig::scaled()
        },
        RasterizerConfig {
            bus_words_per_cycle: 2,
            ..RasterizerConfig::scaled()
        },
    ];
    type Facts = (u64, u64, u64, u64, &'static [u64]);
    #[rustfmt::skip]
    let pinned: [(Facts, Facts); 4] = [
        (
            (119_078, 576, 118_576, 0x3FEF_6B8A_3491_734A, &[119_078]),
            (22_886, 1_125, 62_912, 0x3FED_1EA0_7EB6_B011, &[22_886]),
        ),
        (
            (43_096, 0, 118_576, 0x3FC7_26AA_BAE3_2F9A, &[
                43_096, 19_576, 2_906, 2_695, 2_282, 1_034, 997, 25_560, 12_194, 2_801,
                2_703, 2_502, 1_416, 509, 1_390,
            ]),
            (18_504, 197, 62_912, 0x3FB3_3553_3553_3553, &[
                408, 506, 466, 428, 427, 260, 220, 283, 18_504, 405, 453, 614, 412, 194, 259,
            ]),
        ),
        (
            (44_213, 0, 118_576, 0x3FC6_90EF_6B3F_43E0, &[
                44_213, 19_867, 3_175, 2_953, 2_499, 1_122, 1_101, 25_969, 12_347, 2_956,
                2_857, 2_641, 1_499, 571, 1_497,
            ]),
            (18_665, 0, 62_912, 0x3FB3_0AE8_C8FE_195A, &[
                561, 678, 671, 598, 605, 330, 260, 355, 18_665, 521, 571, 737, 484, 243, 343,
            ]),
        ),
        (
            (47_744, 1_986, 118_332, 0x3FC4_E5B0_D7F6_D956, &[
                47_744, 24_485, 3_754, 3_656, 3_344, 1_939, 2_152, 30_376, 15_565, 3_928,
                3_809, 3_660, 2_451, 1_162, 2_215,
            ]),
            (23_632, 10_975, 62_658, 0x3FAE_1497_4707_3EB5, &[
                2_300, 2_345, 2_349, 2_340, 2_026, 1_188, 1_143, 1_815, 23_632, 1_860,
                1_873, 1_918, 1_303, 749, 1_394,
            ]),
        ),
    ];
    let gaussians = pinned_gaussian_workload();
    let triangles = pinned_triangle_workload();
    for (i, (config, (g, t))) in configs.into_iter().zip(pinned).enumerate() {
        let hw = EnhancedRasterizer::new(config);
        let want = |(cycles, stalls, traffic, util, per_instance): Facts| {
            (cycles, stalls, traffic, util, per_instance.to_vec())
        };
        assert_eq!(
            timing_facts(&hw.simulate_gaussian(&gaussians)),
            want(g),
            "config {i}, gaussian mode"
        );
        assert_eq!(
            timing_facts(&hw.simulate_triangles(&triangles)),
            want(t),
            "config {i}, triangle mode"
        );
    }
}

/// FNV-1a over the image bits — any arithmetic change flips it.
fn image_hash(img: &gaurast_render::Framebuffer) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for c in img.colors() {
        for v in [c.x, c.y, c.z] {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
            }
        }
    }
    h
}

#[test]
fn golden_image_regression() {
    // A fixed synthetic frame, rendered through the PE datapath, must hash
    // to the recorded golden value. This pins the FP arithmetic order: any
    // "harmless" refactor that changes results bit-wise fails here (the
    // same guarantee the paper's RTL-vs-software validation provides).
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::Camera;

    let scene = SceneParams::new(600)
        .seed(20_240_601)
        .generate()
        .expect("valid params");
    let cam = Camera::look_at(
        Vec3::new(3.0, 5.0, -24.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        96,
        64,
        1.0,
    )
    .expect("valid camera");
    let out = gaurast_render::pipeline::render(&scene, &cam, &Default::default());
    let hw = EnhancedRasterizer::new(RasterizerConfig::prototype());
    let (image, _) = hw.render_gaussian(&out.workload);

    assert_eq!(image.mean_abs_diff(&out.image), 0.0, "hw/sw divergence");
    let hash = image_hash(&image);
    // Recorded from the first verified run against the vendored `rand`
    // stream (vendor/rand). Stage 3 and the PE no longer depend on libm
    // (both blend with `gaurast_math::exp_f32`), but scene synthesis and
    // camera set-up still call libm's `exp`, `ln`, `sin` and `cos`, whose
    // rounding can differ across implementations. So the exact-bits lock
    // applies to the platform family the repository is developed on;
    // elsewhere the hw-vs-sw equality above is the binding check.
    const GOLDEN: u64 = 0xE4B1_63FA_9745_0280;
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(hash, GOLDEN, "rendered bits changed");
    } else {
        eprintln!("golden image hash (informational on this platform): {hash:#018x}");
    }
}
