//! Buffer-capacity chunking coverage and a golden-image regression lock.

use gaurast_hw::{EnhancedRasterizer, RasterizerConfig};
use gaurast_math::{Vec2, Vec3};
use gaurast_render::rasterize::rasterize;
use gaurast_render::tile::bin_splats;
use gaurast_render::Splat2D;

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
