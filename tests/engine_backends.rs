//! Integration tests of the unified Engine API: cross-backend
//! workload agreement, image bit-exactness, and pipelined sequence timing.
//!
//! At FP32 the Enhanced backend serves the reference pass's image. The
//! PE datapath's identity with it is proven here by calling
//! [`EnhancedRasterizer::render_gaussian`] on the frame's workload; an
//! FP16 configuration still serves the PE datapath's own image.

mod common;

use common::image_bits;
use gaurast::backend::{BackendKind, GpuPreset};
use gaurast::engine::{EngineBuilder, ImagePolicy};
use gaurast::hw::{EnhancedRasterizer, Precision, RasterizerConfig};
use gaurast::render::sort::depth_key_bits;
use gaurast::render::tile::BIN_CHUNK;
use gaurast::scene::generator::SceneParams;
use gaurast::scene::nerf360::{Nerf360Scene, SceneScale};
use gaurast::scene::{Camera, OrbitTrajectory};
use gaurast::sched::PipelineSchedule;
use gaurast::service::{RenderRequest, RenderService};
use gaurast_math::Vec3;
use std::sync::Arc;

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

#[test]
fn software_and_enhanced_agree_on_blend_and_pair_counts() {
    let scene = SceneParams::new(1500).seed(13).generate().unwrap();
    let mut engine = EngineBuilder::new(scene).build().unwrap();
    let cmp = engine.compare(
        &camera(128, 96),
        &[BackendKind::Software, BackendKind::Enhanced],
    );
    let sw = cmp.get(BackendKind::Software).expect("software requested");
    let hw = cmp.get(BackendKind::Enhanced).expect("enhanced requested");

    // Both backends bill the identical finalized workload: the blend work,
    // Stage-2 pair count, committed blends, and Stage-1 culling statistics
    // must agree exactly.
    assert!(sw.stats.blend_work > 0);
    assert_eq!(sw.stats.blend_work, hw.stats.blend_work);
    assert_eq!(sw.stats.pairs, hw.stats.pairs);
    assert_eq!(sw.stats.blends_committed, hw.stats.blends_committed);
    assert_eq!(sw.stats.visible, hw.stats.visible);
    assert_eq!(sw.stats.culled, hw.stats.culled);
    assert_eq!(sw.stats.mean_list, hw.stats.mean_list);
}

#[test]
fn retained_images_are_bit_exact_across_software_and_enhanced() {
    let desc = Nerf360Scene::Bonsai.descriptor();
    let scene = desc.synthesize(SceneScale::UNIT_TEST);
    let cam = desc.camera(SceneScale::UNIT_TEST, 0.3).unwrap();
    let mut engine = EngineBuilder::new(scene)
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    let cmp = engine.compare(&cam, &[BackendKind::Software, BackendKind::Enhanced]);
    let sw = cmp
        .get(BackendKind::Software)
        .and_then(|r| r.image.clone())
        .unwrap();
    let hw = cmp
        .get(BackendKind::Enhanced)
        .and_then(|r| r.image.clone())
        .unwrap();
    assert_eq!(
        hw.mean_abs_diff(&sw),
        0.0,
        "the served FP32 Enhanced image must be the reference image"
    );
    // The served row holds the reference image itself, so the datapath
    // claim needs the PE render of the same workload.
    let (pe, _) =
        EnhancedRasterizer::new(RasterizerConfig::scaled()).render_gaussian(&cmp.workload);
    assert!(
        image_bits(&pe) == image_bits(&sw),
        "FP32 PE datapath must be bit-exact"
    );
    assert!(sw.coverage() > 0.0, "frame must not be empty");
}

#[test]
fn fp32_pe_datapath_matches_the_reference_at_repro_scale() {
    // The serving path does not render FP32 frames through the PE, so
    // this is where the identity is checked on the benchmark's scenes and
    // scale: two descriptor poses each of an outdoor and an indoor scene.
    let hw = EnhancedRasterizer::new(RasterizerConfig::scaled());
    for scene in [Nerf360Scene::Garden, Nerf360Scene::Counter] {
        let desc = scene.descriptor();
        let mut engine = EngineBuilder::new(desc.synthesize(SceneScale::REPRO))
            .image_policy(ImagePolicy::Retain)
            .build()
            .unwrap();
        for theta in [0.4, 2.1] {
            let cam = desc.camera(SceneScale::REPRO, theta).unwrap();
            let cmp = engine.compare(&cam, &[BackendKind::Software]);
            let reference = cmp.rows[0].image.as_ref().expect("retained image");
            assert!(reference.coverage() > 0.0, "{scene:?} at {theta}: empty");
            let (pe, _) = hw.render_gaussian(&cmp.workload);
            assert!(
                image_bits(&pe) == image_bits(reference),
                "{scene:?} at {theta}: the FP32 PE image diverged from the reference"
            );
        }
    }
}

/// FNV-1a over [`image_bits`]: color, transmittance and depth.
fn image_hash(fb: &gaurast::render::Framebuffer) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in image_bits(fb) {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
        }
    }
    h
}

/// Where a pinned frame's camera stands.
#[derive(Clone, Copy, Debug)]
enum Pose {
    /// The descriptor's own camera at this orbit angle.
    Descriptor(f32),
    /// An orbit at six times perfbench's orbit radius (7.5 × the scene's
    /// extent, 2.7 × extent high), at this angle: the whole scene is in
    /// view and small, so Stage 2 needs more than one scatter round.
    Far(f32),
}

#[test]
fn served_enhanced_frames_are_pinned_at_repro_scale() {
    // The served Enhanced frame of two orbit poses each of Garden and
    // Counter and one far pose of each, recorded from the single-pass
    // Stage 2 (every pair scattered, then one Stage-3 pass) before the
    // rounds ordered their own keys. The frame driver scatters in rounds,
    // depth-orders only the keys they reach and skips saturated tiles; a
    // round that dropped or reordered an entry some tile reads would move
    // the processed counts, the billed work, the modeled time and energy,
    // or the image.
    // (scene, pose, pairs, Σ processed, blend_work, blends_committed,
    //  time_s bits, energy_j bits, image hash)
    type Pin = (Nerf360Scene, Pose, u64, u64, u64, u64, u64, u64, u64);
    const PINS: [Pin; 6] = [
        (
            Nerf360Scene::Garden,
            Pose::Descriptor(0.7),
            1_663_188,
            3_927,
            867_510,
            663_390,
            0x3ED4_252E_9649_0ABE,
            0x3F04_F8B3_E0FF_EBB8,
            0x1641_7502_CB24_0FDB,
        ),
        (
            Nerf360Scene::Garden,
            Pose::Descriptor(3.9),
            1_555_208,
            6_537,
            1_443_690,
            956_252,
            0x3EE0_75E6_5886_7649,
            0x3F11_5ADE_78AE_9409,
            0x24E2_F562_115E_F49E,
        ),
        (
            Nerf360Scene::Garden,
            Pose::Far(0.7),
            733_922,
            24_349,
            5_179_942,
            1_408_286,
            0x3F04_DC85_FD5A_8938,
            0x3F31_42CF_4BA8_051A,
            0x2FDE_AB03_F2AB_AAD2,
        ),
        (
            Nerf360Scene::Counter,
            Pose::Descriptor(0.7),
            251_374,
            20_646,
            4_528_086,
            2_127_482,
            0x3EF7_1AB4_F34D_7B44,
            0x3F2A_7227_6B50_0700,
            0xA7DA_73A5_1C03_2BE9,
        ),
        (
            Nerf360Scene::Counter,
            Pose::Descriptor(3.9),
            238_966,
            10_490,
            2_241_662,
            1_533_992,
            0x3EE6_00D9_7FF4_BE14,
            0x3F19_F3F7_4E5B_1CEE,
            0xCC7E_8C2B_C05F_F658,
        ),
        (
            Nerf360Scene::Counter,
            Pose::Far(0.7),
            70_591,
            17_688,
            4_068_806,
            1_170_953,
            0x3EFA_08B7_2B1C_5ACC,
            0x3F29_3CEC_AD02_9CC2,
            0x73AD_F87F_9240_3CEC,
        ),
    ];
    for scene in [Nerf360Scene::Garden, Nerf360Scene::Counter] {
        let desc = scene.descriptor();
        let (width, height) = desc.resolution_at(SceneScale::REPRO);
        let mut engine = EngineBuilder::new(desc.synthesize(SceneScale::REPRO))
            .backend(BackendKind::Enhanced)
            .image_policy(ImagePolicy::Retain)
            .build()
            .unwrap();
        for &(_, pose, pairs, processed, work, blends, time, energy, hash) in
            PINS.iter().filter(|p| p.0 == scene)
        {
            let what = format!("{scene:?} at {pose:?}");
            let cam = match pose {
                Pose::Descriptor(theta) => desc.camera(SceneScale::REPRO, theta).unwrap(),
                Pose::Far(theta) => OrbitTrajectory::new(
                    Vec3::zero(),
                    7.5 * desc.extent,
                    2.7 * desc.extent,
                    width,
                    height,
                    1.05,
                )
                .and_then(|orbit| orbit.camera_at(theta))
                .unwrap(),
            };
            let report = engine.render_frame(&cam);
            assert_eq!(report.stats.pairs, pairs, "{what}: pairs");
            assert_eq!(report.stats.blend_work, work, "{what}: blend work");
            assert_eq!(report.stats.blends_committed, blends, "{what}: blends");
            assert_eq!(report.time_s.to_bits(), time, "{what}: time_s");
            assert_eq!(report.energy_j.to_bits(), energy, "{what}: energy_j");
            let image = report.image.as_ref().expect("retained image");
            assert_eq!(image_hash(image), hash, "{what}: image");
            // The same frame's workload, for its processed counts.
            let cmp = engine.compare(&cam, &[BackendKind::Enhanced]);
            let held: u64 = cmp.workload.tiles().map(|t| u64::from(t.processed)).sum();
            assert_eq!(held, processed, "{what}: processed");
            assert_eq!(cmp.rows[0].time_s.to_bits(), time, "{what}: compare row");
            if let Pose::Far(_) = pose {
                // Some tile reads a splat outside the nearest `BIN_CHUNK`
                // by depth key, so the frame's later rounds were read.
                let splats = cmp.workload.splats();
                let mut keys: Vec<u64> = (0u64..)
                    .zip(splats)
                    .map(|(i, s)| u64::from(depth_key_bits(s.depth)) << 32 | i)
                    .collect();
                keys.sort_unstable();
                let mut nearest = vec![false; splats.len()];
                for &key in keys.iter().take(BIN_CHUNK) {
                    nearest[key as u32 as usize] = true;
                }
                assert!(
                    cmp.workload
                        .tiles()
                        .any(|t| t.list.iter().any(|&i| !nearest[i as usize])),
                    "{what}: no tile reads past round 0"
                );
            }
        }
    }
}

#[test]
fn fp16_frames_stay_on_the_pe_datapath() {
    let fp16 = RasterizerConfig {
        precision: Precision::Fp16,
        ..RasterizerConfig::scaled()
    };
    let scene = SceneParams::new(1500).seed(13).generate().unwrap();
    let cam = camera(96, 64);
    let mut engine = EngineBuilder::new(scene)
        .hw_config(fp16)
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    let cmp = engine.compare(&cam, &[BackendKind::Software, BackendKind::Enhanced]);
    let image = |kind| {
        cmp.get(kind)
            .and_then(|r| r.image.as_ref())
            .map(image_bits)
            .expect("retained image")
    };
    // The reference image, from a software session on the default FP32
    // configuration.
    let reference = EngineBuilder::shared(Arc::clone(engine.prepared()))
        .backend(BackendKind::Software)
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap()
        .render_frame(&cam)
        .image
        .map(|fb| image_bits(&fb))
        .expect("retained image");
    let (pe16, _) = EnhancedRasterizer::new(fp16).render_gaussian(&cmp.workload);
    let pe16 = image_bits(&pe16);
    assert!(
        image(BackendKind::Enhanced) == pe16,
        "FP16 row is the PE image"
    );
    assert!(pe16 != reference, "FP16 must not be the reference image");
    assert!(
        image(BackendKind::Software) == reference,
        "the software row is the reference image"
    );

    engine.switch_backend(BackendKind::Enhanced);
    let frame = engine.render_frame(&cam).image.expect("retained image");
    assert!(
        image_bits(&frame) == pe16,
        "render_frame serves the PE image"
    );

    let service = RenderService::builder()
        .prepared("fp16", Arc::clone(engine.prepared()))
        .hw_config(fp16)
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    let batch = service
        .render_batch(&[
            RenderRequest::new("fp16", cam.clone()).backend(BackendKind::Software),
            RenderRequest::new("fp16", cam).backend(BackendKind::Enhanced),
        ])
        .unwrap();
    let served = |i: usize| batch.responses[i].report.image.as_ref().map(image_bits);
    assert!(served(1) == Some(pe16), "the batch serves the PE image");
    assert!(
        served(0) == Some(reference),
        "and the reference image to software"
    );
}

#[test]
fn all_backends_reachable_and_ordered_sanely() {
    let scene = SceneParams::new(1000).seed(4).generate().unwrap();
    let mut engine = EngineBuilder::new(scene).build().unwrap();
    let cmp = engine.compare(&camera(96, 64), &BackendKind::ALL);
    assert_eq!(cmp.rows.len(), 4);
    for row in &cmp.rows {
        assert!(row.time_s > 0.0, "{}: non-positive time", row.kind);
        assert!(row.ops > 0, "{}: no work billed", row.kind);
    }
    // The substrate ordering the paper establishes: dedicated hardware
    // beats the edge GPU model, which beats the software reference.
    let sw = cmp.get(BackendKind::Software).unwrap().time_s;
    let cuda = cmp
        .get(BackendKind::Cuda(GpuPreset::OrinNx))
        .unwrap()
        .time_s;
    let gaurast = cmp.get(BackendKind::Enhanced).unwrap().time_s;
    assert!(gaurast < cuda, "gaurast {gaurast} must beat cuda {cuda}");
    assert!(
        cuda < sw,
        "modeled cuda {cuda} must beat host software {sw}"
    );
}

#[test]
fn render_sequence_matches_hand_built_pipeline_schedule() {
    let scene = SceneParams::new(1200).seed(9).generate().unwrap();
    let mut engine = EngineBuilder::new(scene).build().unwrap();
    let cams: Vec<Camera> = vec![camera(96, 64); 16];
    let outcome = engine.render_sequence(&cams);
    assert_eq!(outcome.reports.len(), 16);

    // Uniform cameras produce uniform per-frame costs; the replayed
    // steady-state FPS must match a PipelineSchedule built by hand from
    // those costs (the fill cycle perturbs the average only slightly).
    let cost = outcome.costs[0];
    for c in &outcome.costs {
        assert_eq!(
            c.stages12_s, cost.stages12_s,
            "uniform cameras, uniform costs"
        );
        assert_eq!(c.stage3_s, cost.stage3_s);
    }
    let schedule = PipelineSchedule::new(cost.stages12_s, cost.stage3_s).unwrap();
    let replayed = outcome.throughput_fps();
    let steady = schedule.steady_state_fps();
    assert!(
        (replayed - steady).abs() / steady < 0.10,
        "replayed {replayed} vs steady-state {steady}"
    );
    // Steady-state pacing: the median inter-frame interval equals the
    // schedule's bottleneck period exactly.
    let p50 = outcome.schedule.interval_percentile_s(0.5);
    assert!(
        (p50 - schedule.steady_state_period()).abs() < 1e-12,
        "p50 {p50} vs period {}",
        schedule.steady_state_period()
    );
}

#[test]
fn two_sessions_over_one_prepared_scene_are_bit_identical() {
    let desc = Nerf360Scene::Garden.descriptor();
    let scene = desc.synthesize(SceneScale::UNIT_TEST);
    let cam = desc.camera(SceneScale::UNIT_TEST, 0.5).unwrap();
    let shared = Arc::new(scene);

    let mut a = EngineBuilder::shared(Arc::clone(&shared))
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    let mut b = EngineBuilder::shared(Arc::clone(&shared))
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    assert!(
        Arc::ptr_eq(a.prepared(), b.prepared()),
        "one scene, no copies"
    );

    let img_a = a.render_frame(&cam).image.unwrap();
    let img_b = b.render_frame(&cam).image.unwrap();
    assert_eq!(
        img_a.mean_abs_diff(&img_b),
        0.0,
        "sessions sharing one Arc<GaussianScene> must render identically"
    );
    assert!(img_a.coverage() > 0.0, "frame must not be empty");
}

#[test]
fn sequence_outlasts_per_frame_reallocation() {
    // The session reuses scratch across frames; rendering the same camera
    // repeatedly must be deterministic and cheap in allocations (observable
    // as identical reports).
    let scene = SceneParams::new(600).seed(2).generate().unwrap();
    let mut engine = EngineBuilder::new(scene).build().unwrap();
    let cam = camera(64, 64);
    let first = engine.render_frame(&cam);
    for _ in 0..4 {
        let next = engine.render_frame(&cam);
        assert_eq!(next.time_s, first.time_s);
        assert_eq!(next.stats.blend_work, first.stats.blend_work);
        assert_eq!(next.stats.pairs, first.stats.pairs);
    }
    assert_eq!(engine.frames_rendered(), 5);
}
