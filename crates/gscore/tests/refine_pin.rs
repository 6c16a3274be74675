//! Pins GSCore's workload refinement on the benchmark's scenes and scale.
//!
//! `refine` decides every subtile of every processed (splat, tile) pair.
//! These four frames fix its counters and the modeled frame time to the
//! bit, as the per-subtile `splat_touches_rect` loop computed them, so a
//! faster decision procedure must reproduce them exactly.

use gaurast_gscore::subtile::RefinedWork;
use gaurast_gscore::GscoreAccelerator;
use gaurast_render::pipeline::{render, RenderConfig};
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

/// The descriptor poses of the REPRO oracle test in
/// `tests/engine_backends.rs`, on an outdoor and an indoor scene: (scene,
/// θ, AABB pairs, shape pairs, full pixel work, subtile pixel work, bits of
/// the modeled frame time).
#[rustfmt::skip]
const PINS: [(Nerf360Scene, f32, u64, u64, u64, u64, u64); 4] = [
    (Nerf360Scene::Garden,  0.4,  6_009,  4_261, 1_328_906,   938_292, 0x3F0E_BF10_7F31_C1F8),
    (Nerf360Scene::Garden,  2.1,  7_161,  4_905, 1_581_930, 1_083_350, 0x3F11_BFF0_F144_5067),
    (Nerf360Scene::Counter, 0.4, 23_327, 13_154, 5_245_882, 2_553_736, 0x3F24_EB96_DECB_9F48),
    (Nerf360Scene::Counter, 2.1, 16_991, 10_444, 3_704_862, 2_070_300, 0x3F20_F5BD_FF20_FF4B),
];

#[test]
fn refinement_is_pinned_on_repro_frames() {
    for scene in [Nerf360Scene::Garden, Nerf360Scene::Counter] {
        let desc = scene.descriptor();
        let gaussians = desc.synthesize(SceneScale::REPRO);
        for (_, theta, aabb_pairs, shape_pairs, full_pixel_work, subtile_pixel_work, time_bits) in
            PINS.into_iter().filter(|pin| pin.0 == scene)
        {
            let cam = desc.camera(SceneScale::REPRO, theta).unwrap();
            let workload = render(&gaussians, &cam, &RenderConfig::default()).workload;
            let report = GscoreAccelerator::default().simulate(&workload);
            let refined = RefinedWork {
                aabb_pairs,
                shape_pairs,
                full_pixel_work,
                subtile_pixel_work,
            };
            assert_eq!(report.refined, refined, "{scene:?} at {theta}");
            assert_eq!(
                report.time_s.to_bits(),
                time_bits,
                "{scene:?} at {theta}: modeled time {} s",
                report.time_s
            );
        }
    }
}
