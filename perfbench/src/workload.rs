//! Workload inputs: the scenes, and from the `--seed` argument the orbit
//! camera paths and the `service-mix` request batches.

use gaurast::backend::BackendKind;
use gaurast::math::Vec3;
use gaurast::scene::nerf360::{Nerf360Scene, SceneScale};
use gaurast::scene::{Camera, GaussianScene, OrbitTrajectory};
use gaurast::service::RenderRequest;
use std::f32::consts::TAU;

/// Every scene renders at the reproduction scale.
pub const SCALE: SceneScale = SceneScale::REPRO;

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One Enhanced session on Garden; every frame a new orbit pose.
    OrbitGarden,
    /// One Enhanced session on Counter cycling a ring of [`RING`] poses.
    OrbitCounter,
    /// A `RenderService` over both scenes: batches plus submits.
    ServiceMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OrbitGarden, Kind::OrbitCounter, Kind::ServiceMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OrbitGarden => "orbit-garden",
            Kind::OrbitCounter => "orbit-counter",
            Kind::ServiceMix => "service-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Poses in the `orbit-counter` ring, and frames per round of either orbit
/// workload (the unit `batch_ms` times).
pub const RING: usize = 12;

/// Orbit angle step of `orbit-garden`: 97 poses per revolution, so a run
/// sweeps every side of the scene a few times.
const GARDEN_STEP: f32 = TAU / 97.0;

/// One step of the SplitMix64 generator: a well-mixed 64-bit hash.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic uniform draw in `[0, 1)` keyed by `(seed, stream, index)`.
fn unit(seed: u64, stream: u64, index: u64) -> f32 {
    let h = mix(mix(mix(seed) ^ stream) ^ index);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

/// The scene the workloads render: `SceneDescriptor::synthesize` at
/// [`SCALE`]. The scene does not follow `--seed`: on Counter, scenes from
/// different generator seeds differ by ~18% in Stage-3 work (interquartile
/// range over ten seeds), which would swamp every bound; camera poses
/// from different seeds differ by ~5%.
pub fn build_scene(scene: Nerf360Scene) -> GaussianScene {
    scene.descriptor().synthesize(SCALE)
}

/// Seeded camera poses on a scene's NeRF-360-style orbit: a seeded phase,
/// and per pose a small seeded jitter of radius and height.
#[derive(Clone, Debug)]
pub struct OrbitPoses {
    seed: u64,
    stream: u64,
    phase: f32,
    extent: f32,
    width: u32,
    height: u32,
}

impl OrbitPoses {
    /// Poses around `scene`; `stream` separates independent pose sequences
    /// drawn from one seed.
    pub fn new(scene: Nerf360Scene, seed: u64, stream: u64) -> Self {
        let d = scene.descriptor();
        let (width, height) = d.resolution_at(SCALE);
        Self {
            seed,
            stream,
            phase: unit(seed, stream, u64::MAX) * TAU,
            extent: d.extent,
            width,
            height,
        }
    }

    /// Pose `index` at orbit angle `phase + theta`, jittered by ±4% radius
    /// and ±5% of the extent in height.
    pub fn camera(&self, index: u64, theta: f32) -> Camera {
        let jr = unit(self.seed, self.stream, 2 * index) * 2.0 - 1.0;
        let jh = unit(self.seed, self.stream, 2 * index + 1) * 2.0 - 1.0;
        OrbitTrajectory::new(
            Vec3::zero(),
            self.extent * 1.25 * (1.0 + 0.04 * jr),
            self.extent * (0.45 + 0.05 * jh),
            self.width,
            self.height,
            1.05,
        )
        .and_then(|orbit| orbit.camera_at(self.phase + theta))
        .expect("orbit radius is positive and the resolution non-zero")
    }
}

/// The camera of orbit frame `index`: a fresh pose per frame on Garden, the
/// `index % RING`-th ring pose on Counter.
pub fn orbit_camera(kind: Kind, poses: &OrbitPoses, index: u64) -> Camera {
    match kind {
        Kind::OrbitGarden => poses.camera(index, index as f32 * GARDEN_STEP),
        _ => {
            let k = index % RING as u64;
            poses.camera(k, k as f32 * TAU / RING as f32)
        }
    }
}

/// Scene names registered with the `service-mix` service.
pub const SERVICE_SCENES: [(&str, Nerf360Scene); 2] = [
    ("garden", Nerf360Scene::Garden),
    ("counter", Nerf360Scene::Counter),
];

/// Fresh poses per scene per batch; each is requested once per backend.
const POSES_PER_BATCH: usize = 2;

/// The (scene, backend) of the requests the client re-sends through
/// `submit` after each batch: one per pose, so every `submit` sample pays
/// for the same kind of frame.
const SUBMIT_CLASS: (&str, BackendKind) = ("garden", BackendKind::Enhanced);

/// One `service-mix` round: a batch of 16 requests (every (scene,
/// backend) pair twice, each scene's fresh poses shared across the four
/// backends) in seeded order, and the requests the client then re-sends
/// through `submit`.
#[derive(Clone, Debug)]
pub struct Round {
    pub requests: Vec<RenderRequest>,
    /// Per request, an id shared by exactly the requests of the same scene
    /// and pose.
    pub poses: Vec<u64>,
    /// Batch positions of the requests the client then re-sends through
    /// `submit`.
    pub submits: Vec<usize>,
}

/// Round `round` of `service-mix` under `seed`.
pub fn service_round(seed: u64, round: u64) -> Round {
    let mut tagged = Vec::new();
    for (s, (name, scene)) in SERVICE_SCENES.into_iter().enumerate() {
        let poses = OrbitPoses::new(scene, seed, 1 + s as u64);
        for p in 0..POSES_PER_BATCH as u64 {
            let index = round * POSES_PER_BATCH as u64 + p;
            let camera = poses.camera(index, unit(seed, 10 + s as u64, index) * TAU);
            let pose = (s as u64) << 32 | index;
            for backend in BackendKind::ALL {
                tagged.push((
                    RenderRequest::new(name, camera.clone()).backend(backend),
                    pose,
                ));
            }
        }
    }
    // Fisher-Yates with seeded draws: the request order is part of the
    // workload.
    let order_stream = 100 + round;
    for i in (1..tagged.len()).rev() {
        let j = (unit(seed, order_stream, i as u64) * (i + 1) as f32) as usize;
        tagged.swap(i, j.min(i));
    }
    let submits = tagged
        .iter()
        .enumerate()
        .filter(|(_, (r, _))| r.scene == SUBMIT_CLASS.0 && r.backend == SUBMIT_CLASS.1)
        .map(|(i, _)| i)
        .collect();
    let (requests, poses) = tagged.into_iter().unzip();
    Round {
        requests,
        poses,
        submits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast::scene::visibility::pose_key;

    #[test]
    fn garden_poses_are_distinct_and_counter_poses_ring() {
        let garden = OrbitPoses::new(Nerf360Scene::Garden, 3, 0);
        let keys: std::collections::HashSet<_> = (0..400)
            .map(|i| pose_key(&orbit_camera(Kind::OrbitGarden, &garden, i)))
            .collect();
        assert_eq!(keys.len(), 400);
        let counter = OrbitPoses::new(Nerf360Scene::Counter, 3, 0);
        let cam = |i| pose_key(&orbit_camera(Kind::OrbitCounter, &counter, i));
        assert_eq!(cam(5), cam(5 + RING as u64));
        assert_ne!(cam(5), cam(6));
    }

    #[test]
    fn seeds_change_inputs_and_repeat_exactly() {
        let a = service_round(1, 4);
        let b = service_round(1, 4);
        let c = service_round(2, 4);
        let view = |r: &Round| -> Vec<_> {
            r.requests
                .iter()
                .map(|q| (q.scene.clone(), q.backend, pose_key(&q.camera)))
                .collect()
        };
        assert_eq!(view(&a), view(&b));
        assert_eq!(a.submits, b.submits);
        assert_ne!(view(&a), view(&c));
    }

    #[test]
    fn a_round_covers_every_scene_backend_pair_twice() {
        let round = service_round(9, 0);
        assert_eq!(round.requests.len(), 16);
        for (name, _) in SERVICE_SCENES {
            for backend in BackendKind::ALL {
                let n = round
                    .requests
                    .iter()
                    .filter(|r| r.scene == name && r.backend == backend)
                    .count();
                assert_eq!(n, 2, "{name}/{backend}");
            }
        }
        assert_eq!(round.submits.len(), POSES_PER_BATCH);
        for &i in &round.submits {
            let r = &round.requests[i];
            assert_eq!((r.scene.as_str(), r.backend), SUBMIT_CLASS);
        }
    }
}
