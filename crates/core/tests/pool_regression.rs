//! Regression pin for the once-per-worker session rule: a multi-frame
//! [`RenderService::render_batch`] must construct worker pools (inside
//! each worker's cached engine session) **once per worker**, never per
//! frame — the bug this pins was rebuilding session state frame by frame.
//! A worker keeps one session per scene, whatever backends the requests
//! name.
//!
//! Single `#[test]` on purpose: the pool-construction counter is
//! process-global, so the measured window must not race other tests
//! constructing pools in the same binary.

use gaurast::backend::BackendKind;
use gaurast::service::{RenderRequest, RenderService};
use gaurast_math::Vec3;
use gaurast_render::pool::construction_count;
use gaurast_scene::generator::SceneParams;
use gaurast_scene::Camera;

#[test]
fn batch_constructs_pools_once_per_worker_not_per_frame() {
    let scene = SceneParams::new(600).seed(17).generate().unwrap();
    let svc = RenderService::builder()
        .scene("demo", scene)
        .workers(2)
        .build()
        .unwrap();
    let camera = |i: usize| {
        let theta = i as f32 * 0.4;
        Camera::look_at(
            Vec3::new(25.0 * theta.sin(), 6.0, -25.0 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.05,
        )
        .unwrap()
    };
    let requests: Vec<_> = (0..12)
        .map(|i| RenderRequest::new("demo", camera(i)))
        .collect();

    let before = construction_count();
    let batch = svc.render_batch(&requests).unwrap();
    let constructed = construction_count() - before;

    assert_eq!(batch.len(), 12);
    // Each batch worker lazily builds one cached session (one engine, one
    // pool) for the single (scene, backend) pair — 12 frames over ≤ 2
    // workers must construct ≤ 2 pools, and certainly not one per frame.
    assert!(
        constructed <= batch.workers as u64,
        "batch constructed {constructed} pools for {} workers — \
         sessions must be cached per worker, not rebuilt per frame",
        batch.workers
    );

    // A second batch over the same service reuses nothing across batches
    // (workers are scoped to the batch), but still stays once-per-worker.
    let before = construction_count();
    let batch = svc.render_batch(&requests).unwrap();
    let constructed = construction_count() - before;
    assert!(constructed <= batch.workers as u64);

    // Six poses on every backend: one scene, so one session — one pool —
    // per worker, not one per (scene, backend) pair.
    let requests: Vec<_> = (0..6)
        .flat_map(|i| {
            BackendKind::ALL.map(|kind| RenderRequest::new("demo", camera(i)).backend(kind))
        })
        .collect();
    let before = construction_count();
    let batch = svc.render_batch(&requests).unwrap();
    let constructed = construction_count() - before;
    assert_eq!((batch.len(), batch.passes), (24, 6));
    assert!(
        constructed <= batch.workers as u64,
        "batch over four backends constructed {constructed} pools for {} workers",
        batch.workers
    );
}
