//! The shared-scene render service: many sessions, one prepared asset per
//! scene.
//!
//! The [`Engine`] is a single session. A
//! [`RenderService`] is the serving layer above it: it owns one
//! `Arc<`[`PreparedScene`]`>` per named scene (prepared exactly once) and
//! spawns per-thread engine sessions on demand, so N concurrent render
//! jobs share one immutable scene asset instead of carrying N copies —
//! the same fan-one-configuration-out-to-many-channels pattern
//! high-channel-count DAQ systems use for their readout front-ends.
//!
//! Two entry points:
//!
//! * [`RenderService::submit`] — one [`RenderRequest`] (scene name,
//!   camera, backend), one [`RenderResponse`] on the calling thread;
//! * [`RenderService::render_batch`] — a slice of requests fanned across a
//!   `std::thread` worker pool. Requests that name the same scene and a
//!   bit-identical camera ([`Camera::key`]) form one *distinct frame*,
//!   rendered by one reference pass whose workload every backend those
//!   requests named then executes ([`Engine::render_shared`]) — the
//!   one-workload-per-frame billing every cross-backend comparison uses.
//!   Responses come back **in request order** (bit-identical to a
//!   dedicated session of each request's backend), wrapped in a
//!   [`BatchReport`] with wall-clock throughput, the number of reference
//!   passes, and aggregate modeled time/energy accounting.
//!
//! Parallelism nests at two levels — request-level (the batch worker
//! pool, whose workers claim distinct frames) × frame-level (each
//! session's intra-frame
//! [`WorkerPool`](gaurast_render::pool::WorkerPool)) — under one
//! oversubscription policy: batch sessions render with a bounded
//! per-frame worker budget
//! ([`RenderService::frame_worker_budget`]), so the product of the two
//! levels never exceeds the machine, while [`RenderService::submit`] and
//! dedicated sessions get the full width. Frames are bit-identical at
//! every setting.
//!
//! ```
//! use gaurast::backend::BackendKind;
//! use gaurast::service::{RenderRequest, RenderService};
//! use gaurast::scene::generator::SceneParams;
//! use gaurast::scene::Camera;
//! use gaurast_math::Vec3;
//!
//! let scene = SceneParams::new(300).seed(5).generate()?;
//! let service = RenderService::builder()
//!     .scene("demo", scene)
//!     .workers(2)
//!     .build()?;
//! let cam = Camera::look_at(Vec3::new(0.0, 5.0, -25.0), Vec3::zero(),
//!                           Vec3::new(0.0, 1.0, 0.0), 64, 64, 1.0)?;
//! let requests: Vec<_> = (0..4)
//!     .map(|_| RenderRequest::new("demo", cam.clone()).backend(BackendKind::Enhanced))
//!     .collect();
//! let batch = service.render_batch(&requests)?;
//! assert_eq!(batch.len(), 4);
//! assert_eq!(batch.passes, 1, "four requests of one frame share one pass");
//! assert!(batch.throughput_fps() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::backend::{BackendKind, FrameReport};
use crate::engine::{Engine, EngineBuilder, ImagePolicy};
use crate::report::{fmt_f, fmt_ms, TextTable};
use gaurast_gpu::{device, CudaGpuModel};
use gaurast_hw::RasterizerConfig;
use gaurast_render::pool::resolve_workers;
use gaurast_render::DEFAULT_TILE_SIZE;
use gaurast_scene::{Camera, CameraKey, GaussianScene, PreparedScene, VisibilityCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Error raised by service construction or request handling.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// A request named a scene the service does not hold.
    UnknownScene(String),
    /// Two scenes were registered under the same name.
    DuplicateScene(String),
    /// The service-wide session configuration is invalid.
    InvalidConfig(String),
    /// A batch worker thread panicked; the batch is abandoned but the
    /// service (and the caller) survive to serve the next request.
    WorkerPanicked(usize),
    /// An internal invariant broke mid-request. Serving code never
    /// panics on these — the caller gets the breach as data and decides
    /// whether to retry, shed, or page someone.
    Internal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownScene(name) => write!(f, "unknown scene {name:?}"),
            ServiceError::DuplicateScene(name) => {
                write!(f, "scene {name:?} registered twice")
            }
            ServiceError::InvalidConfig(reason) => {
                write!(f, "invalid service configuration: {reason}")
            }
            ServiceError::WorkerPanicked(worker) => {
                write!(f, "render worker {worker} panicked mid-batch")
            }
            ServiceError::Internal(reason) => {
                write!(f, "internal service invariant broke: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One render job: which scene, from where, on what substrate.
#[derive(Clone, Debug)]
pub struct RenderRequest {
    /// Name of a scene registered with the service.
    pub scene: String,
    /// Viewpoint to render.
    pub camera: Camera,
    /// Execution substrate for Stage 3.
    pub backend: BackendKind,
}

impl RenderRequest {
    /// A request for a scene and camera on the default
    /// ([`BackendKind::Enhanced`]) backend.
    pub fn new(scene: impl Into<String>, camera: Camera) -> Self {
        Self {
            scene: scene.into(),
            camera,
            backend: BackendKind::Enhanced,
        }
    }

    /// Selects the execution backend for this request.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// The service's answer to one [`RenderRequest`].
#[derive(Clone, Debug)]
pub struct RenderResponse {
    /// The scene the request named.
    pub scene: String,
    /// Index of the worker thread that rendered the frame (0 for
    /// [`RenderService::submit`]).
    pub worker: usize,
    /// The frame report, exactly as a dedicated single-thread session of
    /// the request's backend would have produced it (images are
    /// bit-identical). In a batch, requests of one distinct frame share
    /// its reference pass, so their backend-independent statistics —
    /// wall-clock Stage-2 time and the visibility-cache flag included —
    /// are the same.
    pub report: FrameReport,
}

/// The result of [`RenderService::render_batch`]: per-request responses in
/// request order plus aggregate accounting for the whole batch.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One response per request, in request order.
    pub responses: Vec<RenderResponse>,
    /// Wall-clock seconds the batch took end to end, including worker
    /// spawning.
    pub wall_s: f64,
    /// Worker threads the batch actually used: never more than the
    /// service's worker count or the batch's distinct frames.
    pub workers: usize,
    /// Reference passes (visibility, Stages 1–3) the batch ran: one per
    /// distinct frame, i.e. per distinct (scene, [`Camera::key`]) pair.
    pub passes: usize,
}

impl BatchReport {
    /// Number of frames rendered.
    pub fn len(&self) -> usize {
        self.responses.len()
    }

    /// `true` when the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty()
    }

    /// Wall-clock batch throughput, frames per second (0 for an empty
    /// batch).
    pub fn throughput_fps(&self) -> f64 {
        if self.wall_s > 0.0 && !self.is_empty() {
            self.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Sum of the per-frame modeled Stage-3 times, seconds — what a
    /// sequential single-session run would have billed.
    pub fn modeled_time_s(&self) -> f64 {
        self.responses.iter().map(|r| r.report.time_s).sum()
    }

    /// Sum of the per-frame modeled Stage-3 energies, joules.
    pub fn modeled_energy_j(&self) -> f64 {
        self.responses.iter().map(|r| r.report.energy_j).sum()
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} frames on {} workers, {} reference passes, in {} ms ({} fps wall, {} ms modeled stage-3, {} mJ modeled)",
            self.len(),
            self.workers,
            self.passes,
            fmt_ms(self.wall_s),
            fmt_f(self.throughput_fps(), 1),
            fmt_ms(self.modeled_time_s()),
            fmt_f(self.modeled_energy_j() * 1e3, 3),
        )?;
        let mut t = TextTable::new(vec!["#", "scene", "backend", "time ms", "worker"]);
        for (i, r) in self.responses.iter().enumerate() {
            t.row(vec![
                i.to_string(),
                r.scene.clone(),
                r.report.kind.label().to_string(),
                fmt_ms(r.report.time_s),
                r.worker.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Builder for a [`RenderService`].
///
/// Session defaults mirror [`EngineBuilder`]: 16-pixel tiles, the scaled
/// FP32 hardware configuration, the Orin NX host model, images discarded.
/// The worker count defaults to the machine's available parallelism.
#[derive(Clone, Debug)]
pub struct RenderServiceBuilder {
    scenes: Vec<(String, Arc<PreparedScene>)>,
    workers: Option<usize>,
    frame_workers: Option<usize>,
    tile_size: u32,
    hw_config: RasterizerConfig,
    host: CudaGpuModel,
    image_policy: ImagePolicy,
}

impl Default for RenderServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RenderServiceBuilder {
    /// An empty builder with the defaults above.
    pub fn new() -> Self {
        Self {
            scenes: Vec::new(),
            workers: None,
            frame_workers: None,
            tile_size: DEFAULT_TILE_SIZE,
            hw_config: RasterizerConfig::scaled(),
            host: device::orin_nx(),
            image_policy: ImagePolicy::Discard,
        }
    }

    /// Registers a raw scene under a name, preparing it once here.
    pub fn scene(self, name: impl Into<String>, scene: GaussianScene) -> Self {
        self.prepared(name, Arc::new(PreparedScene::prepare(scene)))
    }

    /// Registers an already-prepared shared scene asset under a name.
    pub fn prepared(mut self, name: impl Into<String>, scene: Arc<PreparedScene>) -> Self {
        self.scenes.push((name.into(), scene));
        self
    }

    /// Worker-pool size for [`RenderService::render_batch`] (defaults to
    /// the machine's available parallelism; a batch never uses more
    /// workers than it has distinct frames).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Intra-frame worker threads *per session* (each frame's Stage-1
    /// chunks and per-tile Stage-2+3 jobs). The default is the service's
    /// oversubscription budget: batch sessions get
    /// `available_parallelism / batch_workers` threads (at least 1), so
    /// nested request-level × frame-level parallelism never oversubscribes
    /// the machine, while [`RenderService::submit`] and
    /// [`RenderService::session`] sessions — which have the host to
    /// themselves — get the full automatic width. Setting an explicit
    /// value pins every session to that width instead. Rendering output is
    /// bit-identical for every width.
    pub fn frame_workers(mut self, frame_workers: usize) -> Self {
        self.frame_workers = Some(frame_workers);
        self
    }

    /// Tile edge in pixels for every session.
    pub fn tile_size(mut self, tile_size: u32) -> Self {
        self.tile_size = tile_size;
        self
    }

    /// Hardware configuration of the enhanced-rasterizer backend in every
    /// session.
    pub fn hw_config(mut self, config: RasterizerConfig) -> Self {
        self.hw_config = config;
        self
    }

    /// Host device model billing Stages 1–2 in every session.
    pub fn host(mut self, host: CudaGpuModel) -> Self {
        self.host = host;
        self
    }

    /// Image retention policy for every session.
    pub fn image_policy(mut self, policy: ImagePolicy) -> Self {
        self.image_policy = policy;
        self
    }

    /// Validates the configuration and builds the service.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateScene`] when a name was registered twice;
    /// [`ServiceError::InvalidConfig`] for a zero tile size, zero worker
    /// count, or invalid hardware configuration.
    pub fn build(self) -> Result<RenderService, ServiceError> {
        if self.tile_size == 0 {
            return Err(ServiceError::InvalidConfig(
                "tile size must be positive".to_string(),
            ));
        }
        if self.workers == Some(0) {
            return Err(ServiceError::InvalidConfig(
                "worker count must be positive".to_string(),
            ));
        }
        if self.frame_workers == Some(0) {
            return Err(ServiceError::InvalidConfig(
                "frame worker count must be positive".to_string(),
            ));
        }
        self.hw_config
            .validate()
            .map_err(|e| ServiceError::InvalidConfig(format!("hardware configuration: {e}")))?;
        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1)
        });
        let mut scenes = HashMap::with_capacity(self.scenes.len());
        for (name, prepared) in self.scenes {
            if scenes.insert(name.clone(), prepared).is_some() {
                return Err(ServiceError::DuplicateScene(name));
            }
        }
        Ok(RenderService {
            scenes,
            workers,
            frame_workers: self.frame_workers,
            tile_size: self.tile_size,
            hw_config: self.hw_config,
            host: self.host,
            image_policy: self.image_policy,
            vis_cache: Arc::new(VisibilityCache::new()),
        })
    }
}

/// A concurrent multi-session render service over shared prepared scenes.
/// See the [module docs](self) for the serving model and
/// [`RenderServiceBuilder`] for construction.
#[derive(Debug)]
pub struct RenderService {
    scenes: HashMap<String, Arc<PreparedScene>>,
    workers: usize,
    frame_workers: Option<usize>,
    tile_size: u32,
    hw_config: RasterizerConfig,
    host: CudaGpuModel,
    image_policy: ImagePolicy,
    /// One visible-set cache shared by *every* session the service opens:
    /// distinct frames and `submit`s sharing a scene and a bit-identical
    /// camera build each set once, across workers.
    vis_cache: Arc<VisibilityCache>,
}

impl RenderService {
    /// Starts building a service.
    pub fn builder() -> RenderServiceBuilder {
        RenderServiceBuilder::new()
    }

    /// Registers a raw scene under a name on a running service, preparing
    /// it once.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateScene`] when the name is taken.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        scene: GaussianScene,
    ) -> Result<(), ServiceError> {
        self.register_prepared(name, Arc::new(PreparedScene::prepare(scene)))
    }

    /// Registers an already-prepared shared scene asset under a name on a
    /// running service.
    ///
    /// # Errors
    /// [`ServiceError::DuplicateScene`] when the name is taken.
    pub fn register_prepared(
        &mut self,
        name: impl Into<String>,
        scene: Arc<PreparedScene>,
    ) -> Result<(), ServiceError> {
        let name = name.into();
        if self.scenes.contains_key(&name) {
            return Err(ServiceError::DuplicateScene(name));
        }
        self.scenes.insert(name, scene);
        Ok(())
    }

    /// Names of every registered scene, sorted.
    pub fn scene_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.scenes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The shared prepared asset of a registered scene.
    pub fn prepared(&self, name: &str) -> Option<&Arc<PreparedScene>> {
        self.scenes.get(name)
    }

    /// Worker-pool size [`RenderService::render_batch`] fans across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Intra-frame worker threads each *batch* session renders with — the
    /// service's oversubscription policy. With an explicit
    /// [`RenderServiceBuilder::frame_workers`] that value is used
    /// verbatim; otherwise each of the `batch_workers` request-level
    /// workers gets an equal share of the machine
    /// (`available_parallelism / batch_workers`, at least 1), so
    /// request-level × frame-level parallelism stays within the hardware.
    pub fn frame_worker_budget(&self, batch_workers: usize) -> usize {
        self.frame_workers
            .unwrap_or_else(|| (resolve_workers(0) / batch_workers.max(1)).max(1))
    }

    /// Opens a dedicated session over a registered scene — configured like
    /// the batch workers' sessions, for callers that want to drive one
    /// directly (e.g. [`Engine::render_sequence`]). A dedicated session
    /// has the host to itself, so it renders with the full frame-level
    /// worker budget ([`RenderService::frame_worker_budget`] of 1).
    ///
    /// # Errors
    /// [`ServiceError::UnknownScene`] when the name is not registered.
    pub fn session(&self, scene: &str, backend: BackendKind) -> Result<Engine, ServiceError> {
        let prepared = self.lookup(scene)?;
        self.open_session(Arc::clone(prepared), backend, self.frame_worker_budget(1))
    }

    /// Renders one request on the calling thread (with the full
    /// frame-level worker budget — there is no request-level fan-out to
    /// share the machine with).
    ///
    /// # Errors
    /// [`ServiceError::UnknownScene`] when the request names an
    /// unregistered scene.
    pub fn submit(&self, request: RenderRequest) -> Result<RenderResponse, ServiceError> {
        let report = self
            .session(&request.scene, request.backend)?
            .render_frame(&request.camera);
        Ok(RenderResponse {
            scene: request.scene,
            worker: 0,
            report,
        })
    }

    /// Fans a batch of requests across the worker pool and returns the
    /// responses **in request order**.
    ///
    /// The batch is first grouped into distinct frames: requests naming
    /// the same scene and a bit-identical camera ([`Camera::key`]), in
    /// first-appearance order. Each distinct frame is rendered once — one
    /// reference pass, executed on every backend its requests named
    /// ([`Engine::render_shared`]). Workers claim distinct frames from an
    /// atomic cursor, so an expensive frame on one worker never stalls the
    /// others, and each worker holds one engine session per scene it
    /// encounters, all sharing the service's prepared assets. Per-request
    /// reports — images included — are bit-identical with what a dedicated
    /// single-thread session of the request's backend would produce.
    ///
    /// # Errors
    /// [`ServiceError::UnknownScene`] if *any* request names an
    /// unregistered scene (checked up front; nothing is rendered).
    pub fn render_batch(&self, requests: &[RenderRequest]) -> Result<BatchReport, ServiceError> {
        for request in requests {
            self.lookup(&request.scene)?;
        }
        let started = Instant::now();
        let frames = distinct_frames(requests);
        if frames.is_empty() {
            return Ok(BatchReport {
                responses: Vec::new(),
                wall_s: started.elapsed().as_secs_f64(),
                workers: 0,
                passes: 0,
            });
        }
        let workers = self.workers.min(frames.len()).max(1);
        // Oversubscription policy: request-level workers render frames
        // with a bounded per-frame worker budget so the nested
        // parallelism stays within the machine.
        let frame_budget = self.frame_worker_budget(workers);
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<RenderResponse>> = Vec::new();
        slots.resize_with(requests.len(), || None);

        let per_worker: Vec<Result<Vec<(usize, RenderResponse)>, ServiceError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|worker| {
                        let (frames, cursor) = (&frames, &cursor);
                        scope
                            .spawn(move || self.render_frames(worker, frames, cursor, frame_budget))
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(worker, h)| {
                        h.join()
                            .map_err(|_| ServiceError::WorkerPanicked(worker))
                            .and_then(|rendered| rendered)
                    })
                    .collect()
            });

        for rendered in per_worker {
            for (index, response) in rendered? {
                match slots.get_mut(index) {
                    Some(slot) if slot.is_none() => *slot = Some(response),
                    Some(_) => {
                        return Err(ServiceError::Internal(format!(
                            "request {index} rendered twice"
                        )))
                    }
                    None => {
                        return Err(ServiceError::Internal(format!(
                            "worker produced out-of-range request index {index}"
                        )))
                    }
                }
            }
        }
        let responses = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.ok_or_else(|| {
                    ServiceError::Internal(format!("request {index} was never rendered"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BatchReport {
            responses,
            wall_s: started.elapsed().as_secs_f64(),
            workers,
            passes: frames.len(),
        })
    }

    /// One worker's share of a batch: claim the next distinct frame, render
    /// it for all its requests on the worker's session for its scene,
    /// repeat until the cursor runs out. Returns (request index, response)
    /// pairs.
    ///
    /// Scene names are validated before the batch starts, so the lookup
    /// here cannot fail in a correct service — but a worker thread must
    /// not panic on a broken invariant (it would take the whole batch
    /// down), so the breach is returned as a typed error instead.
    fn render_frames(
        &self,
        worker: usize,
        frames: &[DistinctFrame<'_>],
        cursor: &AtomicUsize,
        frame_budget: usize,
    ) -> Result<Vec<(usize, RenderResponse)>, ServiceError> {
        let mut sessions: HashMap<&str, Engine> = HashMap::new();
        let mut rendered = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(frame) = frames.get(index) else {
                break;
            };
            if !sessions.contains_key(frame.scene) {
                let prepared = self.lookup(frame.scene)?;
                let session =
                    self.open_session(Arc::clone(prepared), BackendKind::Enhanced, frame_budget)?;
                sessions.insert(frame.scene, session);
            }
            let Some(engine) = sessions.get_mut(frame.scene) else {
                return Err(ServiceError::Internal(format!(
                    "session for scene {:?} vanished after insertion",
                    frame.scene
                )));
            };
            let reports = engine.render_shared(frame.camera, &frame.kinds);
            for (&request, report) in frame.requests.iter().zip(reports) {
                let scene = frame.scene.to_string();
                rendered.push((
                    request,
                    RenderResponse {
                        scene,
                        worker,
                        report,
                    },
                ));
            }
        }
        Ok(rendered)
    }

    fn lookup(&self, name: &str) -> Result<&Arc<PreparedScene>, ServiceError> {
        self.scenes
            .get(name)
            .ok_or_else(|| ServiceError::UnknownScene(name.to_string()))
    }

    /// The service-wide visible-set cache (for introspection: hit/miss
    /// counters, current size).
    pub fn visibility_cache(&self) -> &Arc<VisibilityCache> {
        &self.vis_cache
    }

    /// Opens a per-request engine session. The configuration was
    /// validated when the service was built, so a builder failure here is
    /// an internal invariant breach — surfaced as a typed error, never a
    /// panic on a serving path.
    fn open_session(
        &self,
        prepared: Arc<PreparedScene>,
        backend: BackendKind,
        frame_workers: usize,
    ) -> Result<Engine, ServiceError> {
        EngineBuilder::shared(prepared)
            .backend(backend)
            .tile_size(self.tile_size)
            .workers(frame_workers)
            .hw_config(self.hw_config)
            .host(self.host.clone())
            .image_policy(self.image_policy)
            .visibility_cache(Arc::clone(&self.vis_cache))
            .build()
            .map_err(|e| {
                ServiceError::Internal(format!(
                    "session build failed for configuration validated at service build: {e}"
                ))
            })
    }
}

/// The requests of one batch that name the same scene and a bit-identical
/// camera: one reference pass renders them all.
#[derive(Debug)]
struct DistinctFrame<'a> {
    scene: &'a str,
    camera: &'a Camera,
    /// Indices of the requests, ascending.
    requests: Vec<usize>,
    /// Each request's backend, parallel to `requests`.
    kinds: Vec<BackendKind>,
}

/// Groups a batch into its distinct frames, in first-appearance order, in
/// O(requests).
fn distinct_frames(requests: &[RenderRequest]) -> Vec<DistinctFrame<'_>> {
    let mut order: Vec<(&str, CameraKey)> = Vec::new();
    let mut frames: HashMap<(&str, CameraKey), DistinctFrame<'_>> = HashMap::new();
    for (index, request) in requests.iter().enumerate() {
        let key = (request.scene.as_str(), request.camera.key());
        let frame = frames.entry(key).or_insert_with(|| {
            order.push(key);
            DistinctFrame {
                scene: &request.scene,
                camera: &request.camera,
                requests: Vec::new(),
                kinds: Vec::new(),
            }
        });
        frame.requests.push(index);
        frame.kinds.push(request.backend);
    }
    // Every key in `order` was inserted once and is removed once.
    order
        .into_iter()
        .filter_map(|key| frames.remove(&key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;

    fn camera(theta: f32) -> Camera {
        Camera::look_at(
            Vec3::new(25.0 * theta.sin(), 6.0, -25.0 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.05,
        )
        .unwrap()
    }

    fn service() -> RenderService {
        let scene = SceneParams::new(600).seed(17).generate().unwrap();
        RenderService::builder()
            .scene("demo", scene)
            .workers(2)
            .build()
            .unwrap()
    }

    #[test]
    fn submit_matches_dedicated_session() {
        let svc = service();
        let cam = camera(0.3);
        let resp = svc.submit(RenderRequest::new("demo", cam.clone())).unwrap();
        let mut session = svc.session("demo", BackendKind::Enhanced).unwrap();
        let direct = session.render_frame(&cam);
        assert_eq!(resp.report.time_s, direct.time_s);
        assert_eq!(resp.report.stats.blend_work, direct.stats.blend_work);
    }

    #[test]
    fn batch_preserves_request_order() {
        let svc = service();
        let requests: Vec<_> = (0..7)
            .map(|i| RenderRequest::new("demo", camera(i as f32 * 0.5)))
            .collect();
        let batch = svc.render_batch(&requests).unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.passes, 7, "seven cameras, seven passes");
        assert!(batch.workers >= 1 && batch.workers <= 2);
        // Order check: re-render each request sequentially and compare the
        // deterministic modeled statistics position by position.
        let mut session = svc.session("demo", BackendKind::Enhanced).unwrap();
        for (resp, req) in batch.responses.iter().zip(&requests) {
            let direct = session.render_frame(&req.camera);
            assert_eq!(resp.report.stats.blend_work, direct.stats.blend_work);
            assert_eq!(resp.report.stats.pairs, direct.stats.pairs);
            assert_eq!(resp.report.time_s, direct.time_s);
        }
        assert!(batch.to_string().contains("gaurast"));
    }

    #[test]
    fn batch_shares_one_prepared_asset() {
        let svc = service();
        let shared = Arc::clone(svc.prepared("demo").unwrap());
        let a = svc.session("demo", BackendKind::Enhanced).unwrap();
        let b = svc.session("demo", BackendKind::Software).unwrap();
        assert!(Arc::ptr_eq(a.prepared(), &shared));
        assert!(Arc::ptr_eq(b.prepared(), &shared));
    }

    #[test]
    fn unknown_scene_is_rejected_before_rendering() {
        let svc = service();
        let err = svc
            .render_batch(&[
                RenderRequest::new("demo", camera(0.0)),
                RenderRequest::new("missing", camera(0.0)),
            ])
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownScene("missing".to_string()));
        assert!(svc.submit(RenderRequest::new("nope", camera(0.0))).is_err());
    }

    #[test]
    fn empty_batch_is_harmless() {
        let svc = service();
        let batch = svc.render_batch(&[]).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.throughput_fps(), 0.0);
        assert_eq!((batch.workers, batch.passes), (0, 0));
    }

    #[test]
    fn duplicate_and_runtime_registration() {
        let scene = SceneParams::new(100).seed(1).generate().unwrap();
        let err = RenderService::builder()
            .scene("a", scene.clone())
            .scene("a", scene.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateScene(_)));

        let mut svc = service();
        svc.register("late", scene).unwrap();
        assert_eq!(svc.scene_names(), vec!["demo", "late"]);
        assert!(matches!(
            svc.register("late", SceneParams::new(50).seed(2).generate().unwrap()),
            Err(ServiceError::DuplicateScene(_))
        ));
    }

    #[test]
    fn batch_workers_share_one_visibility_cache() {
        // Six identical requests are one distinct frame: one reference
        // pass, one visible-set lookup.
        let svc = service();
        let cam = camera(0.4);
        let requests: Vec<_> = (0..6)
            .map(|_| RenderRequest::new("demo", cam.clone()))
            .collect();
        let batch = svc.render_batch(&requests).unwrap();
        assert_eq!((batch.passes, batch.workers), (1, 1));
        let cache = svc.visibility_cache();
        assert_eq!(cache.len(), 1, "one camera, one cached set");
        assert_eq!(cache.hits() + cache.misses(), 1);

        // A later batch on both workers hits the set the first one stored
        // and stores the new camera's set in the same service-wide cache,
        // which submit() then hits for both cameras.
        let other = camera(1.1);
        let requests = [
            RenderRequest::new("demo", cam.clone()),
            RenderRequest::new("demo", other.clone()),
        ];
        let batch = svc.render_batch(&requests).unwrap();
        assert_eq!((batch.passes, batch.workers), (2, 2));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        for c in [cam, other] {
            svc.submit(RenderRequest::new("demo", c)).unwrap();
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 2, 2));
    }

    #[test]
    fn oversubscribed_frame_budget_clamps_to_one() {
        // Regression guard: with more batch workers than cores the auto
        // budget `available_parallelism / batch_workers` truncates to 0,
        // which `WorkerPool` would reinterpret as "auto = full width" —
        // nested request x frame parallelism would then oversubscribe
        // exactly when the host is already saturated. The budget must
        // clamp to >= 1 (one frame worker per batch worker).
        let cores = gaurast_render::pool::resolve_workers(0);
        let scene = SceneParams::new(200).seed(8).generate().unwrap();
        let svc = RenderService::builder()
            .scene("demo", scene)
            .workers(cores * 4)
            .build()
            .unwrap();
        assert_eq!(svc.frame_worker_budget(cores * 4), 1);
        assert!(svc.frame_worker_budget(usize::MAX) >= 1);
        // A batch at that width must complete and stay bit-identical to
        // the single-session path.
        let requests: Vec<_> = (0..cores * 4)
            .map(|i| RenderRequest::new("demo", camera(i as f32 * 0.3)))
            .collect();
        let batch = svc.render_batch(&requests).unwrap();
        assert_eq!(batch.len(), requests.len());
        let mut session = svc.session("demo", BackendKind::Enhanced).unwrap();
        for (resp, req) in batch.responses.iter().zip(&requests) {
            let direct = session.render_frame(&req.camera);
            assert_eq!(resp.report.stats.blend_work, direct.stats.blend_work);
            assert_eq!(resp.report.time_s, direct.time_s);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(matches!(
            RenderService::builder().workers(0).build(),
            Err(ServiceError::InvalidConfig(_))
        ));
        assert!(matches!(
            RenderService::builder().tile_size(0).build(),
            Err(ServiceError::InvalidConfig(_))
        ));
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::prototype()
        };
        assert!(matches!(
            RenderService::builder().hw_config(bad).build(),
            Err(ServiceError::InvalidConfig(_))
        ));
    }
}
