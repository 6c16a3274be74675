//! Engine construction.

use super::{Engine, EngineError, ImagePolicy};
use crate::backend::BackendKind;
use gaurast_gpu::{device, CudaGpuModel};
use gaurast_hw::RasterizerConfig;
use gaurast_render::{VectorMode, DEFAULT_TILE_SIZE};
use gaurast_scene::{GaussianScene, PreparedScene, VisibilityCache};
use std::sync::Arc;

/// Builder for an [`Engine`] session.
///
/// Defaults: 16-pixel tiles, the GauRast scaled hardware configuration in
/// FP32, the Jetson Orin NX as the host device for Stages 1–2, the
/// [`BackendKind::Enhanced`] backend, and images discarded after
/// statistics are recorded.
///
/// Sessions share scenes: [`EngineBuilder::new`] prepares a raw scene on
/// the spot, while [`EngineBuilder::shared`] opens a session over an
/// existing `Arc<`[`PreparedScene`]`>` without copying anything —
/// the pattern the multi-session [`RenderService`](crate::service)
/// builds on:
///
/// ```
/// use gaurast::engine::EngineBuilder;
/// use gaurast::scene::{generator::SceneParams, PreparedScene};
/// use std::sync::Arc;
///
/// let scene = SceneParams::new(200).seed(11).generate()?;
/// let shared = Arc::new(PreparedScene::prepare(scene));
/// let a = EngineBuilder::shared(Arc::clone(&shared)).build()?;
/// let b = EngineBuilder::shared(Arc::clone(&shared)).build()?;
/// assert!(Arc::ptr_eq(a.prepared(), b.prepared()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    scene: Arc<PreparedScene>,
    tile_size: u32,
    workers: usize,
    backend: BackendKind,
    hw_config: RasterizerConfig,
    host: CudaGpuModel,
    image_policy: ImagePolicy,
    vector_mode: VectorMode,
    vis_cache: Option<Arc<VisibilityCache>>,
}

impl EngineBuilder {
    /// Starts a builder over a raw scene with the defaults above. The
    /// scene is prepared ([`PreparedScene::prepare`]) here, once; use
    /// [`EngineBuilder::shared`] to reuse an already-prepared asset.
    pub fn new(scene: GaussianScene) -> Self {
        Self::shared(Arc::new(PreparedScene::prepare(scene)))
    }

    /// Starts a builder over a shared prepared-scene asset (no copy, no
    /// re-preparation).
    pub fn shared(scene: Arc<PreparedScene>) -> Self {
        Self {
            scene,
            tile_size: DEFAULT_TILE_SIZE,
            workers: 0,
            backend: BackendKind::Enhanced,
            hw_config: RasterizerConfig::scaled(),
            host: device::orin_nx(),
            image_policy: ImagePolicy::Discard,
            vector_mode: VectorMode::default(),
            vis_cache: None,
        }
    }

    /// Tile edge in pixels (16 in the reference and in GauRast).
    pub fn tile_size(mut self, tile_size: u32) -> Self {
        self.tile_size = tile_size;
        self
    }

    /// Intra-frame worker threads for the session's reference pass:
    /// Stage 1 runs in parallel Gaussian chunks and Stages 2–3 as
    /// independent per-tile jobs over a pool this wide. `0` (the default)
    /// resolves to the `GAURAST_WORKERS` environment variable or the
    /// machine's available parallelism; `1` is exactly the serial
    /// pipeline. Every width renders bit-identical frames — the knob only
    /// trades wall-clock time.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Hardware configuration of the enhanced-rasterizer backend.
    pub fn hw_config(mut self, config: RasterizerConfig) -> Self {
        self.hw_config = config;
        self
    }

    /// Host device model billing Stages 1–2 under the CUDA-collaborative
    /// schedule (and serving as the `Cuda` backend preset's sibling).
    pub fn host(mut self, host: CudaGpuModel) -> Self {
        self.host = host;
        self
    }

    /// Image retention policy for reports.
    pub fn image_policy(mut self, policy: ImagePolicy) -> Self {
        self.image_policy = policy;
        self
    }

    /// Selects the kernels of the reference pass's Stage-1 and Stage-3 hot
    /// loops. The default, [`VectorMode::Auto`], runs the AVX2 kernels
    /// when the host CPU has AVX2 and the scalar reference otherwise;
    /// [`VectorMode::Scalar`] opens a scalar reference session, the oracle
    /// a benchmark checks its frames against. Frames are
    /// **bit-identical** either way — only wall-clock time differs.
    pub fn vector_mode(mut self, mode: VectorMode) -> Self {
        self.vector_mode = mode;
        self
    }

    /// Shares an existing visible-set cache with this session (sessions
    /// over the same scene and camera poses then build each set once).
    /// By default every session gets its own cache.
    pub fn visibility_cache(mut self, cache: Arc<VisibilityCache>) -> Self {
        self.vis_cache = Some(cache);
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    /// Returns [`EngineError`] for a zero tile size or an invalid hardware
    /// configuration.
    pub fn build(self) -> Result<Engine, EngineError> {
        if self.tile_size == 0 {
            return Err(EngineError("tile size must be positive".to_string()));
        }
        self.hw_config
            .validate()
            .map_err(|e| EngineError(format!("invalid hardware configuration: {e}")))?;
        Ok(Engine::from_parts(
            self.scene,
            self.tile_size,
            self.workers,
            self.image_policy,
            self.hw_config,
            self.host,
            self.backend,
            self.vector_mode,
            self.vis_cache
                .unwrap_or_else(|| Arc::new(VisibilityCache::new())),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_hw::Precision;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::Camera;

    fn scene() -> GaussianScene {
        SceneParams::new(100).seed(3).generate().unwrap()
    }

    #[test]
    fn defaults_build() {
        let e = EngineBuilder::new(scene()).build().unwrap();
        assert_eq!(e.backend_kind(), BackendKind::Enhanced);
        assert_eq!(e.tile_size(), 16);
        assert_eq!(e.frames_rendered(), 0);
    }

    #[test]
    fn zero_tile_size_rejected() {
        let err = EngineBuilder::new(scene())
            .tile_size(0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("tile size"));
    }

    #[test]
    fn invalid_hw_config_rejected() {
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::prototype()
        };
        let err = EngineBuilder::new(scene())
            .hw_config(bad)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("hardware"));
    }

    #[test]
    fn precision_overrides_hw_config() {
        // The hardware configuration is the one place precision is set; an
        // FP16 configuration must reach the enhanced backend's billing.
        let mut e = EngineBuilder::new(scene())
            .hw_config(RasterizerConfig {
                precision: Precision::Fp16,
                ..RasterizerConfig::prototype()
            })
            .build()
            .unwrap();
        assert_eq!(e.hw_config.precision, Precision::Fp16);
        let mut fp32 = EngineBuilder::shared(Arc::clone(e.prepared()))
            .hw_config(RasterizerConfig::prototype())
            .build()
            .unwrap();
        let cam = Camera::look_at(
            Vec3::new(0.0, 5.0, -25.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.0,
        )
        .unwrap();
        let (half, single) = (e.render_frame(&cam), fp32.render_frame(&cam));
        assert!(half.energy_j > 0.0);
        assert_ne!(
            half.energy_j, single.energy_j,
            "FP16 units bill FP16 energy"
        );
    }
}
