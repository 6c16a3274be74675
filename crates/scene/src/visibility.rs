//! The visible-set subsystem: frustum-culled Gaussian index sets over a
//! coarse spatial index, cacheable per camera.
//!
//! The rasterizer's Stage 1 culls per primitive *inside* its projection
//! loop; this module moves the certain culls in front of it. A
//! [`PreparedScene`] carries a [`SpatialIndex`] (fixed grid over the
//! Gaussian positions, built once at preparation time) and can intersect
//! it with a conservative [`Frustum`] to produce a [`VisibleSet`]: the
//! ascending indices of every Gaussian that *might* survive Stage 1, plus
//! counts of the certainly-culled remainder split by Stage-1 cull branch.
//!
//! The contract, verified by proptest in `gaurast_render`: running Stage 1
//! over a visible set yields **bit-identical** output (splats, order,
//! `source` ids, cull counts, FP-op tallies) to running it over the whole
//! scene, because the frustum only drops Gaussians Stage 1 would have
//! culled anyway, and the two dropped classes reproduce exactly the op
//! accounting of the Stage-1 branches that would have culled them:
//!
//! * **depth** culls (`z` outside `[near, far]`) — zero tallied ops;
//! * **lateral** culls (projected footprint certainly off-image) — the
//!   fixed off-screen bundle
//!   (`gaurast_render::preprocess::OFFSCREEN_CULL_OPS`).
//!
//! # Caching
//!
//! A set is built from the camera's own [`Camera::frustum`], widened by a
//! float-evaluation slack (see [`PreparedScene::visible_set`]), so it is
//! valid for that exact camera. A [`VisibilityCache`] files sets under
//! `(scene generation,` [`Camera::key`]`)`: sessions sharing one cache
//! build a set once per scene and bit-identical camera, and every
//! sequence frame or `submit` that revisits that camera reuses it.

use crate::{Camera, CameraKey, GaussianScene, PreparedScene};
use gaurast_math::{Aabb3, Frustum, Vec3, Visibility};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Relative floating-point slack folded into conservative frustum tests
/// (covers evaluation-order differences between the frustum's affine
/// forms and Stage 1's `world_to_camera`).
pub(crate) const FLOAT_SLACK: f32 = 1e-4;

/// Target Gaussians per spatial-index cell (the grid resolution heuristic).
const TARGET_PER_CELL: f64 = 64.0;

/// Maximum grid resolution per axis.
const MAX_DIMS: usize = 32;

/// The key a [`VisibilityCache`] files a camera's set under:
/// [`Camera::key`].
pub fn pose_key(camera: &Camera) -> CameraKey {
    camera.key()
}

/// One cell of the [`SpatialIndex`]: the tight AABB of its member
/// positions plus the largest member 3σ radius.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    bounds: Aabb3,
    max_radius: f32,
    members: u32,
}

impl Cell {
    fn empty() -> Self {
        Self {
            bounds: Aabb3::empty(),
            max_radius: 0.0,
            members: 0,
        }
    }
}

/// A coarse fixed-grid index over Gaussian positions, built once in
/// [`PreparedScene::prepare`]. Cells summarize their members (position
/// AABB, max 3σ radius) so whole-cell frustum decisions skip the
/// per-Gaussian tests for most of the scene.
#[derive(Clone, Debug, PartialEq)]
pub struct SpatialIndex {
    dims: [usize; 3],
    /// Cell id of each Gaussian, in scene order.
    cell_of: Vec<u32>,
    cells: Vec<Cell>,
}

impl SpatialIndex {
    /// Builds the grid for a scene with precomputed per-Gaussian 3σ
    /// radii (`radii[i]` for Gaussian `i`).
    pub(crate) fn build(scene: &GaussianScene, radii: &[f32]) -> Self {
        let n = scene.len();
        let mut hull = Aabb3::empty();
        for g in scene {
            hull.expand(g.position);
        }
        let per_axis = ((n as f64 / TARGET_PER_CELL).cbrt().ceil() as usize).clamp(1, MAX_DIMS);
        let dims = [per_axis, per_axis, per_axis];
        let mut cells = vec![Cell::empty(); dims[0] * dims[1] * dims[2]];
        let mut cell_of = Vec::with_capacity(n);
        for (i, g) in scene.iter().enumerate() {
            let id = cell_id(&hull, dims, g.position);
            let cell = &mut cells[id];
            cell.bounds.expand(g.position);
            cell.max_radius = cell.max_radius.max(radii[i]);
            cell.members += 1;
            cell_of.push(id as u32);
        }
        Self {
            dims,
            cell_of,
            cells,
        }
    }

    /// Grid resolution per axis.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total cell count (including empty cells).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of cells holding at least one Gaussian.
    pub fn occupied_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.members > 0).count()
    }
}

/// Grid cell id of a position (clamped into the grid, so out-of-hull and
/// degenerate-axis positions land in a boundary cell).
fn cell_id(hull: &Aabb3, dims: [usize; 3], p: Vec3) -> usize {
    let size = hull.size();
    let mut coord = [0usize; 3];
    for axis in 0..3 {
        let extent = size[axis];
        if extent > 0.0 {
            let t = (p[axis] - hull.min[axis]) / extent * dims[axis] as f32;
            coord[axis] = (t.floor().max(0.0) as usize).min(dims[axis] - 1);
        }
    }
    (coord[2] * dims[1] + coord[1]) * dims[0] + coord[0]
}

/// The Gaussians of one scene that might survive Stage 1 for one camera
/// pose: ascending indices plus certainly-culled counts by Stage-1 cull
/// branch. Tagged with the generation of the [`PreparedScene`] it was
/// built from so it cannot be applied to the wrong scene.
#[derive(Clone, Debug, PartialEq)]
pub struct VisibleSet {
    indices: Vec<u32>,
    culled_depth: usize,
    culled_lateral: usize,
    scene_generation: u64,
}

impl VisibleSet {
    /// Ascending scene indices of the possibly-visible Gaussians.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Number of possibly-visible Gaussians.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when nothing might be visible.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Gaussians certainly culled by the depth (near/far) test — the
    /// zero-op Stage-1 cull branch.
    pub fn culled_depth(&self) -> usize {
        self.culled_depth
    }

    /// Gaussians certainly culled laterally (projected footprint off the
    /// image) — the Stage-1 branch billed the off-screen op bundle.
    pub fn culled_lateral(&self) -> usize {
        self.culled_lateral
    }

    /// Total Gaussians the frustum dropped before Stage 1.
    pub fn culled_total(&self) -> usize {
        self.culled_depth + self.culled_lateral
    }

    /// Generation tag of the [`PreparedScene`] this set belongs to.
    pub fn scene_generation(&self) -> u64 {
        self.scene_generation
    }

    /// Fraction of the scene kept (1.0 for an empty scene).
    pub fn coverage(&self) -> f64 {
        let total = self.len() + self.culled_total();
        if total == 0 {
            1.0
        } else {
            self.len() as f64 / total as f64
        }
    }
}

/// Computes the visible set of a prepared scene for a conservative
/// frustum: whole cells are classified first, only straddling cells fall
/// back to per-Gaussian sphere tests. Called through
/// [`PreparedScene::visible_set`] /
/// [`PreparedScene::visible_set_with`].
pub(crate) fn visible_set(prepared: &PreparedScene, frustum: &Frustum) -> VisibleSet {
    let index = prepared.spatial_index();
    let scene = prepared.scene();
    let radii = prepared.radii();
    let classes: Vec<Visibility> = index
        .cells
        .iter()
        .map(|cell| {
            if cell.members == 0 {
                Visibility::Mixed
            } else {
                frustum.classify_aabb(&cell.bounds, cell.max_radius)
            }
        })
        .collect();
    let mut set = VisibleSet {
        indices: Vec::with_capacity(scene.len()),
        culled_depth: 0,
        culled_lateral: 0,
        scene_generation: prepared.generation(),
    };
    for (i, g) in scene.iter().enumerate() {
        let class = match classes[index.cell_of[i] as usize] {
            Visibility::Mixed => frustum.classify(g.position, radii[i]),
            certain => certain,
        };
        match class {
            Visibility::Visible | Visibility::Mixed => set.indices.push(i as u32),
            Visibility::CulledDepth => set.culled_depth += 1,
            Visibility::CulledLateral => set.culled_lateral += 1,
        }
    }
    // Sets live in caches for a long time; do not pin a whole-scene-sized
    // allocation for a sparse survivor list.
    set.indices.shrink_to_fit();
    set
}

/// Monotonic generation source for [`PreparedScene`] tags.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// Allocates the next scene generation tag.
pub(crate) fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Upper bound for cached visible sets; when full the cache is emptied.
/// A set holds one `u32` per possibly-visible Gaussian (about 20 MB for a
/// paper-scale Garden frame), so the bound caps the cache's memory while
/// still holding a 12-pose orbit ring whole.
const CACHE_CAPACITY: usize = 32;

/// A shared store of [`VisibleSet`]s keyed by `(scene generation,`
/// [`Camera::key`]`)`. One cache can serve any number of rendering
/// sessions concurrently; requests that share a scene and a bit-identical
/// camera build the set once and reuse it everywhere.
#[derive(Debug, Default)]
pub struct VisibilityCache {
    sets: Mutex<CacheMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The map under the cache lock.
type CacheMap = HashMap<(u64, CameraKey), Arc<VisibleSet>>;

impl VisibilityCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached visible set for `(prepared, camera)` or builds,
    /// stores, and returns it. The second component reports whether this
    /// was a cache hit.
    pub fn get_or_build(
        &self,
        prepared: &PreparedScene,
        camera: &Camera,
    ) -> (Arc<VisibleSet>, bool) {
        let key = (prepared.generation(), camera.key());
        if let Some(set) = lock_sets(&self.sets).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(set), true);
        }
        // Build outside the lock: concurrent misses on different cameras
        // proceed in parallel; a racing duplicate of the same camera is
        // discarded in favor of the first inserted set.
        let built = Arc::new(prepared.visible_set(camera));
        let mut sets = lock_sets(&self.sets);
        if sets.len() >= CACHE_CAPACITY {
            sets.clear();
        }
        let set = Arc::clone(sets.entry(key).or_insert(built));
        self.misses.fetch_add(1, Ordering::Relaxed);
        (set, false)
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that built a new set.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of sets currently stored.
    pub fn len(&self) -> usize {
        lock_sets(&self.sets).len()
    }

    /// `true` when no set is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every stored set (hit/miss counters are kept).
    pub fn clear(&self) {
        lock_sets(&self.sets).clear();
    }
}

/// Locks the cache map, recovering from poisoning instead of panicking.
/// The map is only ever mutated through `HashMap` methods that leave it
/// structurally valid on unwind, so a panic elsewhere in a lock-holding
/// thread can at worst have inserted a set that was fully built — safe to
/// keep serving. A serving path must not turn one renderer panic into a
/// cache that panics every caller forever after.
fn lock_sets(sets: &Mutex<CacheMap>) -> std::sync::MutexGuard<'_, CacheMap> {
    sets.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SceneParams;
    use gaurast_math::Vec3;

    fn prepared(n: usize, seed: u64) -> PreparedScene {
        PreparedScene::prepare(SceneParams::new(n).seed(seed).generate().unwrap())
    }

    fn camera(eye: Vec3, target: Vec3) -> Camera {
        Camera::look_at(eye, target, Vec3::new(0.0, 1.0, 0.0), 128, 96, 1.05).unwrap()
    }

    #[test]
    fn centered_camera_keeps_most_of_the_scene() {
        let p = prepared(500, 7);
        let set = p.visible_set(&camera(Vec3::new(0.0, 5.0, -30.0), Vec3::zero()));
        assert!(set.len() + set.culled_total() == p.len());
        assert!(set.coverage() > 0.5, "coverage {}", set.coverage());
        assert_eq!(set.scene_generation(), p.generation());
    }

    #[test]
    fn camera_facing_away_culls_by_depth() {
        let p = prepared(500, 7);
        // Looking straight away from the scene: everything is behind.
        let set = p.visible_set(&camera(
            Vec3::new(0.0, 0.0, -100.0),
            Vec3::new(0.0, 0.0, -200.0),
        ));
        assert!(set.is_empty(), "kept {}", set.len());
        assert_eq!(set.culled_depth(), p.len());
        assert_eq!(set.culled_lateral(), 0);
    }

    #[test]
    fn off_center_camera_culls_laterally() {
        let p = prepared(800, 3);
        // Looking at the scene's far edge from close by: a large fraction
        // of the scene is beside the frustum at valid depth.
        let set = p.visible_set(&camera(
            Vec3::new(-30.0, 0.0, 0.0),
            Vec3::new(-40.0, 0.0, 40.0),
        ));
        assert!(set.culled_total() > 0);
    }

    #[test]
    fn indices_are_ascending_and_unique() {
        let p = prepared(600, 11);
        let set = p.visible_set(&camera(Vec3::new(10.0, 4.0, -25.0), Vec3::zero()));
        assert!(set.indices().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_scene_has_empty_set() {
        let p = PreparedScene::prepare(GaussianScene::new());
        let set = p.visible_set(&camera(Vec3::new(0.0, 0.0, -5.0), Vec3::zero()));
        assert!(set.is_empty());
        assert_eq!(set.coverage(), 1.0);
    }

    #[test]
    fn pose_key_distinguishes_intrinsics() {
        let a = camera(Vec3::new(0.0, 5.0, -30.0), Vec3::zero());
        let b = Camera::look_at(
            Vec3::new(0.0, 5.0, -30.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            256,
            96,
            1.05,
        )
        .unwrap();
        assert_ne!(pose_key(&a), pose_key(&b));
    }

    #[test]
    fn cache_reuses_exact_revisits_within_capacity() {
        let p = prepared(300, 5);
        let cache = VisibilityCache::new();
        // A ring of 12 poses, lapped three times: the first lap builds,
        // every later revisit hits the set the first lap stored.
        let ring: Vec<Camera> = (0..12)
            .map(|i| {
                let theta = i as f32 / 12.0 * std::f32::consts::TAU;
                camera(
                    Vec3::new(30.0 * theta.sin(), 5.0, -30.0 * theta.cos()),
                    Vec3::zero(),
                )
            })
            .collect();
        let first: Vec<_> = ring.iter().map(|c| cache.get_or_build(&p, c)).collect();
        assert!(first.iter().all(|(_, hit)| !hit));
        for _ in 0..2 {
            for (cam, (set, _)) in ring.iter().zip(&first) {
                let (again, hit) = cache.get_or_build(&p, cam);
                assert!(hit);
                assert!(Arc::ptr_eq(set, &again));
            }
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (24, 12, 12));

        // More distinct cameras than the capacity: a full cache is
        // emptied, never grown past it.
        for i in 0..CACHE_CAPACITY + 8 {
            let eye = Vec3::new(i as f32, 5.0, -40.0);
            cache.get_or_build(&p, &camera(eye, Vec3::zero()));
            assert!(cache.len() <= CACHE_CAPACITY, "len {}", cache.len());
        }

        // Two cameras one view-matrix bit apart are two entries.
        cache.clear();
        let a = camera(Vec3::new(0.0, 0.0, -30.0), Vec3::zero());
        let z = f32::from_bits((-30.0f32).to_bits() + 1);
        let b = camera(Vec3::new(0.0, 0.0, z), Vec3::zero());
        let bits = |c: &Camera, i: usize| c.view().at(i % 4, i / 4).to_bits();
        let ulps: Vec<u32> = (0..16)
            .map(|i| bits(&a, i).abs_diff(bits(&b, i)))
            .filter(|&d| d != 0)
            .collect();
        assert_eq!(ulps, [1], "the views are one ulp apart in one entry");
        assert!(!cache.get_or_build(&p, &a).1);
        assert!(!cache.get_or_build(&p, &b).1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_distinguishes_scenes() {
        let a = prepared(100, 1);
        let b = prepared(100, 1);
        assert_ne!(a.generation(), b.generation());
        let cache = VisibilityCache::new();
        let cam = camera(Vec3::new(0.0, 5.0, -30.0), Vec3::zero());
        cache.get_or_build(&a, &cam);
        let (_, hit) = cache.get_or_build(&b, &cam);
        assert!(!hit, "sets must not leak across scenes");
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn spatial_index_covers_all_gaussians() {
        let p = prepared(1000, 9);
        let index = p.spatial_index();
        assert_eq!(index.cell_of.len(), 1000);
        let members: u32 = index.cells.iter().map(|c| c.members).sum();
        assert_eq!(members, 1000);
        assert!(index.occupied_cells() > 1);
        assert!(index.cell_count() >= index.occupied_cells());
        // Every member position lies inside its cell's recorded bounds.
        for (i, g) in p.scene().iter().enumerate() {
            let cell = &index.cells[index.cell_of[i] as usize];
            assert!(cell.bounds.contains(g.position));
            assert!(cell.max_radius >= p.radii()[i]);
        }
    }
}
