//! Tile binning: assign splats to the 16×16-pixel tiles they may touch.
//!
//! The reference rasterizer duplicates each splat into one packed
//! `(tile, depth)` key per tile its 3σ bounding square overlaps
//! ([`crate::sort::pack_key`]), radix-sorts the whole key array once, and
//! reads the result back as a flat CSR workload. This module reproduces
//! that exactly and emits the [`RasterWorkload`]; the historical
//! per-tile-list + comparison-sort path survives as
//! [`bin_splats_legacy`] (the [`Stage2Mode::LegacyPerTile`] escape hatch
//! and the proptest oracle).
//!
//! [`Stage2Mode::LegacyPerTile`]: crate::pipeline::Stage2Mode::LegacyPerTile

use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::sort::{key_tile, pack_key, sort_indices_by_depth};
use crate::workload::{FrameArena, RasterWorkload};
use gaurast_math::{Aabb2, Vec2};

/// Tile index range `(x0, y0, x1, y1)` (inclusive bounds) overlapped by a
/// splat's 3σ square, or `None` when it misses the image entirely.
///
/// The upper bound follows the reference rasterizer's *exclusive-max*
/// convention (`rect_max = ceil(max / tile)`, tiles `[x0, x1e)`): a box
/// ending exactly on a tile boundary does **not** enter the next tile.
/// Splats with a non-finite mean or radius are never binned (upstream
/// Stage 1 culls them; this is defense in depth for direct callers —
/// without it, `floor() as u32` would saturate a NaN to 0 and silently
/// bin the splat into tile (0, 0)).
pub fn tile_range(
    splat: &Splat2D,
    width: u32,
    height: u32,
    tile_size: u32,
) -> Option<(u32, u32, u32, u32)> {
    if !(splat.mean.is_finite() && splat.radius.is_finite()) {
        return None;
    }
    let bbox = Aabb2::from_center_radius(splat.mean, splat.radius);
    let img = Aabb2::new(Vec2::zero(), Vec2::new(width as f32, height as f32));
    if !bbox.intersects(&img) {
        return None;
    }
    let clipped = bbox.intersection(&img);
    let ts = tile_size as f32;
    let x0 = (clipped.min.x / ts).floor().max(0.0) as u32;
    let y0 = (clipped.min.y / ts).floor().max(0.0) as u32;
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    // Exclusive upper tile bound, then back to the inclusive API. A box
    // whose clipped extent is empty (touching an image edge from outside)
    // covers no tile.
    let x1e = ((clipped.max.x / ts).ceil() as u32).min(tiles_x);
    let y1e = ((clipped.max.y / ts).ceil() as u32).min(tiles_y);
    if x1e <= x0 || y1e <= y0 {
        return None;
    }
    Some((x0, y0, x1e - 1, y1e - 1))
}

/// Bins depth-sortable splats into a CSR workload through the key-sorted
/// path with a fresh arena and the serial pool — the convenience entry for
/// tests and one-off frames.
///
/// Each tile's CSR range is sorted front-to-back. The input order of
/// `splats` is irrelevant; determinism comes from the stable radix sort on
/// packed `(tile, depth)` keys.
///
/// # Panics
/// Panics when `tile_size` is zero or the image is empty.
pub fn bin_splats(splats: Vec<Splat2D>, width: u32, height: u32, tile_size: u32) -> RasterWorkload {
    bin_splats_pooled(
        splats,
        width,
        height,
        tile_size,
        &mut FrameArena::new(),
        &WorkerPool::serial(),
    )
}

/// The key-sorted Stage-2 hot path: emits one packed `(tile, depth)` key
/// per covered tile, radix-sorts the key/value pairs in one pass over
/// `pool` ([`crate::sort::RadixSorter`]), and builds the CSR offset table
/// from the sorted runs. All scratch comes from `arena`, so steady-state
/// frames make no data-path allocations (and the persistent pool's
/// workers are parked, not respawned, between `run`s); give the buffers
/// back with [`RasterWorkload::recycle_into`].
///
/// The output is **bit-identical** to [`bin_splats_legacy`] for every
/// worker count: the stable radix order on
/// [`crate::sort::depth_key_bits`] equals the stable comparison order on
/// [`f32::total_cmp`], key for key.
///
/// # Panics
/// Panics when `tile_size` is zero or the image is empty.
// gaurast-check: hot-path
pub fn bin_splats_pooled(
    splats: Vec<Splat2D>,
    width: u32,
    height: u32,
    tile_size: u32,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RasterWorkload {
    assert!(tile_size > 0 && width > 0 && height > 0);
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    let tile_count = (tiles_x * tiles_y) as usize;

    // Key emission: one (packed key, splat index) pair per covered tile,
    // in splat submission order — the order stability preserves for equal
    // depths.
    let mut keys = std::mem::take(&mut arena.keys);
    let mut values = std::mem::take(&mut arena.values);
    keys.clear();
    values.clear();
    for (i, s) in splats.iter().enumerate() {
        if let Some((x0, y0, x1, y1)) = tile_range(s, width, height, tile_size) {
            for ty in y0..=y1 {
                for tx in x0..=x1 {
                    keys.push(pack_key(ty * tiles_x + tx, s.depth));
                    values.push(i as u32);
                }
            }
        }
    }

    // One stable LSD radix sort orders every tile's run front-to-back.
    arena.sorter.sort_pairs(&mut keys, &mut values, pool);

    // CSR offsets from the sorted keys: count per tile, then prefix-sum.
    let mut offsets = std::mem::take(&mut arena.offsets);
    offsets.clear();
    offsets.resize(tile_count + 1, 0);
    for &k in &keys {
        offsets[key_tile(k) as usize + 1] += 1;
    }
    for i in 0..tile_count {
        offsets[i + 1] += offsets[i];
    }

    arena.keys = keys;
    RasterWorkload::from_csr(
        width,
        height,
        tile_size,
        splats,
        values,
        offsets,
        std::mem::take(&mut arena.processed),
        std::mem::take(&mut arena.soa),
    )
}

/// The historical Stage-2 path, kept for one release as the
/// [`Stage2Mode::LegacyPerTile`](crate::pipeline::Stage2Mode) escape hatch
/// and as the proptest oracle: bins splat indices into per-tile `Vec`s in
/// submission order, stably comparison-sorts each list by depth
/// ([`sort_indices_by_depth`]) — one pool job per tile, exactly where the
/// pre-CSR pipeline ran its in-job sorts — and flattens the lists into the
/// same CSR workload the key-sorted path produces.
///
/// # Panics
/// Panics when `tile_size` is zero or the image is empty.
pub fn bin_splats_legacy(
    splats: Vec<Splat2D>,
    width: u32,
    height: u32,
    tile_size: u32,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RasterWorkload {
    assert!(tile_size > 0 && width > 0 && height > 0);
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    let tile_count = (tiles_x * tiles_y) as usize;

    let mut lists = std::mem::take(&mut arena.lists);
    // gaurast-check: allow(alloc): `Vec::new` is a capacity-free placeholder
    // for tiles the recycled list table does not have yet; the legacy
    // per-tile lists then grow by push, as this escape hatch always has.
    lists.resize(tile_count, Vec::new());
    for list in &mut lists {
        list.clear();
    }
    for (i, s) in splats.iter().enumerate() {
        if let Some((x0, y0, x1, y1)) = tile_range(s, width, height, tile_size) {
            for ty in y0..=y1 {
                for tx in x0..=x1 {
                    lists[(ty * tiles_x + tx) as usize].push(i as u32);
                }
            }
        }
    }
    pool.run_mut(&mut lists, |_, list| sort_indices_by_depth(list, &splats));

    let mut values = std::mem::take(&mut arena.values);
    let mut offsets = std::mem::take(&mut arena.offsets);
    values.clear();
    offsets.clear();
    offsets.push(0);
    for list in &lists {
        values.extend_from_slice(list);
        offsets.push(values.len() as u32);
    }
    arena.lists = lists;
    RasterWorkload::from_csr(
        width,
        height,
        tile_size,
        splats,
        values,
        offsets,
        std::mem::take(&mut arena.processed),
        std::mem::take(&mut arena.soa),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;

    fn splat_at(x: f32, y: f32, radius: f32, depth: f32) -> Splat2D {
        Splat2D {
            mean: Vec2::new(x, y),
            conic: [0.05, 0.0, 0.05],
            depth,
            color: Vec3::one(),
            opacity: 0.9,
            radius,
            source: 0,
        }
    }

    #[test]
    fn small_splat_lands_in_one_tile() {
        let w = bin_splats(vec![splat_at(8.0, 8.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.tile_list(0, 0), &[0]);
        assert!(w.tile_list(1, 0).is_empty());
        assert!(w.tile_list(0, 1).is_empty());
        assert_eq!(w.total_pairs(), 1);
    }

    #[test]
    fn splat_on_tile_border_lands_in_both() {
        let w = bin_splats(vec![splat_at(16.0, 8.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.tile_list(0, 0), &[0]);
        assert_eq!(w.tile_list(1, 0), &[0]);
        assert_eq!(w.total_pairs(), 2);
    }

    #[test]
    fn huge_splat_covers_all_tiles() {
        let w = bin_splats(vec![splat_at(32.0, 32.0, 100.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 16);
    }

    #[test]
    fn off_image_splat_binned_nowhere() {
        let w = bin_splats(vec![splat_at(-50.0, -50.0, 3.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 0);
    }

    #[test]
    fn tile_lists_are_depth_sorted() {
        let splats = vec![
            splat_at(8.0, 8.0, 3.0, 5.0),
            splat_at(9.0, 9.0, 3.0, 1.0),
            splat_at(7.0, 7.0, 3.0, 3.0),
        ];
        let w = bin_splats(splats, 32, 32, 16);
        assert_eq!(w.tile_list(0, 0), &[1, 2, 0]);
    }

    #[test]
    fn keyed_path_matches_legacy_path() {
        let splats: Vec<Splat2D> = (0..60)
            .map(|i| {
                splat_at(
                    (i * 13 % 64) as f32,
                    (i * 29 % 64) as f32,
                    2.0 + (i % 7) as f32,
                    // Repeating depths exercise tie stability.
                    1.0 + (i % 5) as f32,
                )
            })
            .collect();
        let keyed = bin_splats(splats.clone(), 64, 64, 16);
        let legacy = bin_splats_legacy(
            splats,
            64,
            64,
            16,
            &mut FrameArena::new(),
            &WorkerPool::serial(),
        );
        assert_eq!(keyed, legacy);
    }

    #[test]
    fn tile_range_clamps_to_grid() {
        let s = splat_at(63.0, 63.0, 10.0, 1.0);
        let (x0, y0, x1, y1) = tile_range(&s, 64, 64, 16).unwrap();
        assert!(x1 <= 3 && y1 <= 3);
        assert!(x0 <= x1 && y0 <= y1);
    }

    #[test]
    fn partial_edge_tile_binning() {
        // 20x20 image with 16px tiles: 2x2 grid with partial edges.
        let w = bin_splats(vec![splat_at(18.0, 18.0, 1.5, 1.0)], 20, 20, 16);
        assert_eq!(w.tile_list(1, 1), &[0]);
        assert_eq!(w.total_pairs(), 1);
    }

    #[test]
    fn boundary_exact_box_stays_out_of_next_tile() {
        // 3σ box [8-8, 8+8] = [0, 16]: ends exactly on the x=16 tile
        // boundary, so under the exclusive-max convention it must cover
        // only tile column 0 (the bug binned it into column 1 too).
        let (x0, y0, x1, y1) = tile_range(&splat_at(8.0, 8.0, 8.0, 1.0), 64, 64, 16).unwrap();
        assert_eq!((x0, y0, x1, y1), (0, 0, 0, 0));
        let w = bin_splats(vec![splat_at(8.0, 8.0, 8.0, 1.0)], 64, 64, 16);
        assert_eq!(w.total_pairs(), 1);
        assert!(w.tile_list(1, 0).is_empty());
        assert!(w.tile_list(0, 1).is_empty());
    }

    #[test]
    fn box_starting_on_boundary_skips_previous_tile() {
        // Box [16, 22] starts exactly on the boundary: tile column 1 only.
        let (x0, _, x1, _) = tile_range(&splat_at(19.0, 8.0, 3.0, 1.0), 64, 64, 16).unwrap();
        assert_eq!((x0, x1), (1, 1));
    }

    #[test]
    fn degenerate_box_touching_image_edge_is_not_binned() {
        // Box [-6, 0]: touches the image's left edge with an empty clipped
        // extent — the reference's empty rect [0, 0) — so no tile.
        assert!(tile_range(&splat_at(-3.0, 8.0, 3.0, 1.0), 64, 64, 16).is_none());
    }

    #[test]
    fn non_finite_splats_are_never_binned() {
        // A NaN mean used to saturate `floor() as u32` to 0 and silently
        // land the splat in tile (0, 0); now it is not binned at all.
        let mut nan_mean = splat_at(8.0, 8.0, 3.0, 1.0);
        nan_mean.mean = Vec2::new(f32::NAN, 8.0);
        assert!(tile_range(&nan_mean, 64, 64, 16).is_none());
        let mut inf_radius = splat_at(8.0, 8.0, 3.0, 1.0);
        inf_radius.radius = f32::INFINITY;
        assert!(tile_range(&inf_radius, 64, 64, 16).is_none());
        let mut nan_radius = splat_at(8.0, 8.0, 3.0, 1.0);
        nan_radius.radius = f32::NAN;
        assert!(tile_range(&nan_radius, 64, 64, 16).is_none());
    }

    #[test]
    fn recycled_arena_produces_identical_workloads() {
        let splats = vec![
            splat_at(8.0, 8.0, 3.0, 2.0),
            splat_at(40.0, 40.0, 5.0, 1.0),
            splat_at(16.0, 16.0, 4.0, 3.0),
        ];
        let fresh = bin_splats(splats.clone(), 64, 64, 16);
        // Recycle through a stale arena from a differently sized grid.
        let mut arena = FrameArena::new();
        let pool = WorkerPool::serial();
        let stale = bin_splats_pooled(splats.clone(), 128, 96, 16, &mut arena, &pool);
        stale.recycle_into(&mut arena);
        let reused = bin_splats_pooled(splats, 64, 64, 16, &mut arena, &pool);
        assert_eq!(fresh, reused);
    }
}
