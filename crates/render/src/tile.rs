//! Tile binning: assign splats to the 16×16-pixel tiles they may touch.
//!
//! Stage 2 hands Stage 3 and the hardware models one CSR workload
//! ([`RasterWorkload`]) in which every tile's splats run front to back.
//! [`bin_splats_pooled`] builds it in one depth sort and one counting
//! scatter by tile:
//!
//! 1. **depth order** — the splats are sorted once, in place, by the
//!    unique key `depth_key_bits(depth) << 32 | index`;
//! 2. **count** — fixed-size chunks of that order ([`BIN_CHUNK`] splats)
//!    count their pairs per tile, each chunk into its own row, one pool
//!    job per chunk;
//! 3. **placement** — an exclusive prefix over (tile, chunk) on the
//!    calling thread turns the rows into each chunk's first output slot
//!    per tile, and the tile totals into the CSR offsets;
//! 4. **scatter** — each chunk walks its part of the order again and
//!    writes every splat index into its own slots, one pool job per chunk.
//!
//! A splat adds at most one pair per tile, so each tile's run comes out in
//! the sort order — depth, then splat index — which is exactly what a
//! stable sort of the `(tile, depth)` pairs in submission order gives. The
//! chunk boundaries depend only on the data, so the workload is
//! bit-identical at every worker count.

use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::sort::depth_key_bits;
use crate::workload::{FrameArena, RasterWorkload};
use gaurast_math::{Aabb2, Vec2};

/// Splats per binning chunk. The chunks are *fixed-size* (like
/// [`crate::preprocess::PREPROCESS_CHUNK`]): they never depend on the
/// worker count, and the serial pool runs the same chunks in index order.
pub const BIN_CHUNK: usize = 4096;

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

/// Calls `f` with the linear index of every tile `splat` covers (see
/// [`tile_range`]).
#[inline]
fn for_each_tile(
    splat: &Splat2D,
    width: u32,
    height: u32,
    tile_size: u32,
    mut f: impl FnMut(usize),
) {
    if let Some((x0, y0, x1, y1)) = tile_range(splat, width, height, tile_size) {
        let tiles_x = width.div_ceil(tile_size);
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                f((ty * tiles_x + tx) as usize);
            }
        }
    }
}

/// Bins depth-sortable splats into a CSR workload with a fresh arena and
/// the serial pool — the convenience entry for tests and one-off frames.
///
/// Each tile's CSR range is sorted front-to-back, ties by splat index.
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

/// Stage 2: the depth sort plus counting scatter of the module docs, in
/// [`BIN_CHUNK`]-splat chunks over `pool`. All scratch comes from
/// `arena`, so steady-state frames make no data-path allocations (and the
/// persistent pool's workers are parked, not respawned, between `run`s);
/// give the buffers back with [`RasterWorkload::recycle_into`].
///
/// # Panics
/// Panics when `tile_size` is zero, the image is empty, or the frame has
/// more than `u32::MAX` (splat, tile) pairs.
// gaurast-check: hot-path
pub fn bin_splats_pooled(
    splats: Vec<Splat2D>,
    width: u32,
    height: u32,
    tile_size: u32,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RasterWorkload {
    bin_splats_chunked(splats, width, height, tile_size, arena, pool, BIN_CHUNK)
}

/// Raw pointer handing the chunk jobs of one dispatch disjoint parts of a
/// `u32` buffer: their own row of the per-chunk table, or their own
/// placement ranges of the CSR value buffer.
struct Disjoint(*mut u32);
// SAFETY: shared across workers only to reach index sets no other chunk
// job touches — chunk `c` owns table row `c`, and the exclusive
// (tile, chunk) prefix gives it value ranges no other chunk receives.
unsafe impl Sync for Disjoint {}

/// Chunk `c`'s row of the `tiles`-wide per-chunk table behind `table`.
///
/// # Safety
/// The caller must guarantee that `table` points to at least
/// `(c + 1) * tiles` elements and that nothing else accesses row `c` while
/// the returned slice lives — the pool's cursor hands each chunk index to
/// exactly one job per dispatch.
// SAFETY: an `unsafe fn`; callers uphold the `# Safety` contract above.
#[allow(clippy::mut_from_ref)]
unsafe fn chunk_row(table: &Disjoint, c: usize, tiles: usize) -> &mut [u32] {
    crate::race_region!("per-chunk table row", {
        crate::race_write!(table.0.wrapping_add(c * tiles), tiles);
        // SAFETY: in bounds and exclusive, per this function's contract.
        unsafe { std::slice::from_raw_parts_mut(table.0.add(c * tiles), tiles) }
    })
}

/// [`bin_splats_pooled`] with an explicit chunk size.
///
/// Production always passes [`BIN_CHUNK`]; the parameter exists so the
/// `gaurast-check` model tests can shrink the count/scatter protocol to a
/// handful of chunks and exhaustively interleave the *same code* that runs
/// in production (`crates/check/tests/model.rs`). The workload is the same
/// for every chunk size.
///
/// # Panics
/// Panics when `tile_size` or `chunk` is zero, the image is empty, or the
/// frame has more than `u32::MAX` (splat, tile) pairs.
// gaurast-check: hot-path
pub fn bin_splats_chunked(
    splats: Vec<Splat2D>,
    width: u32,
    height: u32,
    tile_size: u32,
    arena: &mut FrameArena,
    pool: &WorkerPool,
    chunk: usize,
) -> RasterWorkload {
    assert!(tile_size > 0 && width > 0 && height > 0);
    assert!(chunk > 0, "chunk size must be positive");
    let tiles = (width.div_ceil(tile_size) * height.div_ceil(tile_size)) as usize;

    // 1. Depth order. Every key is unique (the splat index is its low
    // half), so the in-place unstable sort is deterministic and allocates
    // nothing.
    let mut order = std::mem::take(&mut arena.order);
    order.clear();
    order.extend(
        splats
            .iter()
            .enumerate()
            .map(|(i, s)| (u64::from(depth_key_bits(s.depth)) << 32) | i as u64),
    );
    order.sort_unstable();
    let n = order.len();
    let chunks = n.div_ceil(chunk);
    let chunk_keys = |c: usize| &order[c * chunk..((c + 1) * chunk).min(n)];

    // 2. Count: chunk `c` tallies its pairs per tile into row `c`.
    let mut table = std::mem::take(&mut arena.counts);
    table.clear();
    table.resize(chunks * tiles, 0);
    let rows = Disjoint(table.as_mut_ptr());
    pool.run(chunks, |c| {
        // SAFETY: the table holds `chunks * tiles` entries and `run`
        // yields each chunk index exactly once.
        let row = unsafe { chunk_row(&rows, c, tiles) };
        for &key in chunk_keys(c) {
            let splat = &splats[key as u32 as usize];
            for_each_tile(splat, width, height, tile_size, |t| row[t] += 1);
        }
    });

    // 3. Placement: exclusive prefix over (tile, chunk). Row `c` becomes
    // chunk `c`'s first output slot per tile, and `offsets[t]` tile `t`'s
    // first slot.
    let mut offsets = std::mem::take(&mut arena.offsets);
    offsets.clear();
    offsets.resize(tiles + 1, 0);
    let mut running = 0u64;
    for (t, offset) in offsets.iter_mut().enumerate().take(tiles) {
        *offset = running as u32;
        for c in 0..chunks {
            let slot = &mut table[c * tiles + t];
            let count = *slot;
            *slot = running as u32;
            running += u64::from(count);
        }
    }
    assert!(
        running <= u64::from(u32::MAX),
        "CSR offsets are u32: at most 2^32-1 (splat, tile) pairs"
    );
    let pairs = running as usize;
    offsets[tiles] = running as u32;

    // 4. Scatter: chunk `c` writes each covered tile's splat index to the
    // next slot of its range for that tile, so every tile's run keeps the
    // depth order.
    let mut values = std::mem::take(&mut arena.values);
    values.clear();
    values.resize(pairs, 0);
    let rows = Disjoint(table.as_mut_ptr());
    let out = &Disjoint(values.as_mut_ptr());
    pool.run(chunks, |c| {
        // SAFETY: as in the count pass; the row now holds chunk `c`'s
        // placement cursors.
        let cursor = unsafe { chunk_row(&rows, c, tiles) };
        for &key in chunk_keys(c) {
            let index = key as u32;
            let splat = &splats[index as usize];
            for_each_tile(splat, width, height, tile_size, |t| {
                let at = cursor[t] as usize;
                cursor[t] += 1;
                debug_assert!(at < pairs);
                crate::race_region!("disjoint scatter slots", {
                    crate::race_write!(out.0.wrapping_add(at), 1);
                    // SAFETY: the exclusive prefix over exact counts gives
                    // every (tile, chunk) a range no other chunk receives,
                    // the cursor stays inside chunk `c`'s range for tile
                    // `t`, and every range lies below `pairs`, the length
                    // the value buffer was resized to above.
                    unsafe { *out.0.add(at) = index };
                });
            });
        }
    });

    arena.order = order;
    arena.counts = table;
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
        // The per-tile reference: lists filled in submission order, each
        // stably comparison-sorted by depth, as `RasterWorkload::new`
        // builds them.
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
        let mut lists = vec![Vec::new(); 16];
        for (i, s) in splats.iter().enumerate() {
            for_each_tile(s, 64, 64, 16, |t| lists[t].push(i as u32));
        }
        let legacy = RasterWorkload::new(64, 64, 16, splats.clone(), lists);
        for chunk in [1, 7, BIN_CHUNK] {
            let keyed = bin_splats_chunked(
                splats.clone(),
                64,
                64,
                16,
                &mut FrameArena::new(),
                &WorkerPool::serial(),
                chunk,
            );
            assert_eq!(keyed, legacy, "chunk {chunk}");
        }
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
