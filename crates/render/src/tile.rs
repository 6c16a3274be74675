//! Tile binning: assign splats to the 16×16-pixel tiles they may touch.
//!
//! Stage 2 hands Stage 3 and the hardware models one CSR workload
//! ([`RasterWorkload`]) in which every tile's splats run front to back.
//! [`bin_splats_pooled`] builds it in two steps, reading each splat once:
//!
//! 1. **splat pass** — fixed-size chunks of the splats in their submission
//!    order ([`BIN_CHUNK`] splats, one pool job per chunk) write each
//!    splat's depth key `depth_key_bits(depth) << 32 | index` and its tile
//!    rectangle ([`tile_range`] with exclusive bounds, 16 bytes), and add
//!    the rectangle's four corner updates to the chunk's own 2D difference
//!    array over the tile grid. A tile's pair total does not depend on the
//!    depth order, so nothing is sorted here: the calling thread sums the
//!    arrays, prefix-sums the sum into every tile's total, and an
//!    exclusive prefix over the tiles gives the CSR offsets. Each tile's
//!    cursor, its first unwritten slot, starts at its offset.
//! 2. **rounds** — the depth order is then scattered in rounds of whole
//!    chunks, front to back. Each round
//!    - *orders* its keys: `select_nth_unstable` moves them, the nearest of
//!      the keys not yet sorted, in front of the rest (the last round,
//!      whose keys are the rest, skips this), and `sort_unstable` sorts
//!      them;
//!    - *counts* every chunk of the round but its last, one pool job per
//!      chunk: 4 updates per splat to the chunk's 2D difference array,
//!      gathering the splat's rectangle by index, then the array's prefix
//!      sum is the chunk's pair count per tile;
//!    - *places* the chunks on the calling thread: a chunk's first slot per
//!      tile is the tile's cursor plus the counts of the round's chunks
//!      before it, and the round's last chunk starts at the cursor itself;
//!    - *scatters*, one pool job per chunk: each chunk walks its keys, reads
//!      each splat's rectangle, and writes the splat index into its own
//!      slots of every covered tile that has not saturated. The last chunk
//!      advances the cursors, which then end what the round filled.
//!
//! A splat adds at most one pair per tile, so each tile's run comes out in
//! the sort order — depth, then splat index — which is exactly what a
//! stable sort of the `(tile, depth)` pairs in submission order gives.
//! Keys are unique, so ordering one round at a time puts every key where
//! one sort of the whole order would. The chunk boundaries depend only on
//! the data, so the workload is bit-identical at every worker count.
//!
//! Step 1 is `Binning::place` and step 2 is `Binning::scatter`, which runs
//! one round over the next range of chunks and skips the tiles flagged as
//! saturated. [`bin_splats_pooled`] scatters every chunk in one round: one
//! sort of the whole order and no selection. The frame driver
//! ([`crate::pipeline::run_frame`]) instead runs rounds of 1, 2, 4, …
//! chunks and lets Stage 3 resume the still-alive tiles after each, so a
//! tile that saturates early never has the rest of its list written, and
//! keys no round reaches are never sorted. A frame that needs every round
//! makes at most ⌈log2(chunks + 1)⌉ − 1 selections, each over what the
//! earlier rounds left, and sorts each key once, in pieces. Stage 3 reads
//! only a tile's processed prefix, which every chunk before the tile
//! saturated fills, so both paths give every reader the same lists.
//!
//! ```text
//!  splats ─▶ 1 keys + rects + per-chunk differences ─▶ tile totals
//!                                                          │
//!        ┌─────────────────────────────────────────────────┘
//!        ▼
//!  CSR offsets, cursors ─▶ round r over chunks 2^r−1 .. 2^(r+1)−1:
//!           select + sort its keys ─▶ count ─▶ place from the cursors
//!           ─▶ scatter, skipping saturated tiles ─▶ Stage 3 resumes
//!           every unsaturated tile ─▶ next round, until no tile waits
//!           for entries
//! ```

use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;
use crate::sort::depth_key_bits;
use crate::workload::{FrameArena, RasterWorkload};
use gaurast_math::{Aabb2, Vec2};
use std::marker::PhantomData;
use std::ops::Range;

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
/// without it, the saturating `as u32` casts would turn a NaN into 0 and
/// silently bin the splat into tile (0, 0)).
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
    // The clipped box lies inside `[0, width] × [0, height]`, so every
    // quotient below is finite and non-negative. There the saturating
    // cast truncates to the floor, and the floor plus one when it falls
    // short of the quotient is the ceiling: the same tiles as `floor()` and
    // `ceil()` followed by the cast, without the libm calls those two make
    // on a baseline x86-64 target.
    let ceil = |q: f32| {
        let t = q as u32;
        t.saturating_add(u32::from((t as f32) < q))
    };
    let x0 = (clipped.min.x / ts) as u32;
    let y0 = (clipped.min.y / ts) as u32;
    let tiles_x = width.div_ceil(tile_size);
    let tiles_y = height.div_ceil(tile_size);
    // Exclusive upper tile bound, then back to the inclusive API. A box
    // whose clipped extent is empty (touching an image edge from outside)
    // covers no tile.
    let x1e = ceil(clipped.max.x / ts).min(tiles_x);
    let y1e = ceil(clipped.max.y / ts).min(tiles_y);
    if x1e <= x0 || y1e <= y0 {
        return None;
    }
    Some((x0, y0, x1e - 1, y1e - 1))
}

/// A splat's tiles `[x0, x1) × [y0, y1)`: [`tile_range`] with exclusive
/// upper bounds, as Stage 2 stores it (16 bytes per splat). A splat that
/// covers no tile gets the empty rectangle at the origin (the `Default`),
/// whose four difference-array updates cancel and whose scatter loops run
/// zero times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TileRect {
    x0: u32,
    y0: u32,
    x1: u32,
    y1: u32,
}

/// The [`TileRect`] of `splat` on the `width × height` grid of
/// `tile_size` tiles.
#[inline]
// gaurast-check: hot-path
fn tile_rect(splat: &Splat2D, width: u32, height: u32, tile_size: u32) -> TileRect {
    match tile_range(splat, width, height, tile_size) {
        Some((x0, y0, x1, y1)) => TileRect {
            x0,
            y0,
            x1: x1 + 1,
            y1: y1 + 1,
        },
        None => TileRect::default(),
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

/// Stage 2: the two steps of the module docs, the splat pass and then one
/// round that scatters every chunk, in [`BIN_CHUNK`]-splat chunks over
/// `pool`. All scratch comes from `arena`, so steady-state frames make no
/// data-path allocations (and the persistent pool's workers are parked,
/// not respawned, between `run`s); give the buffers back with
/// [`RasterWorkload::recycle_into`].
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

/// Raw pointer handing the chunk jobs of one dispatch disjoint ranges of
/// one buffer, which it borrows for `'a`: their own splats' keys or
/// rectangles, their own slab of the per-chunk table, or their own
/// placement slots of the CSR value buffer.
#[derive(Clone, Copy)]
struct Disjoint<'a, T>(*mut T, PhantomData<&'a mut [T]>);
// SAFETY: shared across workers only to reach index sets no other chunk
// job touches — chunk `c` owns splats `c * chunk..` up to the next chunk,
// one slab of the per-chunk table, and the value ranges the exclusive
// placement prefix gives it and no other chunk; `T: Send` lets the
// elements be written from another thread.
unsafe impl<T: Send> Sync for Disjoint<'_, T> {}

impl<'a, T> Disjoint<'a, T> {
    /// Borrows `buffer` for the chunk jobs.
    // gaurast-check: hot-path
    fn new(buffer: &'a mut [T]) -> Self {
        Self(buffer.as_mut_ptr(), PhantomData)
    }

    /// The `len` elements from `start` on.
    ///
    /// # Safety
    /// The caller must guarantee that the buffer holds at least
    /// `start + len` elements and that nothing else accesses them while
    /// the returned slice lives — the pool's cursor hands each chunk index
    /// to exactly one job per dispatch, and each chunk's ranges are its
    /// own.
    // SAFETY: an `unsafe fn`; callers uphold the `# Safety` contract above.
    // gaurast-check: hot-path
    unsafe fn range(&self, start: usize, len: usize) -> &'a mut [T] {
        crate::race_region!("chunk-owned range", {
            crate::race_write!(self.0.wrapping_add(start), len);
            // SAFETY: in bounds and exclusive, per this function's contract.
            unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
        })
    }
}

/// Adds the four corner updates of `r` to the 2D difference array `diff`,
/// `stride` entries per line: +1 at its top-left and bottom-right corners
/// and −1 (`u32::MAX` in wrapping arithmetic) at the other two. The array
/// is one column and one row wider than the grid, so the updates of a
/// rectangle that ends at the grid's edge still land in it.
#[inline]
// gaurast-check: hot-path
fn add_corners(diff: &mut [u32], r: TileRect, stride: usize) {
    let (top, bottom) = (r.y0 as usize * stride, r.y1 as usize * stride);
    let (left, right) = (r.x0 as usize, r.x1 as usize);
    for (at, delta) in [
        (top + left, 1),
        (top + right, u32::MAX),
        (bottom + left, u32::MAX),
        (bottom + right, 1),
    ] {
        let d = &mut diff[at];
        *d = d.wrapping_add(delta);
    }
}

/// Writes into `counts` (one entry per tile, `tiles_x` per line) the
/// per-tile sums of the 2D difference array `diff` (`tiles_x + 1` per
/// line): tile (x, y)'s count is the sum of the differences at or above
/// and left of it, a running sum along each line plus the line above's
/// counts.
// gaurast-check: hot-path
fn integrate_counts(diff: &[u32], counts: &mut [u32], tiles_x: usize) {
    let mut above: &[u32] = &[];
    for (line, deltas) in counts
        .chunks_exact_mut(tiles_x)
        .zip(diff.chunks_exact(tiles_x + 1))
    {
        let mut run = 0u32;
        let ups = above.iter().chain(std::iter::repeat(&0));
        for ((count, &delta), &up) in line.iter_mut().zip(deltas).zip(ups) {
            run = run.wrapping_add(delta);
            *count = run.wrapping_add(up);
        }
        above = line;
    }
}

/// [`bin_splats_pooled`] with an explicit chunk size: `Binning::place`,
/// then one scatter round over every chunk with no tile skipped — the
/// one-round, nothing-rasterized instance of the frame driver's Stage 2
/// ([`crate::pipeline::bin_and_rasterize_chunked`]). Its round sorts the
/// whole depth order at once.
///
/// Production always passes [`BIN_CHUNK`]; the parameter exists so the
/// `gaurast-check` model tests can shrink the protocol to a handful of
/// chunks and exhaustively interleave the *same code* that runs in
/// production (`crates/check/tests/model.rs`). The workload is the same
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
    let mut bins = Binning::place(splats, width, height, tile_size, arena, pool, chunk);
    bins.scatter(0..bins.chunks, pool);
    let mut processed = std::mem::take(&mut arena.processed);
    processed.clear();
    bins.into_workload(arena, processed)
}

/// One frame's Stage 2 after its splat pass (step 1 of the module docs):
/// the keys, the splats' rectangles, the CSR offsets and each tile's
/// cursor, with a value buffer of one slot per pair that
/// [`Binning::scatter`] fills one round of chunks at a time. Its buffers
/// come from a [`FrameArena`] and go back to it in `Binning::into_workload`.
#[derive(Debug)]
pub(crate) struct Binning {
    width: u32,
    height: u32,
    tile_size: u32,
    tiles_x: usize,
    /// Tiles in the grid.
    tiles: usize,
    /// Splats per chunk of the depth order.
    chunk: usize,
    /// Chunks of the depth order; at least one, so an empty frame has one
    /// empty chunk.
    pub(crate) chunks: usize,
    /// Chunks scattered so far; the next round starts here.
    scattered: usize,
    /// The frame's splats, in submission order.
    pub(crate) splats: Vec<Splat2D>,
    /// Depth-order keys (`depth_key_bits << 32 | index`), sorted one round
    /// at a time: the keys of the chunks scattered so far are in depth
    /// order, and the rest are the keys no round has reached yet, in no
    /// particular order.
    order: Vec<u64>,
    /// Each splat's tile rectangle, in splat order.
    rects: Vec<TileRect>,
    /// `chunks` slabs of [`Binning::pitch`] entries, each a row of `tiles`
    /// entries and then a 2D difference array. Slab 0's row holds the tile
    /// cursors for the whole frame. The splat pass writes one difference
    /// array per chunk of the splat order; each round's count then reuses
    /// slabs 1, 2, … for its chunks' rows and difference arrays.
    table: Vec<u32>,
    /// Entries per slab of `table`.
    pitch: usize,
    /// The CSR offsets, `tiles + 1` entries.
    pub(crate) offsets: Vec<u32>,
    /// The CSR value buffer, one slot per pair.
    pub(crate) values: Vec<u32>,
    /// One flag per tile, all clear after placement: set, the tile has
    /// saturated and [`Binning::scatter`] skips its slots.
    pub(crate) saturated: Vec<bool>,
}

impl Binning {
    /// Step 1 of the module docs in `chunk`-splat chunks over `pool`: the
    /// splat pass with each chunk's difference array, then the tile
    /// totals, the CSR offsets and the cursors. Nothing is sorted or
    /// scattered yet.
    ///
    /// # Panics
    /// Panics when `tile_size` or `chunk` is zero, the image is empty, or
    /// the frame has more than `u32::MAX` (splat, tile) pairs.
    // gaurast-check: hot-path
    pub(crate) fn place(
        splats: Vec<Splat2D>,
        width: u32,
        height: u32,
        tile_size: u32,
        arena: &mut FrameArena,
        pool: &WorkerPool,
        chunk: usize,
    ) -> Self {
        assert!(tile_size > 0 && width > 0 && height > 0);
        assert!(chunk > 0, "chunk size must be positive");
        let tiles_x = width.div_ceil(tile_size) as usize;
        let tiles_y = height.div_ceil(tile_size) as usize;
        let tiles = tiles_x * tiles_y;
        let n = splats.len();
        let chunks = n.div_ceil(chunk).max(1);
        let span = |c: usize| c * chunk..((c + 1) * chunk).min(n);
        let stride = tiles_x + 1;
        let diff_len = stride * (tiles_y + 1);
        let pitch = tiles + diff_len;

        // Splat pass: chunk `c` reads its splats once, writes their keys
        // and rectangles, and adds the rectangles' corners to the
        // difference array of slab `c`. Every key, rectangle and
        // difference entry is written here, so the buffers are resized
        // without clearing.
        let mut order = std::mem::take(&mut arena.order);
        order.resize(n, 0);
        let mut rects = std::mem::take(&mut arena.rects);
        rects.resize(n, TileRect::default());
        let mut table = std::mem::take(&mut arena.counts);
        table.resize(chunks * pitch, 0);
        let keys_out = Disjoint::new(&mut order);
        let rects_out = Disjoint::new(&mut rects);
        let diffs_out = Disjoint::new(&mut table);
        pool.run(chunks, |c| {
            let rows = span(c);
            let (start, len) = (rows.start, rows.len());
            // SAFETY: the keys hold `n` entries, chunk `c`'s splat range
            // lies below `n` and belongs to no other chunk, and `run`
            // yields each chunk index exactly once.
            let keys = unsafe { keys_out.range(start, len) };
            // SAFETY: likewise for the `n` rectangles.
            let chunk_rects = unsafe { rects_out.range(start, len) };
            // SAFETY: the table holds `chunks` slabs of `pitch` entries,
            // and slab `c`'s difference array belongs to chunk `c` alone.
            let diff = unsafe { diffs_out.range(c * pitch + tiles, diff_len) };
            diff.fill(0);
            for ((s, (key, rect)), i) in splats[rows]
                .iter()
                .zip(keys.iter_mut().zip(chunk_rects))
                .zip(start..)
            {
                *key = (u64::from(depth_key_bits(s.depth)) << 32) | i as u64;
                *rect = tile_rect(s, width, height, tile_size);
                add_corners(diff, *rect, stride);
            }
        });

        // Tile totals: slab 0's difference array gathers the others', and
        // its prefix sum lands in slab 0's row. An exclusive prefix over
        // the tiles then turns the totals into the CSR offsets, and each
        // tile's cursor starts at its first slot.
        let (first, rest) = table.split_at_mut(pitch);
        let (cursors, sum) = first.split_at_mut(tiles);
        for slab in rest.chunks_exact(pitch) {
            for (s, &d) in sum.iter_mut().zip(slab.iter().skip(tiles)) {
                *s = s.wrapping_add(d);
            }
        }
        integrate_counts(sum, cursors, tiles_x);
        let mut offsets = std::mem::take(&mut arena.offsets);
        offsets.clear();
        offsets.resize(tiles + 1, 0);
        let mut running = 0u64;
        for (cursor, offset) in cursors.iter_mut().zip(offsets.iter_mut()) {
            let total = u64::from(*cursor);
            *offset = running as u32;
            *cursor = running as u32;
            running += total;
        }
        assert!(
            running <= u64::from(u32::MAX),
            "CSR offsets are u32: at most 2^32-1 (splat, tile) pairs"
        );
        offsets[tiles] = running as u32;
        // The scatter writes only the slots it reaches, so the value buffer
        // is resized without clearing.
        let mut values = std::mem::take(&mut arena.values);
        values.resize(running as usize, 0);
        let mut saturated = std::mem::take(&mut arena.saturated);
        saturated.clear();
        saturated.resize(tiles, false);

        Self {
            width,
            height,
            tile_size,
            tiles_x,
            tiles,
            chunk,
            chunks,
            scattered: 0,
            splats,
            order,
            rects,
            table,
            pitch,
            offsets,
            values,
            saturated,
        }
    }

    /// Each tile's cursor: the end of the slots the rounds so far filled
    /// for it, or its first slot before any round. Once a tile has
    /// saturated, its cursor marks nothing, and Stage 3 reads it no more.
    // gaurast-check: hot-path
    pub(crate) fn filled_ends(&self) -> &[u32] {
        self.table.split_at(self.tiles).0
    }

    /// Puts the keys of chunks `chunks`, the next round, in depth order:
    /// unless the round reaches the last chunk, `select_nth_unstable`
    /// first moves the nearest keys not yet sorted in front of the rest,
    /// as many as the round holds. Keys are unique, so they are exactly
    /// the keys one sort of the whole order puts there.
    // gaurast-check: hot-path
    fn order_keys(&mut self, chunks: Range<usize>) {
        let n = self.order.len();
        let (start, end) = (chunks.start * self.chunk, (chunks.end * self.chunk).min(n));
        let unsorted = self.order.split_at_mut(start).1;
        if end < n {
            unsorted.select_nth_unstable(end - start);
        }
        unsorted.split_at_mut(end - start).0.sort_unstable();
    }

    /// Counts and places the chunks in `chunks`, whose keys are in depth
    /// order: every chunk but the last counts its pairs per tile into its
    /// own slab's row, one pool job per chunk, and the calling thread then
    /// turns the rows into first slots from the cursors. Chunk
    /// `chunks.start + j` gets slab `j + 1`, and the cursors move to the
    /// last chunk's first slots.
    // gaurast-check: hot-path
    fn count_chunks(&mut self, chunks: Range<usize>, pool: &WorkerPool) {
        let (tiles, tiles_x, pitch) = (self.tiles, self.tiles_x, self.pitch);
        let (chunk, n) = (self.chunk, self.order.len());
        let counted = chunks.len().saturating_sub(1);
        let (order, rects) = (&self.order, &self.rects);
        let (first, slabs) = self.table.split_at_mut(pitch);
        let slabs_out = Disjoint::new(slabs);
        pool.run(counted, |j| {
            let c = chunks.start + j;
            // SAFETY: the table holds a slab per chunk and a round holds
            // at most every chunk, so slab `j + 1` exists; it belongs to
            // job `j` alone, and `run` yields each job index exactly once.
            let slab = unsafe { slabs_out.range(j * pitch, pitch) };
            let (row, diff) = slab.split_at_mut(tiles);
            diff.fill(0);
            for &key in &order[c * chunk..((c + 1) * chunk).min(n)] {
                add_corners(diff, rects[key as u32 as usize], tiles_x + 1);
            }
            integrate_counts(diff, row, tiles_x);
        });
        // Placement: each counted row becomes its chunk's first slot per
        // tile, and the cursor moves past the chunk's pairs.
        let cursors = first.split_at_mut(tiles).0;
        for row in slabs.chunks_exact_mut(pitch).take(counted) {
            for (slot, cursor) in row.iter_mut().zip(cursors.iter_mut()) {
                let count = *slot;
                *slot = *cursor;
                *cursor += count;
            }
        }
    }

    /// Step 2 of the module docs for the chunks in `chunks`, the next
    /// round: orders, counts and places them, then scatters one pool job
    /// per chunk. Each writes its splats' indices into its own slots of
    /// every covered tile whose saturation flag is clear, so every tile's
    /// run keeps the depth order; the round's last chunk advances the
    /// cursors.
    ///
    /// # Panics
    /// Panics when `chunks` does not start at the first chunk not yet
    /// scattered or reaches past the last chunk.
    // gaurast-check: hot-path
    pub(crate) fn scatter(&mut self, chunks: Range<usize>, pool: &WorkerPool) {
        assert!(
            chunks.start == self.scattered && chunks.end <= self.chunks,
            "scatter rounds run front to back, up to the last chunk"
        );
        let (first, end) = (chunks.start, chunks.end);
        self.order_keys(first..end);
        self.count_chunks(first..end, pool);
        self.scattered = end;
        let (tiles, tiles_x, pitch) = (self.tiles, self.tiles_x, self.pitch);
        let (chunk, n) = (self.chunk, self.order.len());
        let pairs = self.values.len();
        let (order, rects, saturated) = (&self.order, &self.rects, &self.saturated);
        let rows = Disjoint::new(&mut self.table);
        let out = &Disjoint::new(&mut self.values);
        let jobs = end - first;
        pool.run(jobs, |job| {
            let c = first + job;
            // The flags were last written between dispatches, by the
            // thread that issued this one.
            crate::race_read!(saturated.as_ptr(), saturated.len());
            // SAFETY: the table holds at least `jobs` slabs whose rows
            // start it, job `job` takes slab `(job + 1) % jobs` (its
            // counted row, or the cursors for the last job) and no other
            // job does, and `run` yields each job index exactly once.
            let cursor = unsafe { rows.range(((job + 1) % jobs) * pitch, tiles) };
            for &key in &order[c * chunk..((c + 1) * chunk).min(n)] {
                let index = key as u32;
                let r = rects[index as usize];
                for ty in r.y0 as usize..r.y1 as usize {
                    let (from, to) = (ty * tiles_x + r.x0 as usize, ty * tiles_x + r.x1 as usize);
                    for (slot, &done) in cursor[from..to].iter_mut().zip(&saturated[from..to]) {
                        if done {
                            continue;
                        }
                        let at = *slot as usize;
                        *slot += 1;
                        // The count read the same rectangles, so the
                        // cursor stays in range; the write below relies on
                        // it.
                        assert!(at < pairs, "scatter slot outside the values");
                        crate::race_region!("disjoint scatter slots", {
                            crate::race_write!(out.0.wrapping_add(at), 1);
                            // SAFETY: `at < pairs`, the length the value
                            // buffer was resized to, is asserted above; and
                            // the exclusive prefix over exact counts, from
                            // the cursor that every earlier round's last
                            // chunk left, gives every (tile, chunk) a range
                            // no other chunk receives, inside which the
                            // cursor of chunk `c` stays.
                            unsafe { *out.0.add(at) = index };
                        });
                    }
                }
            }
        });
    }

    /// Hands the Stage-2 scratch back to `arena` and assembles the
    /// workload: `processed` empty when nothing was rasterized, else the
    /// reference pass's counts.
    // gaurast-check: hot-path
    pub(crate) fn into_workload(
        self,
        arena: &mut FrameArena,
        processed: Vec<u32>,
    ) -> RasterWorkload {
        arena.order = self.order;
        arena.rects = self.rects;
        arena.counts = self.table;
        arena.saturated = self.saturated;
        RasterWorkload::from_csr(
            self.width,
            self.height,
            self.tile_size,
            self.splats,
            self.values,
            self.offsets,
            processed,
        )
    }
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
            if let Some((x0, y0, x1, y1)) = tile_range(s, 64, 64, 16) {
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        lists[(ty * 4 + tx) as usize].push(i as u32);
                    }
                }
            }
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
    fn tile_range_matches_the_floor_ceil_formula() {
        // The formula `tile_range` computes with integer casts, written
        // with `floor()` and `ceil()`.
        fn reference(
            s: &Splat2D,
            width: u32,
            height: u32,
            ts: u32,
        ) -> Option<(u32, u32, u32, u32)> {
            let bbox = Aabb2::from_center_radius(s.mean, s.radius);
            let img = Aabb2::new(Vec2::zero(), Vec2::new(width as f32, height as f32));
            if !(s.mean.is_finite() && s.radius.is_finite() && bbox.intersects(&img)) {
                return None;
            }
            let c = bbox.intersection(&img);
            let t = ts as f32;
            let x0 = (c.min.x / t).floor().max(0.0) as u32;
            let y0 = (c.min.y / t).floor().max(0.0) as u32;
            let x1e = ((c.max.x / t).ceil() as u32).min(width.div_ceil(ts));
            let y1e = ((c.max.y / t).ceil() as u32).min(height.div_ceil(ts));
            (x1e > x0 && y1e > y0).then(|| (x0, y0, x1e - 1, y1e - 1))
        }
        // Means on an eighth-pixel lattice and radii on a quarter-pixel
        // one put box edges exactly on, and just off, every tile boundary
        // of whole and ragged grids; the wide values reach the clamps.
        let coords = (-48..=720).map(|k| k as f32 / 8.0);
        let radii: Vec<f32> = (0..=80)
            .map(|k| k as f32 / 4.0)
            .chain([1e3, 3e38])
            .collect();
        for (width, height, ts) in [
            (64, 64, 16),
            (70, 53, 16),
            (70, 53, 8),
            (20, 18, 16),
            (5, 3, 1),
        ] {
            for x in coords.clone() {
                for &radius in &radii {
                    let s = splat_at(x, x * 0.7 - 3.0, radius, 1.0);
                    assert_eq!(
                        tile_range(&s, width, height, ts),
                        reference(&s, width, height, ts),
                        "{width}x{height}/{ts}: mean {:?}, radius {radius}",
                        s.mean
                    );
                }
            }
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
