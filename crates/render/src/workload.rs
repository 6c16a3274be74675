//! The rasterization workload — the interface between the software pipeline
//! and the architecture models.
//!
//! Stages 1–2 produce a [`RasterWorkload`]: the preprocessed splats plus a
//! **CSR** (compressed sparse row) layout of depth-sorted splat indices —
//! one `values` buffer with a slot for every (splat, tile) pair,
//! tile-major, and an `offsets` table with one entry per tile plus a
//! terminator, so tile `i`'s full list occupies
//! `values[offsets[i]..offsets[i + 1]]`.
//!
//! A tile's list matters only up to its *processed prefix*: the splats
//! the reference Stage-3 pass read before every pixel of the tile
//! saturated. After a reference pass the workload holds each tile's
//! processed prefix and its full list length, which is all any consumer
//! reads — Stage 3, the PE render, GSCore's refinement and every billing
//! model stop at the prefix, and the pair count comes from the offsets.
//! The frame driver ([`crate::pipeline::run_frame`]) scatters the depth
//! order in rounds and skips tiles that have saturated, so slots past a
//! tile's prefix may never be written; [`RasterWorkload::tile_list_at`]
//! and equality see only the prefixes. Before a reference pass (a bare
//! Stage-2 product) every tile's prefix is its whole list.
//! Both the CUDA baseline model and the GauRast cycle-accurate simulator
//! consume this same structure, so the speedups compare identical work.
//!
//! The CSR buffers (and the depth-order keys, tile rectangles, difference
//! arrays and per-chunk counts that produce them — see [`crate::tile`]),
//! the processed counts and Stage 3's tile jobs with their pixel planes
//! live in a per-session [`FrameArena`], so steady-state frames run
//! Stages 2 and 3 without touching the allocator.

use crate::preprocess::Splat2D;
use crate::rasterize::TileJob;
use crate::tile::TileRect;

/// Per-tile, depth-ordered rasterization work for one frame, in CSR form.
///
/// Equality compares the grid, the splats, the offsets and each tile's
/// held prefix ([`RasterWorkload::tile_list_at`]); slots past a prefix are
/// not part of the workload.
#[derive(Clone)]
pub struct RasterWorkload {
    width: u32,
    height: u32,
    tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
    splats: Vec<Splat2D>,
    /// Flat, tile-major splat-index buffer with a slot for every (splat,
    /// tile) pair. Each tile's held prefix sits at the start of its run,
    /// depth-sorted; slots after it may hold anything.
    pub(crate) values: Vec<u32>,
    /// CSR offset table, `tile_count() + 1` entries: tile `i`'s full list
    /// occupies `values[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<u32>,
    /// Per-tile processed counts recorded by the reference rasterizer;
    /// empty until a pass (or [`RasterWorkload::set_processed`]) fills it.
    pub(crate) processed: Vec<u32>,
}

impl PartialEq for RasterWorkload {
    fn eq(&self, other: &Self) -> bool {
        (self.width, self.height, self.tile_size) == (other.width, other.height, other.tile_size)
            && self.splats == other.splats
            && self.offsets == other.offsets
            && (0..self.tile_count()).all(|t| self.tile_list_at(t) == other.tile_list_at(t))
    }
}

impl std::fmt::Debug for RasterWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lists: Vec<&[u32]> = (0..self.tile_count())
            .map(|t| self.tile_list_at(t))
            .collect();
        f.debug_struct("RasterWorkload")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("tile_size", &self.tile_size)
            .field("splats", &self.splats)
            .field("offsets", &self.offsets)
            .field("held", &lists)
            .finish_non_exhaustive()
    }
}

impl RasterWorkload {
    /// Assembles a workload from per-tile index lists, stably
    /// depth-sorting each list (the Stage-2 invariant every consumer
    /// relies on — Stage 3 no longer sorts in its tile jobs, so the
    /// constructor establishes the order; already-sorted lists pass
    /// through bit-identically). This is the compatibility entry for
    /// tests and custom tilers; the reference pipeline builds workloads
    /// through Stage 2 ([`crate::tile::bin_splats_pooled`]).
    ///
    /// # Panics
    /// Panics when the tile-list count does not match the grid, when the
    /// tile size is zero, or when any index is out of bounds.
    pub fn new(
        width: u32,
        height: u32,
        tile_size: u32,
        splats: Vec<Splat2D>,
        tile_lists: Vec<Vec<u32>>,
    ) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        assert_eq!(
            tile_lists.len(),
            (tiles_x * tiles_y) as usize,
            "tile list count must match the grid"
        );
        let total: usize = tile_lists.iter().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(tile_lists.len() + 1);
        offsets.push(0u32);
        for list in &tile_lists {
            let start = values.len();
            for &i in list {
                assert!((i as usize) < splats.len(), "splat index {i} out of bounds");
                values.push(i);
            }
            crate::sort::sort_indices_by_depth(&mut values[start..], &splats);
            offsets.push(values.len() as u32);
        }
        Self::from_csr(
            width,
            height,
            tile_size,
            splats,
            values,
            offsets,
            Vec::new(),
        )
    }

    /// Assembles a workload directly from CSR buffers (the arena-backed
    /// binning path). `processed` is either empty (every tile holds its
    /// whole list) or one count per tile (each tile holds that prefix, as
    /// after a reference pass); an empty buffer may carry recycled
    /// capacity.
    ///
    /// # Panics
    /// Panics when the offset table does not match the grid or is not a
    /// monotone cover of `values`, or when a processed count does not fit
    /// its list. Index bounds of the held prefixes are a `debug_assert` —
    /// the binning paths emit indices straight from the splat iteration,
    /// and this constructor is on the per-frame hot path.
    pub(crate) fn from_csr(
        width: u32,
        height: u32,
        tile_size: u32,
        splats: Vec<Splat2D>,
        values: Vec<u32>,
        offsets: Vec<u32>,
        processed: Vec<u32>,
    ) -> Self {
        assert!(tile_size > 0, "tile size must be positive");
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let tiles_x = width.div_ceil(tile_size);
        let tiles_y = height.div_ceil(tile_size);
        assert_eq!(
            offsets.len(),
            (tiles_x * tiles_y) as usize + 1,
            "offset table must have one entry per tile plus a terminator"
        );
        assert_eq!(offsets[0], 0, "offset table must start at zero");
        assert_eq!(
            offsets.last().map(|&n| n as usize),
            Some(values.len()),
            "offset table must end at the value count"
        );
        assert!(
            offsets
                .iter()
                .zip(offsets.iter().skip(1))
                .all(|(a, b)| a <= b),
            "offset table must be monotone"
        );
        // Debug-only finiteness gate: Stage 1 culls non-finite splats and
        // `tile_range` refuses to bin them, so a non-finite mean, radius,
        // or depth here means an upstream guard was bypassed (NaN depths
        // would also poison the depth keys).
        debug_assert!(
            splats
                .iter()
                .all(|s| s.mean.is_finite() && s.radius.is_finite() && s.depth.is_finite()),
            "non-finite splat reached RasterWorkload"
        );
        let mut workload = Self {
            width,
            height,
            tile_size,
            tiles_x,
            tiles_y,
            splats,
            values,
            offsets,
            processed,
        };
        if !workload.processed.is_empty() {
            let processed = std::mem::take(&mut workload.processed);
            workload.set_processed(processed);
        }
        debug_assert!(
            (0..workload.tile_count()).all(|t| workload
                .tile_list_at(t)
                .iter()
                .all(|&i| (i as usize) < workload.splats.len())),
            "splat index out of bounds in CSR values"
        );
        workload
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Tile edge in pixels.
    #[inline]
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Number of tile columns.
    #[inline]
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    #[inline]
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Total tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// All preprocessed splats.
    #[inline]
    pub fn splats(&self) -> &[Splat2D] {
        &self.splats
    }

    /// The CSR offset table (`tile_count() + 1` entries): tile `i`'s full
    /// list length is `offsets[i + 1] - offsets[i]`.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The depth-sorted splat indices the workload holds for the linear
    /// tile index (`ty * tiles_x + tx`) — a zero-copy slice of the CSR
    /// value buffer: the tile's processed prefix after a reference pass,
    /// its whole list before one.
    ///
    /// # Panics
    /// Panics when the index is out of range.
    #[inline]
    pub fn tile_list_at(&self, tile: usize) -> &[u32] {
        let start = self.offsets[tile];
        let end = match self.processed.get(tile) {
            Some(&p) => start + p,
            None => self.offsets[tile + 1],
        };
        &self.values[start as usize..end as usize]
    }

    /// The splat indices the workload holds for tile `(tx, ty)`
    /// ([`RasterWorkload::tile_list_at`]).
    ///
    /// # Panics
    /// Panics when the tile coordinate is out of range.
    #[inline]
    pub fn tile_list(&self, tx: u32, ty: u32) -> &[u32] {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of range");
        self.tile_list_at((ty * self.tiles_x + tx) as usize)
    }

    /// Iterates the tiles in linear (tile-major) order, yielding each
    /// tile's held prefix, rectangle, and processed count — the one
    /// traversal every architecture model shares.
    pub fn tiles(&self) -> impl Iterator<Item = TileRef<'_>> + '_ {
        (0..self.tile_count()).map(move |i| {
            let (tx, ty) = (i as u32 % self.tiles_x, i as u32 / self.tiles_x);
            TileRef {
                index: i,
                tx,
                ty,
                list: self.tile_list_at(i),
                processed: self.processed_count(tx, ty),
                rect: self.tile_rect(tx, ty),
            }
        })
    }

    /// Pixel rectangle of tile `(tx, ty)`: `(x0, y0, x1, y1)`, exclusive
    /// upper bounds, clipped to the image.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> (u32, u32, u32, u32) {
        tile_pixel_rect((self.width, self.height, self.tile_size), tx, ty)
    }

    /// Number of pixels in tile `(tx, ty)` (edge tiles may be partial).
    pub fn tile_pixels(&self, tx: u32, ty: u32) -> u64 {
        let (x0, y0, x1, y1) = self.tile_rect(tx, ty);
        u64::from(x1 - x0) * u64::from(y1 - y0)
    }

    /// Total (splat, tile) pairs — the sum of the full list lengths, i.e.
    /// the sort/binning workload of Stage 2.
    pub fn total_pairs(&self) -> u64 {
        self.offsets.last().map_or(0, |&n| u64::from(n))
    }

    /// Records how many splats of each tile's list were actually processed
    /// before the whole tile saturated (filled in by the reference
    /// rasterizer; both architecture models bill exactly this much work).
    /// From then on each tile holds only that prefix of its list.
    ///
    /// # Panics
    /// Panics when the vector length does not match the tile count or when
    /// any count exceeds the tile's held list.
    pub fn set_processed(&mut self, processed: Vec<u32>) {
        assert_eq!(processed.len(), self.tile_count(), "one count per tile");
        for (i, p) in processed.iter().enumerate() {
            let len = self.tile_list_at(i).len() as u32;
            assert!(*p <= len, "processed count {p} exceeds list length {len}");
        }
        self.processed = processed;
    }

    /// Processed splat count for tile `(tx, ty)`: the recorded count if the
    /// reference rasterizer ran, otherwise the full list length.
    pub fn processed_count(&self, tx: u32, ty: u32) -> u32 {
        let idx = (ty * self.tiles_x + tx) as usize;
        if self.processed.is_empty() {
            self.offsets[idx + 1] - self.offsets[idx]
        } else {
            self.processed[idx]
        }
    }

    /// Total Gaussian-pixel blend operations for the frame:
    /// `Σ_tiles processed(tile) × pixels(tile)`. This is the `W` that both
    /// architecture models divide by their respective throughputs.
    pub fn blend_work(&self) -> u64 {
        self.tiles()
            .map(|t| u64::from(t.processed) * t.pixels())
            .sum()
    }

    /// Moves this workload's CSR and processed-count buffers back into a
    /// session arena so the next frame reuses the allocations
    /// ([`FrameArena`] is the steady-state zero-allocation contract of the
    /// Stage-2 and Stage-3 data paths). The splats are dropped — their
    /// allocation belongs to Stage 1, which produces a fresh `Vec` per
    /// frame.
    pub fn recycle_into(self, arena: &mut FrameArena) {
        arena.values = self.values;
        arena.offsets = self.offsets;
        arena.processed = self.processed;
    }

    /// Length of the longest full tile list (load-imbalance metric).
    pub fn max_list_len(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Mean full tile-list length.
    pub fn mean_list_len(&self) -> f64 {
        if self.tile_count() == 0 {
            return 0.0;
        }
        self.total_pairs() as f64 / self.tile_count() as f64
    }
}

/// Pixel rectangle of tile `(tx, ty)` on a `width × height` image of
/// `tile_size` tiles: `(x0, y0, x1, y1)`, exclusive upper bounds, clipped
/// to the image — the one grid authority that shapes Stage 3's tile jobs
/// and the rectangles the architecture models bill.
pub(crate) fn tile_pixel_rect(
    (width, height, tile_size): (u32, u32, u32),
    tx: u32,
    ty: u32,
) -> (u32, u32, u32, u32) {
    let x0 = tx * tile_size;
    let y0 = ty * tile_size;
    (
        x0,
        y0,
        (x0 + tile_size).min(width),
        (y0 + tile_size).min(height),
    )
}

/// One tile's view of a CSR workload (see [`RasterWorkload::tiles`]).
#[derive(Clone, Copy, Debug)]
pub struct TileRef<'a> {
    /// Linear tile index (`ty * tiles_x + tx`).
    pub index: usize,
    /// Tile column.
    pub tx: u32,
    /// Tile row.
    pub ty: u32,
    /// The tile's held prefix of depth-sorted splat indices
    /// ([`RasterWorkload::tile_list_at`]).
    pub list: &'a [u32],
    /// Processed count (the full list length when no reference pass
    /// recorded one).
    pub processed: u32,
    /// Pixel rectangle `(x0, y0, x1, y1)`, exclusive upper bounds.
    pub rect: (u32, u32, u32, u32),
}

impl TileRef<'_> {
    /// Pixels in the tile (edge tiles may be partial).
    #[inline]
    pub fn pixels(&self) -> u64 {
        let (x0, y0, x1, y1) = self.rect;
        u64::from(x1 - x0) * u64::from(y1 - y0)
    }
}

/// Per-session Stage-2 and Stage-3 scratch: the key, rectangle,
/// difference-array and count, CSR, saturation-flag and processed-count
/// buffers a frame needs and Stage 3's tile jobs with their pixel planes,
/// recycled across frames so steady-state Stages 2 and 3 allocate
/// nothing.
///
/// Thread one arena through [`crate::pipeline::run_frame`] (or
/// [`crate::tile::bin_splats_pooled`]) and give the buffers back with
/// [`RasterWorkload::recycle_into`] after the frame.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Depth-order keys, one per splat (`depth_key_bits << 32 | index`),
    /// written in splat order and then sorted one scatter round at a
    /// time, so keys no round reaches stay unsorted; only live during
    /// binning.
    pub(crate) order: Vec<u64>,
    /// Each splat's tile rectangle, in splat order (16 bytes per splat),
    /// read by the splat pass, the rounds' count and the scatter; only live
    /// during binning.
    pub(crate) rects: Vec<TileRect>,
    /// One slab per chunk of `tiles + (tiles_x + 1) × (tiles_y + 1)`
    /// entries, a row of per-tile counts or cursors and a 2D difference
    /// array: first the splat pass's difference arrays, one per chunk of
    /// the splat order, then the tile cursors and the current round's
    /// rows; only live during binning.
    pub(crate) counts: Vec<u32>,
    /// CSR value buffer under construction.
    pub(crate) values: Vec<u32>,
    /// CSR offset table under construction.
    pub(crate) offsets: Vec<u32>,
    /// One flag per tile: the tile saturated in an earlier scatter round,
    /// so later rounds skip its slots; only live during binning.
    pub(crate) saturated: Vec<bool>,
    /// Recycled processed-count buffer.
    pub(crate) processed: Vec<u32>,
    /// Stage 3's tile jobs, one per tile of the last frame, each with its
    /// pixel planes; restaged in place every frame
    /// ([`crate::rasterize`]).
    pub(crate) jobs: Vec<TileJob>,
}

impl FrameArena {
    /// An empty arena; buffers grow on first use and are retained.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{Vec2, Vec3};

    fn splat() -> Splat2D {
        Splat2D {
            mean: Vec2::new(8.0, 8.0),
            conic: [0.1, 0.0, 0.1],
            depth: 1.0,
            color: Vec3::one(),
            opacity: 0.9,
            radius: 4.0,
            source: 0,
        }
    }

    fn workload_2x2() -> RasterWorkload {
        // 32x32 image, 16px tiles -> 2x2 grid.
        RasterWorkload::new(
            32,
            32,
            16,
            vec![splat(), splat()],
            vec![vec![0, 1], vec![0], vec![], vec![1]],
        )
    }

    #[test]
    fn grid_dimensions() {
        let w = workload_2x2();
        assert_eq!((w.tiles_x(), w.tiles_y()), (2, 2));
        assert_eq!(w.tile_count(), 4);
        assert_eq!(w.tile_pixels(0, 0), 256);
    }

    #[test]
    fn csr_layout_matches_lists() {
        let w = workload_2x2();
        assert_eq!(w.values, &[0, 1, 0, 1]);
        assert_eq!(w.offsets(), &[0, 2, 3, 3, 4]);
        assert_eq!(w.tile_list(0, 0), &[0, 1]);
        assert_eq!(w.tile_list(1, 0), &[0]);
        assert!(w.tile_list(0, 1).is_empty());
        assert_eq!(w.tile_list(1, 1), &[1]);
        assert_eq!(w.tile_list_at(3), &[1]);
    }

    #[test]
    fn tiles_iterator_covers_grid_in_order() {
        let w = workload_2x2();
        let tiles: Vec<_> = w.tiles().collect();
        assert_eq!(tiles.len(), 4);
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.index, i);
            assert_eq!((t.tx, t.ty), (i as u32 % 2, i as u32 / 2));
            assert_eq!(t.list, w.tile_list(t.tx, t.ty));
            assert_eq!(t.pixels(), w.tile_pixels(t.tx, t.ty));
            assert_eq!(t.processed, t.list.len() as u32);
        }
    }

    #[test]
    fn new_establishes_depth_order_for_unsorted_lists() {
        // Stage 3 no longer sorts in its tile jobs, so the compatibility
        // constructor (tests, custom tilers) must establish the
        // front-to-back invariant itself — stably, so already-sorted
        // lists pass through bit-identically.
        let mk = |depth: f32| Splat2D { depth, ..splat() };
        let splats = vec![mk(3.0), mk(1.0), mk(2.0), mk(1.0)];
        let w = RasterWorkload::new(
            32,
            32,
            16,
            splats,
            vec![vec![0, 1, 2, 3], vec![], vec![], vec![]],
        );
        // Sorted by depth; the two depth-1.0 entries keep submission order.
        assert_eq!(w.tile_list(0, 0), &[1, 3, 2, 0]);
        assert!(crate::sort::is_depth_sorted(w.tile_list(0, 0), w.splats()));
    }

    #[test]
    fn partial_edge_tiles() {
        let w = RasterWorkload::new(20, 18, 16, vec![], vec![vec![], vec![], vec![], vec![]]);
        assert_eq!(w.tile_rect(1, 1), (16, 16, 20, 18));
        assert_eq!(w.tile_pixels(1, 1), 4 * 2);
    }

    #[test]
    fn total_pairs_sums_lists() {
        assert_eq!(workload_2x2().total_pairs(), 4);
    }

    #[test]
    fn blend_work_without_processed_uses_full_lists() {
        let w = workload_2x2();
        assert_eq!(w.blend_work(), ((2 + 1) + 1) * 256);
    }

    #[test]
    fn blend_work_with_processed() {
        let mut w = workload_2x2();
        w.set_processed(vec![1, 1, 0, 0]);
        assert_eq!(w.blend_work(), 2 * 256);
        assert_eq!(w.processed_count(0, 0), 1);
    }

    #[test]
    fn processed_workload_holds_prefixes_and_full_lengths() {
        let mut w = workload_2x2();
        w.set_processed(vec![1, 0, 0, 1]);
        assert_eq!(w.tile_list(0, 0), &[0]);
        assert!(w.tile_list(1, 0).is_empty());
        assert_eq!(w.tile_list(1, 1), &[1]);
        // The pair count and the full lengths stay those of the lists.
        assert_eq!(w.total_pairs(), 4);
        assert_eq!(w.max_list_len(), 2);
        // Slots past a prefix are not part of the workload.
        let mut other = w.clone();
        other.values[1] = 7;
        other.values[2] = 9;
        assert_eq!(other, w);
        other.values[0] = 1;
        assert_ne!(other, w);
    }

    #[test]
    #[should_panic(expected = "exceeds list length")]
    fn processed_cannot_exceed_list() {
        let mut w = workload_2x2();
        w.set_processed(vec![3, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn dangling_index_rejected() {
        let _ = RasterWorkload::new(16, 16, 16, vec![splat()], vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_offsets_rejected() {
        let _ = RasterWorkload::from_csr(
            32,
            32,
            16,
            vec![splat()],
            vec![0, 0],
            vec![0, 2, 1, 1, 2],
            Vec::new(),
        );
    }

    #[test]
    #[should_panic(expected = "end at the value count")]
    fn short_offsets_rejected() {
        let _ = RasterWorkload::from_csr(
            32,
            32,
            16,
            vec![splat()],
            vec![0, 0],
            vec![0, 1, 1, 1, 1],
            Vec::new(),
        );
    }

    #[test]
    fn recycle_roundtrip_preserves_capacity() {
        let mut arena = FrameArena::new();
        let w = workload_2x2();
        let values_cap = w.values.capacity();
        w.recycle_into(&mut arena);
        assert!(arena.values.capacity() >= values_cap);
        assert_eq!(arena.offsets.len(), 5);
    }

    #[test]
    fn list_stats() {
        let w = workload_2x2();
        assert_eq!(w.max_list_len(), 2);
        assert!((w.mean_list_len() - 1.0).abs() < 1e-9);
    }
}
