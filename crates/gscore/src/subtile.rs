//! Subtile skipping: GSCore evaluates a splat only on the 4×4-pixel
//! subtiles of a tile that its ellipse actually touches.
//!
//! The decision per subtile is [`splat_touches_rect`]'s, bit for bit.
//! [`covered_subtiles`] reaches it with less arithmetic: the terms of
//! `q(x, y) = a·x² + 2b·x·y + c·y²` that depend on one subtile edge are
//! computed once per (splat, tile) pair, and each subtile stops at its
//! first candidate value within the bound.
//!
//! [`splat_touches_rect`]: crate::shape::splat_touches_rect

use crate::shape::alpha_bound;
use gaurast_math::Vec2;
use gaurast_render::{RasterWorkload, Splat2D};

/// Subtile edge in pixels (GSCore's granularity).
pub const SUBTILE: u32 = 4;

/// Subtile columns whose terms one pass over a tile's rows holds. 16
/// columns span 64 pixels, so every tile up to 64 pixels wide takes one
/// pass; a wider tile takes several, recomputing its row terms in each.
const COLUMNS_PER_PASS: usize = 16;

/// Number of subtiles of a tile rectangle a splat touches, and the pixel
/// count those subtiles cover (edge subtiles may be partial).
///
/// Each subtile gets the decision
/// [`splat_touches_rect`](crate::shape::splat_touches_rect) makes on it,
/// bit for bit; the tests compare the two on every kind of input. It is
/// made from shared terms with an early exit:
/// - once per call: `alpha_bound(opacity)`, returning `(0, 0)` unless it
///   is `> 0`;
/// - once per subtile column and row: its pixel-center extents, and at
///   each of its two edges the edge's terms of `q` and the quotient that
///   places the minimizer along the crossing edges (`-b·x/c` on a column
///   edge, `-b·y/a` on a row edge);
/// - per subtile: the origin test, then the four clamped edge minimizers
///   and the four corners of
///   [`min_quadratic_on_rect`](crate::shape::min_quadratic_on_rect),
///   stopping at the first one `<= bound`.
///
/// That holds exactly because the reference's running minimum starts at
/// +∞ and `f32::min` skips NaN: its minimum is `<= bound` exactly when some
/// non-NaN candidate is, or when the bound itself is +∞. Every candidate
/// is the reference's f32 expression on the same operands.
///
/// Cost: one `ln` and `2·⌈w/4⌉ + 2·⌈h/4⌉` divisions for a `w × h` tile up
/// to 64 pixels wide (16 for 16×16, where the reference divides 64 times
/// and takes 16 logarithms), then up to 8 values of `q` per subtile, of
/// which the four corners cost one multiply and two adds each.
pub fn covered_subtiles(
    s: &Splat2D,
    tile_x0: u32,
    tile_y0: u32,
    tile_x1: u32,
    tile_y1: u32,
) -> (u32, u64) {
    let Some(pair) = PairTerms::new(s) else {
        return (0, 0);
    };
    let mut subtiles = 0u32;
    let mut pixels = 0u64;
    let mut columns = [Span::default(); COLUMNS_PER_PASS];
    let mut pending = subtile_spans(tile_x0, tile_x1).filter_map(|(x0, x1)| pair.column(x0, x1));
    loop {
        let mut held = 0;
        for (slot, column) in columns.iter_mut().zip(pending.by_ref()) {
            *slot = column;
            held += 1;
        }
        if held == 0 {
            break;
        }
        for row in subtile_spans(tile_y0, tile_y1).filter_map(|(y0, y1)| pair.row(y0, y1)) {
            for column in columns.iter().take(held) {
                if pair.touches(column, &row) {
                    subtiles += 1;
                    pixels += column.pixels * row.pixels;
                }
            }
        }
    }
    (subtiles, pixels)
}

/// The `[start, end)` pixel ranges of the subtiles along one axis of a
/// tile; the last may be partial.
fn subtile_spans(start: u32, end: u32) -> impl Iterator<Item = (u32, u32)> {
    (start..end)
        .step_by(SUBTILE as usize)
        .map(move |lo| (lo, (lo + SUBTILE).min(end)))
}

/// A column edge `x` (relative to the mean) with the terms of `q(x, y)`
/// that depend on `x` alone.
#[derive(Clone, Copy, Debug, Default)]
struct ColumnEdge {
    x: f32,
    /// `a·x·x`.
    axx: f32,
    /// `2b·x`, the cross term's factor before `· y`.
    bx: f32,
    /// `-b·x / c`: where `q` is least along this edge, before clamping.
    y_star: f32,
}

/// A row edge `y` (relative to the mean) with the terms of `q(x, y)` that
/// depend on `y` alone.
#[derive(Clone, Copy, Debug, Default)]
struct RowEdge {
    y: f32,
    /// `c·y·y`.
    cyy: f32,
    /// `-b·y / a`: where `q` is least along this edge, before clamping.
    x_star: f32,
}

/// A subtile column or row: its edges at the first and last pixel centers,
/// and its width or height in pixels.
#[derive(Clone, Copy, Debug, Default)]
struct Span<E> {
    lo: E,
    hi: E,
    pixels: u64,
}

/// The terms of one (splat, tile) pair that every subtile test reads.
#[derive(Clone, Copy, Debug)]
struct PairTerms {
    a: f32,
    b: f32,
    c: f32,
    mean: Vec2,
    bound: f32,
}

impl PairTerms {
    /// `None` when the bound is not `> 0` (NaN included): then the
    /// reference rejects every rectangle.
    fn new(s: &Splat2D) -> Option<Self> {
        let Splat2D {
            mean,
            conic: [a, b, c],
            opacity,
            ..
        } = *s;
        let bound = alpha_bound(opacity);
        (bound > 0.0).then_some(Self {
            a,
            b,
            c,
            mean,
            bound,
        })
    }

    /// The column of pixels `[x0, x1)`, or `None` when its extents are
    /// unordered, which only a NaN mean makes them: the reference then
    /// rejects every subtile in it.
    fn column(&self, x0: u32, x1: u32) -> Option<Span<ColumnEdge>> {
        let lo = x0 as f32 + 0.5 - self.mean.x;
        let hi = (x1 - 1) as f32 + 0.5 - self.mean.x;
        let edge = |x: f32| ColumnEdge {
            x,
            axx: self.a * x * x,
            bx: 2.0 * self.b * x,
            y_star: -self.b * x / self.c,
        };
        (lo <= hi).then(|| Span {
            lo: edge(lo),
            hi: edge(hi),
            pixels: u64::from(x1 - x0),
        })
    }

    /// The row of pixels `[y0, y1)`; `None` as for [`Self::column`].
    fn row(&self, y0: u32, y1: u32) -> Option<Span<RowEdge>> {
        let lo = y0 as f32 + 0.5 - self.mean.y;
        let hi = (y1 - 1) as f32 + 0.5 - self.mean.y;
        let edge = |y: f32| RowEdge {
            y,
            cyy: self.c * y * y,
            x_star: -self.b * y / self.a,
        };
        (lo <= hi).then(|| Span {
            lo: edge(lo),
            hi: edge(hi),
            pixels: u64::from(y1 - y0),
        })
    }

    /// `splat_touches_rect` on the subtile where `column` and `row` cross.
    fn touches(&self, column: &Span<ColumnEdge>, row: &Span<RowEdge>) -> bool {
        let (x0, x1) = (column.lo.x, column.hi.x);
        let (y0, y1) = (row.lo.y, row.hi.y);
        // The reference's minimum is 0 when the origin is inside, and it
        // starts at +∞, which only an infinite bound admits.
        if (x0 <= 0.0 && 0.0 <= x1 && y0 <= 0.0 && 0.0 <= y1) || self.bound == f32::INFINITY {
            return true;
        }
        let within = |q: f32| q <= self.bound;
        // The minimizers along the edges, where the reference clamps them;
        // with `a <= 0` (`c <= 0`) it takes a corner instead.
        let along_row = |e: &RowEdge| {
            let x = e.x_star.clamp(x0, x1);
            within(self.a * x * x + 2.0 * self.b * x * e.y + e.cyy)
        };
        let along_column = |e: &ColumnEdge| {
            let y = e.y_star.clamp(y0, y1);
            within(e.axx + e.bx * y + self.c * y * y)
        };
        let corner = |e: &ColumnEdge, f: &RowEdge| within(e.axx + e.bx * f.y + f.cyy);
        (self.a > 0.0 && (along_row(&row.lo) || along_row(&row.hi)))
            || (self.c > 0.0 && (along_column(&column.lo) || along_column(&column.hi)))
            || corner(&column.lo, &row.lo)
            || corner(&column.hi, &row.lo)
            || corner(&column.lo, &row.hi)
            || corner(&column.hi, &row.hi)
    }
}

/// Workload statistics after GSCore's two refinements, measured exactly on
/// a binned workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinedWork {
    /// (splat, tile) pairs admitted by the reference AABB binning
    /// (saturation-truncated lists, i.e. the pairs anyone processes).
    pub aabb_pairs: u64,
    /// Pairs surviving the exact shape-aware tile test.
    pub shape_pairs: u64,
    /// Splat-pixel work of the reference (full tiles for every processed
    /// splat).
    pub full_pixel_work: u64,
    /// Splat-pixel work after subtile skipping.
    pub subtile_pixel_work: u64,
}

impl RefinedWork {
    /// Fraction of AABB pairs the shape test culls.
    pub fn shape_cull_fraction(&self) -> f64 {
        if self.aabb_pairs == 0 {
            return 0.0;
        }
        1.0 - self.shape_pairs as f64 / self.aabb_pairs as f64
    }

    /// Work-reduction factor of subtile skipping (≥ 1).
    pub fn work_reduction(&self) -> f64 {
        if self.subtile_pixel_work == 0 {
            return 1.0;
        }
        self.full_pixel_work as f64 / self.subtile_pixel_work as f64
    }
}

/// Measures the refined work of a workload (processed-list prefix per tile,
/// exactly the work the other models bill).
///
/// Every processed (splat, tile) pair goes through [`covered_subtiles`], so
/// each subtile gets
/// [`splat_touches_rect`](crate::shape::splat_touches_rect)'s decision,
/// made from terms shared across the pair with an early exit. Cost: one
/// `covered_subtiles` call per processed pair, serial.
pub fn refine(workload: &RasterWorkload) -> RefinedWork {
    let mut out = RefinedWork::default();
    let splats = workload.splats();
    // One pass over the CSR tile ranges — the same traversal the other
    // architecture models share.
    for tile in workload.tiles() {
        let (x0, y0, x1, y1) = tile.rect;
        let tile_pixels = tile.pixels();
        for &si in &tile.list[..tile.processed as usize] {
            let s = &splats[si as usize];
            out.aabb_pairs += 1;
            out.full_pixel_work += tile_pixels;
            let (subtiles, pixels) = covered_subtiles(s, x0, y0, x1, y1);
            if subtiles > 0 {
                out.shape_pairs += 1;
                out.subtile_pixel_work += pixels;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{Vec2, Vec3};
    use gaurast_render::rasterize::rasterize;
    use gaurast_render::tile::bin_splats;

    fn small_splat(x: f32, y: f32) -> Splat2D {
        Splat2D {
            mean: Vec2::new(x, y),
            conic: [2.0, 0.0, 2.0], // ~2 px ellipse
            depth: 1.0,
            color: Vec3::one(),
            opacity: 0.9,
            radius: 8.0, // deliberately loose AABB (the reference's 3σ ceil)
            source: 0,
        }
    }

    #[test]
    fn tight_splat_covers_few_subtiles() {
        let s = small_splat(8.0, 8.0);
        let (subtiles, pixels) = covered_subtiles(&s, 0, 0, 16, 16);
        assert!((1..=4).contains(&subtiles), "subtiles {subtiles}");
        assert!(pixels < 256, "pixels {pixels}");
    }

    #[test]
    fn huge_splat_covers_all_subtiles() {
        let s = Splat2D {
            conic: [1e-4, 0.0, 1e-4],
            ..small_splat(8.0, 8.0)
        };
        let (subtiles, pixels) = covered_subtiles(&s, 0, 0, 16, 16);
        assert_eq!(subtiles, 16);
        assert_eq!(pixels, 256);
    }

    #[test]
    fn refine_reduces_work_on_small_splat_workloads() {
        let splats: Vec<Splat2D> = (0..60)
            .map(|i| small_splat((i * 7 % 64) as f32, (i * 11 % 64) as f32))
            .collect();
        let mut w = bin_splats(splats, 64, 64, 16);
        let _ = rasterize(&mut w);
        let r = refine(&w);
        assert!(r.aabb_pairs > 0);
        assert!(r.work_reduction() > 2.0, "reduction {}", r.work_reduction());
        assert!(r.shape_pairs <= r.aabb_pairs);
        assert!(r.subtile_pixel_work <= r.full_pixel_work);
    }

    #[test]
    fn shape_test_culls_loose_aabb_pairs() {
        // Elongated splats: AABB (square) binning admits tiles the ellipse
        // misses entirely.
        let splats: Vec<Splat2D> = (0..20)
            .map(|i| Splat2D {
                conic: [5.0, 0.0, 0.002],
                radius: 40.0,
                ..small_splat(32.0, (i * 13 % 64) as f32)
            })
            .collect();
        let mut w = bin_splats(splats, 64, 64, 16);
        let _ = rasterize(&mut w);
        let r = refine(&w);
        assert!(
            r.shape_cull_fraction() > 0.1,
            "cull {}",
            r.shape_cull_fraction()
        );
    }

    #[test]
    fn subtile_coverage_is_superset_of_committed_blends() {
        // Every pixel the reference actually blends must lie in a covered
        // subtile (no false culls).
        let splats: Vec<Splat2D> = (0..40)
            .map(|i| small_splat((i * 17 % 48) as f32, (i * 23 % 48) as f32))
            .collect();
        let mut w = bin_splats(splats.clone(), 48, 48, 16);
        let (img, _) = rasterize(&mut w);
        let r = refine(&w);
        // If anything rendered, the refined work cannot be zero.
        if img.coverage() > 0.0 {
            assert!(r.subtile_pixel_work > 0);
        }
    }

    #[test]
    fn empty_workload_is_empty_refinement() {
        let w = bin_splats(vec![], 32, 32, 16);
        let r = refine(&w);
        assert_eq!(r, RefinedWork::default());
        assert_eq!(r.work_reduction(), 1.0);
        assert_eq!(r.shape_cull_fraction(), 0.0);
    }
}
