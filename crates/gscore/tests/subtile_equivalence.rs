//! `covered_subtiles` against the per-subtile reference it replaced: a loop
//! over the tile's subtiles that calls `splat_touches_rect` on each one.
//!
//! The two must make the same decision on every subtile, so every count
//! agrees exactly, on any input: partial subtiles, any tile size, means on
//! subtile edges and pixel centers, degenerate and indefinite conics,
//! non-finite values and opacities at the edge of the alpha bound.

use gaurast_gscore::shape::{min_quadratic_on_rect, splat_touches_rect};
use gaurast_gscore::subtile::{covered_subtiles, refine, RefinedWork, SUBTILE};
use gaurast_math::{Vec2, Vec3};
use gaurast_render::rasterize::rasterize;
use gaurast_render::tile::bin_splats;
use gaurast_render::{RasterWorkload, Splat2D};
use proptest::prelude::*;

/// The reference: `splat_touches_rect` on each subtile of the tile.
fn reference_subtiles(
    s: &Splat2D,
    tile_x0: u32,
    tile_y0: u32,
    tile_x1: u32,
    tile_y1: u32,
) -> (u32, u64) {
    let mut subtiles = 0u32;
    let mut pixels = 0u64;
    let mut y = tile_y0;
    while y < tile_y1 {
        let y_end = (y + SUBTILE).min(tile_y1);
        let mut x = tile_x0;
        while x < tile_x1 {
            let x_end = (x + SUBTILE).min(tile_x1);
            if splat_touches_rect(s, x, y, x_end, y_end) {
                subtiles += 1;
                pixels += u64::from(x_end - x) * u64::from(y_end - y);
            }
            x = x_end;
        }
        y = y_end;
    }
    (subtiles, pixels)
}

/// `refine` with the reference's decisions.
fn reference_refine(workload: &RasterWorkload) -> RefinedWork {
    let mut out = RefinedWork::default();
    for tile in workload.tiles() {
        let (x0, y0, x1, y1) = tile.rect;
        for &si in &tile.list[..tile.processed as usize] {
            let (subtiles, pixels) =
                reference_subtiles(&workload.splats()[si as usize], x0, y0, x1, y1);
            out.aabb_pairs += 1;
            out.full_pixel_work += tile.pixels();
            if subtiles > 0 {
                out.shape_pairs += 1;
                out.subtile_pixel_work += pixels;
            }
        }
    }
    out
}

/// Asserts that `covered_subtiles` agrees with the reference on the whole
/// tile and on each of its subtiles alone.
fn assert_matches(s: &Splat2D, x0: u32, y0: u32, x1: u32, y1: u32) {
    assert_eq!(
        covered_subtiles(s, x0, y0, x1, y1),
        reference_subtiles(s, x0, y0, x1, y1),
        "tile [{x0}, {x1}) × [{y0}, {y1}), splat {s:?}"
    );
    for y in (y0..y1).step_by(SUBTILE as usize) {
        for x in (x0..x1).step_by(SUBTILE as usize) {
            let (sx1, sy1) = ((x + SUBTILE).min(x1), (y + SUBTILE).min(y1));
            let touched = splat_touches_rect(s, x, y, sx1, sy1);
            let pixels = u64::from(sx1 - x) * u64::from(sy1 - y);
            let want = if touched { (1, pixels) } else { (0, 0) };
            assert_eq!(
                covered_subtiles(s, x, y, sx1, sy1),
                want,
                "subtile ({x}, {y}), splat {s:?}"
            );
        }
    }
}

fn splat(mean: Vec2, conic: [f32; 3], opacity: f32) -> Splat2D {
    Splat2D {
        mean,
        conic,
        depth: 1.0,
        color: Vec3::one(),
        opacity,
        radius: 16.0,
        source: 0,
    }
}

/// `x` moved by `ulps` units in the last place (for positive `x`).
fn ulps(x: f32, ulps: i32) -> f32 {
    f32::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

/// Opacities at every decision the bound makes: 1/255 and one ulp either
/// side of it (the bound's sign), 0, a negative value and NaN (no bound),
/// `f32::MAX` (an infinite bound) and ordinary values.
fn special_opacities() -> [f32; 10] {
    let cutoff = 1.0f32 / 255.0;
    [
        ulps(cutoff, -1),
        cutoff,
        ulps(cutoff, 1),
        1.0,
        0.0,
        -0.25,
        f32::NAN,
        f32::MAX,
        0.5,
        0.05,
    ]
}

fn opacity() -> impl Strategy<Value = f32> {
    (0usize..16, 0.0f32..=1.0).prop_map(|(i, o)| special_opacities().get(i).copied().unwrap_or(o))
}

/// Conics `[a, b, c]` with `a`, `c` log-uniform over six decades and
/// `b/√(ac)` anywhere in `[-1, 1]`, ends included. Some cases then make `a`,
/// `c` or both non-positive (both with `|b|` up to `2√(ac)`, so saddles
/// too), or put a non-finite value in one entry.
fn conic() -> impl Strategy<Value = [f32; 3]> {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    (
        -4.0f32..2.0,
        -4.0f32..2.0,
        -1.0f32..=1.0,
        0usize..20,
        0usize..3,
    )
        .prop_map(move |(la, lc, t, case, special)| {
            let (a, c) = (10f32.powf(la), 10f32.powf(lc));
            let t = match case {
                0 => 1.0,
                1 => -1.0,
                6 | 7 => 2.0 * t,
                _ => t,
            };
            let [mut a, mut b, mut c] = [a, t * (a * c).sqrt(), c];
            match case {
                2 => a = -a,
                3 => c = -c,
                4 => a = 0.0,
                5 => c = 0.0,
                6 => [a, c] = [-a, -c],
                7 => [a, c] = [0.0, 0.0],
                8 => a = specials[special],
                9 => b = specials[special],
                10 => c = specials[special],
                _ => {}
            }
            [a, b, c]
        })
}

/// A coordinate on the ⅛-pixel lattice, `eighths / 8` pixels from `origin`:
/// every subtile edge and pixel center is on it.
fn lattice(origin: u32, eighths: i32) -> f32 {
    (origin as i32 * 8 + eighths) as f32 / 8.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn covered_subtiles_matches_the_reference(
        (x0, y0, w, h) in (0u32..64, 0u32..64, 1u32..65, 1u32..65),
        (mx, my) in (-256i32..768, -256i32..768),
        conic in conic(),
        opacity in opacity(),
    ) {
        let s = splat(Vec2::new(lattice(x0, mx), lattice(y0, my)), conic, opacity);
        assert_matches(&s, x0, y0, x0 + w, y0 + h);
    }
}

/// A subtile with its minimum `m` under the reference, and the opacity
/// whose bound is about `m`.
#[derive(Clone, Copy, Debug)]
struct Boundary {
    mean: Vec2,
    conic: [f32; 3],
    opacity: f32,
    tile: (u32, u32, u32, u32),
    subtile: (u32, u32, u32, u32),
}

/// Subtiles whose minimum lies in `[0.25, 16)`, in tiles up to 32 pixels
/// wide and tall, near the origin or up to 3000 pixels from it, with means
/// on the ⅛-pixel lattice or off it.
fn boundary() -> impl Strategy<Value = Boundary> {
    (
        (any::<bool>(), 0u32..3000, 0u32..3000, 1u32..33, 1u32..33),
        (0u32..8, 0u32..8),
        (-96i32..352, -96i32..352),
        (any::<bool>(), -0.5f32..0.5, -0.5f32..0.5),
        conic(),
    )
        .prop_filter_map(
            "minimum out of range",
            |((far, ox, oy, w, h), (col, row), (mx, my), (off_lattice, jx, jy), conic)| {
                let (ox, oy) = if far { (ox, oy) } else { (0, 0) };
                let (x, y) = (
                    ox + col % w.div_ceil(SUBTILE) * SUBTILE,
                    oy + row % h.div_ceil(SUBTILE) * SUBTILE,
                );
                let (x1, y1) = ((x + SUBTILE).min(ox + w), (y + SUBTILE).min(oy + h));
                let (jx, jy) = if off_lattice { (jx, jy) } else { (0.0, 0.0) };
                let mean = Vec2::new(lattice(ox, mx) + jx, lattice(oy, my) + jy);
                let center = |p: u32, m: f32| p as f32 + 0.5 - m;
                let [a, b, c] = conic;
                let m = min_quadratic_on_rect(
                    a,
                    b,
                    c,
                    center(x, mean.x),
                    center(x1 - 1, mean.x),
                    center(y, mean.y),
                    center(y1 - 1, mean.y),
                );
                (0.25..16.0).contains(&m).then(|| Boundary {
                    mean,
                    conic,
                    opacity: (m / 2.0).exp() / 255.0,
                    tile: (ox, oy, ox + w, oy + h),
                    subtile: (x, y, x1, y1),
                })
            },
        )
}

impl Boundary {
    /// Steps the opacity by single ulps, so the bound crosses the
    /// subtile's minimum in sub-ulp increments: a candidate computed with
    /// one rounding of difference flips a decision here.
    fn check(&self) {
        let splat_at = |k: i32| splat(self.mean, self.conic, ulps(self.opacity, k));
        let (x0, y0, x1, y1) = self.subtile;
        assert!(
            !splat_touches_rect(&splat_at(-32), x0, y0, x1, y1)
                && splat_touches_rect(&splat_at(32), x0, y0, x1, y1),
            "the scan must cross the minimum: {self:?}"
        );
        let (tx0, ty0, tx1, ty1) = self.tile;
        for k in -32..=32 {
            let s = splat_at(k);
            for (x0, y0, x1, y1) in [self.subtile, self.tile] {
                assert_eq!(
                    covered_subtiles(&s, x0, y0, x1, y1),
                    reference_subtiles(&s, x0, y0, x1, y1),
                    "[{x0}, {x1}) × [{y0}, {y1}) in [{tx0}, {tx1}) × [{ty0}, {ty1}), splat {s:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn decisions_match_where_the_bound_meets_the_minimum(case in boundary()) {
        case.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(65536))]

    #[test]
    #[ignore = "dense boundary sweep; run in release: \
                cargo test --release -p gaurast-gscore --test subtile_equivalence -- --ignored"]
    fn decisions_match_where_the_bound_meets_the_minimum_densely(case in boundary()) {
        case.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn refine_matches_the_reference_on_binned_workloads(
        tile_size in 0usize..3,
        (width, height) in (20u32..100, 20u32..100),
        means in prop::collection::vec((-64i32..864, -64i32..864), 1..60),
        conics in prop::collection::vec(conic(), 60..61),
        opacities in prop::collection::vec(0.0f32..=1.0, 60..61),
        radius in 1.0f32..40.0,
    ) {
        let tile_size = [8, 16, 32][tile_size];
        let splats = means
            .iter()
            .zip(&conics)
            .zip(&opacities)
            .map(|((&(mx, my), &conic), &opacity)| {
                // Keep every conic finite, so Stage 3 orders the lists.
                let conic = conic.map(|v| if v.is_finite() { v } else { 0.5 });
                Splat2D {
                    radius,
                    ..splat(Vec2::new(lattice(0, mx), lattice(0, my)), conic, opacity)
                }
            })
            .collect();
        let mut workload = bin_splats(splats, width, height, tile_size);
        let _ = rasterize(&mut workload);
        prop_assert_eq!(refine(&workload), reference_refine(&workload));
    }
}

#[test]
fn non_finite_means_match_the_reference() {
    // A NaN mean leaves the rectangle's extents unordered: no touch, and
    // no panic in either function. An infinite mean is ordered and simply
    // far away, unless the bound is infinite too.
    let conic = [0.02, 0.005, 0.03];
    for opacity in special_opacities() {
        for mean in [
            Vec2::new(f32::NAN, 8.0),
            Vec2::new(8.0, f32::NAN),
            Vec2::new(f32::NAN, f32::NAN),
        ] {
            let s = splat(mean, conic, opacity);
            assert!(!splat_touches_rect(&s, 0, 0, 16, 16), "{s:?}");
            assert_eq!(covered_subtiles(&s, 0, 0, 16, 16), (0, 0), "{s:?}");
            assert_matches(&s, 0, 0, 16, 16);
        }
        for mean in [
            Vec2::new(f32::INFINITY, 8.0),
            Vec2::new(f32::NEG_INFINITY, 8.0),
            Vec2::new(8.0, f32::INFINITY),
            Vec2::new(8.0, f32::NEG_INFINITY),
            Vec2::new(f32::INFINITY, f32::NEG_INFINITY),
        ] {
            assert_matches(&splat(mean, conic, opacity), 0, 0, 16, 16);
        }
    }
}

#[test]
fn tiles_wider_than_one_pass_match_the_reference() {
    // 16 subtile columns (64 pixels) share one pass over the rows; wider
    // tiles take several.
    let conics = [
        [0.002, 0.0005, 0.003],
        [0.05, -0.04, 0.05],
        [1e-5, 0.0, 1e-5],
    ];
    for width in 60..=140 {
        for (i, conic) in conics.into_iter().enumerate() {
            let mean = Vec2::new(width as f32 * 0.6, 9.5 + i as f32);
            assert_matches(&splat(mean, conic, 0.7), 2, 1, 2 + width, 30);
        }
    }
}

#[test]
#[ignore = "dense sweep, ~2·10⁷ subtile decisions; run in release: \
            cargo test --release -p gaurast-gscore --test subtile_equivalence -- --ignored"]
fn covered_subtiles_matches_the_reference_on_a_dense_sweep() {
    // Means on the ⅛-pixel lattice over [-4, 20)² around a full 16×16 tile
    // and a partial 13×6 one, for each conic and opacity below.
    let conics = [
        [2.0, 0.0, 2.0],
        [0.01, 0.0, 0.01],
        [0.3, 0.29, 0.3],
        [0.8, -0.792, 0.05],
        [0.09, 0.3, 1.0],
        [-0.1, 0.02, 0.4],
        [0.4, 0.02, 0.0],
        [0.2, f32::NAN, 0.3],
    ];
    let cutoff = 1.0f32 / 255.0;
    let opacities = [ulps(cutoff, 1), 0.3, 1.0];
    let mut decisions = 0u64;
    for conic in conics {
        for opacity in opacities {
            for my in -32..160 {
                for mx in -32..160 {
                    let s = splat(Vec2::new(lattice(0, mx), lattice(0, my)), conic, opacity);
                    for (x1, y1) in [(16, 16), (13, 6)] {
                        assert_eq!(
                            covered_subtiles(&s, 0, 0, x1, y1),
                            reference_subtiles(&s, 0, 0, x1, y1),
                            "tile [0, {x1}) × [0, {y1}), splat {s:?}"
                        );
                    }
                    decisions += 16 + 8;
                }
            }
        }
    }
    assert!(decisions > 10_000_000, "{decisions} decisions");
}
