//! Shape-aware splat/rectangle intersection.
//!
//! A splat contributes to a pixel only where
//! `α = o · exp(-½ dᵀ Q d) ≥ 1/255`, i.e. inside the ellipse
//! `q(d) = a·dx² + 2b·dx·dy + c·dy² ≤ 2·ln(255·o)` around its mean
//! (`Q = [[a, b], [b, c]]` is the conic). The reference rasterizer bins by
//! the circumscribed 3σ *square*, so many binned (splat, tile) pairs never
//! pass the alpha test. GSCore's shape-aware test evaluates the ellipse
//! against the tile rectangle exactly; this module implements that test as
//! a box-constrained minimization of the quadratic form (closed form per
//! edge), which is exact for positive-definite conics.

use gaurast_render::Splat2D;

/// Squared "radius" of the α ≥ 1/255 ellipse in quadratic-form units:
/// `2·ln(255·o)`. Non-positive when even the peak is below the cutoff.
pub fn alpha_bound(opacity: f32) -> f32 {
    2.0 * (255.0 * opacity).ln()
}

/// Minimum of `q(d) = a·dx² + 2b·dx·dy + c·dy²` over the rectangle
/// `[x0, x1] × [y0, y1]` (coordinates relative to the splat mean).
///
/// Exact for positive-semidefinite `q`: the unconstrained minimum is at the
/// origin, so if the origin lies in the box the minimum is 0; otherwise the
/// minimum lies on one of the four edges, where `q` restricted to the edge
/// is a 1-D quadratic minimized in closed form and clamped.
///
/// This is the reference the subtile pass is checked against:
/// [`covered_subtiles`](crate::subtile::covered_subtiles) evaluates the
/// same candidates with the same f32 expressions, but shares their terms
/// across a tile and stops at the first one within the bound.
///
/// The rectangle must be ordered and free of NaN; otherwise this panics
/// (the `debug_assert!`, or `f32::clamp` in a release build).
pub fn min_quadratic_on_rect(a: f32, b: f32, c: f32, x0: f32, x1: f32, y0: f32, y1: f32) -> f32 {
    debug_assert!(x0 <= x1 && y0 <= y1, "inverted rectangle");
    if x0 <= 0.0 && 0.0 <= x1 && y0 <= 0.0 && 0.0 <= y1 {
        return 0.0;
    }
    let q = |x: f32, y: f32| a * x * x + 2.0 * b * x * y + c * y * y;

    let mut best = f32::INFINITY;
    // Horizontal edges: y fixed, minimize over x: dq/dx = 2ax + 2by = 0.
    for y in [y0, y1] {
        let x_star = if a > 0.0 {
            (-b * y / a).clamp(x0, x1)
        } else {
            x0
        };
        best = best.min(q(x_star, y)).min(q(x0, y)).min(q(x1, y));
    }
    // Vertical edges: x fixed, minimize over y: dq/dy = 2cy + 2bx = 0.
    for x in [x0, x1] {
        let y_star = if c > 0.0 {
            (-b * x / c).clamp(y0, y1)
        } else {
            y0
        };
        best = best.min(q(x, y_star)).min(q(x, y0)).min(q(x, y1));
    }
    best
}

/// `true` when the splat's α ≥ 1/255 ellipse intersects the pixel
/// rectangle `[x0, x1) × [y0, y1)` (absolute pixel coordinates; the test
/// uses pixel centers, matching the rasterizer's sampling).
///
/// This is the reference decision per subtile:
/// [`covered_subtiles`](crate::subtile::covered_subtiles) must make the
/// same one on every subtile, and the tests compare the two.
pub fn splat_touches_rect(s: &Splat2D, x0: u32, y0: u32, x1: u32, y1: u32) -> bool {
    let bound = alpha_bound(s.opacity);
    if bound <= 0.0 {
        return false; // even the peak is below the cutoff
    }
    // Pixel-center extents of the rectangle, relative to the mean.
    let rx0 = x0 as f32 + 0.5 - s.mean.x;
    let rx1 = (x1 - 1) as f32 + 0.5 - s.mean.x;
    let ry0 = y0 as f32 + 0.5 - s.mean.y;
    let ry1 = (y1 - 1) as f32 + 0.5 - s.mean.y;
    // An inverted rectangle, or one a NaN mean leaves unordered, touches
    // nothing.
    rx0 <= rx1
        && ry0 <= ry1
        && min_quadratic_on_rect(s.conic[0], s.conic[1], s.conic[2], rx0, rx1, ry0, ry1) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{Vec2, Vec3};

    fn splat(mean: Vec2, conic: [f32; 3], opacity: f32) -> Splat2D {
        Splat2D {
            mean,
            conic,
            depth: 1.0,
            color: Vec3::one(),
            opacity,
            radius: 100.0,
            source: 0,
        }
    }

    #[test]
    fn origin_inside_box_gives_zero() {
        assert_eq!(
            min_quadratic_on_rect(1.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0),
            0.0
        );
    }

    #[test]
    fn isotropic_min_is_distance_squared() {
        // q = x² + y², box at [3,5]×[0,2] (touches y=0): min at (3, 0) = 9.
        let m = min_quadratic_on_rect(1.0, 0.0, 1.0, 3.0, 5.0, 0.0, 2.0);
        assert!((m - 9.0).abs() < 1e-5, "got {m}");
    }

    #[test]
    fn cross_term_shifts_the_minimizer() {
        // q = x² - 2·0.9·x·y + y² along edge y=2: min at x = 0.9·2 = 1.8.
        let m = min_quadratic_on_rect(1.0, -0.9, 1.0, 0.5, 3.0, 2.0, 4.0);
        let q_at = |x: f32, y: f32| x * x - 1.8 * x * y + y * y;
        assert!((m - q_at(1.8, 2.0)).abs() < 1e-4, "got {m}");
    }

    #[test]
    fn min_matches_dense_sampling() {
        // Brute-force verification over a grid for several conics/boxes.
        let cases = [
            (0.3f32, 0.1f32, 0.5f32, 1.0f32, 4.0f32, -2.0f32, 1.5f32),
            (1.0, -0.4, 0.8, -5.0, -2.0, 3.0, 6.0),
            (0.05, 0.02, 0.07, 2.0, 9.0, 2.0, 9.0),
            (2.0, 0.0, 0.1, -3.0, 0.5, 0.25, 4.0),
        ];
        for (a, b, c, x0, x1, y0, y1) in cases {
            let exact = min_quadratic_on_rect(a, b, c, x0, x1, y0, y1);
            let mut sampled = f32::INFINITY;
            let n = 200;
            for i in 0..=n {
                for j in 0..=n {
                    let x = x0 + (x1 - x0) * i as f32 / n as f32;
                    let y = y0 + (y1 - y0) * j as f32 / n as f32;
                    sampled = sampled.min(a * x * x + 2.0 * b * x * y + c * y * y);
                }
            }
            assert!(
                exact <= sampled + 1e-4 && sampled <= exact + 0.05 * exact.abs() + 0.05,
                "a={a} b={b}: exact {exact} vs sampled {sampled}"
            );
        }
    }

    #[test]
    fn tiny_opacity_never_touches() {
        // o < 1/255: the alpha test can never pass anywhere.
        let s = splat(Vec2::new(8.0, 8.0), [0.1, 0.0, 0.1], 0.003);
        assert!(!splat_touches_rect(&s, 0, 0, 16, 16));
    }

    #[test]
    fn centered_splat_touches_its_tile() {
        let s = splat(Vec2::new(8.0, 8.0), [0.1, 0.0, 0.1], 0.9);
        assert!(splat_touches_rect(&s, 0, 0, 16, 16));
    }

    #[test]
    fn narrow_ellipse_misses_diagonal_tile() {
        // A very elongated splat along x at y=8: tiles far in y miss even
        // though the 3σ *square* would include them.
        let s = splat(Vec2::new(8.0, 8.0), [0.001, 0.0, 5.0], 0.9);
        assert!(
            splat_touches_rect(&s, 32, 0, 48, 16),
            "along the major axis"
        );
        assert!(!splat_touches_rect(&s, 0, 32, 16, 48), "off the minor axis");
    }

    #[test]
    fn touch_test_consistent_with_density() {
        // If a rect's best pixel passes the alpha test, the rect must be
        // reported as touched (no false negatives on pixel centers).
        let s = splat(Vec2::new(7.3, 9.1), [0.08, 0.02, 0.12], 0.6);
        for ty in 0..3u32 {
            for tx in 0..3u32 {
                let (x0, y0) = (tx * 16, ty * 16);
                let mut any_pass = false;
                for py in y0..y0 + 16 {
                    for px in x0..x0 + 16 {
                        let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                        let alpha = s.opacity * s.density_at(p);
                        if alpha >= 1.0 / 255.0 {
                            any_pass = true;
                        }
                    }
                }
                let touched = splat_touches_rect(&s, x0, y0, x0 + 16, y0 + 16);
                if any_pass {
                    assert!(touched, "false negative at tile ({tx},{ty})");
                }
            }
        }
    }
}
