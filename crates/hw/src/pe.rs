//! The Processing Element — the only module the paper modifies (Fig. 7c).
//!
//! Each PE holds *shared* logic (9 adders, 9 multipliers, staging
//! flip-flops), *triangle-only* logic (one divider for the barycentric
//! reciprocal) and the added *Gaussian-only* logic (two adders, one
//! multiplier, one exponentiation unit). A multiplexer selects the datapath
//! by mode; input gating idles the units of the inactive mode.
//!
//! The functional model below reproduces the software reference arithmetic
//! operation for operation, in the same order, so in FP32 the hardware
//! output is **bit-exact** with `gaurast-render` — the property the paper
//! verifies between RTL and the reference renderer (§V-A). Being a fixed
//! pipeline, the PE performs every arithmetic operation for every
//! (primitive, pixel) pair it is issued; cutoff tests only gate the
//! write-back. Activity counts therefore scale exactly with issued pairs.

use crate::config::Precision;
use crate::fpu::FpOps;
use gaurast_math::{Vec2, Vec3};
use gaurast_render::triangle::ScreenTriangle;
use gaurast_render::{Splat2D, ALPHA_CUTOFF, TRANSMITTANCE_EPS};

/// Static resource inventory of one PE (paper §IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeResources {
    /// Adders shared by both modes.
    pub shared_adders: u32,
    /// Multipliers shared by both modes.
    pub shared_multipliers: u32,
    /// Dividers used only for triangles.
    pub triangle_dividers: u32,
    /// Adders added for Gaussian support.
    pub gaussian_adders: u32,
    /// Multipliers added for Gaussian support.
    pub gaussian_multipliers: u32,
    /// Exponentiation units added for Gaussian support.
    pub gaussian_exp_units: u32,
}

impl PeResources {
    /// The paper's PE: reuse 9 ADD + 9 MUL + 1 DIV; add 2 ADD + 1 MUL +
    /// 1 EXP.
    pub const PAPER: PeResources = PeResources {
        shared_adders: 9,
        shared_multipliers: 9,
        triangle_dividers: 1,
        gaussian_adders: 2,
        gaussian_multipliers: 1,
        gaussian_exp_units: 1,
    };
}

/// Per-unit activation counts accumulated by the functional model (power
/// model input).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeActivity {
    /// Adder activations.
    pub add: u64,
    /// Multiplier activations.
    pub mul: u64,
    /// Divider activations.
    pub div: u64,
    /// Exponential-unit activations.
    pub exp: u64,
    /// Comparator activations.
    pub cmp: u64,
    /// (primitive, pixel) pairs issued.
    pub pairs: u64,
}

impl PeActivity {
    /// Fixed per-pair profile of the Gaussian datapath (adds, muls, exps,
    /// cmps); the pipeline performs these regardless of cutoffs.
    pub const GAUSSIAN_PER_PAIR: PeActivity = PeActivity {
        add: 9,
        mul: 13,
        div: 0,
        exp: 1,
        cmp: 5,
        pairs: 1,
    };

    /// Fixed per-pair profile of the triangle datapath. The barycentric
    /// reciprocal is per-primitive, not per-pair, so `div` is accounted
    /// separately by the tile processor.
    pub const TRIANGLE_PER_PAIR: PeActivity = PeActivity {
        add: 15,
        mul: 16,
        div: 0,
        exp: 0,
        cmp: 4,
        pairs: 1,
    };

    /// Element-wise sum.
    pub fn merged(self, rhs: PeActivity) -> PeActivity {
        PeActivity {
            add: self.add + rhs.add,
            mul: self.mul + rhs.mul,
            div: self.div + rhs.div,
            exp: self.exp + rhs.exp,
            cmp: self.cmp + rhs.cmp,
            pairs: self.pairs + rhs.pairs,
        }
    }

    /// Scales every count by `n` (profile × pairs).
    pub fn scaled(self, n: u64) -> PeActivity {
        PeActivity {
            add: self.add * n,
            mul: self.mul * n,
            div: self.div * n,
            exp: self.exp * n,
            cmp: self.cmp * n,
            pairs: self.pairs * n,
        }
    }
}

/// Per-pixel accumulation state for Gaussian mode (held in the tile
/// buffer's pixel partition).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianPixel {
    /// Accumulated color `C`.
    pub color: Vec3,
    /// Remaining transmittance `T`.
    pub transmittance: f32,
}

impl Default for GaussianPixel {
    fn default() -> Self {
        Self {
            color: Vec3::zero(),
            transmittance: 1.0,
        }
    }
}

/// Per-pixel state for triangle mode (G-buffer entry: depth + UV + shaded
/// color).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrianglePixel {
    /// Nearest depth so far (`+inf` initially).
    pub depth: f32,
    /// Interpolated UV of the nearest fragment.
    pub uv: Vec2,
    /// Shaded color of the nearest fragment.
    pub color: Vec3,
}

impl Default for TrianglePixel {
    fn default() -> Self {
        Self {
            depth: f32::INFINITY,
            uv: Vec2::zero(),
            color: Vec3::zero(),
        }
    }
}

/// One Processing Element.
#[derive(Clone, Debug, Default)]
pub struct Pe {
    ops: FpOps,
    activity: PeActivity,
}

impl Pe {
    /// PE with the given datapath precision.
    pub fn new(precision: Precision) -> Self {
        Self {
            ops: FpOps::new(precision),
            activity: PeActivity::default(),
        }
    }

    /// Accumulated activity counts.
    pub fn activity(&self) -> PeActivity {
        self.activity
    }

    /// Resets activity counts.
    pub fn reset_activity(&mut self) {
        self.activity = PeActivity::default();
    }

    /// Issues one (splat, pixel) pair through the Gaussian datapath,
    /// updating `state` when the blend commits. Returns `true` on commit.
    ///
    /// The arithmetic mirrors `gaurast_render::rasterize` exactly (same
    /// operations, same order), so FP32 results are bit-identical.
    pub fn blend_gaussian(
        &mut self,
        splat: &Splat2D,
        pixel: Vec2,
        state: &mut GaussianPixel,
    ) -> bool {
        let o = &self.ops;
        let (a, b, c) = (splat.conic[0], splat.conic[1], splat.conic[2]);

        // Subtask 1: coordinate shift (shared adders).
        let dx = o.sub(pixel.x, splat.mean.x);
        let dy = o.sub(pixel.y, splat.mean.y);

        // Subtask 2: Gaussian probability (shared muls/adds + EXP unit).
        // power = -0.5 * (a*dx*dx + c*dy*dy) - b*dx*dy
        let t1 = o.mul(o.mul(a, dx), dx);
        let t2 = o.mul(o.mul(c, dy), dy);
        let t3 = o.mul(o.mul(b, dx), dy);
        let power = o.sub(o.mul(-0.5, o.add(t1, t2)), t3);
        let g = o.exp(power);
        let alpha = o.mul(splat.opacity, g).min(0.99);

        // Subtask 3: color weight (shared muls).
        let weight = o.mul(state.transmittance, alpha);
        let contrib = Vec3::new(
            o.mul(splat.color.x, weight),
            o.mul(splat.color.y, weight),
            o.mul(splat.color.z, weight),
        );

        // Subtask 4: accumulate (gaussian adders + shared) and update T.
        let new_color = Vec3::new(
            o.add(state.color.x, contrib.x),
            o.add(state.color.y, contrib.y),
            o.add(state.color.z, contrib.z),
        );
        let new_t = o.mul(state.transmittance, o.sub(1.0, alpha));

        self.activity = self.activity.merged(PeActivity::GAUSSIAN_PER_PAIR);

        // Write-back gating: the only data-dependent part of the pipeline.
        let commit =
            state.transmittance >= TRANSMITTANCE_EPS && power <= 0.0 && alpha >= ALPHA_CUTOFF;
        if commit {
            state.color = new_color;
            state.transmittance = new_t;
        }
        commit
    }

    /// Issues one (triangle, pixel) pair through the triangle datapath.
    /// `inv_area` is the per-primitive barycentric reciprocal computed by
    /// the (triangle-only) divider once per primitive. Returns `true` when
    /// the fragment wins the depth test.
    pub fn shade_triangle(
        &mut self,
        tri: &ScreenTriangle,
        inv_area: f32,
        pixel: Vec2,
        state: &mut TrianglePixel,
    ) -> bool {
        let o = &self.ops;

        // Subtask 1: coordinate shift.
        let d0 = Vec2::new(o.sub(pixel.x, tri.v[0].x), o.sub(pixel.y, tri.v[0].y));
        let d1 = Vec2::new(o.sub(pixel.x, tri.v[1].x), o.sub(pixel.y, tri.v[1].y));
        let d2 = Vec2::new(o.sub(pixel.x, tri.v[2].x), o.sub(pixel.y, tri.v[2].y));

        // Subtask 2: edge functions and barycentric weights.
        let e0 = {
            let ex = o.sub(tri.v[2].x, tri.v[1].x);
            let ey = o.sub(tri.v[2].y, tri.v[1].y);
            o.sub(o.mul(ex, d1.y), o.mul(ey, d1.x))
        };
        let e1 = {
            let ex = o.sub(tri.v[0].x, tri.v[2].x);
            let ey = o.sub(tri.v[0].y, tri.v[2].y);
            o.sub(o.mul(ex, d2.y), o.mul(ey, d2.x))
        };
        let e2 = {
            let ex = o.sub(tri.v[1].x, tri.v[0].x);
            let ey = o.sub(tri.v[1].y, tri.v[0].y);
            o.sub(o.mul(ex, d0.y), o.mul(ey, d0.x))
        };
        let inside = e0 >= 0.0 && e1 >= 0.0 && e2 >= 0.0;
        let w0 = o.mul(e0, inv_area);
        let w1 = o.mul(e1, inv_area);
        let w2 = o.mul(e2, inv_area);

        // Subtask 3: UV weight computation.
        let uv = Vec2::new(
            o.add(
                o.add(o.mul(tri.uv[0].x, w0), o.mul(tri.uv[1].x, w1)),
                o.mul(tri.uv[2].x, w2),
            ),
            o.add(
                o.add(o.mul(tri.uv[0].y, w0), o.mul(tri.uv[1].y, w1)),
                o.mul(tri.uv[2].y, w2),
            ),
        );

        // Subtask 4: depth interpolation and min-depth hold.
        let z = o.add(
            o.add(o.mul(tri.depth[0], w0), o.mul(tri.depth[1], w1)),
            o.mul(tri.depth[2], w2),
        );

        self.activity = self.activity.merged(PeActivity::TRIANGLE_PER_PAIR);

        let commit = inside && z < state.depth;
        if commit {
            // Shading (matches the software reference's post-raster shade).
            let base = Vec3::new(
                o.add(
                    o.add(o.mul(tri.color[0].x, w0), o.mul(tri.color[1].x, w1)),
                    o.mul(tri.color[2].x, w2),
                ),
                o.add(
                    o.add(o.mul(tri.color[0].y, w0), o.mul(tri.color[1].y, w1)),
                    o.mul(tri.color[2].y, w2),
                ),
                o.add(
                    o.add(o.mul(tri.color[0].z, w0), o.mul(tri.color[1].z, w1)),
                    o.mul(tri.color[2].z, w2),
                ),
            );
            let texture = 0.75 + 0.25 * ((uv.x * 8.0).fract() - 0.5).abs() * 2.0;
            state.depth = z;
            state.uv = uv;
            state.color = base * texture;
        }
        commit
    }

    /// Runs the divider once for a triangle's barycentric reciprocal.
    pub fn reciprocal(&mut self, area2: f32) -> f32 {
        self.activity.div += 1;
        self.ops.div(1.0, area2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{exp_f32, Vec3};

    fn splat() -> Splat2D {
        Splat2D {
            mean: Vec2::new(8.5, 8.5),
            conic: [0.05, 0.01, 0.07],
            depth: 1.0,
            color: Vec3::new(0.8, 0.4, 0.2),
            opacity: 0.9,
            radius: 10.0,
            source: 0,
        }
    }

    /// The reference blend from `gaurast_render::rasterize`, inlined.
    fn reference_blend(s: &Splat2D, p: Vec2, state: &mut GaussianPixel) -> bool {
        if state.transmittance < TRANSMITTANCE_EPS {
            return false;
        }
        let d = p - s.mean;
        let power =
            -0.5 * (s.conic[0] * d.x * d.x + s.conic[2] * d.y * d.y) - s.conic[1] * d.x * d.y;
        if power > 0.0 {
            return false;
        }
        let alpha = (s.opacity * exp_f32(power)).min(0.99);
        if alpha < ALPHA_CUTOFF {
            return false;
        }
        let weight = state.transmittance * alpha;
        state.color += s.color * weight;
        state.transmittance *= 1.0 - alpha;
        true
    }

    #[test]
    fn fp32_blend_is_bit_exact_with_reference() {
        let s = splat();
        let mut pe = Pe::new(Precision::Fp32);
        for py in 0..16 {
            for px in 0..16 {
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let mut hw = GaussianPixel::default();
                let mut sw = GaussianPixel::default();
                let c_hw = pe.blend_gaussian(&s, p, &mut hw);
                let c_sw = reference_blend(&s, p, &mut sw);
                assert_eq!(c_hw, c_sw, "commit mismatch at {p:?}");
                assert_eq!(hw.color, sw.color, "color bits differ at {p:?}");
                assert_eq!(hw.transmittance, sw.transmittance, "T bits differ at {p:?}");
            }
        }
    }

    #[test]
    fn fp32_blend_chain_stays_bit_exact() {
        // A sequence of blends on one pixel must track the reference through
        // the full transmittance decay.
        let mut pe = Pe::new(Precision::Fp32);
        let p = Vec2::new(8.5, 8.5);
        let mut hw = GaussianPixel::default();
        let mut sw = GaussianPixel::default();
        for i in 0..64 {
            let mut s = splat();
            s.opacity = 0.3 + 0.01 * (i % 10) as f32;
            s.mean = Vec2::new(8.5 + (i % 3) as f32, 8.5);
            pe.blend_gaussian(&s, p, &mut hw);
            reference_blend(&s, p, &mut sw);
            assert_eq!(hw.color, sw.color, "step {i}");
            assert_eq!(hw.transmittance, sw.transmittance, "step {i}");
        }
        assert!(hw.transmittance < TRANSMITTANCE_EPS);
    }

    #[test]
    fn saturated_pixel_never_commits() {
        let mut pe = Pe::new(Precision::Fp32);
        let mut state = GaussianPixel {
            color: Vec3::one(),
            transmittance: 1e-6,
        };
        let before = state;
        assert!(!pe.blend_gaussian(&splat(), Vec2::new(8.5, 8.5), &mut state));
        assert_eq!(state, before);
    }

    #[test]
    fn activity_is_fixed_per_pair() {
        let mut pe = Pe::new(Precision::Fp32);
        let mut state = GaussianPixel::default();
        for i in 0..10 {
            let p = Vec2::new(i as f32 * 100.0, 0.5); // mostly misses
            pe.blend_gaussian(&splat(), p, &mut state);
        }
        let a = pe.activity();
        assert_eq!(a, PeActivity::GAUSSIAN_PER_PAIR.scaled(10));
    }

    #[test]
    fn fp16_blend_close_but_not_exact() {
        let s = splat();
        let p = Vec2::new(9.5, 8.5);
        let mut pe32 = Pe::new(Precision::Fp32);
        let mut pe16 = Pe::new(Precision::Fp16);
        let mut s32 = GaussianPixel::default();
        let mut s16 = GaussianPixel::default();
        pe32.blend_gaussian(&s, p, &mut s32);
        pe16.blend_gaussian(&s, p, &mut s16);
        assert!((s32.color - s16.color).length() < 2e-2);
        assert_ne!(s32.color, s16.color);
    }

    #[test]
    fn triangle_datapath_matches_reference_shading() {
        use gaurast_render::triangle::rasterize_mesh;
        let tri = ScreenTriangle {
            v: [
                Vec2::new(1.0, 1.0),
                Vec2::new(14.0, 2.0),
                Vec2::new(3.0, 13.0),
            ],
            depth: [2.0, 3.0, 4.0],
            uv: [Vec2::zero(), Vec2::new(1.0, 0.0), Vec2::new(0.0, 1.0)],
            color: [
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
                Vec3::new(0.0, 0.0, 1.0),
            ],
            area2: (Vec2::new(13.0, 1.0)).perp_dot(Vec2::new(2.0, 12.0)),
        };
        let (fb, _) = rasterize_mesh(&[tri], 16, 16);

        let mut pe = Pe::new(Precision::Fp32);
        let inv_area = pe.reciprocal(tri.area2);
        for py in 0..16u32 {
            for px in 0..16u32 {
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let mut state = TrianglePixel::default();
                pe.shade_triangle(&tri, inv_area, p, &mut state);
                if state.depth.is_finite() {
                    assert_eq!(state.color, fb.color_at(px, py), "pixel ({px},{py})");
                    assert_eq!(state.depth, fb.depth_at(px, py));
                } else {
                    assert_eq!(fb.color_at(px, py), Vec3::zero());
                }
            }
        }
    }

    #[test]
    fn triangle_depth_test_holds_minimum() {
        let mk = |z: f32| ScreenTriangle {
            v: [
                Vec2::new(0.0, 0.0),
                Vec2::new(16.0, 0.0),
                Vec2::new(0.0, 16.0),
            ],
            depth: [z; 3],
            uv: [Vec2::zero(); 3],
            color: [Vec3::one(); 3],
            area2: 256.0,
        };
        let mut pe = Pe::new(Precision::Fp32);
        let p = Vec2::new(4.5, 4.5);
        let mut state = TrianglePixel::default();
        let far = mk(9.0);
        let near = mk(2.0);
        let ia = pe.reciprocal(far.area2);
        assert!(pe.shade_triangle(&far, ia, p, &mut state));
        assert!(pe.shade_triangle(&near, ia, p, &mut state));
        assert!(
            !pe.shade_triangle(&far, ia, p, &mut state),
            "farther fragment must lose"
        );
        assert!((state.depth - 2.0).abs() < 1e-5);
    }

    #[test]
    fn paper_resources_inventory() {
        let r = PeResources::PAPER;
        assert_eq!(r.shared_adders, 9);
        assert_eq!(r.shared_multipliers, 9);
        assert_eq!(r.triangle_dividers, 1);
        assert_eq!(
            r.gaussian_adders + r.gaussian_multipliers + r.gaussian_exp_units,
            4
        );
    }
}
