//! RGB framebuffer with an optional depth plane.

use gaurast_math::Vec3;

/// A `width × height` RGB image (row-major, f32 channels in `[0, 1]`) with
/// a depth plane for the triangle path.
#[derive(Clone, Debug, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    color: Vec<Vec3>,
    depth: Vec<f32>,
    transmittance: Vec<f32>,
}

impl Framebuffer {
    /// Black framebuffer with depth cleared to `+inf` and transmittance
    /// to 1 (fully see-through — nothing blended yet).
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(
            width > 0 && height > 0,
            "framebuffer dimensions must be positive"
        );
        let n = (width as usize) * (height as usize);
        Self {
            width,
            height,
            color: vec![Vec3::zero(); n],
            depth: vec![f32::INFINITY; n],
            transmittance: vec![1.0; n],
        }
    }

    /// Resets the framebuffer to its freshly constructed state (black,
    /// depth `+inf`, transmittance 1) without reallocating — the scratch
    /// path engine sessions use to reuse one buffer across frames.
    pub fn clear(&mut self) {
        self.color.fill(Vec3::zero());
        self.depth.fill(f32::INFINITY);
        self.transmittance.fill(1.0);
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Color at `(x, y)`.
    ///
    /// # Panics
    /// Panics in debug builds when out of bounds.
    #[inline]
    pub fn color_at(&self, x: u32, y: u32) -> Vec3 {
        self.color[self.index(x, y)]
    }

    /// Sets the color at `(x, y)`.
    #[inline]
    pub fn set_color(&mut self, x: u32, y: u32, c: Vec3) {
        let i = self.index(x, y);
        self.color[i] = c;
    }

    /// Depth at `(x, y)` (`+inf` where nothing was drawn).
    #[inline]
    pub fn depth_at(&self, x: u32, y: u32) -> f32 {
        self.depth[self.index(x, y)]
    }

    /// Sets the depth at `(x, y)`.
    #[inline]
    pub fn set_depth(&mut self, x: u32, y: u32, d: f32) {
        let i = self.index(x, y);
        self.depth[i] = d;
    }

    /// Remaining transmittance `T` at `(x, y)` (1 where nothing blended,
    /// → 0 where the pixel saturated). Only the Gaussian path writes it.
    #[inline]
    pub fn transmittance_at(&self, x: u32, y: u32) -> f32 {
        self.transmittance[self.index(x, y)]
    }

    /// Sets the transmittance at `(x, y)`.
    #[inline]
    pub fn set_transmittance(&mut self, x: u32, y: u32, t: f32) {
        let i = self.index(x, y);
        self.transmittance[i] = t;
    }

    /// Raw color plane (row-major).
    #[inline]
    pub fn colors(&self) -> &[Vec3] {
        &self.color
    }

    /// Mean absolute per-channel difference against another framebuffer —
    /// the metric used to validate the hardware model against this software
    /// reference.
    ///
    /// # Panics
    /// Panics when dimensions differ.
    pub fn mean_abs_diff(&self, other: &Framebuffer) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "framebuffer dimensions differ"
        );
        let mut sum = 0.0f64;
        for (a, b) in self.color.iter().zip(&other.color) {
            let d = (*a - *b).abs();
            sum += f64::from(d.x + d.y + d.z);
        }
        (sum / (self.color.len() as f64 * 3.0)) as f32
    }

    /// Peak signal-to-noise ratio in dB against a reference image (per-channel
    /// MSE over a peak of 1.0). Returns `f32::INFINITY` for identical images.
    ///
    /// # Panics
    /// Panics when dimensions differ.
    pub fn psnr(&self, reference: &Framebuffer) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (reference.width, reference.height),
            "framebuffer dimensions differ"
        );
        let mut mse = 0.0f64;
        for (a, b) in self.color.iter().zip(&reference.color) {
            let d = *a - *b;
            mse += f64::from(d.x * d.x + d.y * d.y + d.z * d.z);
        }
        mse /= self.color.len() as f64 * 3.0;
        if mse <= 0.0 {
            return f32::INFINITY;
        }
        (10.0 * (1.0 / mse).log10()) as f32
    }

    /// Fraction of pixels with any color (non-black), a cheap coverage
    /// metric for tests.
    pub fn coverage(&self) -> f32 {
        let lit = self
            .color
            .iter()
            .filter(|c| c.x > 0.0 || c.y > 0.0 || c.z > 0.0)
            .count();
        lit as f32 / self.color.len() as f32
    }

    /// Serializes to a binary PPM (P6) byte vector, for eyeballing example
    /// output. Channels are clamped to `[0, 1]` and quantized to 8 bits.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for c in &self.color {
            let q = c.clamp(0.0, 1.0) * 255.0;
            out.push(q.x.round() as u8);
            out.push(q.y.round() as u8);
            out.push(q.z.round() as u8);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black_with_far_depth() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.color_at(3, 2), Vec3::zero());
        assert_eq!(fb.depth_at(0, 0), f32::INFINITY);
        assert_eq!(fb.coverage(), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut fb = Framebuffer::new(8, 8);
        fb.set_color(5, 6, Vec3::new(0.1, 0.2, 0.3));
        fb.set_depth(5, 6, 2.5);
        assert_eq!(fb.color_at(5, 6), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(fb.depth_at(5, 6), 2.5);
        assert!(fb.coverage() > 0.0);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let fb = Framebuffer::new(4, 4);
        assert_eq!(fb.psnr(&fb.clone()), f32::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_error() {
        let fb = Framebuffer::new(4, 4);
        let mut a = fb.clone();
        let mut b = fb.clone();
        a.set_color(0, 0, Vec3::splat(0.1));
        b.set_color(0, 0, Vec3::splat(0.5));
        assert!(a.psnr(&fb) > b.psnr(&fb));
    }

    #[test]
    fn mean_abs_diff_symmetry() {
        let mut a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(2, 2);
        a.set_color(1, 1, Vec3::splat(0.6));
        assert_eq!(a.mean_abs_diff(&b), b.mean_abs_diff(&a));
        assert!((a.mean_abs_diff(&b) - 0.6 * 3.0 / 12.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn psnr_requires_same_dims() {
        let a = Framebuffer::new(2, 2);
        let b = Framebuffer::new(3, 2);
        let _ = a.psnr(&b);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(5, 4);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 4\n255\n"));
        assert_eq!(ppm.len(), 11 + 5 * 4 * 3);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_panic() {
        let _ = Framebuffer::new(0, 4);
    }
}
