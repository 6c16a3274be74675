//! Helpers shared by the integration tests.

use gaurast::render::Framebuffer;

/// The bits of every pixel's color, transmittance and depth.
pub fn image_bits(fb: &Framebuffer) -> Vec<u32> {
    let mut bits = Vec::new();
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            let c = fb.color_at(x, y);
            bits.extend(
                [c.x, c.y, c.z, fb.transmittance_at(x, y), fb.depth_at(x, y)].map(f32::to_bits),
            );
        }
    }
    bits
}
