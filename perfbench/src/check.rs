//! Frame correctness: the facts of a frame that must be bit-identical
//! between the timed program and a serial scalar reference session.

use gaurast::backend::{BackendKind, FrameReport};
use gaurast::render::Framebuffer;

/// What a frame must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameFacts {
    pub ops: u64,
    pub pairs: u64,
    pub blend_work: u64,
    pub blends_committed: u64,
    pub visible: usize,
    pub culled: usize,
    /// Bits of the modeled `(time_s, energy_j)`; `None` on the software
    /// backend, whose `time_s` is host wall-clock time.
    pub model_bits: Option<(u64, u64)>,
    /// Digest of the retained image, when there is one.
    pub image: Option<u64>,
}

impl FrameFacts {
    pub fn of(report: &FrameReport) -> Self {
        let s = &report.stats;
        Self {
            ops: report.ops,
            pairs: s.pairs,
            blend_work: s.blend_work,
            blends_committed: s.blends_committed,
            visible: s.visible,
            culled: s.culled,
            model_bits: (report.kind != BackendKind::Software)
                .then(|| (report.time_s.to_bits(), report.energy_j.to_bits())),
            image: report.image.as_ref().map(image_digest),
        }
    }

    /// The backend-independent part: what every backend executing the
    /// same frame shares.
    pub fn workload(&self) -> (u64, u64, u64, usize, usize) {
        (
            self.pairs,
            self.blend_work,
            self.blends_committed,
            self.visible,
            self.culled,
        )
    }
}

/// FNV-1a over the bits of every pixel's color, transmittance and depth.
pub fn image_digest(fb: &Framebuffer) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |v: f32| {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3);
        }
    };
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            let c = fb.color_at(x, y);
            eat(c.x);
            eat(c.y);
            eat(c.z);
            eat(fb.transmittance_at(x, y));
            eat(fb.depth_at(x, y));
        }
    }
    h
}

/// Sanity rules for a frame with no reference to compare against: every
/// Gaussian is either visible or culled, and a modeled time is positive
/// and finite.
pub fn plausible(report: &FrameReport, gaussians: usize) -> bool {
    let s = &report.stats;
    s.visible + s.culled == gaussians
        && s.pairs > 0
        && report.time_s.is_finite()
        && report.time_s > 0.0
        && report.energy_j.is_finite()
}
