//! Ping-pong tile buffer model (Fig. 7b, "Tile Buffer A/B").
//!
//! Each rasterizer instance owns two SRAM buffers. While the PE block
//! processes the tile staged in one buffer, the memory interface fills the
//! other with the next tile's primitive list and pixel state, hiding load
//! latency. The model prices loads and writebacks in cycles. The SRAM
//! traffic the power model reads comes only from
//! [`EnhancedRasterizer`](crate::EnhancedRasterizer)'s timing run, which
//! sums the words those cycles move into
//! [`FrameReport::buffer_traffic_words`](crate::FrameReport::buffer_traffic_words).

/// FP words needed per staged Gaussian primitive: mean (2) + conic (3) +
/// color (3) + opacity (1) = the "9 FP numbers" of Table II.
pub const WORDS_PER_SPLAT: u32 = 9;

/// FP words per staged triangle: 3 vertices × (xy + depth) = 9, matching
/// Table II's "vertices' coordinates (9 FP numbers)". Attributes (UV,
/// color) stream separately but are charged to the same interface.
pub const WORDS_PER_TRIANGLE: u32 = 9;

/// FP words of pixel state per pixel (Gaussian mode): color (3) +
/// transmittance (1).
pub const WORDS_PER_PIXEL: u32 = 4;

/// Timing model of one instance's tile-buffer pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileBufferModel {
    /// Primitive capacity of one buffer (oversized lists load in chunks).
    pub capacity_primitives: u32,
    /// Memory-interface words transferred per cycle.
    pub bus_words_per_cycle: u32,
}

impl TileBufferModel {
    /// Buffer model with the given bus width and the default 1K-primitive
    /// capacity (16 KiB at 4 bytes × 4 banks, see `area`).
    pub fn new(bus_words_per_cycle: u32) -> Self {
        Self {
            capacity_primitives: 1024,
            bus_words_per_cycle,
        }
    }

    /// Cycles to load `n` primitives of `words_each` words plus the pixel
    /// state of a `pixels`-pixel tile.
    ///
    /// # Panics
    /// Panics in debug builds for a zero-width bus.
    pub fn load_cycles(&self, n: u32, words_each: u32, pixels: u32) -> u64 {
        debug_assert!(self.bus_words_per_cycle > 0);
        let words =
            u64::from(n) * u64::from(words_each) + u64::from(pixels) * u64::from(WORDS_PER_PIXEL);
        words.div_ceil(u64::from(self.bus_words_per_cycle))
    }

    /// Cycles to write a finished tile's pixel colors back.
    pub fn writeback_cycles(&self, pixels: u32) -> u64 {
        // 3 color words per pixel leave the collector.
        (u64::from(pixels) * 3).div_ceil(u64::from(self.bus_words_per_cycle))
    }

    /// Number of load passes an `n`-primitive list needs given the buffer
    /// capacity (each pass re-streams the pixel state between buffers
    /// internally, which is free; only primitive traffic repeats).
    pub fn passes(&self, n: u32) -> u32 {
        n.div_ceil(self.capacity_primitives).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_cycles_scale_with_primitives() {
        let b = TileBufferModel::new(16);
        let small = b.load_cycles(10, WORDS_PER_SPLAT, 256);
        let large = b.load_cycles(1000, WORDS_PER_SPLAT, 256);
        assert!(large > small);
        // 1000 splats × 9 words + 256 px × 4 words = 10024 words / 16 = 627.
        assert_eq!(large, 627);
    }

    #[test]
    fn empty_tile_still_loads_pixels() {
        let b = TileBufferModel::new(16);
        assert_eq!(b.load_cycles(0, WORDS_PER_SPLAT, 256), (256 * 4) / 16);
    }

    #[test]
    fn writeback_rounds_up() {
        let b = TileBufferModel::new(16);
        assert_eq!(b.writeback_cycles(256), 48);
        assert_eq!(b.writeback_cycles(1), 1);
    }

    #[test]
    fn passes_chunk_oversized_lists() {
        let b = TileBufferModel::new(16);
        assert_eq!(b.passes(0), 1);
        assert_eq!(b.passes(1024), 1);
        assert_eq!(b.passes(1025), 2);
        assert_eq!(b.passes(5000), 5);
    }
}
