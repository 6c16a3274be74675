//! Dispatch controller: tile-to-instance assignment and per-tile PE-block
//! occupancy arithmetic (Fig. 7b, "Dispatch Controller").

use std::iter::StepBy;
use std::ops::Range;

/// Assigns tile indices to rasterizer instances round-robin — the top
/// controller's static schedule. Yields one queue per instance, in
/// instance order: instance `i` takes tiles `i`, `i + instances`, ….
///
/// # Panics
/// Panics when `instances` is zero.
pub fn assign_tiles(
    tile_count: usize,
    instances: u32,
) -> impl Iterator<Item = StepBy<Range<usize>>> {
    assert!(instances > 0, "need at least one instance");
    let stride = instances as usize;
    (0..stride).map(move |first| (first..tile_count).step_by(stride))
}

/// Cycles the PE block needs to process `primitives` over a `pixels`-pixel
/// tile with `pes` lanes: the dispatcher walks each primitive across the
/// tile's pixels in groups of `pes`, one group per cycle, fully pipelined
/// across primitives.
///
/// # Panics
/// Panics when `pes` is zero.
pub fn processing_cycles(primitives: u32, pixels: u32, pes: u32) -> u64 {
    assert!(pes > 0, "need at least one PE");
    let groups = u64::from(pixels.div_ceil(pes));
    u64::from(primitives) * groups
}

/// PE-cycle product actually used (for utilization accounting): issued
/// pairs, which may be fewer than `cycles × pes` on partial pixel groups.
pub fn issued_pairs(primitives: u32, pixels: u32) -> u64 {
    u64::from(primitives) * u64::from(pixels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(tile_count: usize, instances: u32) -> Vec<Vec<usize>> {
        assign_tiles(tile_count, instances)
            .map(Iterator::collect)
            .collect()
    }

    #[test]
    fn round_robin_balances() {
        let q = queues(10, 3);
        assert_eq!(q[0], vec![0, 3, 6, 9]);
        assert_eq!(q[1], vec![1, 4, 7]);
        assert_eq!(q[2], vec![2, 5, 8]);
    }

    #[test]
    fn all_tiles_assigned_exactly_once() {
        let q = queues(100, 7);
        let mut seen: Vec<usize> = q.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn processing_cycles_exact() {
        // 256 pixels / 16 PEs = 16 cycles per primitive.
        assert_eq!(processing_cycles(10, 256, 16), 160);
        // Partial group rounds up.
        assert_eq!(processing_cycles(1, 17, 16), 2);
        assert_eq!(processing_cycles(0, 256, 16), 0);
    }

    #[test]
    fn issued_pairs_counts_real_work() {
        assert_eq!(issued_pairs(10, 17), 170);
        assert!(issued_pairs(1, 17) < processing_cycles(1, 17, 16) * 16);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = assign_tiles(4, 0);
    }
}
