//! Stage 2 — depth ordering.
//!
//! Every tile must see its splats front to back. [`depth_key_bits`] maps a
//! camera depth to an ordered `u32` (bit-compatible with
//! [`f32::total_cmp`]), so integer order on the mapped bits equals
//! comparison order exactly; Stage 2's binning ([`crate::tile`]) orders
//! the splats by `depth_key_bits(depth) << 32 | index`, one scatter round
//! at a time, and scatters them into their tiles in that order.
//!
//! The comparison-based helpers ([`sort_indices_by_depth`] and friends)
//! order per-tile lists for [`crate::RasterWorkload::new`] and check the
//! front-to-back invariant in tests and debug builds.

use crate::preprocess::Splat2D;

/// Maps a depth to the ordered-`u32` key fragment: `a < b` under
/// [`f32::total_cmp`] **iff** `depth_key_bits(a) < depth_key_bits(b)`, for
/// every bit pattern including negatives, zeros, subnormals, infinities and
/// NaNs. Camera depths are finite and positive by construction (near-plane
/// cull), for which the mapping reduces to `bits | 0x8000_0000` — but the
/// full total-order flip keeps integer key order equal to the comparison
/// order even for adversarial inputs.
#[inline]
pub fn depth_key_bits(depth: f32) -> u32 {
    let b = depth.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Returns the indices of `splats` ordered by ascending depth (front to
/// back). The sort is stable: equal depths keep their original order, which
/// matches the reference implementation's radix sort on biased-float keys.
///
/// # Example
/// ```
/// use gaurast_render::sort::depth_order;
/// use gaurast_render::Splat2D;
/// use gaurast_math::{Vec2, Vec3};
///
/// let mk = |d: f32| Splat2D {
///     mean: Vec2::zero(), conic: [1.0, 0.0, 1.0], depth: d,
///     color: Vec3::one(), opacity: 0.5, radius: 1.0, source: 0,
/// };
/// let splats = vec![mk(3.0), mk(1.0), mk(2.0)];
/// assert_eq!(depth_order(&splats), vec![1, 2, 0]);
/// ```
pub fn depth_order(splats: &[Splat2D]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..splats.len() as u32).collect();
    sort_indices_by_depth(&mut idx, splats);
    idx
}

/// Stably sorts an index list in place by the depth of the referenced
/// splats. Shared by the global order and the per-tile lists.
///
/// # Panics
/// Panics when an index is out of bounds for `splats`.
pub fn sort_indices_by_depth(indices: &mut [u32], splats: &[Splat2D]) {
    // Depths are finite and positive by construction (near-plane cull), so
    // total_cmp on the raw float is a strict weak order.
    indices.sort_by(|&a, &b| {
        splats[a as usize]
            .depth
            .total_cmp(&splats[b as usize].depth)
    });
}

/// `true` when `indices` references `splats` in non-decreasing depth order —
/// the invariant Stage 3 and the hardware dispatcher rely on.
pub fn is_depth_sorted(indices: &[u32], splats: &[Splat2D]) -> bool {
    indices
        .windows(2)
        .all(|w| splats[w[0] as usize].depth <= splats[w[1] as usize].depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::{Vec2, Vec3};

    fn splat(depth: f32, source: u32) -> Splat2D {
        Splat2D {
            mean: Vec2::zero(),
            conic: [1.0, 0.0, 1.0],
            depth,
            color: Vec3::one(),
            opacity: 0.5,
            radius: 1.0,
            source,
        }
    }

    #[test]
    fn orders_by_depth() {
        let splats = vec![splat(5.0, 0), splat(1.0, 1), splat(3.0, 2)];
        let order = depth_order(&splats);
        assert_eq!(order, vec![1, 2, 0]);
        assert!(is_depth_sorted(&order, &splats));
    }

    #[test]
    fn stable_for_equal_depths() {
        let splats = vec![splat(2.0, 0), splat(2.0, 1), splat(1.0, 2), splat(2.0, 3)];
        let order = depth_order(&splats);
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn empty_input() {
        let order = depth_order(&[]);
        assert!(order.is_empty());
        assert!(is_depth_sorted(&order, &[]));
    }

    #[test]
    fn detects_unsorted() {
        let splats = vec![splat(1.0, 0), splat(2.0, 1)];
        assert!(!is_depth_sorted(&[1, 0], &splats));
        assert!(is_depth_sorted(&[0, 1], &splats));
    }

    #[test]
    fn subset_sort() {
        let splats = vec![splat(9.0, 0), splat(1.0, 1), splat(5.0, 2), splat(3.0, 3)];
        let mut subset = vec![0u32, 2, 3];
        sort_indices_by_depth(&mut subset, &splats);
        assert_eq!(subset, vec![3, 2, 0]);
    }

    #[test]
    fn depth_key_bits_is_total_cmp_order() {
        let samples = [
            f32::NEG_INFINITY,
            -3.5,
            -1.0e-40, // subnormal
            -0.0,
            0.0,
            1.0e-40, // subnormal
            f32::MIN_POSITIVE,
            0.1,
            1.0,
            1.0 + f32::EPSILON,
            3.5e37,
            f32::MAX,
            f32::INFINITY,
        ];
        for a in samples {
            for b in samples {
                assert_eq!(
                    depth_key_bits(a).cmp(&depth_key_bits(b)),
                    a.total_cmp(&b),
                    "ordering mismatch for {a} vs {b}"
                );
            }
        }
    }
}
