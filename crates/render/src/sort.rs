//! Stage 2 — depth sorting.
//!
//! The reference pipeline duplicates every splat into one packed
//! `(tile, depth)` key per covered tile and orders the whole key array with
//! a single stable radix sort, so every tile sees its splats front-to-back.
//! This module provides both halves of that machinery:
//!
//! * **key packing** — [`pack_key`] builds the 64-bit sort key
//!   `tile_id << 32 | depth_bits`, where [`depth_key_bits`] is the
//!   monotonic ordered-`u32` mapping of the camera depth (bit-compatible
//!   with [`f32::total_cmp`], so radix order equals comparison order
//!   exactly);
//! * **the sorter** — [`RadixSorter`], a reusable least-significant-digit
//!   radix sorter over `(u64 key, u32 value)` pairs with a serial exact
//!   path and a [`WorkerPool`]-parallel histogram/scatter path that are
//!   bit-identical at every worker count.
//!
//! The comparison-based helpers ([`sort_indices_by_depth`] and friends)
//! remain as the legacy Stage-2 escape hatch
//! ([`crate::pipeline::Stage2Mode::LegacyPerTile`]) and as the oracle the
//! radix path is proptested against.

use crate::pool::WorkerPool;
use crate::preprocess::Splat2D;

/// Maps a depth to the ordered-`u32` key fragment: `a < b` under
/// [`f32::total_cmp`] **iff** `depth_key_bits(a) < depth_key_bits(b)`, for
/// every bit pattern including negatives, zeros, subnormals, infinities and
/// NaNs. Camera depths are finite and positive by construction (near-plane
/// cull), for which the mapping reduces to `bits | 0x8000_0000` — but the
/// full total-order flip keeps the radix order equal to the comparison
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

/// Packs a linear tile index and a depth into the 64-bit Stage-2 sort key
/// `tile_id << 32 | depth_bits`. Sorting the packed keys groups duplicates
/// tile-major and orders each tile's run front-to-back in one pass.
#[inline]
pub fn pack_key(tile: u32, depth: f32) -> u64 {
    (u64::from(tile) << 32) | u64::from(depth_key_bits(depth))
}

/// The linear tile index a packed key belongs to.
#[inline]
pub fn key_tile(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Keys per parallel radix chunk. The chunking is *fixed-size* (like
/// [`crate::preprocess::PREPROCESS_CHUNK`]): per-chunk histograms and
/// scatter regions depend only on the data, never on the worker count, so
/// the sorted output is bit-identical for every pool width — and identical
/// to the serial path, which runs the same chunks in index order.
pub const RADIX_CHUNK: usize = 1 << 15;

/// Digit width of the LSD radix sort (one byte per pass).
const RADIX_BITS: u32 = 8;
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// A reusable least-significant-digit radix sorter over
/// `(u64 key, u32 value)` pairs.
///
/// The sorter owns its scratch (ping-pong buffers plus per-chunk
/// histograms), so a session-held instance makes steady-state sorts
/// allocation-free. Each byte digit runs as:
///
/// 1. **histogram** — every [`RADIX_CHUNK`]-sized chunk counts its digit
///    occurrences independently (one pool job per chunk);
/// 2. **placement** — an exclusive prefix sum over `(bucket, chunk)` on the
///    calling thread assigns every chunk a contiguous, disjoint output
///    range per bucket;
/// 3. **scatter** — each chunk writes its pairs into its own ranges (one
///    pool job per chunk). Equal keys land by (chunk index, offset in
///    chunk) = original position, so every pass — and the whole sort — is
///    stable.
///
/// Digits on which all keys agree are detected from the histogram and
/// skipped without moving data; packed frame keys typically activate four
/// to five of the eight passes.
#[derive(Clone, Debug, Default)]
pub struct RadixSorter {
    tmp_keys: Vec<u64>,
    tmp_vals: Vec<u32>,
    /// Per-chunk histograms, `chunks × RADIX_BUCKETS`, reused as the
    /// placement table in step 2.
    hist: Vec<u32>,
}

/// Raw-pointer pair handing scatter jobs disjoint write slots of the
/// output buffers (see the safety argument in [`RadixSorter::sort_pairs`]).
struct ScatterOut {
    keys: *mut u64,
    vals: *mut u32,
}
// SAFETY: shared across workers only to write disjoint index sets — the
// placement table assigns every (chunk, bucket) a contiguous output range
// no other chunk receives, and each chunk job writes only its own ranges.
unsafe impl Sync for ScatterOut {}

/// Raw pointer into the per-chunk histogram table; chunk job `c`
/// exclusively owns rows `[c * RADIX_BUCKETS, (c + 1) * RADIX_BUCKETS)`.
struct HistOut(*mut u32);
// SAFETY: shared across workers only to hand out disjoint per-chunk rows.
unsafe impl Sync for HistOut {}

impl RadixSorter {
    /// A sorter with empty scratch (buffers grow on first use and are
    /// retained afterwards).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stably sorts the `(keys, values)` pairs in place by ascending key.
    ///
    /// The serial pool runs the exact same chunk decomposition on the
    /// calling thread, so the result is bit-identical for every pool
    /// width.
    ///
    /// # Panics
    /// Panics when `keys` and `values` have different lengths.
    pub fn sort_pairs(&mut self, keys: &mut Vec<u64>, values: &mut Vec<u32>, pool: &WorkerPool) {
        self.sort_pairs_chunked(keys, values, pool, RADIX_CHUNK);
    }

    /// [`RadixSorter::sort_pairs`] with an explicit chunk size.
    ///
    /// Production always passes [`RADIX_CHUNK`] (the determinism contract
    /// fixes the chunking independently of the worker count); the explicit
    /// parameter exists so the `gaurast-check` model tests can shrink the
    /// histogram/scatter protocol to a handful of chunks and exhaustively
    /// interleave the *same code* that runs in production
    /// (`crates/check/tests/model.rs`).
    ///
    /// # Panics
    /// Panics when `keys` and `values` have different lengths or when
    /// `chunk` is zero.
    // gaurast-check: hot-path
    pub fn sort_pairs_chunked(
        &mut self,
        keys: &mut Vec<u64>,
        values: &mut Vec<u32>,
        pool: &WorkerPool,
        chunk: usize,
    ) {
        assert_eq!(keys.len(), values.len(), "one value per key");
        assert!(chunk > 0, "chunk size must be positive");
        let n = keys.len();
        if n <= 1 {
            return;
        }
        assert!(
            n <= u32::MAX as usize,
            "radix placement offsets are u32: at most 2^32-1 pairs"
        );
        let chunks = n.div_ceil(chunk);
        self.tmp_keys.resize(n, 0);
        self.tmp_vals.resize(n, 0);
        self.hist.resize(chunks * RADIX_BUCKETS, 0);

        // One read pass finds the bits that actually vary across keys:
        // a digit whose byte never varies needs no histogram and no
        // scatter. Packed frame keys (narrow tile range, clustered depth
        // exponents, zero high bytes) typically activate 4–5 of the 8
        // digits.
        let first = keys[0];
        let mut varying = 0u64;
        for &k in keys.iter() {
            varying |= k ^ first;
        }

        // Ping-pong state: `flipped` tracks whether the live data currently
        // sits in the scratch buffers.
        let mut flipped = false;
        for pass in 0..(u64::BITS / RADIX_BITS) {
            let shift = pass * RADIX_BITS;
            if (varying >> shift) & 0xFF == 0 {
                // Every key agrees on this digit: nothing to move.
                continue;
            }
            let (src_keys, src_vals, dst_keys, dst_vals) = if flipped {
                (
                    &mut self.tmp_keys,
                    &mut self.tmp_vals,
                    &mut *keys,
                    &mut *values,
                )
            } else {
                (
                    &mut *keys,
                    &mut *values,
                    &mut self.tmp_keys,
                    &mut self.tmp_vals,
                )
            };

            // 1. Per-chunk histograms of this digit (each chunk job owns
            // its own RADIX_BUCKETS-row of the table — no allocation).
            let hist = &mut self.hist;
            hist.fill(0);
            {
                let src = &src_keys[..];
                let out = HistOut(hist.as_mut_ptr());
                let out = &out;
                pool.run(chunks, |c| {
                    let h = crate::race_region!("per-chunk histogram row", {
                        crate::race_write!(out.0.wrapping_add(c * RADIX_BUCKETS), RADIX_BUCKETS);
                        // SAFETY: chunk `c` exclusively owns its histogram
                        // row (`run` yields each chunk index exactly once),
                        // and the table was resized to
                        // `chunks * RADIX_BUCKETS` above.
                        unsafe {
                            std::slice::from_raw_parts_mut(
                                out.0.add(c * RADIX_BUCKETS),
                                RADIX_BUCKETS,
                            )
                        }
                    });
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    for &k in &src[lo..hi] {
                        h[((k >> shift) & 0xFF) as usize] += 1;
                    }
                });
            }

            // 2. Exclusive prefix over (bucket, chunk): hist[c][b] becomes
            // chunk c's first output index for digit b.
            let mut running = 0u32;
            for b in 0..RADIX_BUCKETS {
                for c in 0..chunks {
                    let slot = &mut hist[c * RADIX_BUCKETS + b];
                    let count = *slot;
                    *slot = running;
                    running += count;
                }
            }

            // 3. Stable parallel scatter: chunk c writes pair i to
            // cursor[digit]++, starting from its placement offsets.
            {
                let src_k = &src_keys[..];
                let src_v = &src_vals[..];
                let hist = &hist[..];
                let out = ScatterOut {
                    keys: dst_keys.as_mut_ptr(),
                    vals: dst_vals.as_mut_ptr(),
                };
                let out = &out;
                pool.run(chunks, |c| {
                    let lo = c * chunk;
                    let hi = (lo + chunk).min(n);
                    let mut cursor = [0u32; RADIX_BUCKETS];
                    cursor.copy_from_slice(&hist[c * RADIX_BUCKETS..(c + 1) * RADIX_BUCKETS]);
                    for i in lo..hi {
                        let k = src_k[i];
                        let b = ((k >> shift) & 0xFF) as usize;
                        let at = cursor[b] as usize;
                        cursor[b] += 1;
                        debug_assert!(at < n);
                        crate::race_region!("disjoint scatter slots", {
                            crate::race_write!(out.keys.wrapping_add(at), 1);
                            crate::race_write!(out.vals.wrapping_add(at), 1);
                            // SAFETY: the placement table gives every
                            // (chunk, bucket) a contiguous range disjoint
                            // from all others (exclusive prefix over exact
                            // counts), the cursor stays inside that range,
                            // and `at < n` bounds both destination buffers,
                            // which were resized to `n` above.
                            unsafe {
                                *out.keys.add(at) = k;
                                *out.vals.add(at) = src_v[i];
                            }
                        });
                    }
                });
            }
            flipped = !flipped;
        }

        if flipped {
            std::mem::swap(keys, &mut self.tmp_keys);
            std::mem::swap(values, &mut self.tmp_vals);
        }
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
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

    #[test]
    fn pack_key_orders_tile_major_then_depth() {
        assert!(pack_key(0, 9.0) < pack_key(1, 1.0), "tile dominates depth");
        assert!(pack_key(3, 1.0) < pack_key(3, 2.0));
        assert_eq!(key_tile(pack_key(77, 1.5)), 77);
    }

    #[test]
    fn radix_sort_matches_comparison_sort_at_every_width() {
        // Deterministic pseudo-random keys (LCG), several sizes spanning
        // multiple chunks is covered by the integration suite; here cover
        // in-chunk behavior and tie stability.
        let n = 4000;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<u64> = (0..n)
            .map(|_| next() & 0xFF_0000_FF00) // few active digits, many ties
            .collect();
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut expected: Vec<(u64, u32)> =
            keys.iter().copied().zip(vals.iter().copied()).collect();
        expected.sort_by_key(|&(k, _)| k); // sort_by_key is stable

        let mut reference: Option<(Vec<u64>, Vec<u32>)> = None;
        for workers in 1..=8 {
            let mut k = keys.clone();
            let mut v = vals.clone();
            RadixSorter::new().sort_pairs(&mut k, &mut v, &WorkerPool::new(workers));
            let flat: Vec<(u64, u32)> = k.iter().copied().zip(v.iter().copied()).collect();
            assert_eq!(
                flat, expected,
                "{workers} workers diverged from stable sort"
            );
            match &reference {
                None => reference = Some((k, v)),
                Some((rk, rv)) => {
                    assert_eq!(&k, rk, "{workers} workers: keys differ");
                    assert_eq!(&v, rv, "{workers} workers: values differ");
                }
            }
        }
    }

    #[test]
    fn radix_sorter_scratch_is_reusable() {
        let mut sorter = RadixSorter::new();
        let pool = WorkerPool::serial();
        for round in 0..3u32 {
            let mut keys: Vec<u64> = (0..100)
                .map(|i| ((i * 37 + u64::from(round)) % 100) << 8)
                .collect();
            let mut vals: Vec<u32> = (0..100).collect();
            sorter.sort_pairs(&mut keys, &mut vals, &pool);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn radix_sort_empty_and_single() {
        let pool = WorkerPool::serial();
        let mut sorter = RadixSorter::new();
        let (mut k, mut v) = (Vec::new(), Vec::new());
        sorter.sort_pairs(&mut k, &mut v, &pool);
        assert!(k.is_empty());
        let (mut k, mut v) = (vec![42u64], vec![7u32]);
        sorter.sort_pairs(&mut k, &mut v, &pool);
        assert_eq!((k, v), (vec![42], vec![7]));
    }
}
