//! Floating-point operation accounting.
//!
//! Table II of the paper contrasts triangle and Gaussian rasterization by
//! the computational primitives of their four shared subtasks. Rather than
//! asserting those counts, the kernels in this crate are instrumented: every
//! FP operation in the per-(primitive, pixel) inner loops increments a
//! counter, and the Table II harness prints the measured averages.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Counts of floating-point operations by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions and subtractions.
    pub add: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions and reciprocals.
    pub div: u64,
    /// Exponentials (`e^x`).
    pub exp: u64,
    /// Comparisons (min/max/predicates).
    pub cmp: u64,
}

impl OpCounts {
    /// Zero counts.
    pub const fn new() -> Self {
        Self {
            add: 0,
            mul: 0,
            div: 0,
            exp: 0,
            cmp: 0,
        }
    }

    /// Total operations of all kinds.
    pub const fn total(&self) -> u64 {
        self.add + self.mul + self.div + self.exp + self.cmp
    }

    /// Scales every count by an integer factor (for per-N averages).
    pub fn saturating_div(&self, n: u64) -> OpCounts {
        if n == 0 {
            return *self;
        }
        OpCounts {
            add: self.add / n,
            mul: self.mul / n,
            div: self.div / n,
            exp: self.exp / n,
            cmp: self.cmp / n,
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            add: self.add + rhs.add,
            mul: self.mul + rhs.mul,
            div: self.div + rhs.div,
            exp: self.exp + rhs.exp,
            cmp: self.cmp + rhs.cmp,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ADD {} MUL {} DIV {} EXP {} CMP {}",
            self.add, self.mul, self.div, self.exp, self.cmp
        )
    }
}

/// The four subtasks shared by both rasterization modes (Table II rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subtask {
    /// Subtask 1: translate the pixel into the primitive's frame.
    CoordinateShift,
    /// Subtask 2: intersection detection (triangles) / Gaussian probability
    /// computation (splats).
    Detection,
    /// Subtask 3: UV weight (triangles) / color weight (splats).
    WeightComputation,
    /// Subtask 4: min-depth color hold (triangles) / color accumulation
    /// (splats).
    Reduction,
}

impl Subtask {
    /// All subtasks in Table II order.
    pub const ALL: [Subtask; 4] = [
        Subtask::CoordinateShift,
        Subtask::Detection,
        Subtask::WeightComputation,
        Subtask::Reduction,
    ];

    /// Row label as printed in Table II.
    pub fn label(self) -> &'static str {
        match self {
            Subtask::CoordinateShift => "coordinate shift",
            Subtask::Detection => "detection / probability",
            Subtask::WeightComputation => "weight computation",
            Subtask::Reduction => "reduction",
        }
    }
}

/// Per-subtask operation tally for one rasterization mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubtaskCounts {
    counts: [OpCounts; 4],
    /// Number of (primitive, pixel) pairs the counts cover.
    pub pairs: u64,
}

impl SubtaskCounts {
    /// Zero counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable tally for one subtask.
    #[inline]
    pub fn at(&mut self, s: Subtask) -> &mut OpCounts {
        &mut self.counts[s as usize]
    }

    /// Tally for one subtask.
    #[inline]
    pub fn of(&self, s: Subtask) -> OpCounts {
        self.counts[s as usize]
    }

    /// Sum across subtasks.
    pub fn total(&self) -> OpCounts {
        self.counts.iter().fold(OpCounts::new(), |acc, &c| acc + c)
    }

    /// Average ops per (primitive, pixel) pair, per subtask, rounded down.
    pub fn per_pair(&self, s: Subtask) -> OpCounts {
        self.of(s).saturating_div(self.pairs)
    }
}

impl AddAssign for SubtaskCounts {
    fn add_assign(&mut self, rhs: SubtaskCounts) {
        for i in 0..4 {
            self.counts[i] += rhs.counts[i];
        }
        self.pairs += rhs.pairs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut c = OpCounts::new();
        c += OpCounts {
            add: 2,
            mul: 3,
            div: 0,
            exp: 1,
            cmp: 4,
        };
        c += OpCounts {
            add: 1,
            mul: 1,
            div: 1,
            exp: 0,
            cmp: 0,
        };
        assert_eq!(c.total(), 13);
        assert_eq!(c.add, 3);
        assert_eq!(c.div, 1);
    }

    #[test]
    fn per_pair_average() {
        let mut s = SubtaskCounts::new();
        s.at(Subtask::Detection).add = 30;
        s.at(Subtask::Detection).exp = 10;
        s.pairs = 10;
        let avg = s.per_pair(Subtask::Detection);
        assert_eq!(avg.add, 3);
        assert_eq!(avg.exp, 1);
    }

    #[test]
    fn zero_pairs_divide_is_identity() {
        let c = OpCounts {
            add: 5,
            mul: 0,
            div: 0,
            exp: 0,
            cmp: 0,
        };
        assert_eq!(c.saturating_div(0), c);
    }

    #[test]
    fn subtask_labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Subtask::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn subtask_counts_add_assign() {
        let mut a = SubtaskCounts::new();
        a.at(Subtask::Reduction).mul = 4;
        a.pairs = 2;
        let mut b = SubtaskCounts::new();
        b.at(Subtask::Reduction).mul = 6;
        b.pairs = 3;
        a += b;
        assert_eq!(a.of(Subtask::Reduction).mul, 10);
        assert_eq!(a.pairs, 5);
    }
}
