//! Floating-point unit models: function, latency, area, and energy.
//!
//! Each PE datapath is built from the unit kinds below. Functionally, FP32
//! units compute exactly what Rust `f32` arithmetic computes (the prototype
//! uses IEEE-compliant Siemens FP IPs, so the RTL matches the software
//! reference bit for bit — §V-A); FP16 units round every result through
//! binary16. Area and energy constants are 28 nm, 0.9 V typical-corner
//! values calibrated so the module totals reproduce the paper's Fig. 9
//! breakdown and 1.7 W typical power (see `area` and `power`).

use crate::config::Precision;
use gaurast_math::exp_f32;
use gaurast_math::fp::round_to_f16;

/// The kinds of arithmetic units instantiated in a PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpUnitKind {
    /// Adder/subtractor.
    Add,
    /// Multiplier.
    Mul,
    /// Divider (triangle-only: barycentric reciprocal).
    Div,
    /// Exponential unit (Gaussian-only: `e^x`).
    Exp,
    /// Comparator (depth test, cutoff tests).
    Cmp,
}

impl FpUnitKind {
    /// All unit kinds.
    pub const ALL: [FpUnitKind; 5] = [
        FpUnitKind::Add,
        FpUnitKind::Mul,
        FpUnitKind::Div,
        FpUnitKind::Exp,
        FpUnitKind::Cmp,
    ];

    /// Pipeline latency in cycles at 1 GHz (throughput is 1/cycle for all
    /// units; latency only contributes to per-tile fill/drain).
    pub fn latency_cycles(self) -> u32 {
        match self {
            FpUnitKind::Add => 2,
            FpUnitKind::Mul => 3,
            FpUnitKind::Div => 12,
            FpUnitKind::Exp => 8,
            FpUnitKind::Cmp => 1,
        }
    }

    /// Cell area in µm² at 28 nm.
    ///
    /// Calibrated so one PE (9 shared ADD + 9 shared MUL + 1 triangle DIV +
    /// staging, plus 2 ADD + 1 MUL + 1 EXP of Gaussian enhancement) matches
    /// Fig. 9: PE ≈ 135.7 kµm² split 79 % / 21 % triangle/Gaussian.
    pub fn area_um2(self, precision: Precision) -> f64 {
        let fp32 = match self {
            FpUnitKind::Add => 3_200.0,
            FpUnitKind::Mul => 6_800.0,
            FpUnitKind::Div => 14_000.0,
            FpUnitKind::Exp => 15_300.0,
            FpUnitKind::Cmp => 400.0,
        };
        match precision {
            Precision::Fp32 => fp32,
            // Half-width datapaths: adders scale ~linearly, multiplier
            // arrays ~quadratically; table/CORDIC units in between.
            Precision::Fp16 => match self {
                FpUnitKind::Add => fp32 * 0.50,
                FpUnitKind::Mul => fp32 * 0.30,
                FpUnitKind::Div => fp32 * 0.35,
                FpUnitKind::Exp => fp32 * 0.31,
                FpUnitKind::Cmp => fp32 * 0.50,
            },
        }
    }

    /// Dynamic energy per operation in pJ at 28 nm, 0.9 V.
    pub fn energy_pj(self, precision: Precision) -> f64 {
        let fp32 = match self {
            FpUnitKind::Add => 1.4,
            FpUnitKind::Mul => 3.6,
            FpUnitKind::Div => 9.0,
            FpUnitKind::Exp => 7.5,
            FpUnitKind::Cmp => 0.3,
        };
        match precision {
            Precision::Fp32 => fp32,
            Precision::Fp16 => fp32 * 0.35,
        }
    }
}

/// Functional FP operations at a given precision.
///
/// FP32 is native `f32`; FP16 rounds inputs are already binary16 by
/// induction, so only the result is rounded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpOps {
    precision: Precision,
}

impl FpOps {
    /// Operations at `precision`.
    pub const fn new(precision: Precision) -> Self {
        Self { precision }
    }

    /// The configured precision.
    pub const fn precision(&self) -> Precision {
        self.precision
    }

    #[inline]
    fn q(&self, v: f32) -> f32 {
        match self.precision {
            Precision::Fp32 => v,
            Precision::Fp16 => round_to_f16(v),
        }
    }

    /// Quantizes an input operand to the datapath precision (used when
    /// loading tile-buffer values into the PE).
    #[inline]
    pub fn quantize(&self, v: f32) -> f32 {
        self.q(v)
    }

    /// Addition.
    #[inline]
    pub fn add(&self, a: f32, b: f32) -> f32 {
        self.q(a + b)
    }

    /// Subtraction.
    #[inline]
    pub fn sub(&self, a: f32, b: f32) -> f32 {
        self.q(a - b)
    }

    /// Multiplication.
    #[inline]
    pub fn mul(&self, a: f32, b: f32) -> f32 {
        self.q(a * b)
    }

    /// Division.
    #[inline]
    pub fn div(&self, a: f32, b: f32) -> f32 {
        self.q(a / b)
    }

    /// Exponential: [`exp_f32`], the exponential of the Stage-3 reference,
    /// so the FP32 PE blend stays bit-exact with it.
    #[inline]
    pub fn exp(&self, a: f32) -> f32 {
        self.q(exp_f32(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_native() {
        let ops = FpOps::new(Precision::Fp32);
        assert_eq!(ops.add(0.1, 0.2), 0.1f32 + 0.2f32);
        assert_eq!(ops.mul(1.3, 7.7), 1.3f32 * 7.7f32);
        assert_eq!(ops.exp(-0.5), exp_f32(-0.5));
        assert_eq!(ops.div(1.0, 3.0), 1.0f32 / 3.0f32);
    }

    #[test]
    fn fp16_rounds_results() {
        let ops = FpOps::new(Precision::Fp16);
        let r = ops.add(1.0, 2.0f32.powi(-12));
        // The tiny addend is below half the fp16 ulp of 1.0 and disappears.
        assert_eq!(r, 1.0);
        // Idempotent under re-quantization.
        assert_eq!(ops.quantize(r), r);
    }

    #[test]
    fn fp16_error_is_bounded() {
        let ops = FpOps::new(Precision::Fp16);
        for &(a, b) in &[(1.5f32, 2.25f32), (0.125, 10.0), (3.0, 0.33325195)] {
            let exact = a * b;
            let got = ops.mul(a, b);
            assert!((got - exact).abs() <= exact.abs() / 1024.0, "{a} * {b}");
        }
    }

    #[test]
    fn divider_slowest_comparator_fastest() {
        assert!(FpUnitKind::Div.latency_cycles() > FpUnitKind::Exp.latency_cycles());
        assert!(FpUnitKind::Exp.latency_cycles() > FpUnitKind::Mul.latency_cycles());
        assert_eq!(FpUnitKind::Cmp.latency_cycles(), 1);
    }

    #[test]
    fn fp16_units_are_smaller_and_cheaper() {
        for kind in FpUnitKind::ALL {
            assert!(kind.area_um2(Precision::Fp16) < kind.area_um2(Precision::Fp32));
            assert!(kind.energy_pj(Precision::Fp16) < kind.energy_pj(Precision::Fp32));
        }
    }

    #[test]
    fn exp_unit_is_largest_gaussian_unit() {
        // The exponentiation unit dominates the Gaussian enhancement (the
        // paper adds exactly one per PE).
        assert!(
            FpUnitKind::Exp.area_um2(Precision::Fp32) > FpUnitKind::Mul.area_um2(Precision::Fp32)
        );
        assert!(
            FpUnitKind::Exp.area_um2(Precision::Fp32) > FpUnitKind::Add.area_um2(Precision::Fp32)
        );
    }
}
