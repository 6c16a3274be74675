//! Two-stage pipeline arithmetic.

use crate::sequence::{replay, FrameCost};
use crate::timeline::{Timeline, Unit};
use std::error::Error;
use std::fmt;

/// Error for invalid schedule parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleError(String);

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule: {}", self.0)
    }
}

impl Error for ScheduleError {}

/// The CUDA-collaborative two-stage pipeline for one scene.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineSchedule {
    stages12_s: f64,
    stage3_s: f64,
}

impl PipelineSchedule {
    /// Schedule with Stages 1–2 time (CUDA) and Stage 3 time (rasterizer).
    ///
    /// # Errors
    /// Returns [`ScheduleError`] for non-finite or non-positive times.
    pub fn new(stages12_s: f64, stage3_s: f64) -> Result<Self, ScheduleError> {
        for (name, v) in [("stages 1-2", stages12_s), ("stage 3", stage3_s)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(ScheduleError(format!(
                    "{name} time must be positive, got {v}"
                )));
            }
        }
        Ok(Self {
            stages12_s,
            stage3_s,
        })
    }

    /// Stages 1–2 time, s.
    pub fn stages12_s(&self) -> f64 {
        self.stages12_s
    }

    /// Stage 3 time, s.
    pub fn stage3_s(&self) -> f64 {
        self.stage3_s
    }

    /// Steady-state frame period: `max(t₁₂, t₃)`.
    pub fn steady_state_period(&self) -> f64 {
        self.stages12_s.max(self.stage3_s)
    }

    /// Steady-state throughput in frames per second.
    pub fn steady_state_fps(&self) -> f64 {
        1.0 / self.steady_state_period()
    }

    /// Serial (unpipelined) frame time: `t₁₂ + t₃` — the ablation that
    /// shows what overlapping Stages 1–2 with Stage 3 buys.
    pub fn serial_period(&self) -> f64 {
        self.stages12_s + self.stage3_s
    }

    /// Throughput gain of pipelining over serial execution (≥ 1, ≤ 2).
    pub fn pipelining_gain(&self) -> f64 {
        self.serial_period() / self.steady_state_period()
    }

    /// Which unit bounds throughput.
    pub fn bottleneck(&self) -> Unit {
        if self.stage3_s >= self.stages12_s {
            Unit::Rasterizer
        } else {
            Unit::CudaCores
        }
    }

    /// Simulates `frames` frames and returns the Fig. 8 timeline: this is
    /// [`replay`] over `frames` copies of this schedule's costs, so it
    /// inherits `replay`'s single staging slot. Frame `i`'s Stage 3 starts
    /// once its Stages 1–2 finished *and* the rasterizer is free; Stages
    /// 1–2 of frame `i+1` start once the CUDA cores are free and frame
    /// `i`'s Stage 3 has started.
    pub fn timeline(&self, frames: usize) -> Timeline {
        let cost = FrameCost {
            stages12_s: self.stages12_s,
            stage3_s: self.stage3_s,
        };
        replay(&vec![cost; frames]).timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_max() {
        let s = PipelineSchedule::new(0.02, 0.015).unwrap();
        assert_eq!(s.steady_state_period(), 0.02);
        assert_eq!(s.bottleneck(), Unit::CudaCores);
        let s = PipelineSchedule::new(0.01, 0.03).unwrap();
        assert_eq!(s.steady_state_period(), 0.03);
        assert_eq!(s.bottleneck(), Unit::Rasterizer);
    }

    #[test]
    fn pipelining_gain_bounds() {
        let balanced = PipelineSchedule::new(0.02, 0.02).unwrap();
        assert!((balanced.pipelining_gain() - 2.0).abs() < 1e-12);
        let skewed = PipelineSchedule::new(0.001, 0.1).unwrap();
        assert!(skewed.pipelining_gain() < 1.02);
    }

    #[test]
    fn invalid_times_rejected() {
        assert!(PipelineSchedule::new(0.0, 1.0).is_err());
        assert!(PipelineSchedule::new(1.0, -1.0).is_err());
        assert!(PipelineSchedule::new(f64::NAN, 1.0).is_err());
        assert!(PipelineSchedule::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn timeline_respects_dependencies() {
        let s = PipelineSchedule::new(0.01, 0.03).unwrap();
        let tl = s.timeline(4);
        for frame in 0..4 {
            let s12 = tl.span(frame, Unit::CudaCores).unwrap();
            let s3 = tl.span(frame, Unit::Rasterizer).unwrap();
            assert!(
                s3.start_s >= s12.end_s - 1e-12,
                "frame {frame} raster before prep"
            );
        }
        // Rasterizer spans must not overlap each other.
        for frame in 1..4 {
            let prev = tl.span(frame - 1, Unit::Rasterizer).unwrap();
            let cur = tl.span(frame, Unit::Rasterizer).unwrap();
            assert!(cur.start_s >= prev.end_s - 1e-12);
        }
    }

    #[test]
    fn timeline_keeps_one_staging_slot() {
        // Rasterizer-bound: the CUDA cores may run one frame ahead, never
        // more, so frame i+1's Stages 1-2 wait for frame i's Stage 3 to
        // start.
        let tl = PipelineSchedule::new(0.01, 0.03).unwrap().timeline(6);
        for frame in 1..6 {
            let s12 = tl.span(frame, Unit::CudaCores).unwrap();
            let prev_s3 = tl.span(frame - 1, Unit::Rasterizer).unwrap();
            assert!(
                s12.start_s >= prev_s3.start_s,
                "frame {frame} prep at {} before frame {} raster at {}",
                s12.start_s,
                frame - 1,
                prev_s3.start_s
            );
        }
        // CUDA-bound: the slot never binds, so the CUDA spans run back to
        // back and each Stage 3 starts when its own Stages 1-2 end.
        let tl = PipelineSchedule::new(0.03, 0.01).unwrap().timeline(6);
        for frame in 0..6 {
            let s12 = tl.span(frame, Unit::CudaCores).unwrap();
            let s3 = tl.span(frame, Unit::Rasterizer).unwrap();
            let prev_end = match frame {
                0 => 0.0,
                _ => tl.span(frame - 1, Unit::CudaCores).unwrap().end_s,
            };
            assert_eq!(s12.start_s, prev_end, "frame {frame}");
            assert_eq!(s3.start_s, s12.end_s, "frame {frame}");
        }
    }

    #[test]
    fn timeline_reaches_steady_state() {
        let s = PipelineSchedule::new(0.012, 0.02).unwrap();
        let tl = s.timeline(10);
        // Frame completion spacing converges to the steady-state period.
        let e8 = tl.span(8, Unit::Rasterizer).unwrap().end_s;
        let e9 = tl.span(9, Unit::Rasterizer).unwrap().end_s;
        assert!((e9 - e8 - s.steady_state_period()).abs() < 1e-12);
    }

    #[test]
    fn cuda_overlaps_raster_when_pipelined() {
        // Fig. 8's whole point: stage 1-2 of frame i+1 runs during stage 3
        // of frame i.
        let s = PipelineSchedule::new(0.02, 0.02).unwrap();
        let tl = s.timeline(3);
        let s12_f1 = tl.span(1, Unit::CudaCores).unwrap();
        let s3_f0 = tl.span(0, Unit::Rasterizer).unwrap();
        let overlap = s12_f1.end_s.min(s3_f0.end_s) - s12_f1.start_s.max(s3_f0.start_s);
        assert!(overlap > 0.015, "overlap {overlap}");
    }
}
