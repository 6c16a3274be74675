//! Ablation studies of the hardware's design decisions: tile size, PE
//! scaling, ping-pong buffering, input gating, and datapath precision.
//!
//! These go beyond the paper's published data — they quantify *why* the
//! design points the paper picked are sensible.

use crate::report::{fmt_f, fmt_pct, TextTable};
use gaurast_hw::power::PowerModel;
use gaurast_hw::{EnhancedRasterizer, Precision, RasterizerConfig};
use gaurast_render::pipeline::{build_workload, RenderConfig};
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

/// One sweep point of an ablation.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationPoint {
    /// Human-readable parameter value.
    pub label: String,
    /// Simulated frame cycles.
    pub cycles: u64,
    /// PE utilization.
    pub utilization: f64,
    /// Memory stall cycles.
    pub stall_cycles: u64,
    /// Frame energy, J (28 nm prototype conditions).
    pub energy_j: f64,
}

/// A complete ablation report over one scene.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationReport {
    /// Scene used.
    pub scene: Nerf360Scene,
    /// Tile-size sweep (8/16/32 px).
    pub tile_size: Vec<AblationPoint>,
    /// PE-count sweep (1/4/15/30 modules of 16 PEs).
    pub pe_count: Vec<AblationPoint>,
    /// Ping-pong vs single buffer.
    pub buffering: Vec<AblationPoint>,
    /// Input gating and precision variants.
    pub power_variants: Vec<AblationPoint>,
}

fn point(
    label: String,
    cfg: RasterizerConfig,
    workload: &gaurast_render::RasterWorkload,
) -> AblationPoint {
    let report = EnhancedRasterizer::new(cfg).simulate_gaussian(workload);
    let energy = PowerModel::prototype(cfg).evaluate(&report).total_j();
    AblationPoint {
        label,
        cycles: report.cycles,
        utilization: report.utilization,
        stall_cycles: report.stall_cycles,
        energy_j: energy,
    }
}

/// Runs every ablation on one scene at the given scale.
pub fn ablations(scene: Nerf360Scene, scale: SceneScale) -> AblationReport {
    let desc = scene.descriptor();
    let gscene = desc.synthesize(scale);
    let cam = desc.camera(scale, 0.4).expect("descriptor camera");

    // Tile size changes the workload itself (binning granularity).
    let tile_size = [8u32, 16, 32]
        .into_iter()
        .map(|ts| {
            let workload = build_workload(
                &gscene,
                &cam,
                &RenderConfig {
                    tile_size: ts,
                    ..RenderConfig::default()
                },
            );
            point(format!("{ts} px"), RasterizerConfig::scaled(), &workload)
        })
        .collect();

    let workload = build_workload(&gscene, &cam, &RenderConfig::default());

    let pe_count = [1u32, 4, 15, 30]
        .into_iter()
        .map(|modules| {
            let cfg = RasterizerConfig {
                modules,
                ..RasterizerConfig::prototype()
            };
            point(format!("{} PEs", cfg.total_pes()), cfg, &workload)
        })
        .collect();

    let buffering = [true, false]
        .into_iter()
        .map(|ping_pong| {
            let cfg = RasterizerConfig {
                ping_pong,
                ..RasterizerConfig::scaled()
            };
            let label = if ping_pong {
                "ping-pong"
            } else {
                "single buffer"
            };
            point(label.to_string(), cfg, &workload)
        })
        .collect();

    let power_variants = [
        ("fp32, gated", Precision::Fp32, true),
        ("fp32, ungated", Precision::Fp32, false),
        ("fp16, gated", Precision::Fp16, true),
    ]
    .into_iter()
    .map(|(label, precision, input_gating)| {
        let cfg = RasterizerConfig {
            precision,
            input_gating,
            ..RasterizerConfig::scaled()
        };
        point(label.to_string(), cfg, &workload)
    })
    .collect();

    AblationReport {
        scene,
        tile_size,
        pe_count,
        buffering,
        power_variants,
    }
}

fn table(
    title: &str,
    points: &[AblationPoint],
    f: &mut std::fmt::Formatter<'_>,
) -> std::fmt::Result {
    writeln!(f, "{title}")?;
    let mut t = TextTable::new(vec![
        "setting",
        "cycles",
        "utilization",
        "stalls",
        "energy mJ",
    ]);
    for p in points {
        t.row(vec![
            p.label.clone(),
            p.cycles.to_string(),
            fmt_pct(p.utilization),
            p.stall_cycles.to_string(),
            fmt_f(p.energy_j * 1e3, 3),
        ]);
    }
    writeln!(f, "{t}")
}

impl std::fmt::Display for AblationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablations ({} scene) — hardware design decisions",
            self.scene
        )?;
        table("tile size:", &self.tile_size, f)?;
        table("PE count:", &self.pe_count, f)?;
        table("tile buffering:", &self.buffering, f)?;
        table("gating / precision:", &self.power_variants, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static AblationReport {
        static R: OnceLock<AblationReport> = OnceLock::new();
        R.get_or_init(|| ablations(Nerf360Scene::Garden, SceneScale::UNIT_TEST))
    }

    #[test]
    fn more_pes_fewer_cycles_lower_utilization_tail() {
        let pes = &report().pe_count;
        for w in pes.windows(2) {
            assert!(
                w[1].cycles < w[0].cycles,
                "{} !< {}",
                w[1].cycles,
                w[0].cycles
            );
        }
        // Over-provisioning (30 modules) cannot beat perfect scaling.
        let first = &pes[0];
        let last = &pes[pes.len() - 1];
        let ideal = first.cycles as f64 / 30.0;
        assert!(last.cycles as f64 >= ideal * 0.9);
    }

    #[test]
    fn ping_pong_strictly_better() {
        let b = &report().buffering;
        assert!(
            b[0].cycles < b[1].cycles,
            "ping-pong must beat single buffer"
        );
    }

    #[test]
    fn gating_and_fp16_save_energy() {
        let p = &report().power_variants;
        let (gated, ungated, fp16) = (&p[0], &p[1], &p[2]);
        assert!(gated.energy_j < ungated.energy_j);
        assert!(fp16.energy_j < gated.energy_j);
    }

    #[test]
    fn tile_16_is_a_reasonable_operating_point() {
        // 16 px (the paper's choice) should be within 2x of the best sweep
        // point — the ablation's purpose is to show it is not pathological.
        let t = &report().tile_size;
        let best = t.iter().map(|p| p.cycles).min().unwrap();
        let chosen = t.iter().find(|p| p.label == "16 px").unwrap();
        assert!(
            chosen.cycles < best * 2,
            "16px {} vs best {}",
            chosen.cycles,
            best
        );
    }

    #[test]
    fn display_renders_all_sections() {
        let text = report().to_string();
        for needle in ["tile size", "PE count", "buffering", "precision"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
