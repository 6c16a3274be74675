//! Dual-mode demonstration: the same enhanced rasterizer executes a classic
//! triangle-mesh frame and a Gaussian-splatting frame, each bit-exact with
//! its software reference — the compatibility property at the heart of the
//! paper's design (§IV).
//!
//! ```text
//! cargo run --release --example dual_mode_rasterizer
//! ```

use gaurast::backend::BackendKind;
use gaurast::engine::{EngineBuilder, ImagePolicy};
use gaurast::hw::{EnhancedRasterizer, RasterizerConfig};
use gaurast::render::triangle::{project_mesh, render_mesh, TriangleWorkload};
use gaurast::scene::generator::SceneParams;
use gaurast::scene::{Camera, TriangleMesh};
use gaurast_math::Vec3;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let camera = Camera::look_at(
        Vec3::new(10.0, 8.0, -18.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        384,
        256,
        1.0,
    )?;
    let hw = EnhancedRasterizer::new(RasterizerConfig::prototype());

    // --- Triangle mode: a textured sphere over a checkerboard ground. ---
    let mut mesh = TriangleMesh::uv_sphere(Vec3::new(0.0, 2.0, 0.0), 4.0, 24, 32);
    let ground = TriangleMesh::grid(Vec3::new(0.0, -2.0, 0.0), 30.0, 12, 12);
    let mut verts = mesh.vertices().to_vec();
    let base = verts.len() as u32;
    verts.extend_from_slice(ground.vertices());
    let mut tris = mesh.triangles().to_vec();
    tris.extend(
        ground
            .triangles()
            .iter()
            .map(|t| gaurast::scene::Triangle(t.0 + base, t.1 + base, t.2 + base)),
    );
    mesh = TriangleMesh::from_parts(verts, tris)?;

    let (sw_tri, tri_stats) = render_mesh(&mesh, &camera);
    let projected = project_mesh(&mesh, &camera);
    let tri_workload = TriangleWorkload::bin(projected, camera.width(), camera.height(), 16);
    let (hw_tri, tri_report) = hw.render_triangles(&tri_workload);
    assert_eq!(hw_tri.mean_abs_diff(&sw_tri), 0.0);
    println!(
        "triangle mode: {} fragments, {} cycles, divider ops {}, exp ops {} (bit-exact)",
        tri_stats.fragments_written,
        tri_report.cycles,
        tri_report.activity.div,
        tri_report.activity.exp
    );
    let tri_out = gaurast_repro::artifacts::path("dual_mode_triangles.ppm")?;
    std::fs::write(&tri_out, hw_tri.to_ppm())?;

    // --- Gaussian mode: a splat cloud through an engine session on the
    //     same prototype configuration. The comparison executes the
    //     software reference and the hardware model on one workload. The
    //     served FP32 row carries the reference image, so the PE datapath
    //     renders that workload here; FP32 must be bit-exact.
    let scene = SceneParams::new(6_000).seed(11).generate()?;
    let mut engine = EngineBuilder::new(scene)
        .hw_config(RasterizerConfig::prototype())
        .image_policy(ImagePolicy::Retain)
        .build()?;
    let cmp = engine.compare(&camera, &[BackendKind::Software, BackendKind::Enhanced]);
    let sw_gauss = cmp
        .get(BackendKind::Software)
        .and_then(|r| r.image.clone())
        .expect("retained software image");
    let hw_row = cmp.get(BackendKind::Enhanced).expect("requested");
    let (hw_gauss, _) = hw.render_gaussian(&cmp.workload);
    assert_eq!(hw_gauss.mean_abs_diff(&sw_gauss), 0.0);
    println!(
        "gaussian mode: {} blends, {:.3} ms simulated, {} issued pairs (bit-exact)",
        hw_row.stats.blends_committed,
        hw_row.time_s * 1e3,
        hw_row.ops
    );
    let gauss_out_path = gaurast_repro::artifacts::path("dual_mode_gaussians.ppm")?;
    std::fs::write(&gauss_out_path, hw_gauss.to_ppm())?;

    println!(
        "wrote {} and {}",
        tri_out.display(),
        gauss_out_path.display()
    );
    Ok(())
}
