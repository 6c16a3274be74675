//! Checkpoint I/O: saves a synthetic scene as a standard 3DGS PLY
//! checkpoint, reloads it, and verifies the reloaded scene renders
//! identically — the path by which *real* trained checkpoints can be fed
//! to this reproduction.
//!
//! ```text
//! cargo run --release --example checkpoint_roundtrip
//! ```

use gaurast::render::pipeline::{render, RenderConfig};
use gaurast::scene::generator::SceneParams;
use gaurast::scene::ply::{from_ply, to_ply};
use gaurast::scene::Camera;
use gaurast_math::Vec3;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scene = SceneParams::new(5_000).seed(23).sh_degree(3).generate()?;
    let bytes = to_ply(&scene)?;
    let path = gaurast_repro::artifacts::path("scene.ply")?;
    std::fs::write(&path, &bytes)?;
    println!(
        "wrote {}: {} gaussians, {} bytes, SH degree 3 (3DGS checkpoint layout)",
        path.display(),
        scene.len(),
        bytes.len()
    );

    let reloaded = from_ply(&std::fs::read(&path)?)?;
    println!("reloaded {} gaussians", reloaded.len());

    let cam = Camera::look_at(
        Vec3::new(0.0, 6.0, -26.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        240,
        1.05,
    )?;
    let cfg = RenderConfig::default();
    let a = render(&scene, &cam, &cfg);
    let b = render(&reloaded, &cam, &cfg);
    let psnr = b.image.psnr(&a.image);
    println!("render PSNR after roundtrip: {psnr} dB");
    assert!(psnr > 70.0, "roundtrip must be visually lossless");
    println!("roundtrip verified");
    Ok(())
}
