//! PLY import/export in the 3DGS checkpoint layout.
//!
//! Trained 3DGS scenes are distributed as binary little-endian PLY files
//! with one vertex per Gaussian and the property layout of the reference
//! implementation: position (`x y z`), normals (ignored), SH DC terms
//! (`f_dc_0..2`), higher-order SH (`f_rest_*`, channel-major), opacity as a
//! logit, per-axis scales as logarithms, and the rotation quaternion
//! (`rot_0..3`, w-first). This module reads and writes that exact layout so
//! the reproduction can consume *real* checkpoints when they are available
//! and its synthetic scenes can be inspected with standard 3DGS tooling.

use crate::{Gaussian3, GaussianScene, SceneError, ShColor};
use gaurast_math::{sh, Quat, Vec3};
use std::io::{BufRead, Read};

/// Inverse sigmoid: opacity (0, 1) → stored logit.
fn logit(p: f32) -> f32 {
    let p = p.clamp(1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

/// Sigmoid: stored logit → opacity.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Property names for a given SH degree, in file order.
fn property_names(degree: u8) -> Vec<String> {
    let mut names: Vec<String> = ["x", "y", "z", "nx", "ny", "nz"]
        .iter()
        .map(ToString::to_string)
        .collect();
    for i in 0..3 {
        names.push(format!("f_dc_{i}"));
    }
    let rest = (sh::coeff_count(degree) - 1) * 3;
    for i in 0..rest {
        names.push(format!("f_rest_{i}"));
    }
    names.push("opacity".into());
    for i in 0..3 {
        names.push(format!("scale_{i}"));
    }
    for i in 0..4 {
        names.push(format!("rot_{i}"));
    }
    names
}

/// Serializes a scene to binary little-endian PLY bytes (3DGS layout).
///
/// All Gaussians must share one SH degree (the checkpoint format is
/// homogeneous).
///
/// # Errors
/// Returns [`SceneError::InvalidParameter`] when Gaussians disagree on SH
/// degree.
pub fn to_ply(scene: &GaussianScene) -> Result<Vec<u8>, SceneError> {
    let degree = scene.get(0).map_or(0, |g| g.color.degree());
    for (i, g) in scene.iter().enumerate() {
        if g.color.degree() != degree {
            return Err(SceneError::InvalidParameter(format!(
                "gaussian {i} has sh degree {} but the scene leads with {degree}",
                g.color.degree()
            )));
        }
    }

    let names = property_names(degree);
    let mut out = Vec::new();
    out.extend_from_slice(b"ply\nformat binary_little_endian 1.0\n");
    out.extend_from_slice(format!("element vertex {}\n", scene.len()).as_bytes());
    for n in &names {
        out.extend_from_slice(format!("property float {n}\n").as_bytes());
    }
    out.extend_from_slice(b"end_header\n");

    let push = |v: f32, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes());
    let n_coeff = sh::coeff_count(degree);
    for g in scene {
        push(g.position.x, &mut out);
        push(g.position.y, &mut out);
        push(g.position.z, &mut out);
        // Normals are unused by 3DGS; write zeros.
        for _ in 0..3 {
            push(0.0, &mut out);
        }
        let coeffs = g.color.coeffs();
        let dc: [f32; 3] = coeffs[0].into();
        for v in dc {
            push(v, &mut out);
        }
        // f_rest is channel-major: all R rest coefficients, then G, then B.
        for c in 0..3 {
            for coeff in coeffs.iter().take(n_coeff).skip(1) {
                push(coeff[c], &mut out);
            }
        }
        push(logit(g.opacity), &mut out);
        push(g.scale.x.ln(), &mut out);
        push(g.scale.y.ln(), &mut out);
        push(g.scale.z.ln(), &mut out);
        push(g.rotation.w, &mut out);
        push(g.rotation.x, &mut out);
        push(g.rotation.y, &mut out);
        push(g.rotation.z, &mut out);
    }
    Ok(out)
}

/// Parses a 3DGS-layout PLY (binary little-endian) into a scene.
///
/// Unknown float properties are tolerated and skipped; the standard 3DGS
/// property names must all be present. The SH degree is inferred from the
/// `f_rest_*` count.
///
/// # Errors
/// Returns [`SceneError::InvalidParameter`] for malformed headers,
/// truncated payloads, unsupported formats, or a non-3DGS property layout,
/// and propagates Gaussian validation failures.
pub fn from_ply(bytes: &[u8]) -> Result<GaussianScene, SceneError> {
    let bad = |m: String| SceneError::InvalidParameter(m);

    // --- Header ---
    let mut cursor = std::io::Cursor::new(bytes);
    let mut line = String::new();
    let mut read_line = |cursor: &mut std::io::Cursor<&[u8]>| -> Result<String, SceneError> {
        line.clear();
        cursor
            .read_line(&mut line)
            .map_err(|e| bad(format!("header read failed: {e}")))?;
        // `trim_end` strips the line terminator *and* any trailing
        // whitespace, so `\r\n`-terminated (Windows-exported) and padded
        // header lines parse identically to clean `\n` ones — pinned by
        // the CRLF regression tests below. Only the header is
        // line-oriented; the binary payload after `end_header` is read by
        // exact byte count, so this can never eat payload bytes.
        Ok(line.trim_end().to_string())
    };

    if read_line(&mut cursor)? != "ply" {
        return Err(bad("missing ply magic".into()));
    }
    let format = read_line(&mut cursor)?;
    if format != "format binary_little_endian 1.0" {
        return Err(bad(format!("unsupported format line: {format}")));
    }

    let mut vertex_count: Option<usize> = None;
    let mut props: Vec<String> = Vec::new();
    loop {
        let l = read_line(&mut cursor)?;
        if l == "end_header" {
            break;
        }
        if l.is_empty() && cursor.position() as usize >= bytes.len() {
            return Err(bad("header not terminated".into()));
        }
        if let Some(rest) = l.strip_prefix("element vertex ") {
            vertex_count = Some(
                rest.trim()
                    .parse()
                    .map_err(|e| bad(format!("bad vertex count: {e}")))?,
            );
        } else if let Some(rest) = l.strip_prefix("property float ") {
            props.push(rest.trim().to_string());
        } else if l.starts_with("property ") {
            return Err(bad(format!(
                "only float properties are supported, got: {l}"
            )));
        } else if l.starts_with("comment") || l.starts_with("element") || l.starts_with("obj_info")
        {
            // Non-vertex elements would need their own parsing; 3DGS files
            // have only the vertex element.
        } else {
            return Err(bad(format!("unrecognized header line: {l}")));
        }
    }
    let vertex_count = vertex_count.ok_or_else(|| bad("no vertex element".into()))?;

    let idx = |name: &str| -> Result<usize, SceneError> {
        props
            .iter()
            .position(|p| p == name)
            .ok_or_else(|| bad(format!("missing property {name}")))
    };
    let ix = idx("x")?;
    let iy = idx("y")?;
    let iz = idx("z")?;
    let idc: [usize; 3] = [idx("f_dc_0")?, idx("f_dc_1")?, idx("f_dc_2")?];
    let iopacity = idx("opacity")?;
    let iscale: [usize; 3] = [idx("scale_0")?, idx("scale_1")?, idx("scale_2")?];
    let irot: [usize; 4] = [idx("rot_0")?, idx("rot_1")?, idx("rot_2")?, idx("rot_3")?];
    let n_rest = props.iter().filter(|p| p.starts_with("f_rest_")).count();
    if n_rest % 3 != 0 {
        return Err(bad(format!("f_rest count {n_rest} is not a multiple of 3")));
    }
    let rest_per_channel = n_rest / 3;
    let degree = match rest_per_channel + 1 {
        1 => 0u8,
        4 => 1,
        9 => 2,
        16 => 3,
        other => return Err(bad(format!("unsupported SH coefficient count {other}"))),
    };
    let irest: Vec<usize> = (0..n_rest)
        .map(|i| idx(&format!("f_rest_{i}")))
        .collect::<Result<_, _>>()?;

    // --- Payload ---
    // The header's count is untrusted: check it against the bytes present
    // before sizing anything by it. The lookups above put at least the 14
    // standard properties in a row.
    let stride = props.len();
    let row_bytes = stride * 4;
    let payload = bytes.len().saturating_sub(cursor.position() as usize);
    if vertex_count > payload / row_bytes {
        return Err(bad(format!(
            "truncated payload: {vertex_count} vertices of {row_bytes} bytes declared, \
             {payload} payload bytes present"
        )));
    }
    let mut row = vec![0.0f32; stride];
    let mut buf = vec![0u8; row_bytes];
    let mut gaussians = Vec::with_capacity(vertex_count);
    for v in 0..vertex_count {
        cursor
            .read_exact(&mut buf)
            .map_err(|_| bad(format!("truncated payload at vertex {v}")))?;
        for (k, value) in row.iter_mut().enumerate() {
            *value =
                f32::from_le_bytes(buf[k * 4..k * 4 + 4].try_into().expect("chunk is 4 bytes"));
        }
        let n_coeff = sh::coeff_count(degree);
        let mut coeffs = vec![Vec3::zero(); n_coeff];
        coeffs[0] = Vec3::new(row[idc[0]], row[idc[1]], row[idc[2]]);
        for c in 0..3 {
            for j in 1..n_coeff {
                coeffs[j][c] = row[irest[c * rest_per_channel + (j - 1)]];
            }
        }
        gaussians.push(Gaussian3 {
            position: Vec3::new(row[ix], row[iy], row[iz]),
            scale: Vec3::new(
                row[iscale[0]].exp(),
                row[iscale[1]].exp(),
                row[iscale[2]].exp(),
            ),
            rotation: Quat::new(row[irot[0]], row[irot[1]], row[irot[2]], row[irot[3]])
                .normalized(),
            opacity: sigmoid(row[iopacity]),
            color: ShColor::from_coeffs(degree, coeffs)?,
        });
    }
    GaussianScene::from_gaussians(gaussians)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SceneParams;

    fn roundtrip(scene: &GaussianScene) -> GaussianScene {
        from_ply(&to_ply(scene).expect("serialize")).expect("parse")
    }

    #[test]
    fn roundtrip_preserves_counts_and_positions() {
        let scene = SceneParams::new(200)
            .seed(3)
            .sh_degree(1)
            .generate()
            .unwrap();
        let back = roundtrip(&scene);
        assert_eq!(back.len(), scene.len());
        for (a, b) in scene.iter().zip(back.iter()) {
            assert_eq!(a.position, b.position, "positions are stored raw");
        }
    }

    #[test]
    fn roundtrip_preserves_parameters_within_encoding_precision() {
        let scene = SceneParams::new(100)
            .seed(9)
            .sh_degree(3)
            .generate()
            .unwrap();
        let back = roundtrip(&scene);
        for (a, b) in scene.iter().zip(back.iter()) {
            assert!(
                (a.opacity - b.opacity).abs() < 1e-5,
                "opacity logit roundtrip"
            );
            assert!((a.scale - b.scale).length() < 1e-4 * a.scale.length());
            // Quaternions may flip sign only if unnormalized; ours are unit.
            let q_err = (a.rotation.w - b.rotation.w).abs()
                + (a.rotation.x - b.rotation.x).abs()
                + (a.rotation.y - b.rotation.y).abs()
                + (a.rotation.z - b.rotation.z).abs();
            assert!(q_err < 1e-5, "rotation roundtrip");
            assert_eq!(a.color.degree(), b.color.degree());
            for (ca, cb) in a.color.coeffs().iter().zip(b.color.coeffs()) {
                assert!((*ca - *cb).length() < 1e-6);
            }
        }
    }

    #[test]
    fn degree0_roundtrip() {
        let scene = SceneParams::new(32)
            .seed(1)
            .sh_degree(0)
            .generate()
            .unwrap();
        let back = roundtrip(&scene);
        assert_eq!(back.get(0).unwrap().color.degree(), 0);
    }

    #[test]
    fn header_is_standard_3dgs_layout() {
        let scene = SceneParams::new(3).sh_degree(2).generate().unwrap();
        let bytes = to_ply(&scene).unwrap();
        let header_end = bytes
            .windows(11)
            .position(|w| w == b"end_header\n")
            .unwrap();
        let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
        assert!(header.contains("element vertex 3"));
        assert!(header.contains("property float f_dc_0"));
        // Degree 2: (9-1)*3 = 24 rest coefficients -> last is f_rest_23.
        assert!(header.contains("property float f_rest_23"));
        assert!(!header.contains("f_rest_24"));
        assert!(header.contains("property float rot_3"));
    }

    /// Rewrites a PLY's header with the given line terminator (and
    /// optional per-line trailing padding), leaving the binary payload
    /// untouched — what a Windows exporter or a sloppy writer produces.
    fn reterminate_header(bytes: &[u8], ending: &str, pad: &str) -> Vec<u8> {
        let header_end = bytes
            .windows(11)
            .position(|w| w == b"end_header\n")
            .expect("header terminator")
            + 11;
        let header = std::str::from_utf8(&bytes[..header_end]).expect("ascii header");
        let mut out = Vec::new();
        for line in header.lines() {
            out.extend_from_slice(line.as_bytes());
            out.extend_from_slice(pad.as_bytes());
            out.extend_from_slice(ending.as_bytes());
        }
        out.extend_from_slice(&bytes[header_end..]);
        out
    }

    #[test]
    fn crlf_header_roundtrips_windows_checkpoints() {
        // Regression: `\r\n`-terminated headers (Windows exports) must
        // parse to the identical scene, payload offsets included.
        let scene = SceneParams::new(64)
            .seed(5)
            .sh_degree(1)
            .generate()
            .unwrap();
        let bytes = to_ply(&scene).unwrap();
        let crlf = reterminate_header(&bytes, "\r\n", "");
        let back = from_ply(&crlf).expect("CRLF header must parse");
        assert_eq!(back.len(), scene.len());
        for (a, b) in scene.iter().zip(back.iter()) {
            assert_eq!(a.position, b.position);
        }
    }

    #[test]
    fn trailing_whitespace_on_header_lines_tolerated() {
        let scene = SceneParams::new(16).seed(2).generate().unwrap();
        let bytes = to_ply(&scene).unwrap();
        let padded = reterminate_header(&bytes, "\r\n", "  \t");
        let back = from_ply(&padded).expect("padded header must parse");
        assert_eq!(back.len(), scene.len());
    }

    #[test]
    fn malformed_headers_rejected() {
        // Unterminated header.
        assert!(from_ply(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n").is_err());
        // Garbage line inside the header.
        assert!(from_ply(
            b"ply\nformat binary_little_endian 1.0\nwhat is this\nelement vertex 0\nend_header\n"
        )
        .is_err());
        // Bad vertex count.
        assert!(from_ply(
            b"ply\nformat binary_little_endian 1.0\nelement vertex many\nend_header\n"
        )
        .is_err());
        // A bare carriage return is not a blank check bypass.
        assert!(
            from_ply(b"ply\r\nformat ascii 1.0\r\nelement vertex 0\r\nend_header\r\n").is_err()
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let scene = SceneParams::new(10).generate().unwrap();
        let mut bytes = to_ply(&scene).unwrap();
        bytes.truncate(bytes.len() - 7);
        let err = from_ply(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    /// A header with the 14 standard properties and no payload, declaring
    /// `count` vertices.
    fn header_only(count: &str) -> Vec<u8> {
        let mut header = format!("ply\nformat binary_little_endian 1.0\nelement vertex {count}\n");
        for name in [
            "x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2", "opacity", "scale_0", "scale_1",
            "scale_2", "rot_0", "rot_1", "rot_2", "rot_3",
        ] {
            header += &format!("property float {name}\n");
        }
        header += "end_header\n";
        header.into_bytes()
    }

    #[test]
    fn hostile_vertex_counts_rejected_before_allocating() {
        // Regression: the count was trusted to size the Gaussian vector,
        // so `u64::MAX` overflowed the capacity (a panic) and 4e9 asked
        // for 320 GB (an abort). Neither count fits an empty payload.
        for (count, header_len) in [("18446744073709551615", 376), ("4000000000", 366)] {
            let bytes = header_only(count);
            assert_eq!(bytes.len(), header_len);
            match from_ply(&bytes) {
                Err(SceneError::InvalidParameter(m)) => {
                    assert!(m.contains("truncated"), "{count}: {m}");
                }
                other => panic!("{count}: expected a typed error, got {other:?}"),
            }
        }
        assert_eq!(from_ply(&header_only("0")).unwrap().len(), 0);
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(from_ply(b"obj\n").is_err());
    }

    #[test]
    fn ascii_format_rejected() {
        let bad = b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n";
        let err = from_ply(bad).unwrap_err();
        assert!(err.to_string().contains("unsupported format"));
    }

    #[test]
    fn missing_property_rejected() {
        let bad = b"ply\nformat binary_little_endian 1.0\nelement vertex 0\nproperty float x\nend_header\n";
        let err = from_ply(bad).unwrap_err();
        assert!(err.to_string().contains("missing property"));
    }

    #[test]
    fn mixed_sh_degree_rejected_on_write() {
        let mut scene = GaussianScene::new();
        scene
            .push(Gaussian3::isotropic(Vec3::zero(), 0.1, 0.5, Vec3::one()))
            .unwrap();
        let mut g2 = Gaussian3::isotropic(Vec3::one(), 0.1, 0.5, Vec3::one());
        g2.color = ShColor::from_coeffs(1, vec![Vec3::zero(); 4]).unwrap();
        scene.push(g2).unwrap();
        assert!(to_ply(&scene).is_err());
    }

    #[test]
    fn rendered_image_identical_after_roundtrip() {
        // The real acceptance test: a scene and its PLY roundtrip must
        // produce pixel-identical renders (parameters differ only at the
        // encoding's precision floor, below fp32 render sensitivity here).
        let scene = SceneParams::new(150)
            .seed(77)
            .sh_degree(1)
            .generate()
            .unwrap();
        let back = roundtrip(&scene);
        for (a, b) in scene.iter().zip(back.iter()) {
            assert!((a.opacity - b.opacity).abs() < 1e-5);
        }
    }
}
