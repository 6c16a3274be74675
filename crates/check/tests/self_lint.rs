//! The workspace must pass its own checks — the same `lint` and `deep`
//! commands CI runs via `cargo run -p gaurast-check`, wired into plain
//! `cargo test` so a violation is caught before it ever reaches CI.

use std::path::Path;

fn workspace_root() -> &'static Path {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check sits two levels under the workspace root");
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn the_workspace_tree_is_lint_clean() {
    let root = workspace_root();
    let findings = gaurast_check::lint::lint_tree(root).expect("tree walk");
    assert!(
        findings.is_empty(),
        "the repository violates its own invariants:\n{}",
        findings
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The deep layer's self-check: every transitive rule must hold on the
/// repository itself — zero violations, with the escape hatches and the
/// unresolved-call count visible rather than failing.
#[test]
fn the_workspace_passes_deep_analysis_clean() {
    let report = gaurast_check::deep::analyze(workspace_root()).expect("deep analysis");
    assert!(
        report.total_violations() == 0,
        "the repository fails its own deep rules:\n{}",
        report.human()
    );
    // The graph must actually cover the pipeline — an empty graph would
    // also be "clean". These floors are far below the real counts.
    assert!(
        report.files > 50,
        "graph covers the workspace: {}",
        report.files
    );
    assert!(
        report.nodes > 400,
        "graph covers the workspace: {}",
        report.nodes
    );
    assert_eq!(report.rules.len(), 4);
    for rule in &report.rules {
        assert!(
            !rule.roots.is_empty(),
            "rule {} found no roots — the markers or entry points moved",
            rule.rule
        );
    }
}

/// The deep resolver maps a method call whose name is in its std
/// vocabulary to no workspace function, so a frame kernel named like a
/// std method would silently leave the serving graph (and with it every
/// deep rule) with no unresolved call to show for it. The serving graph
/// is every function reachable from the serving-panic rule's roots
/// (`RenderService::{submit, render_batch}`); it must reach the reference
/// pass and the engine's image-policy check, Stage 2's splat pass and its
/// rounds (ordering the keys, counting and scattering), Stage 3's rounds,
/// end of frame and tile write-back, and both tile kernels.
#[test]
fn the_serving_graph_reaches_the_frame_kernels() {
    use gaurast_check::deep::panics::{ROOT_METHODS, ROOT_OWNER};
    use gaurast_check::graph::CallGraph;
    use gaurast_check::resolve::{resolve, CrateDeps};

    let root = workspace_root();
    let graph = CallGraph::build(root).expect("call graph");
    let res = resolve(&graph, &CrateDeps::discover(root));
    let is = |i: usize, owner: Option<&str>, name: &str| {
        graph.nodes[i].owner.as_deref() == owner && graph.nodes[i].name == name
    };
    let mut stack: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| ROOT_METHODS.iter().any(|m| is(i, Some(ROOT_OWNER), m)))
        .collect();
    assert_eq!(
        stack.len(),
        ROOT_METHODS.len(),
        "every serving entry point is in the graph"
    );
    let mut reached = vec![false; graph.nodes.len()];
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut reached[i], true) {
            stack.extend(res.edges[i].iter().map(|&(callee, _)| callee));
        }
    }
    for (owner, name) in [
        (Some("Engine"), "reference_pass"),
        (Some("Engine"), "retains_images"),
        (Some("Binning"), "place"),
        (Some("Binning"), "order_keys"),
        (Some("Binning"), "count_chunks"),
        (Some("Binning"), "scatter"),
        (Some("Stage3"), "resume"),
        (Some("Stage3"), "end_frame"),
        (Some("TileJob"), "write_back"),
        (None, "rasterize_tile"),
        (None, "rasterize_tile_avx2"),
    ] {
        let nodes: Vec<usize> = (0..graph.nodes.len())
            .filter(|&i| is(i, owner, name))
            .collect();
        let what = owner.map_or(String::new(), |o| format!("{o}::")) + name;
        assert!(!nodes.is_empty(), "{what} is not in the call graph");
        assert!(
            nodes.iter().any(|&i| reached[i]),
            "the serving graph does not reach {what}"
        );
    }
}
