//! Golden self-test: every fixture in `crates/lint/fixtures/` is
//! scanned under a virtual in-scope path and its diagnostics must match
//! the `.expected` sidecar exactly. This is the regression harness for
//! the lint itself — seeding any of these snippets into a real crate
//! must reproduce the same `line:rule` findings.

use std::path::PathBuf;

use tamp_lint::scan_source;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Fixtures are scanned as if they lived in a schedule-emission module,
/// which is inside the scope of every rule (D1, D2, D3, S1, F1).
fn virtual_path(stem: &str) -> String {
    format!("crates/query/src/physical/strategies/{stem}.rs")
}

fn parse_expected(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn fixtures_match_goldens() {
    let dir = fixtures_dir();
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "rs").then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    stems.sort();
    assert!(
        stems.len() >= 7,
        "fixture corpus shrank: only {stems:?} left"
    );

    for stem in &stems {
        let src = std::fs::read_to_string(dir.join(format!("{stem}.rs"))).unwrap();
        let golden = std::fs::read_to_string(dir.join(format!("{stem}.expected")))
            .unwrap_or_else(|_| panic!("fixture {stem}.rs has no {stem}.expected sidecar"));
        let report = scan_source(&virtual_path(stem), &src);
        let got: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| format!("{}:{}", d.line, d.rule.id()))
            .collect();
        let want = parse_expected(&golden);
        assert_eq!(
            got,
            want,
            "fixture {stem}.rs diverged from golden.\nfull report:\n{}",
            report.render_text()
        );
        // Diagnostics must carry the scanned path, so `file:line:rule`
        // output points at the right place.
        for d in &report.diagnostics {
            assert_eq!(d.file, virtual_path(stem));
        }
    }
}

#[test]
fn suppression_allow_inventory_is_itemized() {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join("suppression.rs")).unwrap();
    let report = scan_source(&virtual_path("suppression"), &src);

    // Exactly one allow survives: the well-formed, actually-used one.
    assert_eq!(report.allows.len(), 1, "{}", report.render_text());
    let a = &report.allows[0];
    assert_eq!(a.rule.id(), "D1");
    assert!(
        a.reason.contains("commutative") && a.reason.contains("reach the answer"),
        "multi-line reason was not stitched together: {:?}",
        a.reason
    );
    // And the rendered report itemizes it.
    let text = report.render_text();
    assert!(text.contains("allow(D1)"), "{text}");
    assert!(text.contains("commutative"), "{text}");
}

#[test]
fn clean_out_of_scope_paths_stay_silent() {
    // The same bad snippets scanned under an out-of-scope path (compat
    // shims) produce no D/F findings; S1 still applies everywhere.
    let dir = fixtures_dir();
    for stem in ["d1_unordered_iteration", "d2_wall_clock", "d3_unseeded_rng"] {
        let src = std::fs::read_to_string(dir.join(format!("{stem}.rs"))).unwrap();
        let report = scan_source(&format!("crates/compat/rand/src/{stem}.rs"), &src);
        assert!(
            report.is_clean(),
            "{stem} fired outside its scope:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn protocol_send_loops_fire_inside_the_core_protocol_modules_only() {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join("d1_protocol_send_loop.rs")).unwrap();
    for path in [
        "crates/core/src/intersection/tree.rs",
        "crates/core/src/aggregate/groupby.rs",
        "crates/core/src/sorting/terasort.rs",
    ] {
        let report = scan_source(path, &src);
        let got: Vec<u32> = report.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(got, [11, 21], "{path}:\n{}", report.render_text());
    }
    // The cartesian protocols route by interval, not by hash table.
    let report = scan_source("crates/core/src/cartesian/whc.rs", &src);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn json_rendering_counts_agree() {
    let dir = fixtures_dir();
    let src = std::fs::read_to_string(dir.join("d2_wall_clock.rs")).unwrap();
    let report = scan_source(&virtual_path("d2_wall_clock"), &src);
    let json = report.render_json();
    assert!(json.contains(&format!("\"violations\": {}", report.diagnostics.len())));
    assert!(
        json.contains("\"D2\": {\"violations\": 4, \"allows\": 0}"),
        "{json}"
    );
}
