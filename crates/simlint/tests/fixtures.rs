//! Fixture corpus: every rule has a known-bad snippet under
//! `tests/fixtures/` asserting the rule fires at exactly the marked
//! lines (`//~ RX` trailing markers), and nowhere else.

use simlint::findings::Finding;
use simlint::lexer::lex;
use simlint::lint_source;
use simlint::rules::{check_event_coverage, EventCoverageConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Extracts the `(line, rule)` expectations from `//~ RX` markers.
fn expected_markers(source: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        if let Some(pos) = line.find("//~ ") {
            let rule = line[pos + 4..]
                .split_whitespace()
                .next()
                .expect("marker names a rule")
                .to_string();
            out.push((idx as u32 + 1, rule));
        }
    }
    assert!(!out.is_empty(), "fixture has no //~ markers");
    out
}

fn found_pairs(findings: &[Finding]) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    out.sort();
    out
}

/// Lints `fixture_name` as if it lived in `crate_name` and asserts the
/// resolved findings are exactly the marked ones.
fn assert_fires_exactly(fixture_name: &str, crate_name: &str) {
    let source = fixture(fixture_name);
    let mut expected = expected_markers(&source);
    expected.sort();
    let findings = lint_source(
        &format!("crates/{crate_name}/src/bad.rs"),
        crate_name,
        &source,
    );
    assert_eq!(
        found_pairs(&findings),
        expected,
        "fixture {fixture_name} (findings: {findings:#?})"
    );
}

#[test]
fn r1_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r1_hashmap.rs", "simcore");
}

#[test]
fn r2_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r2_wallclock.rs", "core");
}

#[test]
fn r2_fixture_fires_in_every_sim_crate_and_stays_quiet_in_serve() {
    let source = fixture("r2_wallclock.rs");
    // Still enforced across the simulation stack …
    for sim_crate in ["simcore", "core", "pfs", "mpiio", "workloads"] {
        let findings = lint_source(
            &format!("crates/{sim_crate}/src/bad.rs"),
            sim_crate,
            &source,
        );
        assert_eq!(
            findings.iter().filter(|f| f.rule == "R2").count(),
            3,
            "{sim_crate}: {findings:#?}"
        );
    }
    // … but scoped out for the serving layer by ScopeConfig (the source
    // carries no inline allows — the exemption lives in configuration).
    assert!(!source.contains("simlint: allow"));
    let findings = lint_source("crates/serve/src/bad.rs", "serve", &source);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn r3_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r3_stringly.rs", "workloads");
}

#[test]
fn r4_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r4_panic.rs", "pfs");
}

#[test]
fn r5_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r5_float_accum.rs", "simcore");
}

#[test]
fn r7_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r7_rng.rs", "workloads");
}

#[test]
fn r8_fixture_fires_on_marked_lines() {
    assert_fires_exactly("r8_nan_check.rs", "mpiio");
}

#[test]
fn r6_fixture_reports_the_uncovered_variant() {
    // R6 is workspace-level: feed the definition/codec pair through the
    // coverage check directly.
    let def = fixture("r6_event_def.rs");
    let codec = fixture("r6_event_codec.rs");
    let def_line = def
        .lines()
        .position(|l| l.contains("Finished"))
        .expect("fixture defines Finished") as u32
        + 1;
    let mut files = BTreeMap::new();
    files.insert("def.rs".to_string(), lex(&def));
    files.insert("codec.rs".to_string(), lex(&codec));
    let cfg = EventCoverageConfig {
        enum_name: "SimEvent".to_string(),
        def_path: "def.rs".to_string(),
        coverage_paths: vec!["codec.rs".to_string()],
    };
    let findings = check_event_coverage(&cfg, &files);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "R6");
    assert_eq!(findings[0].line, def_line);
    assert!(findings[0].message.contains("SimEvent::Finished"));
    assert!(
        !findings[0].message.contains("SimEvent::Started"),
        "the covered variant must not be reported"
    );
}

#[test]
fn fixtures_outside_a_rules_scope_stay_quiet() {
    // The same hash-collection source is fine in a crate whose iteration
    // order is never observable (bench renders figures).
    let source = fixture("r1_hashmap.rs");
    let findings = lint_source("crates/bench/src/bad.rs", "bench", &source);
    assert!(findings.is_empty(), "{findings:#?}");
}
