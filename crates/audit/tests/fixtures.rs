//! Fixture-based end-to-end tests for the audit engine: every rule must
//! fire on the seeded-violation tree, stay silent on its clean twin, and
//! the real workspace itself must audit clean.

use gh_audit::{audit_workspace, AuditConfig, Finding};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(name: &str) -> Vec<Finding> {
    audit_workspace(&AuditConfig::new(fixture_root(name))).expect("fixture tree is readable")
}

fn rule_hits<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn seeded_fixture_fires_unit_launder() {
    // `Pages::new(b.get())` in `pages_from_bytes` relabels a byte count
    // as pages; no other line of the fixture rewraps a raw `.get()`.
    let f = audit("seeded");
    let hits = rule_hits(&f, "unit-launder");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("`Pages::new`"), "{}", hits[0].msg);
    let src = std::fs::read_to_string(fixture_root("seeded").join(&hits[0].path))
        .expect("seeded fixture is readable");
    let lines: Vec<&str> = src.lines().collect();
    let at = hits[0].line as usize - 1;
    assert!(
        lines[at - 1].contains("fn pages_from_bytes"),
        "{}",
        lines[at]
    );
}

#[test]
fn seeded_fixture_fires_accounting_arithmetic() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-unchecked-accounting-arithmetic");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("saturating"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_fires_typed_units() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "typed-units");
    // `tally(bytes: u64)` plus `span_cost(len_bytes: u64, dur_ns: u64)`.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert!(hits.iter().all(|h| h.path.contains("gh-mem/src/lib.rs")));
    assert!(
        hits.iter().any(|h| h.msg.contains("gh_units::Bytes")),
        "{hits:?}"
    );
    assert!(
        hits.iter().any(|h| h.msg.contains("gh_units::SimNs")),
        "{hits:?}"
    );
}

#[test]
fn seeded_fixture_fires_no_platform_leak() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-platform-leak");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-mem/src/lib.rs"));
    assert!(hits[0].msg.contains("machine_cfg"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_flags_reasonless_allow() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "allow-syntax");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("reason"), "{}", hits[0].msg);
}

#[test]
fn rule_filter_narrows_to_requested_rules() {
    let mut cfg = AuditConfig::new(fixture_root("seeded"));
    cfg.only_rules.insert("typed-units".to_string());
    let f = audit_workspace(&cfg).expect("fixture tree is readable");
    assert!(!f.is_empty());
    assert!(f.iter().all(|x| x.rule == "typed-units"), "{f:?}");
}

#[test]
fn clean_fixture_has_zero_findings() {
    let f = audit("clean");
    assert!(f.is_empty(), "clean fixture must audit clean: {f:#?}");
}

#[test]
fn real_workspace_audits_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let f = audit_workspace(&AuditConfig::new(root)).expect("workspace is readable");
    assert!(
        f.is_empty(),
        "the workspace must stay violation-free; run `cargo run -p gh-audit` for details: {f:#?}"
    );
}
