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
fn seeded_fixture_fires_no_wall_clock() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-wall-clock");
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|h| h.path.contains("gh-mem/src/lib.rs")));
}

#[test]
fn wall_clock_exemption_is_silent_inside_gh_perf_and_fires_outside() {
    // The seeded tree plants every banned wall-clock ident in BOTH
    // gh-mem/src/lib.rs and gh-perf/src/lib.rs; only gh-mem may fire.
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-wall-clock");
    assert!(!hits.is_empty(), "gh-mem's seeded violations must fire");
    assert!(
        hits.iter().all(|h| !h.path.contains("gh-perf")),
        "gh-perf is the sanctioned carve-out: {hits:?}"
    );
    // The clean tree's gh-perf also reads Instant (that is its job) —
    // covered by clean_fixture_has_zero_findings, re-asserted here for
    // the rule specifically.
    let clean = audit("clean");
    assert!(rule_hits(&clean, "no-wall-clock").is_empty(), "{clean:#?}");
}

#[test]
fn seeded_fixture_fires_unordered_iter_flow() {
    // `report()` pushes hash-ordered values element-wise into the
    // returned vec; the flow rule flags the escape, not the iteration.
    let f = audit("seeded");
    let hits = rule_hits(&f, "unordered-iter-flow");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-mem/src/lib.rs"));
    assert!(hits[0].msg.contains("returned"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_fires_epoch_coherence() {
    // `PageTable::populate` mutates placement without bumping the epoch;
    // `retire` bumps and must stay silent.
    let f = audit("seeded");
    let hits = rule_hits(&f, "epoch-coherence");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].msg.contains("PageTable::populate"),
        "{}",
        hits[0].msg
    );
}

#[test]
fn seeded_fixture_fires_unit_launder_flow() {
    // `Pages::new(b.get())` relabels a byte count as pages.
    let f = audit("seeded");
    let hits = rule_hits(&f, "unit-launder-flow");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("`Bytes`"), "{}", hits[0].msg);
    assert!(hits[0].msg.contains("`Pages`"), "{}", hits[0].msg);
}

#[test]
fn seeded_fixture_fires_wall_clock_taint_inside_gh_perf() {
    // The value-flow rule reaches where the per-crate exemption cannot:
    // a measured duration leaking into a counter inside gh-perf itself.
    let f = audit("seeded");
    let hits = rule_hits(&f, "wall-clock-taint");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-perf/src/lib.rs"));
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
fn seeded_fixture_fires_no_raw_unit_cast() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-raw-unit-cast");
    // One `as u64` launder plus one `.0` escape, both in `escape_hatch`.
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|h| h.msg.contains("widen")), "{hits:?}");
    assert!(hits.iter().any(|h| h.msg.contains(".get()")), "{hits:?}");
}

#[test]
fn seeded_fixture_fires_no_float_eq() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-float-eq");
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn seeded_fixture_fires_no_unwrap_in_lib() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-unwrap-in-lib");
    assert_eq!(hits.len(), 1, "{hits:?}");
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
fn seeded_fixture_fires_no_ambient_state() {
    // thread_local!, static mut, the OnceLock latch (its two same-line
    // mentions dedupe to one finding), and one env read.
    let f = audit("seeded");
    let hits = rule_hits(&f, "no-ambient-state");
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert!(hits.iter().all(|h| h.path.contains("gh-mem/src/lib.rs")));
    assert!(
        hits.iter().any(|h| h.msg.contains("SessionCtx")),
        "{hits:?}"
    );
}

#[test]
fn seeded_fixture_fires_trace_coverage() {
    let f = audit("seeded");
    let hits = rule_hits(&f, "trace-coverage");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].msg.contains("Ghost"), "{}", hits[0].msg);
    assert!(hits[0].path.contains("gh-trace/src/lib.rs"));
}

#[test]
fn seeded_fixture_fires_lock_discipline() {
    // `publish` calls `count` (which locks `map`) while still holding
    // the `map` guard — an interprocedural self-deadlock.
    let f = audit("seeded");
    let hits = rule_hits(&f, "lock-discipline");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].path.contains("gh-jobs/src/lib.rs"));
    assert!(hits[0].msg.contains("`map`"), "{}", hits[0].msg);
    assert!(hits[0].msg.contains("count"), "{}", hits[0].msg);
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
    cfg.only_rules.insert("no-float-eq".to_string());
    let f = audit_workspace(&cfg).expect("fixture tree is readable");
    assert!(!f.is_empty());
    assert!(f.iter().all(|x| x.rule == "no-float-eq"), "{f:?}");
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
