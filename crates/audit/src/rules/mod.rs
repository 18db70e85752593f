//! The audit rules. Each [`Rule`] walks one file's token stream: a
//! shape check that needs no context beyond the file's crate, target
//! kind and test-module ranges.

pub mod accounting;
pub mod no_platform_leak;
pub mod units;

use crate::source::SourceFile;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (stable; used in allow directives).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description with the suggested fix.
    pub msg: String,
}

/// A per-file lint.
pub trait Rule {
    /// Stable rule name (what `allow(...)` takes).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Appends findings for `file` (allow filtering happens later, in the
    /// engine, so rules stay oblivious to suppression).
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// All per-file rules, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(accounting::UncheckedAccounting),
        Box::new(units::TypedUnits),
        Box::new(units::UnitLaunder),
        Box::new(no_platform_leak::PlatformLeak),
    ]
}

/// Names of every rule (the per-file rules and the `allow-syntax` meta
/// rule), for `--rule` validation and docs.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.push(crate::engine::ALLOW_SYNTAX);
    names
}
