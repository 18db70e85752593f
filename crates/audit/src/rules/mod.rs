//! The audit rules, in two tiers:
//!
//! * **token rules** ([`Rule`]) walk one file's token stream — cheap
//!   shape checks that need no context;
//! * **flow rules** ([`FlowRule`]) run against the shared [`Workspace`]
//!   (parsed ASTs, struct/type tables, call graph) and use the
//!   [`crate::dataflow`] taint driver for value-flow reasoning.
//!
//! The cross-file `trace-coverage` rule additionally runs over the whole
//! workspace (see [`trace_coverage::check_workspace`]).

pub mod accounting;
pub mod epoch_coherence;
pub mod float_eq;
pub mod lock_discipline;
pub mod no_ambient_state;
pub mod no_platform_leak;
pub mod trace_coverage;
pub mod unit_launder;
pub mod units;
pub mod unordered_flow;
pub mod unwrap_lib;
pub mod wall_clock;
pub mod wall_clock_taint;

use crate::resolve::Workspace;
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

/// A workspace-level dataflow rule. Flow rules see the whole parsed
/// workspace at once and typically combine the call graph with a
/// [`crate::dataflow::TaintSpec`].
pub trait FlowRule {
    /// Stable rule name (what `allow(...)` takes).
    fn name(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn describe(&self) -> &'static str;
    /// Appends findings for the whole workspace.
    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>);
}

/// All per-file rules, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(wall_clock::WallClock),
        Box::new(accounting::UncheckedAccounting),
        Box::new(units::TypedUnits),
        Box::new(units::NoRawUnitCast),
        Box::new(float_eq::FloatEq),
        Box::new(unwrap_lib::UnwrapInLib),
        Box::new(no_platform_leak::PlatformLeak),
        Box::new(no_ambient_state::AmbientState),
    ]
}

/// All workspace flow rules, in report order.
pub fn flow_rules() -> Vec<Box<dyn FlowRule>> {
    vec![
        Box::new(epoch_coherence::EpochCoherence),
        Box::new(unit_launder::UnitLaunderFlow),
        Box::new(wall_clock_taint::WallClockTaint),
        Box::new(unordered_flow::UnorderedIterFlow),
        Box::new(lock_discipline::LockDiscipline),
    ]
}

/// Names of every rule (per-file rules, flow rules, `trace-coverage`,
/// and the `allow-syntax` meta rule), for `--rule` validation and docs.
pub fn rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.extend(flow_rules().iter().map(|r| r.name()));
    names.push(trace_coverage::NAME);
    names.push(crate::engine::ALLOW_SYNTAX);
    names
}
