//! `gh-audit` — workspace-native static analysis for the grace-mem
//! simulator.
//!
//! The simulator's scientific claims rest on two properties the compiler
//! cannot check: **bit-exact determinism** across runs (same inputs, same
//! bytes out — `tests/determinism.rs`) and **conservation of accounted
//! bytes/pages** (`tests/memory_invariants.rs`). Both are end-to-end tests
//! that only cover the paths they execute. This crate enforces the
//! *source-level* discipline that makes the properties hold everywhere,
//! for the rules rustc and clippy cannot state:
//!
//! | rule | what it guards |
//! |------|----------------|
//! | `no-unchecked-accounting-arithmetic` | saturating math for byte/page/cost accumulators |
//! | `typed-units` | unit-named raw-`u64` parameters on model-crate APIs |
//! | `unit-launder` | no raw `.get()` value rewrapped by a gh-units constructor |
//! | `no-platform-leak` | experiment layers build machines through `gh_sim::platform` |
//! | `allow-syntax` | suppressions are well-formed and carry a reason |
//!
//! The rest is the compiler's job (`docs/static-analysis.md`, "What
//! rustc proves instead"): the workspace `clippy.toml` bans host clocks,
//! lazy statics, `thread_local!`, env reads and the hash containers
//! outside reasoned `#[expect]`s, and their order-yielding methods
//! everywhere; each library crate root denies clippy's unwrap family,
//! `iter_over_hash_type` and reasonless `#[allow]`/`#[expect]`; every
//! library and binary root denies `float_cmp` outside tests, and the
//! model crates deny `as_conversions`, so their casts go through
//! `gh_units`' helpers and a newtype's `.0` is a privacy error; session
//! handles are `!Send`/`!Sync` (`compile_fail` doctests in `gh-jobs`);
//! the job cache is keyed by the whole `JobSpec` through a derived `Ord`;
//! trace export matches every `Event` variant with no `_` arm. No
//! function holds two lock guards at once, so no lock order can
//! invert, and a same-thread relock deadlocks the first time its path
//! runs, which the deadline test in `tests/sessions.rs` catches.
//!
//! Suppression is per-line and audited itself:
//!
//! ```text
//! // gh-audit: allow(unit-launder) -- a namespace bit, not a unit crossing
//! ```
//!
//! Every rule is a shape check over one file's token stream ([`lexer`],
//! [`source`]); there is no parser and no cross-file analysis (no
//! `syn`/`dylint`: the build environment is offline). The rules are
//! heuristic, so false negatives are possible; false positives get an
//! allow with a reason.
//!
//! Run it: `cargo run -p gh-audit` (report) or `cargo run -p gh-audit --
//! --deny` (CI gate, exits 1 on any finding). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use engine::{audit_workspace, AuditConfig, AuditError};
pub use rules::Finding;
