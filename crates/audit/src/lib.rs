//! `gh-audit` — workspace-native static analysis for the grace-mem
//! simulator.
//!
//! The simulator's scientific claims rest on two properties the compiler
//! cannot check: **bit-exact determinism** across runs (same inputs, same
//! bytes out — `tests/determinism.rs`) and **conservation of accounted
//! bytes/pages** (`tests/memory_invariants.rs`). Both are end-to-end tests
//! that only cover the paths they execute. This crate enforces the
//! *source-level* discipline that makes the properties hold everywhere:
//!
//! Token rules (per-file shape checks):
//!
//! | rule | what it guards |
//! |------|----------------|
//! | `no-wall-clock` | virtual clock only; no `Instant`/`SystemTime` in sim code |
//! | `no-unchecked-accounting-arithmetic` | saturating math for byte/page/cost accumulators |
//! | `no-float-eq` | no exact float compares in cost-model decisions |
//! | `no-unwrap-in-lib` | library code returns typed errors, never aborts |
//! | `trace-coverage` | every emitted event kind is named by an exporter |
//! | `allow-syntax` | suppressions are well-formed and carry a reason |
//!
//! Flow rules (workspace AST + call graph + taint dataflow):
//!
//! | rule | what it guards |
//! |------|----------------|
//! | `epoch-coherence` | placement mutators bump `placement_epoch` (span-cache validity) |
//! | `unit-launder-flow` | `.get()`-escaped raw values stay in their unit domain |
//! | `wall-clock-taint` | host-time values never reach traces/counters/checksums/`RunReport` |
//! | `unordered-iter-flow` | hash iteration order never reaches returns/state/output |
//! | `lock-discipline` | no re-entrant locking, no lock pair taken in both orders |
//!
//! Two invariants need no rule because rustc proves them: session
//! handles are `!Send`/`!Sync`, so they cannot reach a pool task or a
//! `static` (`compile_fail` doctests in `gh-jobs`), and the job cache is
//! keyed by the whole `JobSpec` through a derived `Ord`.
//!
//! Suppression is per-line and audited itself:
//!
//! ```text
//! let ks = m.keys(); // gh-audit: allow(unordered-iter-flow) -- sorted below
//! // gh-audit: allow-file(no-unwrap-in-lib) -- harness binary, aborts are fine
//! ```
//!
//! The engine is from scratch (no `syn`/`dylint`: the build environment
//! is offline), layered as **tokens → AST → dataflow**: a lossless lexer
//! ([`lexer`]), an error-tolerant recursive-descent parser ([`ast`]),
//! shallow name/type resolution ([`resolve`]), a workspace call graph
//! with effect propagation ([`callgraph`]), and an intraprocedural taint
//! driver ([`dataflow`]) the flow rules plug specs into. The lints stay
//! *heuristic* — over-approximate environments, by-name call resolution
//! — so false negatives are possible; false positives get an allow with
//! a reason.
//!
//! Run it: `cargo run -p gh-audit` (report) or `cargo run -p gh-audit --
//! --deny` (CI gate, exits 1 on any finding). See `docs/static-analysis.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod ast;
pub mod callgraph;
pub mod dataflow;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod source;

pub use engine::{audit_workspace, AuditConfig, AuditError};
pub use rules::Finding;
