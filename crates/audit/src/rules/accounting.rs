//! `no-unchecked-accounting-arithmetic`: byte/page/cycle accounting in the
//! model crates must not use raw compound arithmetic.
//!
//! The paper's results *are* these accumulators: fault counts × per-fault
//! cost, migrated bytes ÷ C2C bandwidth, PTE teardown counts. In release
//! builds raw `+=`/`-=`/`*=` wraps silently on overflow/underflow; one
//! wrapped `bytes_migrated` invalidates a whole figure without failing a
//! single test (debug builds would panic, but CI benches and users run
//! `--release`). Accounting sites must use `saturating_add`/`_sub`/`_mul`
//! (or `checked_*` with explicit handling), which keeps totals pinned at
//! the rail instead of wrapping — and makes overflow visible as an
//! impossibly large, *stable* number rather than a random small one.
//!
//! Scope: lib sources of the model crates (`gh-mem`, `gh-os`, `gh-cuda`).
//! A compound assignment is flagged when the assigned place's final field
//! name matches the accounting vocabulary below (bytes, pages, faults,
//! costs, ...); loop indices and scratch variables are not accounting
//! state and stay idiomatic.
//!
//! Exemption: places declared with a `gh-units` newtype (`Bytes`, `Pages`,
//! `Lines`, `SimNs`, `Vpn`). Their `+=`/`-=`/`*` operators are
//! saturating *by construction* (see `crates/units`), so compound
//! assignment on them is exactly the checked arithmetic this rule wants.
//! The file's declarations (`field: Bytes`, `x: [Pages; 2]`,
//! `let mut n = Lines::ZERO`) are scanned to learn which identifiers are
//! unit-typed.

use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// Crates whose lib sources carry accounting state.
pub const ACCOUNTING_CRATES: [&str; 3] = ["gh-mem", "gh-os", "gh-cuda"];

/// Substrings of identifier names that denote accounting state.
const ACCT_SUBSTRINGS: [&str; 24] = [
    "byte", "page", "pte", "fault", "miss", "hit", "cost", "cycl", "notif", "evict", "hbm", "c2c",
    "l1l2", "walk", "total", "freed", "migrated", "used", "serviced", "xfer", "busy", "lines",
    "created", "removed",
];

/// Exact identifier names that denote accounting state (too short or too
/// generic for substring matching).
const ACCT_EXACT: [&str; 5] = ["dt", "tick", "dur", "pages", "bytes"];

/// True when `ident` names accounting state.
pub fn is_accounting_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    ACCT_EXACT.iter().any(|e| *e == lower) || ACCT_SUBSTRINGS.iter().any(|s| lower.contains(s))
}

/// The `gh-units` newtypes whose arithmetic saturates by construction.
pub const UNIT_TYPES: [&str; 5] = ["Bytes", "Pages", "Lines", "SimNs", "Vpn"];

/// Scans a file's declarations for identifiers bound to a `gh-units`
/// newtype: struct fields and parameters (`name: Bytes`, `name: [Pages; 2]`)
/// and let bindings whose initializer calls into a unit type
/// (`let mut freed = Bytes::ZERO`, `let pages = gh_units::Pages::new(1)`).
fn unit_typed_idents(code: &[&crate::lexer::Tok]) -> BTreeSet<String> {
    use crate::lexer::TokKind;
    let mut set = BTreeSet::new();
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident {
            continue;
        }
        // `name: [&] [[]path::]Unit` — fields, params, typed lets.
        if i + 2 < code.len() && code[i + 1].is_punct(":") {
            let mut j = i + 2;
            while j < code.len()
                && (code[j].is_punct("[") || code[j].is_punct("&") || code[j].is_ident("mut"))
            {
                j += 1;
            }
            let mut last = None;
            while j < code.len() && code[j].kind == TokKind::Ident {
                last = Some(code[j].text.as_str());
                if j + 1 < code.len() && code[j + 1].is_punct("::") {
                    j += 2;
                } else {
                    break;
                }
            }
            if last.is_some_and(|t| UNIT_TYPES.contains(&t)) {
                set.insert(code[i].text.clone());
            }
        }
        // `let [mut] name = ... Unit:: ... ;`
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if j < code.len() && code[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < code.len() && code[j].kind == TokKind::Ident && code[j + 1].is_punct("=") {
                let name = code[j].text.as_str();
                let mut k = j + 2;
                while k < code.len() && !code[k].is_punct(";") {
                    if code[k].kind == TokKind::Ident
                        && UNIT_TYPES.contains(&code[k].text.as_str())
                        && k + 1 < code.len()
                        && code[k + 1].is_punct("::")
                    {
                        set.insert(name.to_string());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    set
}

/// See module docs.
#[derive(Debug)]
pub struct UncheckedAccounting;

impl Rule for UncheckedAccounting {
    fn name(&self) -> &'static str {
        "no-unchecked-accounting-arithmetic"
    }

    fn describe(&self) -> &'static str {
        "accounting accumulators in gh-mem/gh-os/gh-cuda must use saturating/checked math"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib || !ACCOUNTING_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        let unit_typed = unit_typed_idents(&code);
        for (i, t) in code.iter().enumerate() {
            let op = match t.text.as_str() {
                "+=" | "-=" | "*=" if t.kind == crate::lexer::TokKind::Punct => &t.text,
                _ => continue,
            };
            if file.in_test_mod(t.line) {
                continue;
            }
            let Some(subject) = assigned_place_ident(&code[..i]) else {
                continue;
            };
            if !is_accounting_ident(subject) {
                continue;
            }
            // Declared as a gh-units newtype: its compound assignment is
            // saturating by construction — exactly what this rule asks for.
            if unit_typed.contains(subject) {
                continue;
            }
            let helper = match op.as_str() {
                "+=" => "saturating_add",
                "-=" => "saturating_sub",
                _ => "saturating_mul",
            };
            out.push(Finding {
                rule: self.name(),
                path: file.rel_path.clone(),
                line: t.line,
                msg: format!(
                    "`{subject} {op} ...` is accounting arithmetic that wraps on overflow in \
                     release builds; write `{subject} = {subject}.{helper}(...)` so totals \
                     saturate instead of corrupting results"
                ),
            });
        }
    }
}

/// Walks backwards over the assigned place (`self.used[node.idx()]`,
/// `row.cpu_faults`, `cost`) and returns its final field/variable name.
fn assigned_place_ident<'a>(before: &[&'a crate::lexer::Tok]) -> Option<&'a str> {
    let mut j = before.len();
    // Skip one trailing index/call group: `[ ... ]` or `( ... )`.
    if j > 0 && (before[j - 1].is_punct("]") || before[j - 1].is_punct(")")) {
        let (close, open) = if before[j - 1].is_punct("]") {
            ("]", "[")
        } else {
            (")", "(")
        };
        let mut depth = 0i32;
        while j > 0 {
            j -= 1;
            if before[j].is_punct(close) {
                depth += 1;
            } else if before[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    while j > 0 {
        let t = before[j - 1];
        if t.kind == crate::lexer::TokKind::Ident {
            return Some(&t.text);
        }
        // `*cost += n` deref or grouping parens: keep walking left.
        if t.is_punct("*") || t.is_punct(")") || t.is_punct("(") {
            j -= 1;
            continue;
        }
        return None;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", crate_name, FileKind::Lib, src);
        let mut out = Vec::new();
        UncheckedAccounting.check_file(&f, &mut out);
        out
    }

    #[test]
    fn byte_accumulator_fires() {
        let out = run("gh-mem", "fn f(s: &mut S, n: u64) { s.bytes_h2d += n; }");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("saturating_add"));
    }

    #[test]
    fn indexed_place_fires() {
        let out = run(
            "gh-mem",
            "fn f(s: &mut S, b: u64) { s.used[node.idx()] -= b; }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("saturating_sub"));
    }

    #[test]
    fn deref_place_fires() {
        assert_eq!(
            run("gh-os", "fn f(cost: &mut u64) { *cost += 1; }").len(),
            1
        );
    }

    #[test]
    fn loop_index_is_fine() {
        assert!(run("gh-cuda", "fn f() { let mut idx = 0; idx += 1; }").is_empty());
    }

    #[test]
    fn saturating_form_is_fine() {
        assert!(run(
            "gh-mem",
            "fn f(s: &mut S, n: u64) { s.bytes = s.bytes.saturating_add(n); }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_field_is_fine() {
        assert!(run(
            "gh-mem",
            "struct S { bytes_h2d: Bytes }\nfn f(s: &mut S, n: Bytes) { s.bytes_h2d += n; }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_array_field_is_fine() {
        assert!(run(
            "gh-mem",
            "struct P { used: [Bytes; 2] }\nfn f(p: &mut P, b: Bytes) { p.used[0] += b; }"
        )
        .is_empty());
    }

    #[test]
    fn unit_typed_let_binding_is_fine() {
        assert!(run(
            "gh-os",
            "fn f() { let mut pages = gh_units::Pages::ZERO; pages += gh_units::Pages::new(1); }"
        )
        .is_empty());
    }

    #[test]
    fn raw_u64_still_fires_next_to_unit_decl() {
        let out = run(
            "gh-cuda",
            "struct S { lines: Lines }\nfn f(s: &mut S, raw_bytes: u64, n: u64) { s.lines += Lines::new(1); let mut bytes = raw_bytes; bytes += n; }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unit_vocabulary_scan() {
        let f = SourceFile::parse(
            "c/src/lib.rs",
            "gh-mem",
            FileKind::Lib,
            "struct S { a: Bytes, b: [Pages; 2], c: u64 }\nfn f(d: gh_units::Lines) { let mut e = SimNs::ZERO; let g = 0u64; }",
        );
        let code: Vec<_> = f.code_tokens().map(|(_, t)| t).collect();
        let set = unit_typed_idents(&code);
        for name in ["a", "b", "d", "e"] {
            assert!(set.contains(name), "{name} should be unit-typed");
        }
        for name in ["c", "g"] {
            assert!(!set.contains(name), "{name} should not be unit-typed");
        }
    }

    #[test]
    fn non_model_crates_are_exempt() {
        assert!(run("gh-apps", "fn f(s: &mut S) { s.bytes += 1; }").is_empty());
    }

    #[test]
    fn acct_vocabulary() {
        assert!(is_accounting_ident("bytes_migrated_in"));
        assert!(is_accounting_ident("cpu_faults"));
        assert!(is_accounting_ident("dt"));
        assert!(is_accounting_ident("total_notifications"));
        assert!(!is_accounting_ident("idx"));
        assert!(!is_accounting_ident("next_buf"));
        assert!(!is_accounting_ident("va_cursor"));
    }
}
