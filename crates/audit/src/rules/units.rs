//! `typed-units` and `unit-launder`: the gh-units newtypes must not
//! cross a model-crate API as raw integers, or be rewrapped from them,
//! without a declared conversion.
//!
//! The `gh-units` crate (`Bytes`, `Pages`, `Lines`, `SimNs`, `Vpn`)
//! exists so that a page count can never be added to a byte count
//! without going through a declared conversion. Two leaks would undo
//! that guarantee:
//!
//! * **`typed-units`** — a public function of a model crate (`gh-mem`,
//!   `gh-os`, `gh-cuda`) taking a raw-`u64` parameter whose *name* says
//!   it is a unit quantity (`*bytes*`, `*pages*`, `*ns*`, `*vpn*`,
//!   `*lines*`). Every such parameter is an API boundary where a caller
//!   can silently pass pages where bytes are expected. Type the
//!   parameter with the matching newtype instead. Virtual-address
//!   offsets and lengths (`addr`, `off`, `len`, pitches, strides) are
//!   the *address* domain and intentionally stay raw — the rule only
//!   matches unit vocabulary.
//! * **`unit-launder`** — a no-argument `.get()` inside the argument list
//!   of a gh-units constructor (`Pages::new(bytes.get())`). The raw value
//!   is relabelled with no conversion: a byte count read back as a page
//!   count is off by exactly the page size, and deterministically so, so
//!   no determinism test notices. Step within a unit (`Vpn::offset`,
//!   `Vpn::back`) or cross through a declared conversion (`Bytes /
//!   PageSize`, `PageSize::vpn`) instead. The rule reads tokens only: a
//!   raw value bound by `let`, or returned from a function, before it
//!   reaches the constructor is not followed.
//!
//! Scope: `typed-units` audits lib sources of the model crates;
//! `unit-launder` audits lib and bin code of every crate. Test modules
//! are exempt (tests may build raw fixtures). The casts and `.0` reads
//! that would launder a unit are compiler errors instead: the model
//! crates deny `clippy::as_conversions`, and the newtypes' payloads are
//! private.

use crate::lexer::{Tok, TokKind};
use crate::rules::accounting::UNIT_TYPES;
use crate::rules::{Finding, Rule};
use crate::source::{FileKind, SourceFile};

/// Crates whose public APIs must speak typed units.
pub const UNIT_CRATES: [&str; 3] = ["gh-mem", "gh-os", "gh-cuda"];

/// `_`-separated name segments that mark a parameter as a unit quantity,
/// with the newtype it should carry.
const UNIT_SEGMENTS: [(&str, &str); 6] = [
    ("bytes", "gh_units::Bytes"),
    ("pages", "gh_units::Pages"),
    ("ns", "gh_units::SimNs"),
    ("vpn", "gh_units::Vpn"),
    ("vpns", "gh_units::VpnRange"),
    ("lines", "gh_units::Lines"),
];

/// The newtype suggested for a parameter name, if any segment matches.
fn suggested_unit(name: &str) -> Option<&'static str> {
    name.split('_').find_map(|seg| {
        UNIT_SEGMENTS
            .iter()
            .find(|(s, _)| *s == seg)
            .map(|(_, u)| *u)
    })
}

fn in_scope(file: &SourceFile) -> bool {
    file.kind == FileKind::Lib && UNIT_CRATES.contains(&file.crate_name.as_str())
}

/// See module docs.
#[derive(Debug)]
pub struct TypedUnits;

impl Rule for TypedUnits {
    fn name(&self) -> &'static str {
        "typed-units"
    }

    fn describe(&self) -> &'static str {
        "public model-crate APIs must type unit-named parameters with gh-units newtypes"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !in_scope(file) {
            return;
        }
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        let mut i = 0;
        while i < code.len() {
            let is_pub_fn = code[i].is_ident("fn") && i > 0 && code[i - 1].is_ident("pub");
            if !is_pub_fn || file.in_test_mod(code[i].line) {
                i += 1;
                continue;
            }
            let Some(open) = param_list_open(&code, i + 1) else {
                i += 1;
                continue;
            };
            let (params, close) = split_params(&code, open);
            for p in params {
                check_param(self.name(), file, p, out);
            }
            i = close;
        }
    }
}

/// Index of the parameter list's `(`, skipping the fn name and any
/// generic parameter list (where `<`/`>` nest and `<<`/`>>` count
/// double). `None` when the declaration has no parens before its body.
fn param_list_open(code: &[&Tok], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    for (j, t) in code.iter().enumerate().skip(from) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                "(" if angle == 0 => return Some(j),
                "{" | ";" if angle == 0 => return None,
                _ => {}
            }
        }
    }
    None
}

/// Splits the parameter list starting at `open` (`(`) into per-parameter
/// token slices (split on `,` at depth 1) and returns them with the
/// index just past the closing `)`.
fn split_params<'a>(code: &[&'a Tok], open: usize) -> (Vec<Vec<&'a Tok>>, usize) {
    let mut depth = 0i32;
    let mut params = Vec::new();
    let mut cur: Vec<&Tok> = Vec::new();
    let mut j = open;
    while j < code.len() {
        let t = code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        if !cur.is_empty() {
                            params.push(std::mem::take(&mut cur));
                        }
                        return (params, j + 1);
                    }
                }
                "," if depth == 1 => {
                    if !cur.is_empty() {
                        params.push(std::mem::take(&mut cur));
                    }
                    j += 1;
                    continue;
                }
                _ => {}
            }
        }
        if depth >= 1 && !(depth == 1 && t.is_punct("(")) {
            cur.push(t);
        }
        j += 1;
    }
    (params, j)
}

/// Flags `name: <type containing u64>` when the name is unit vocabulary.
fn check_param(rule: &'static str, file: &SourceFile, p: Vec<&Tok>, out: &mut Vec<Finding>) {
    if p.iter().any(|t| t.is_ident("self")) {
        return;
    }
    let Some(k) = (0..p.len().saturating_sub(1))
        .find(|&k| p[k].kind == TokKind::Ident && p[k + 1].is_punct(":"))
    else {
        return;
    };
    let name = &p[k].text;
    let Some(unit) = suggested_unit(name) else {
        return;
    };
    if p[k + 2..].iter().any(|t| t.is_ident("u64")) {
        out.push(Finding {
            rule,
            path: file.rel_path.clone(),
            line: p[k].line,
            msg: format!(
                "`{name}: u64` crosses a public model-crate API as a raw integer; \
                 type it `{unit}` so unit mixups fail to compile"
            ),
        });
    }
}

/// The gh-units types whose `new`/`from_raw` constructors
/// `unit-launder` watches: the saturating newtypes of [`UNIT_TYPES`] plus
/// `VpnRange` and `PageSize`.
fn is_unit_ctor_type(name: &str) -> bool {
    UNIT_TYPES.contains(&name) || matches!(name, "VpnRange" | "PageSize")
}

/// See module docs.
#[derive(Debug)]
pub struct UnitLaunder;

impl Rule for UnitLaunder {
    fn name(&self) -> &'static str {
        "unit-launder"
    }

    fn describe(&self) -> &'static str {
        "a raw `.get()` value must not be rewrapped by a gh-units constructor"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            return;
        }
        let code: Vec<_> = file.code_tokens().map(|(_, t)| t).collect();
        // Open constructor calls, innermost last: the index of the unit's
        // name, the paren depth inside the argument list, and whether the
        // call has been reported (one finding per call).
        let mut open: Vec<(usize, i32, bool)> = Vec::new();
        let mut depth = 0i32;
        for i in 0..code.len() {
            let t = code[i];
            if t.is_punct("(") {
                depth += 1;
                continue;
            }
            if t.is_punct(")") {
                depth -= 1;
                while open.last().is_some_and(|c| c.1 > depth) {
                    open.pop();
                }
                continue;
            }
            let at = |k: usize| code.get(i + k).copied();
            let is_ctor = t.kind == TokKind::Ident
                && is_unit_ctor_type(&t.text)
                && at(1).is_some_and(|n| n.is_punct("::"))
                && at(2).is_some_and(|n| n.is_ident("new") || n.is_ident("from_raw"))
                && at(3).is_some_and(|n| n.is_punct("("));
            if is_ctor {
                open.push((i, depth + 1, false));
                continue;
            }
            let is_raw_get = t.is_punct(".")
                && at(1).is_some_and(|n| n.is_ident("get"))
                && at(2).is_some_and(|n| n.is_punct("("))
                && at(3).is_some_and(|n| n.is_punct(")"));
            let Some((unit, _, reported)) = open.last_mut() else {
                continue;
            };
            if is_raw_get && !*reported && !file.in_test_mod(t.line) {
                *reported = true;
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line: t.line,
                    msg: format!(
                        "`.get()` hands a raw value to `{}::{}`, which relabels it with no \
                         conversion; step within the unit (`Vpn::offset`) or convert through \
                         gh_units (`Bytes / PageSize`, `PageSize::vpn`)",
                        code[*unit].text,
                        code[*unit + 2].text
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_typed(crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", crate_name, FileKind::Lib, src);
        let mut out = Vec::new();
        TypedUnits.check_file(&f, &mut out);
        out
    }

    #[test]
    fn raw_bytes_param_fires() {
        let out = run_typed(
            "gh-mem",
            "pub fn alloc(&mut self, n_bytes: u64) -> u64 { n_bytes }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("gh_units::Bytes"), "{}", out[0].msg);
    }

    #[test]
    fn every_unit_segment_is_known() {
        for (name, unit) in [
            ("bytes", "Bytes"),
            ("free_pages", "Pages"),
            ("dur_ns", "SimNs"),
            ("vpn", "Vpn"),
            ("hot_vpns", "VpnRange"),
            ("missed_lines", "Lines"),
        ] {
            let src = format!("pub fn f({name}: u64) {{}}");
            let out = run_typed("gh-os", &src);
            assert_eq!(out.len(), 1, "{name}");
            assert!(out[0].msg.contains(unit), "{name}: {}", out[0].msg);
        }
    }

    #[test]
    fn typed_param_is_fine() {
        assert!(run_typed("gh-mem", "pub fn alloc(&mut self, bytes: Bytes) {}").is_empty());
    }

    #[test]
    fn address_domain_names_are_fine() {
        assert!(run_typed(
            "gh-cuda",
            "pub fn slice(&self, addr: u64, off: u64, len: u64, pitch: u64) {}"
        )
        .is_empty());
    }

    #[test]
    fn private_and_crate_fns_are_fine() {
        assert!(run_typed("gh-mem", "fn alloc(bytes: u64) {}").is_empty());
        assert!(run_typed("gh-mem", "pub(crate) fn alloc(bytes: u64) {}").is_empty());
    }

    #[test]
    fn generic_fn_params_are_scanned_past_the_generics() {
        let out = run_typed(
            "gh-mem",
            "pub fn fold<F: Fn(u64) -> u64>(&self, f: F, total_bytes: u64) {}",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn non_model_crates_are_out_of_scope() {
        assert!(run_typed("gh-bench", "pub fn run(bytes: u64) {}").is_empty());
    }

    #[test]
    fn test_mods_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn helper(bytes: u64) {}\n}";
        assert!(run_typed("gh-mem", src).is_empty());
    }

    fn run_launder(kind: FileKind, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("c/src/lib.rs", "gh-bench", kind, src);
        let mut out = Vec::new();
        UnitLaunder.check_file(&f, &mut out);
        out
    }

    #[test]
    fn raw_get_into_a_unit_constructor_fires() {
        for src in [
            "fn f(b: Bytes) -> Pages { Pages::new(b.get()) }",
            "fn f(b: Bytes, p: PageSize) -> Pages { Pages::new(b.get() / p.get()) }",
            "fn f(v: Vpn) -> Vpn { gh_units::Vpn::from_raw(v.get() + 1) }",
        ] {
            let out = run_launder(FileKind::Lib, src);
            assert_eq!(out.len(), 1, "{src}: {out:?}");
        }
        let out = run_launder(
            FileKind::Bin,
            "fn f(b: Bytes) -> Pages { Pages::new(b.get()) }",
        );
        assert!(out[0].msg.contains("`Pages::new`"), "{out:?}");
    }

    #[test]
    fn one_finding_per_call_on_its_innermost_constructor() {
        let src = "fn f(a: Vpn, b: Vpn) -> VpnRange {\n\
                   VpnRange::new(a, Vpn::new(b.get()\n + a.get()))\n}";
        let out = run_launder(FileKind::Lib, src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
        assert!(out[0].msg.contains("`Vpn::new`"), "{out:?}");
    }

    #[test]
    fn keyed_gets_typed_steps_and_outside_gets_are_fine() {
        for src in [
            "fn f(m: &Map, k: u64) -> Pages { Pages::new(m.get(&k).copied().unwrap_or(0)) }",
            "fn f(n: u64, p: PageSize) -> u64 { (Pages::new(n) * p).get() }",
            "fn f(v: Vpn) -> VpnRange { VpnRange::new(v, v.offset(1)) }",
            "fn f(b: Bytes, p: PageSize) -> Pages { b / p }",
            "fn f(c: Cell) -> Thing { Thing::new(c.get()) }",
        ] {
            assert!(run_launder(FileKind::Lib, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn launder_rule_skips_tests() {
        let src = "fn f(b: Bytes) -> Pages { Pages::new(b.get()) }";
        assert!(run_launder(FileKind::Test, src).is_empty());
        let in_mod = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}");
        assert!(run_launder(FileKind::Lib, &in_mod).is_empty());
    }
}
