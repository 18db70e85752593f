//! `unit-launder-flow`: a raw value escaped from one unit domain must not
//! be rewrapped in a *different* domain's constructor.
//!
//! The token-level `typed-units` rules catch raw arithmetic and `as`
//! casts, but nothing stops `Pages::new(bytes.get())` — a byte count
//! laundered through `.get()` into a page quantity with no conversion.
//! The classic instance in this codebase's domain is a 4 KiB/64 KiB page
//! confusion: a byte count reinterpreted as a page count is off by the
//! page size, and the resulting placement/accounting drift survives every
//! determinism test because it is *deterministically* wrong.
//!
//! The rule taints the result of `.get()` with the unit type of its
//! receiver (resolved via [`crate::resolve::expr_type`] — parameter and
//! `let` annotations, constructor shapes, `self` fields, known fn
//! returns) and flags `U::new(arg)` / `U::from_raw(arg)` when `arg`
//! carries a different unit's label. Arithmetic that plausibly performs a
//! conversion (`*`, `/`, `%`, shifts, or mul/div-named methods) kills the
//! label: scaling is exactly how legitimate domain crossings look.
//! Same-unit round-trips (`Bytes::new(b.get() + 1)`) stay silent.

use crate::ast::Expr;
use crate::dataflow::{self, Labels, TaintEnv, TaintSpec};
use crate::resolve::{expr_type, first_unit, fn_type_env, Workspace, UNIT_TYPES};
use crate::rules::{Finding, FlowRule};

/// Constructor names that (re)wrap a raw value into a unit domain.
const UNIT_CTORS: [&str; 2] = ["new", "from_raw"];

/// See module docs.
#[derive(Debug)]
pub struct UnitLaunderFlow;

impl FlowRule for UnitLaunderFlow {
    fn name(&self) -> &'static str {
        "unit-launder-flow"
    }

    fn describe(&self) -> &'static str {
        "a .get()-escaped raw value must not flow into a different unit's constructor"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        ws.for_each_code_fn(&mut |fidx, impl_ty, fd| {
            let file = &ws.files[fidx];
            let mut spec = Spec {
                ws,
                fidx,
                impl_ty,
                tenv: fn_type_env(fd, &ws.fn_returns),
                findings: Vec::new(),
            };
            dataflow::run_fn(&mut spec, fd, TaintEnv::default());
            // Loop bodies run twice in the dataflow driver; drop the
            // duplicate sink hits.
            spec.findings.sort_unstable();
            spec.findings.dedup();
            for (line, from, to) in spec.findings {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line,
                    msg: format!(
                        "raw value escaped from `{from}` via .get() flows into \
                         `{to}::new` — convert explicitly (the quantities differ \
                         by a unit factor) or construct from a `{to}`-domain value"
                    ),
                });
            }
        });
    }
}

struct Spec<'w, 'a> {
    ws: &'w Workspace<'a>,
    fidx: usize,
    impl_ty: Option<&'w str>,
    tenv: crate::resolve::TypeEnv,
    /// (line, source unit, destination unit)
    findings: Vec<(u32, &'static str, &'static str)>,
}

impl Spec<'_, '_> {
    fn self_fields(&self) -> Option<&std::collections::BTreeMap<String, Vec<String>>> {
        self.impl_ty
            .and_then(|ty| self.ws.tables[self.fidx].get(ty))
    }

    fn unit_of(&self, e: &Expr) -> Option<&'static str> {
        let idents = expr_type(e, &self.tenv, self.self_fields(), &self.ws.fn_returns);
        first_unit(&idents)
    }
}

/// True when `name` suggests a scaling/conversion operation.
fn is_scaling_method(name: &str) -> bool {
    name.contains("mul") || name.contains("div") || name.contains("rem") || name.contains("pow")
}

impl TaintSpec for Spec<'_, '_> {
    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Method {
            recv: recv_e,
            name,
            args: arg_es,
            ..
        } = e
        else {
            return dataflow::union(
                recv,
                args.iter().cloned().fold(Labels::new(), dataflow::union),
            );
        };
        // `.get()` with no args is the gh-units raw escape; HashMap::get(&k)
        // takes an argument and never matches.
        if name == "get" && arg_es.is_empty() {
            if let Some(unit) = self.unit_of(recv_e) {
                return Labels::from([unit]);
            }
            return recv;
        }
        if is_scaling_method(name) {
            return Labels::new();
        }
        args.iter()
            .fold(recv, |acc, a| dataflow::union(acc, a.clone()))
    }

    fn binary(&mut self, op: &str, l: Labels, r: Labels, _line: u32) -> Labels {
        // Scaling (`*`, `/`, `%`, shifts) is how a legitimate conversion
        // looks; additive ops keep the operands' domain.
        match op {
            "+" | "-" => dataflow::union(l, r),
            _ => Labels::new(),
        }
    }

    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        if let Expr::Call { callee, line, .. } = e {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.len() >= 2 && UNIT_CTORS.contains(&segs[segs.len() - 1].as_str()) {
                    let ty = &segs[segs.len() - 2];
                    if let Some(dest) = UNIT_TYPES.iter().find(|u| *u == ty) {
                        for &from in args.iter().flatten() {
                            if from != *dest {
                                self.findings.push((*line, from, dest));
                            }
                        }
                        return Labels::new();
                    }
                }
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-mem/src/lib.rs",
            "gh-mem",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        UnitLaunderFlow.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn cross_unit_rewrap_fires() {
        let out = check("fn f(b: Bytes) -> Pages { let raw = b.get(); Pages::new(raw) }");
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("`Bytes`"));
        assert!(out[0].msg.contains("`Pages`"));
    }

    #[test]
    fn direct_cross_unit_rewrap_fires() {
        assert_eq!(
            check("fn f(b: Bytes) -> Pages { Pages::new(b.get()) }").len(),
            1
        );
    }

    #[test]
    fn same_unit_roundtrip_is_clean() {
        assert!(check("fn f(b: Bytes) -> Bytes { Bytes::new(b.get() + 1) }").is_empty());
    }

    #[test]
    fn scaled_conversion_is_clean() {
        assert!(
            check("fn f(b: Bytes) -> Pages { Pages::new(b.get() / 4096) }").is_empty(),
            "division is how legitimate conversions look"
        );
    }

    #[test]
    fn self_field_units_resolve() {
        let src = "struct S { len: Bytes }\n\
                   impl S { fn f(&self) -> Pages { Pages::new(self.len.get()) } }";
        assert_eq!(check(src).len(), 1);
    }

    #[test]
    fn hashmap_get_does_not_match() {
        let src =
            "fn f(m: HashMap<u64, u64>, k: u64) -> Pages { Pages::new(m.get(&k).copied().unwrap_or(0)) }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn branch_tainted_value_fires() {
        let src = "fn f(c: bool, b: Bytes, p: Pages) -> Vpn { let raw = if c { b.get() } else { p.get() }; Vpn::new(raw) }";
        assert_eq!(check(src).len(), 2, "both branch domains differ from Vpn");
    }

    #[test]
    fn known_fn_return_resolves() {
        let src = "pub fn span_len() -> Bytes { Bytes::new(4096) }\n\
                   pub fn f() -> Pages { let l = span_len(); Pages::new(l.get()) }";
        assert_eq!(check(src).len(), 1);
    }
}
