//! `unordered-iter-flow`: hash-map/set iteration order may only influence
//! outputs through order-insensitive operations.
//!
//! The retired `no-unordered-iteration` token rule flagged every
//! `HashMap`/`HashSet` iteration, which forced `BTreeMap` (or an `allow`)
//! even where the iteration folded into a sum — order-insensitive and
//! perfectly deterministic. This flow rule keeps the invariant the
//! determinism tests actually need: values produced *in hash order* must
//! not reach returns, stored state, trace/output sinks, or formatted
//! text. It taints the result of iterating a hash-typed expression
//! (receiver types resolved via [`crate::resolve::expr_type`]) and kills
//! the taint at order-insensitive boundaries:
//!
//! * commutative folds — any binary arithmetic (`acc += v`, `a + b`),
//! * reducers (`sum`, `count`, `min`, `max`, `any`, `all`, `fold`, ...),
//! * explicit re-ordering (`sort*` methods, `collect` into an ordered
//!   container).
//!
//! What remains tainted and reaches a sink is genuine nondeterminism:
//! element-wise pushes into an accumulator that escapes, direct emission,
//! `format!`/`writeln!` of hash-ordered values, returns.

use crate::ast::Expr;
use crate::callgraph::for_each_graph_fn;
use crate::dataflow::{self, Labels, TaintEnv, TaintSpec};
use crate::resolve::{expr_type, fn_type_env, mentions_hash, Workspace};
use crate::rules::{Finding, FlowRule};

/// The taint label for hash-ordered values.
const HASH: &str = "hash";

/// Methods that yield elements in the container's iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Order-insensitive iterator reducers.
const REDUCERS: [&str; 9] = [
    "sum", "product", "count", "len", "min", "max", "any", "all", "fold",
];

/// Commutative accumulation methods — `acc.saturating_add(v)` in a hash
/// loop is order-insensitive exactly like `acc += v` (which the binary
/// hook already kills).
const ARITH_FOLDS: [&str; 6] = [
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "wrapping_add",
    "wrapping_sub",
];

/// Ordered containers a `collect` turbofish can name to sanitize.
const ORDERED_COLLECT: [&str; 3] = ["BTreeMap", "BTreeSet", "BinaryHeap"];

/// Element-wise accumulation methods (order of calls = order of output).
const ACCUMULATORS: [&str; 5] = ["push", "extend", "append", "insert", "push_str"];

/// Output/trace sink method or call names.
const SINKS: [&str; 4] = ["emit", "observe", "gauge", "record"];

/// Formatting macros whose output ordering is user-visible.
const FORMAT_MACROS: [&str; 7] = [
    "write", "writeln", "print", "println", "eprint", "eprintln", "format",
];

/// See module docs.
#[derive(Debug)]
pub struct UnorderedIterFlow;

impl FlowRule for UnorderedIterFlow {
    fn name(&self) -> &'static str {
        "unordered-iter-flow"
    }

    fn describe(&self) -> &'static str {
        "hash-ordered values must not reach returns, stored state, or output sinks"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
            let file = &ws.files[fidx];
            let mut spec = Spec {
                ws,
                fidx,
                impl_ty,
                tenv: fn_type_env(fd, &ws.fn_returns),
                findings: Vec::new(),
            };
            dataflow::run_fn(&mut spec, fd, TaintEnv::default());
            spec.findings.sort_unstable();
            spec.findings.dedup();
            for (line, what) in spec.findings {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line,
                    msg: format!(
                        "hash-ordered value {what}; iteration order of HashMap/HashSet \
                         is nondeterministic — sort first, collect into a BTree \
                         container, or reduce order-insensitively"
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
    /// (line, what happened)
    findings: Vec<(u32, &'static str)>,
}

impl Spec<'_, '_> {
    fn is_hash_typed(&self, e: &Expr) -> bool {
        let fields = self
            .impl_ty
            .and_then(|ty| self.ws.tables[self.fidx].get(ty));
        mentions_hash(&expr_type(e, &self.tenv, fields, &self.ws.fn_returns))
    }
}

/// Strips `&`/`&mut`/parens-equivalents the parser models as `Unary`.
fn unwrap_refs(e: &Expr) -> &Expr {
    match e {
        Expr::Unary { expr, .. } => unwrap_refs(expr),
        _ => e,
    }
}

impl TaintSpec for Spec<'_, '_> {
    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], env: &mut TaintEnv) -> Labels {
        let Expr::Method {
            recv: recv_e,
            name,
            turbofish,
            line,
            ..
        } = e
        else {
            return dataflow::union(
                recv,
                args.iter().cloned().fold(Labels::new(), dataflow::union),
            );
        };
        if ITER_METHODS.contains(&name.as_str()) && self.is_hash_typed(unwrap_refs(recv_e)) {
            return dataflow::union(recv, Labels::from([HASH]));
        }
        if name.contains("sort") {
            // Sorting re-establishes a deterministic order for the
            // receiver itself.
            if let Some(v) = unwrap_refs(recv_e).as_var() {
                env.clear(v);
            }
            return Labels::new();
        }
        if name == "collect"
            && turbofish
                .iter()
                .any(|t| ORDERED_COLLECT.contains(&t.as_str()))
        {
            return Labels::new();
        }
        if REDUCERS.contains(&name.as_str()) || ARITH_FOLDS.contains(&name.as_str()) {
            return Labels::new();
        }
        if ACCUMULATORS.contains(&name.as_str()) {
            if args.iter().any(|a| a.contains(HASH)) {
                match unwrap_refs(recv_e).as_var() {
                    // The accumulator variable is now hash-ordered; it is
                    // flagged only if it escapes unsorted.
                    Some(v) => env.add(v, &Labels::from([HASH])),
                    // Accumulating into a field/temporary escapes the
                    // function's tracking — flag at the accumulation site.
                    None => self
                        .findings
                        .push((*line, "accumulated into escaping state")),
                }
            }
            return Labels::new();
        }
        if SINKS.contains(&name.as_str()) && args.iter().any(|a| a.contains(HASH)) {
            self.findings.push((*line, "reaches an output sink"));
            return Labels::new();
        }
        args.iter()
            .fold(recv, |acc, a| dataflow::union(acc, a.clone()))
    }

    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        if let Expr::Call { callee, line, .. } = e {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if segs.last().is_some_and(|s| SINKS.contains(&s.as_str()))
                    && args.iter().any(|a| a.contains(HASH))
                {
                    self.findings.push((*line, "reaches an output sink"));
                    return Labels::new();
                }
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }

    fn binary(&mut self, _op: &str, _l: Labels, _r: Labels, _line: u32) -> Labels {
        // Arithmetic over hash-ordered values is a commutative fold
        // (`acc += v` routes here too) — order-insensitive, kills taint.
        Labels::new()
    }

    fn for_bindings(&mut self, iter: &Expr, labels: &Labels, _env: &TaintEnv) -> Labels {
        let inner = unwrap_refs(iter);
        if self.is_hash_typed(inner) {
            return dataflow::union(labels.clone(), Labels::from([HASH]));
        }
        labels.clone()
    }

    fn macro_call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        if let Expr::Macro { name, line, .. } = e {
            if FORMAT_MACROS.contains(&name.as_str()) && args.iter().any(|a| a.contains(HASH)) {
                self.findings.push((*line, "reaches formatted output"));
                return Labels::new();
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }

    fn on_return(&mut self, e: &Expr, labels: &Labels) {
        if labels.contains(HASH) {
            self.findings.push((e.line(), "is returned"));
        }
    }

    fn on_store(&mut self, lhs: &Expr, _rhs: &Expr, labels: &Labels, _env: &mut TaintEnv) {
        if labels.contains(HASH) {
            self.findings.push((lhs.line(), "is stored into a field"));
        }
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
        UnorderedIterFlow.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn iteration_into_returned_vec_fires() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> Vec<u64> { let mut v = Vec::new(); for k in m.keys() { v.push(k); } v }";
        let out = check(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("returned"));
    }

    #[test]
    fn sum_over_values_is_clean() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> u64 { m.values().sum() }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn commutative_fold_loop_is_clean() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> u64 { let mut acc = 0; for v in m.values() { acc += v; } acc }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn saturating_fold_loop_is_clean() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> u64 { let mut acc = 0u64; for v in m.values() { acc = acc.saturating_add(*v); } acc }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn sorted_accumulator_is_clean() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> Vec<u64> { let mut v = Vec::new(); for k in m.keys() { v.push(k); } v.sort_unstable(); v }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn collect_into_btreemap_is_clean() {
        let src = "pub fn f(m: HashMap<u64, u64>) -> BTreeMap<u64, u64> { m.into_iter().collect::<BTreeMap<u64, u64>>() }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn btreemap_iteration_is_clean() {
        let src = "pub fn f(m: BTreeMap<u64, u64>) -> Vec<u64> { let mut v = Vec::new(); for k in m.keys() { v.push(k); } v }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn point_lookups_are_clean() {
        let src =
            "pub fn f(m: HashMap<u64, u64>, k: u64) -> u64 { m.get(&k).copied().unwrap_or(0) }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn formatted_output_fires() {
        // Explicit format args carry taint; inline `"{k}"` captures lex as
        // string literals and are a known blind spot.
        let src = "pub fn f(m: HashMap<u64, u64>) -> String { let mut s = String::new(); for k in m.keys() { s = format!(\"{}{}\", s, k); } s }";
        let out = check(src);
        assert!(!out.is_empty());
        assert!(out[0].msg.contains("formatted output"));
    }

    #[test]
    fn self_field_map_iteration_fires_on_return() {
        let src = "struct S { m: HashMap<u64, u64> }\n\
                   impl S { pub fn dump(&self) -> Vec<u64> { let mut v = Vec::new(); for k in self.m.keys() { v.push(k); } v } }";
        assert_eq!(check(src).len(), 1);
    }

    #[test]
    fn drain_into_sink_fires() {
        let src = "pub fn f(mut m: HashMap<u64, u64>, t: &Trace) { for (k, _v) in m.drain() { t.emit(k); } }";
        assert_eq!(check(src).len(), 1);
    }

    #[test]
    fn store_into_field_fires() {
        let src = "struct S { order: Vec<u64> }\n\
                   impl S { pub fn f(&mut self, m: HashMap<u64, u64>) { let mut v = Vec::new(); for k in m.keys() { v.push(k); } self.order = v; } }";
        assert_eq!(check(src).len(), 1);
    }

    #[test]
    fn vec_iteration_is_clean() {
        let src = "pub fn f(v: Vec<u64>) -> Vec<u64> { let mut o = Vec::new(); for x in v.iter() { o.push(x); } o }";
        assert!(check(src).is_empty());
    }
}
