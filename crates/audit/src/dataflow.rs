//! Intraprocedural taint dataflow over the [`crate::ast`] tree.
//!
//! The driver owns control flow — statement sequencing, branch
//! environment cloning and union-merging, a two-pass loop approximation
//! for loop-carried taint, closure-parameter seeding from the method
//! receiver — and delegates *value* semantics to a [`TaintSpec`]: what
//! introduces a label, what propagates it, what kills it, and which
//! expressions are sinks. Each taint rule (`unit-launder-flow`,
//! `unordered-iter-flow`) is a `TaintSpec` implementation of ~100
//! lines; the fixpoint plumbing lives here once.
//!
//! A [`Label`] is a word from the rule's fixed vocabulary (unit names,
//! `"hash"`). Environments map variable names to label sets
//! and merge by pointwise union, so the analysis over-approximates: a
//! variable tainted on *any* path stays tainted. Loop bodies run twice
//! so taint flowing through a loop-carried variable (accumulate in
//! iteration N, sink in N+1) is seen; rules must tolerate the duplicate
//! sink callbacks this produces (the engine dedups exact duplicate
//! findings).

use crate::ast::{Block, Expr, FnDef, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// One taint label: a word of the rule's vocabulary (`"hash"`, unit
/// type names).
pub type Label = &'static str;

/// A set of taint labels.
pub type Labels = BTreeSet<Label>;

/// Union of two label sets.
pub fn union(mut a: Labels, b: Labels) -> Labels {
    a.extend(b);
    a
}

/// Variable -> labels environment. Missing variables are untainted.
#[derive(Debug, Clone, Default)]
pub struct TaintEnv {
    vars: BTreeMap<String, Labels>,
}

impl TaintEnv {
    /// Labels of `var` (empty when unbound).
    pub fn get(&self, var: &str) -> Labels {
        self.vars.get(var).cloned().unwrap_or_default()
    }

    /// Strong update: rebinds `var` to exactly `labels`.
    pub fn bind(&mut self, var: &str, labels: Labels) {
        if labels.is_empty() {
            self.vars.remove(var);
        } else {
            self.vars.insert(var.to_string(), labels);
        }
    }

    /// Weak update: unions `labels` into `var`'s set.
    pub fn add(&mut self, var: &str, labels: &Labels) {
        if !labels.is_empty() {
            self.vars
                .entry(var.to_string())
                .or_default()
                .extend(labels.iter().cloned());
        }
    }

    /// Removes all labels from `var` (sanitizer).
    pub fn clear(&mut self, var: &str) {
        self.vars.remove(var);
    }

    /// Pointwise union with `other` (branch join).
    pub fn merge(&mut self, other: &TaintEnv) {
        for (k, v) in &other.vars {
            self.vars
                .entry(k.clone())
                .or_default()
                .extend(v.iter().cloned());
        }
    }
}

/// Rule-specific taint semantics. Every hook has a conservative default
/// (propagate by union, no sources, no sinks); rules override what they
/// care about. Hooks receive `&mut TaintEnv` where side effects are
/// meaningful (e.g. `out.push(tainted)` tainting `out`).
pub trait TaintSpec {
    /// Labels of `l op r`. Default: union.
    fn binary(&mut self, _op: &str, l: Labels, r: Labels, _line: u32) -> Labels {
        union(l, r)
    }

    /// Labels of `recv.name(args)`; `e` is the full `Expr::Method` node.
    /// Default: receiver ∪ arguments.
    fn method(&mut self, _e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        args.iter().fold(recv, |acc, a| union(acc, a.clone()))
    }

    /// Labels of `callee(args)`; `e` is the full `Expr::Call` node.
    /// Default: union of arguments.
    fn call(&mut self, _e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        args.iter().cloned().fold(Labels::new(), union)
    }

    /// Labels of `name!(args)`. Default: union of arguments.
    fn macro_call(&mut self, _e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        args.iter().cloned().fold(Labels::new(), union)
    }

    /// Labels bound to a `for` pattern given the iterated expression and
    /// its labels. Default: the iterated expression's labels.
    fn for_bindings(&mut self, _iter: &Expr, labels: &Labels, _env: &TaintEnv) -> Labels {
        labels.clone()
    }

    /// A value leaving the function (`return e` or the body tail).
    fn on_return(&mut self, _e: &Expr, _labels: &Labels) {}

    /// `lhs = rhs` where `lhs` is not a plain variable (field/index
    /// store). `labels` are the stored value's labels.
    fn on_store(&mut self, _lhs: &Expr, _rhs: &Expr, _labels: &Labels, _env: &mut TaintEnv) {}
}

/// Runs `spec` over one function body with `env` as the initial
/// environment. [`TaintSpec::on_return`] fires for `return` expressions
/// and, when the function declares a return type, for the body tail.
pub fn run_fn(spec: &mut dyn TaintSpec, fd: &FnDef, mut env: TaintEnv) {
    let Some(body) = &fd.body else { return };
    let labels = exec_block(spec, body, &mut env);
    if let Some(tail) = body.tail.as_deref() {
        if !fd.ret.is_empty() {
            spec.on_return(tail, &labels);
        }
    }
}

/// Executes a block's statements against `env`, returning the tail
/// expression's labels (empty when there is no tail).
pub fn exec_block(spec: &mut dyn TaintSpec, b: &Block, env: &mut TaintEnv) -> Labels {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { pats, init, .. } => {
                let labels = init
                    .as_ref()
                    .map(|e| eval_expr(spec, e, env))
                    .unwrap_or_default();
                for p in pats {
                    env.bind(p, labels.clone());
                }
            }
            Stmt::Expr(e) => {
                eval_expr(spec, e, env);
            }
            Stmt::Item(_) => {} // nested fns are analyzed as their own fns
        }
    }
    b.tail
        .as_deref()
        .map(|e| eval_expr(spec, e, env))
        .unwrap_or_default()
}

/// Evaluates one expression to its labels, applying side effects
/// (assignments, loops, sink callbacks) along the way.
pub fn eval_expr(spec: &mut dyn TaintSpec, e: &Expr, env: &mut TaintEnv) -> Labels {
    match e {
        Expr::Lit { .. } | Expr::Opaque { .. } => Labels::new(),
        Expr::Path { .. } => e.as_var().map(|v| env.get(v)).unwrap_or_default(),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => eval_expr(spec, expr, env),
        Expr::Binary { op, lhs, rhs, line } => {
            let l = eval_expr(spec, lhs, env);
            let r = eval_expr(spec, rhs, env);
            spec.binary(op, l, r, *line)
        }
        Expr::Assign { op, lhs, rhs, .. } => {
            let rl = eval_expr(spec, rhs, env);
            let labels = if op == "=" {
                rl
            } else {
                // Compound assignment routes through the binary hook so a
                // rule's arithmetic kill-set applies to `+=` too.
                let base = op.trim_end_matches('=');
                let cur = lhs
                    .as_var()
                    .map(|v| env.get(v))
                    .unwrap_or_else(|| eval_expr(spec, lhs, env));
                spec.binary(base, cur, rl, lhs.line())
            };
            if let Some(v) = lhs.as_var() {
                env.bind(v, labels);
            } else {
                spec.on_store(lhs, rhs, &labels, env);
            }
            Labels::new()
        }
        Expr::Call { callee, args, .. } => {
            // A non-path callee (fn-pointer field, nested call) can still
            // carry taint through its receiver chain — evaluated for side
            // effects, labels folded into the args by the default hook.
            if !matches!(callee.as_ref(), Expr::Path { .. }) {
                let _ = eval_expr(spec, callee, env);
            }
            let arg_labels: Vec<Labels> = args.iter().map(|a| eval_expr(spec, a, env)).collect();
            spec.call(e, &arg_labels, env)
        }
        Expr::Method { recv, args, .. } => {
            let rl = eval_expr(spec, recv, env);
            let mut arg_labels = Vec::with_capacity(args.len());
            for a in args {
                if let Expr::Closure { params, body, .. } = a {
                    // `m.iter().map(|(k, v)| ...)`: closure params see the
                    // receiver's labels.
                    let mut cenv = env.clone();
                    for p in params {
                        cenv.bind(p, rl.clone());
                    }
                    let bl = eval_expr(spec, body, &mut cenv);
                    env.merge(&cenv);
                    arg_labels.push(bl);
                } else {
                    arg_labels.push(eval_expr(spec, a, env));
                }
            }
            spec.method(e, rl, &arg_labels, env)
        }
        Expr::Field { recv, .. } => eval_expr(spec, recv, env),
        Expr::Index { recv, idx, .. } => {
            let rl = eval_expr(spec, recv, env);
            let il = eval_expr(spec, idx, env);
            union(rl, il)
        }
        Expr::StructLit { fields, .. } => fields
            .iter()
            .map(|(_, v)| eval_expr(spec, v, env))
            .fold(Labels::new(), union),
        Expr::Macro { args, .. } => {
            let al: Vec<Labels> = args.iter().map(|a| eval_expr(spec, a, env)).collect();
            spec.macro_call(e, &al, env)
        }
        Expr::Tuple { items, .. } | Expr::Array { items, .. } => items
            .iter()
            .map(|i| eval_expr(spec, i, env))
            .fold(Labels::new(), union),
        Expr::BlockExpr { block, .. } => exec_block(spec, block, env),
        Expr::If {
            pat,
            cond,
            then,
            else_,
            ..
        } => {
            let cl = eval_expr(spec, cond, env);
            let mut tenv = env.clone();
            for p in pat {
                tenv.bind(p, cl.clone());
            }
            let tl = exec_block(spec, then, &mut tenv);
            let el = if let Some(els) = else_ {
                let mut eenv = env.clone();
                let l = eval_expr(spec, els, &mut eenv);
                env.merge(&eenv);
                l
            } else {
                Labels::new()
            };
            env.merge(&tenv);
            union(tl, el)
        }
        Expr::Match {
            scrutinee, arms, ..
        } => {
            let sl = eval_expr(spec, scrutinee, env);
            let mut out = Labels::new();
            let mut joined = env.clone();
            for arm in arms {
                let mut aenv = env.clone();
                for p in &arm.pats {
                    aenv.bind(p, sl.clone());
                }
                out = union(out, eval_expr(spec, &arm.body, &mut aenv));
                joined.merge(&aenv);
            }
            *env = joined;
            out
        }
        Expr::For {
            pats, iter, body, ..
        } => {
            let il = eval_expr(spec, iter, env);
            let bl = spec.for_bindings(iter, &il, env);
            let mut benv = env.clone();
            for p in pats {
                benv.bind(p, bl.clone());
            }
            exec_block(spec, body, &mut benv);
            for p in pats {
                benv.add(p, &bl);
            }
            exec_block(spec, body, &mut benv);
            env.merge(&benv);
            Labels::new()
        }
        Expr::While {
            pat, cond, body, ..
        } => {
            let cl = eval_expr(spec, cond, env);
            let mut benv = env.clone();
            for p in pat {
                benv.bind(p, cl.clone());
            }
            exec_block(spec, body, &mut benv);
            exec_block(spec, body, &mut benv);
            env.merge(&benv);
            Labels::new()
        }
        Expr::Loop { body, .. } => {
            let mut benv = env.clone();
            exec_block(spec, body, &mut benv);
            exec_block(spec, body, &mut benv);
            env.merge(&benv);
            Labels::new()
        }
        Expr::Closure { body, .. } => {
            // A closure not consumed by a method call (stored, passed to a
            // free fn): analyze the body for sinks; its params are unknown.
            let mut cenv = env.clone();
            let _ = eval_expr(spec, body, &mut cenv);
            env.merge(&cenv);
            Labels::new()
        }
        Expr::Ret { expr, .. } => {
            if let Some(inner) = expr {
                let labels = eval_expr(spec, inner, env);
                spec.on_return(inner, &labels);
            }
            Labels::new()
        }
        Expr::Break { expr, .. } => expr
            .as_ref()
            .map(|inner| eval_expr(spec, inner, env))
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    /// A toy spec: `source()` introduces "t", `sink(x)` records tainted
    /// args, `scrub(x)` returns clean.
    #[derive(Default)]
    struct Toy {
        hits: Vec<u32>,
    }

    impl TaintSpec for Toy {
        fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
            if let Expr::Call { callee, line, .. } = e {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    match segs.last().map(String::as_str) {
                        Some("source") => return Labels::from(["t"]),
                        Some("scrub") => return Labels::new(),
                        Some("sink") => {
                            if args.iter().any(|a| a.contains("t")) {
                                self.hits.push(*line);
                            }
                            return Labels::new();
                        }
                        _ => {}
                    }
                }
            }
            args.iter().cloned().fold(Labels::new(), union)
        }
    }

    fn run(src: &str) -> Vec<u32> {
        let file = parse(&lex(src));
        let mut toy = Toy::default();
        crate::ast::for_each_fn(&file, &mut |_, fd| {
            run_fn(&mut toy, fd, TaintEnv::default());
        });
        toy.hits.sort_unstable();
        toy.hits.dedup();
        toy.hits
    }

    #[test]
    fn straight_line_taint_reaches_sink() {
        assert_eq!(run("fn f() { let x = source(); sink(x); }"), vec![1]);
    }

    #[test]
    fn scrubbed_value_is_clean() {
        assert!(run("fn f() { let x = source(); let y = scrub(x); sink(y); }").is_empty());
    }

    #[test]
    fn rebinding_kills_taint() {
        assert!(run("fn f() { let mut x = source(); x = 1; sink(x); }").is_empty());
    }

    #[test]
    fn branches_merge_by_union() {
        let src =
            "fn f(c: bool) { let mut x = 0; if c { x = source(); } else { x = 1; } sink(x); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn loop_carried_taint_is_seen() {
        let src = "fn f(n: u64) { let mut acc = 0; for _i in 0..n { sink(acc); acc = source(); } }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn closure_params_inherit_receiver_labels() {
        let src = "fn f(v: V) { let t = source(); t.map(|x| sink(x)); }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn match_arms_bind_scrutinee_labels() {
        let src = "fn f() { match source() { Some(v) => sink(v), None => {} } }";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn method_chains_propagate() {
        let src = "fn f() { let x = source().wrap().unwrap(); sink(x); }";
        assert_eq!(run(src).len(), 1);
    }
}
