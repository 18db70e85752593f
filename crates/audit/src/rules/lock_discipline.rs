//! `lock-discipline`: guards must not be held across conflicting locks.
//!
//! The PR-9 concurrency layer (`gh-par`'s pool/deques, `gh-jobs`'
//! cache) uses several `Mutex`es. Two source-level mistakes deadlock
//! without any test failing deterministically:
//!
//! * **self-deadlock** — re-acquiring a lock while its guard is still
//!   alive, either directly (`let g = self.map.lock()…; self.map.lock()`)
//!   or through a call (`let g = self.map.lock()…; self.len()` where
//!   `len` locks `map`). `std::sync::Mutex` is not reentrant.
//! * **lock-order inversion** — two functions acquiring the same pair
//!   of locks in opposite orders; under contention each holds one and
//!   waits for the other.
//!
//! The analysis works on lock *identities* — the final field (or
//! variable) name of a `.lock()` receiver, so `self.gate.lock()` and
//! `shared.gate.lock()` are the same logical lock. Per function it
//! tracks which guards are held, statement by statement:
//!
//! * a guard is **held** when a `let` binds a chain whose
//!   `expect`/`unwrap` wrappers peel down to exactly `.lock()`;
//!   longer chains (`….lock()….get(&k).cloned()`) are statement
//!   temporaries that die at the `;` and are never held;
//! * a guard is **released** by `drop(g)`, by passing `g` by value to
//!   a call (`cv.wait(g)` consumes and re-parks it), or at the end of
//!   the block that bound it;
//! * while any guard is held, every `.lock()` and every call records
//!   either a *same-lock* finding or an *order edge* `held -> acquired`;
//!   call effects come from a workspace-wide `may_lock` fixpoint over
//!   the [`crate::callgraph`] (typed candidate narrowing, guard-receiver
//!   calls excluded — `g.push(x)` touches the data, not a lock).
//!
//! Order edges from all functions are joined at the end: a pair of
//! locks acquired in both orders anywhere in the workspace is one
//! finding. Closure bodies are walked with an empty held-set (they run
//! later, usually on another thread); their locks still count toward
//! `may_lock`.

use crate::ast::{self, Block, Expr, Stmt};
use crate::callgraph::for_each_graph_fn;
use crate::resolve::{expr_type_deep, fn_type_env, TypeEnv, Workspace};
use crate::rules::{Finding, FlowRule};
use std::collections::{BTreeMap, BTreeSet};

/// Wrapper methods peeled between a binding and its `.lock()`.
const PEEL: [&str; 2] = ["expect", "unwrap"];

/// Call names that never constitute an outgoing lock effect.
const SKIP_CALLS: [&str; 5] = ["lock", "drop", "expect", "unwrap", "clone"];

/// Smart-pointer/container idents skipped when picking a receiver type
/// for candidate narrowing.
const WRAPPERS: [&str; 12] = [
    "Arc",
    "Rc",
    "Box",
    "Option",
    "Result",
    "Vec",
    "Mutex",
    "RwLock",
    "RefCell",
    "Ref",
    "RefMut",
    "MutexGuard",
];

/// Fixpoint iteration cap for `may_lock`.
const MAX_ITERS: usize = 64;

/// See module docs.
#[derive(Debug)]
pub struct LockDiscipline;

impl FlowRule for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn describe(&self) -> &'static str {
        "no lock re-acquired while held, no lock pair taken in both orders"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        // Pass 1: per-function direct locks + outgoing calls.
        let mut infos: Vec<FnInfo> = Vec::new();
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, _, impl_ty, fd| {
            infos.push(collect_info(ws, impl_ty, fd));
        });
        // `may_lock` fixpoint over the call graph.
        let mut may: Vec<BTreeSet<String>> = infos.iter().map(|i| i.direct.clone()).collect();
        for _ in 0..MAX_ITERS {
            let mut changed = false;
            for i in 0..infos.len() {
                let mut add = BTreeSet::new();
                for (name, recv_ty) in &infos[i].calls {
                    for c in ws.graph.candidates(name, recv_ty.as_deref()) {
                        if let Some(s) = may.get(c) {
                            add.extend(s.iter().cloned());
                        }
                    }
                }
                let before = may[i].len();
                may[i].extend(add);
                changed |= may[i].len() > before;
            }
            if !changed {
                break;
            }
        }
        // Pass 2: held-guard walk per function, accumulating order edges.
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
            let Some(body) = &fd.body else { return };
            let mut w = Walk {
                ws,
                fidx,
                impl_ty,
                tenv: fn_type_env(fd, &ws.fn_returns),
                may: &may,
                held: Vec::new(),
                fired: BTreeSet::new(),
                edges: &mut edges,
                out,
            };
            w.block(body);
        });
        // Join: a pair acquired in both orders is one finding, reported
        // at the lexicographically-first direction's site.
        for ((a, b), (path, line)) in &edges {
            if a >= b {
                continue;
            }
            if let Some((rpath, rline)) = edges.get(&(b.clone(), a.clone())) {
                out.push(Finding {
                    rule: self.name(),
                    path: path.clone(),
                    line: *line,
                    msg: format!(
                        "lock `{b}` is acquired while `{a}` is held here, but \
                         {rpath}:{rline} acquires `{a}` while holding `{b}` — \
                         inconsistent lock order deadlocks under contention; \
                         acquire them in one order everywhere"
                    ),
                });
            }
        }
    }
}

/// Pass-1 facts about one graph function.
struct FnInfo {
    /// Identities this function locks directly (closures included).
    direct: BTreeSet<String>,
    /// Outgoing calls as `(name, receiver type for narrowing)`.
    calls: Vec<(String, Option<String>)>,
}

fn collect_info(ws: &Workspace<'_>, impl_ty: Option<&str>, fd: &ast::FnDef) -> FnInfo {
    let mut info = FnInfo {
        direct: BTreeSet::new(),
        calls: Vec::new(),
    };
    let Some(body) = &fd.body else { return info };
    let tenv = fn_type_env(fd, &ws.fn_returns);
    // Guard-bound variables: calls on them dereference protected data,
    // not the containing lock, and are excluded from effects.
    let mut guard_vars: BTreeSet<String> = BTreeSet::new();
    ast::walk_blocks(body, &mut |b| {
        for stmt in &b.stmts {
            if let Stmt::Let {
                pats,
                init: Some(init),
                ..
            } = stmt
            {
                if pats.len() == 1 && guard_source(init).is_some() {
                    guard_vars.insert(pats[0].clone());
                }
            }
        }
    });
    let self_fields = impl_ty.and_then(|ty| ws.merged.get(ty));
    ast::walk_block(body, &mut |e| match e {
        Expr::Method { recv, name, .. } => {
            if name == "lock" {
                if let Some(id) = lock_identity(recv) {
                    info.direct.insert(id);
                }
            } else if !SKIP_CALLS.contains(&name.as_str())
                && !root_var(recv).is_some_and(|v| guard_vars.contains(v))
            {
                let ty = narrow_ty(recv, &tenv, self_fields, ws);
                info.calls.push((name.clone(), ty));
            }
        }
        Expr::Call {
            callee, args: _, ..
        } => {
            if let Expr::Path { segs, .. } = callee.as_ref() {
                if let Some(n) = segs.last() {
                    if !SKIP_CALLS.contains(&n.as_str()) {
                        info.calls.push((n.clone(), None));
                    }
                }
            }
        }
        _ => {}
    });
    info
}

/// Pass-2 walker: tracks held guards with block scoping.
struct Walk<'x, 'w, 'a> {
    ws: &'w Workspace<'a>,
    fidx: usize,
    impl_ty: Option<&'w str>,
    tenv: TypeEnv,
    may: &'x [BTreeSet<String>],
    /// Held guards as `(lock identity, binding variable)`.
    held: Vec<(String, String)>,
    /// Dedup for same-lock findings: `(line, identity)`.
    fired: BTreeSet<(u32, String)>,
    edges: &'x mut BTreeMap<(String, String), (String, u32)>,
    out: &'x mut Vec<Finding>,
}

impl Walk<'_, '_, '_> {
    fn path(&self) -> &str {
        &self.ws.files[self.fidx].rel_path
    }

    fn block(&mut self, b: &Block) {
        // Guards bound in this block die at its end; releases of outer
        // guards (e.g. `drop(gate)` inside a branch) persist.
        let before: BTreeSet<String> = self.held.iter().map(|(_, v)| v.clone()).collect();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    pats,
                    init: Some(init),
                    ..
                } => {
                    self.expr(init);
                    if pats.len() == 1 {
                        if let Some(id) = guard_source(init).and_then(lock_identity) {
                            self.held.retain(|(_, v)| v != &pats[0]);
                            self.held.push((id, pats[0].clone()));
                        }
                    }
                }
                Stmt::Let { .. } => {}
                Stmt::Expr(e) => self.expr(e),
                // Nested items get their own `for_each_graph_fn` visit.
                Stmt::Item(_) => {}
            }
        }
        if let Some(t) = b.tail.as_deref() {
            self.expr(t);
        }
        self.held.retain(|(_, v)| before.contains(v));
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Method {
                recv,
                name,
                args,
                line,
                ..
            } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
                if name == "lock" {
                    if let Some(id) = lock_identity(recv) {
                        self.acquire(&id, *line);
                    }
                    return;
                }
                self.release_moved_guards(args);
                if SKIP_CALLS.contains(&name.as_str())
                    || root_var(recv).is_some_and(|v| self.held.iter().any(|(_, hv)| hv == v))
                {
                    return;
                }
                let self_fields = self.impl_ty.and_then(|ty| self.ws.merged.get(ty));
                let ty = narrow_ty(recv, &self.tenv, self_fields, self.ws);
                self.call_effect(name, ty.as_deref(), *line);
            }
            Expr::Call { callee, args, line } => {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if segs.last().is_some_and(|n| n == "drop") {
                        for a in args {
                            if let Some(v) = a.as_var() {
                                self.held.retain(|(_, hv)| hv != v);
                            }
                        }
                        return;
                    }
                }
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
                self.release_moved_guards(args);
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(n) = segs.last() {
                        if !SKIP_CALLS.contains(&n.as_str()) {
                            self.call_effect(n, None, *line);
                        }
                    }
                }
            }
            Expr::Assign { lhs, rhs, .. } => {
                self.expr(rhs);
                if let Some(v) = lhs.as_var() {
                    if let Some(id) = guard_source(rhs).and_then(lock_identity) {
                        self.held.retain(|(_, hv)| hv != v);
                        self.held.push((id, v.to_string()));
                    }
                } else {
                    self.expr(lhs);
                }
            }
            Expr::If {
                cond, then, else_, ..
            } => {
                self.expr(cond);
                self.block(then);
                if let Some(e) = else_ {
                    self.expr(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.expr(scrutinee);
                for arm in arms {
                    self.expr(&arm.body);
                }
            }
            Expr::While { cond, body, .. } => {
                self.expr(cond);
                self.block(body);
            }
            Expr::For { iter, body, .. } => {
                self.expr(iter);
                self.block(body);
            }
            Expr::Loop { body, .. } => self.block(body),
            Expr::BlockExpr { block, .. } => self.block(block),
            Expr::Closure { body, .. } => {
                // Runs later (usually on another thread): not under our
                // held guards, and its guards never outlive it here.
                let saved = std::mem::take(&mut self.held);
                self.expr(body);
                self.held = saved;
            }
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Field { recv, .. } => self.expr(recv),
            Expr::Index { recv, idx, .. } => {
                self.expr(recv);
                self.expr(idx);
            }
            Expr::StructLit { fields, .. } => {
                for (_, v) in fields {
                    self.expr(v);
                }
            }
            Expr::Macro { args, .. }
            | Expr::Tuple { items: args, .. }
            | Expr::Array { items: args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Ret { expr, .. } | Expr::Break { expr, .. } => {
                if let Some(e) = expr {
                    self.expr(e);
                }
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        }
    }

    /// A `.lock()` on `id` while guards are held: same lock -> finding,
    /// different lock -> order edge.
    fn acquire(&mut self, id: &str, line: u32) {
        let held = self.held.clone();
        for (h, _) in &held {
            if h == id {
                if self.fired.insert((line, id.to_string())) {
                    let path = self.path().to_string();
                    self.out.push(Finding {
                        rule: "lock-discipline",
                        path,
                        line,
                        msg: format!(
                            "`{id}` is locked again while its guard is still held — \
                             Mutex is not reentrant, this self-deadlocks; drop the \
                             guard (or restructure) before re-locking"
                        ),
                    });
                }
            } else {
                let path = self.path().to_string();
                self.edges
                    .entry((h.clone(), id.to_string()))
                    .or_insert((path, line));
            }
        }
    }

    /// A call that (per `may_lock`) may acquire locks, made with guards
    /// held.
    fn call_effect(&mut self, name: &str, recv_ty: Option<&str>, line: u32) {
        if self.held.is_empty() {
            return;
        }
        let mut effects: BTreeSet<String> = BTreeSet::new();
        for c in self.ws.graph.candidates(name, recv_ty) {
            if let Some(s) = self.may.get(c) {
                effects.extend(s.iter().cloned());
            }
        }
        let held = self.held.clone();
        for (h, _) in &held {
            if effects.contains(h) && self.fired.insert((line, h.clone())) {
                let path = self.path().to_string();
                self.out.push(Finding {
                    rule: "lock-discipline",
                    path,
                    line,
                    msg: format!(
                        "guard on `{h}` is held across a call to `{name}`, which \
                         may lock `{h}` again — Mutex is not reentrant, this \
                         self-deadlocks; drop the guard before the call"
                    ),
                });
            }
            for l2 in &effects {
                if l2 != h {
                    let path = self.path().to_string();
                    self.edges
                        .entry((h.clone(), l2.clone()))
                        .or_insert((path, line));
                }
            }
        }
    }

    /// Bare guard variables passed by value are consumed by the callee
    /// (`cv.wait(gate)` releases and re-parks).
    fn release_moved_guards(&mut self, args: &[Expr]) {
        for a in args {
            if let Some(v) = a.as_var() {
                self.held.retain(|(_, hv)| hv != v);
            }
        }
    }
}

/// Peels `expect`/`unwrap` wrappers; `Some(receiver)` iff the chain is
/// exactly a `.lock()` acquisition (longer chains are temporaries).
fn guard_source(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Method { recv, name, .. } => match name.as_str() {
            n if PEEL.contains(&n) => guard_source(recv),
            "lock" => Some(recv),
            _ => None,
        },
        _ => None,
    }
}

/// The logical lock identity of a `.lock()` receiver: its final field
/// name, or the variable name for bare paths.
fn lock_identity(e: &Expr) -> Option<String> {
    match e {
        Expr::Field { name, .. } => Some(name.clone()),
        Expr::Path { segs, .. } => segs.last().cloned(),
        Expr::Index { recv, .. } | Expr::Unary { expr: recv, .. } | Expr::Method { recv, .. } => {
            lock_identity(recv)
        }
        _ => None,
    }
}

/// The base variable under field/index/ref/method projections.
fn root_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Path { .. } => e.as_var(),
        Expr::Field { recv, .. }
        | Expr::Index { recv, .. }
        | Expr::Unary { expr: recv, .. }
        | Expr::Method { recv, .. } => root_var(recv),
        _ => None,
    }
}

/// Picks the receiver type ident used for call-graph narrowing: the
/// first resolved ident that is capitalized and not a wrapper.
fn narrow_ty(
    recv: &Expr,
    tenv: &TypeEnv,
    self_fields: Option<&BTreeMap<String, Vec<String>>>,
    ws: &Workspace<'_>,
) -> Option<String> {
    expr_type_deep(recv, tenv, self_fields, &ws.fn_returns, &ws.merged)
        .into_iter()
        .find(|i| {
            !WRAPPERS.contains(&i.as_str())
                && i.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-par/src/lib.rs",
            "gh-par",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        LockDiscipline.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn direct_relock_fires() {
        let src = "pub struct W { map: Mutex<u64> }\n\
                   impl W { pub fn bad(&self) { let g = self.map.lock().expect(\"l\"); let h = self.map.lock().expect(\"l\"); } }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`map`"));
    }

    #[test]
    fn relock_through_call_fires() {
        let src = "pub struct W { map: Mutex<u64> }\n\
                   impl W {\n\
                   pub fn len(&self) -> u64 { let g = self.map.lock().expect(\"l\"); *g }\n\
                   pub fn bad(&self) -> u64 { let g = self.map.lock().expect(\"l\"); self.len() } }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("len"));
    }

    #[test]
    fn drop_before_call_is_clean() {
        let src = "pub struct W { map: Mutex<u64> }\n\
                   impl W {\n\
                   pub fn len(&self) -> u64 { let g = self.map.lock().expect(\"l\"); *g }\n\
                   pub fn ok(&self) -> u64 { let g = self.map.lock().expect(\"l\"); let v = *g; drop(g); self.len() + v } }";
        assert!(check(src).is_empty(), "released before the call");
    }

    #[test]
    fn statement_temporary_is_not_held() {
        let src = "pub struct W { map: Mutex<Table> }\n\
                   impl W {\n\
                   pub fn len(&self) -> u64 { let g = self.map.lock().expect(\"l\"); g.len() }\n\
                   pub fn ok(&self) -> u64 { let v = self.map.lock().expect(\"l\").snapshot(); self.len() } }";
        assert!(check(src).is_empty(), "chain past .lock() dies at the `;`");
    }

    #[test]
    fn order_inversion_fires_once() {
        let src = "pub struct W { alpha: Mutex<u64>, beta: Mutex<u64> }\n\
                   impl W {\n\
                   pub fn x(&self) { let g = self.alpha.lock().expect(\"l\"); let h = self.beta.lock().expect(\"l\"); }\n\
                   pub fn y(&self) { let h = self.beta.lock().expect(\"l\"); let g = self.alpha.lock().expect(\"l\"); } }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`alpha`") && out[0].msg.contains("`beta`"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "pub struct W { alpha: Mutex<u64>, beta: Mutex<u64> }\n\
                   impl W {\n\
                   pub fn x(&self) { let g = self.alpha.lock().expect(\"l\"); let h = self.beta.lock().expect(\"l\"); }\n\
                   pub fn y(&self) { let g = self.alpha.lock().expect(\"l\"); let h = self.beta.lock().expect(\"l\"); } }";
        assert!(check(src).is_empty());
    }

    #[test]
    fn wait_consumes_the_guard() {
        let src = "pub struct W { gate: Mutex<bool>, cv: Condvar }\n\
                   impl W { pub fn park(&self) { let mut gate = self.gate.lock().expect(\"l\"); gate = self.cv.wait(gate).expect(\"w\"); let g2 = self.gate.lock().expect(\"l\"); } }";
        // `wait(gate)` moves the guard out, so the re-lock is clean; the
        // rebind through `wait` is not modeled as a fresh acquisition.
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn drop_in_branch_then_relock_is_clean() {
        let src = "pub struct W { gate: Mutex<bool> }\n\
                   impl W { pub fn run(&self) { let mut gate = self.gate.lock().expect(\"l\"); loop { if *gate { drop(gate); step(); gate = self.gate.lock().expect(\"l\"); } } } }";
        assert!(check(src).is_empty(), "{:?}", check(src));
    }

    #[test]
    fn guard_method_is_data_access_not_lock() {
        let src = "pub struct W { items: Mutex<Vec<u64>> }\n\
                   impl W {\n\
                   pub fn push(&self, v: u64) { let mut g = self.items.lock().expect(\"l\"); g.push(v); } }";
        assert!(check(src).is_empty(), "guard deref touches data, not locks");
    }

    #[test]
    fn closure_body_is_not_under_held_guards() {
        let src = "pub struct W { map: Mutex<u64> }\n\
                   impl W { pub fn ok(&self, pool: &Pool) { let g = self.map.lock().expect(\"l\"); pool.spawn(move || { let h = self.map.lock().expect(\"l\"); }); } }";
        // The closure runs on another thread; cross-thread blocking is
        // contention, not self-deadlock.
        assert!(check(src).is_empty(), "{:?}", check(src));
    }
}
