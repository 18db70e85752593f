//! A workspace call graph.
//!
//! Nodes are the functions of `Lib`/`Bin` files outside `#[cfg(test)]`
//! modules; edges are *callee names* (method names and final path
//! segments), resolved by name at query time ([`CallGraph::candidates`]).
//! That is deliberately coarser than real Rust name resolution — the
//! audit has no trait or type information to dispatch on — but it
//! composes safely with union-style effects: if *any* function named
//! `count` locks, every call to `count` is assumed to lock
//! (`lock-discipline`'s `may_lock` fixpoint). The graph itself is
//! effect-agnostic.

use crate::ast::{self, Expr};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One function in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index of the declaring file in the engine's file list.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when the fn is associated.
    pub impl_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Names this function calls (method names + final path segments).
    pub callees: BTreeSet<String>,
}

/// The workspace call graph. `fns` is ordered by (file, source line) and
/// is the index space for effect vectors.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All graph nodes.
    pub fns: Vec<FnNode>,
    /// Function name -> node indices, for candidate resolution.
    name_idx: BTreeMap<String, Vec<usize>>,
}

/// Iterates exactly the functions [`CallGraph::build`] collects, in node
/// order, yielding `(node_index, file_index, impl_type, fn)`. Rules use
/// this to compute direct-effect vectors parallel to `CallGraph::fns`.
pub fn for_each_graph_fn<'a>(
    files: &'a [SourceFile],
    asts: &'a [ast::File],
    f: &mut dyn FnMut(usize, usize, Option<&'a str>, &'a ast::FnDef),
) {
    let mut node = 0usize;
    for (idx, (file, tree)) in files.iter().zip(asts).enumerate() {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        ast::for_each_fn(tree, &mut |impl_ty, fd| {
            if file.in_test_mod(fd.line) {
                return;
            }
            f(node, idx, impl_ty, fd);
            node += 1;
        });
    }
}

impl CallGraph {
    /// Builds the graph over `files`/`asts` (parallel by index), keeping
    /// `Lib`/`Bin` functions outside test modules.
    pub fn build(files: &[SourceFile], asts: &[ast::File]) -> CallGraph {
        let mut fns = Vec::new();
        for_each_graph_fn(files, asts, &mut |_, idx, impl_ty, fd| {
            let mut callees = BTreeSet::new();
            if let Some(body) = &fd.body {
                ast::walk_block(body, &mut |e| match e {
                    Expr::Method { name, .. } => {
                        callees.insert(name.clone());
                    }
                    Expr::Call { callee, .. } => {
                        if let Expr::Path { segs, .. } = callee.as_ref() {
                            if let Some(last) = segs.last() {
                                callees.insert(last.clone());
                            }
                        }
                    }
                    _ => {}
                });
            }
            fns.push(FnNode {
                file: idx,
                name: fd.name.clone(),
                impl_ty: impl_ty.map(str::to_string),
                line: fd.line,
                callees,
            });
        });
        let mut name_idx: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            name_idx.entry(f.name.clone()).or_default().push(i);
        }
        CallGraph { fns, name_idx }
    }

    /// Candidate callees for a call to `name`. When `recv_ty` is known
    /// and at least one same-named candidate is associated with that
    /// type, only those candidates are returned (typed dispatch);
    /// otherwise every same-named function is a candidate (by-name
    /// dispatch, the PR-8 behavior). An empty vec means the callee is
    /// outside the workspace (std, shims).
    pub fn candidates(&self, name: &str, recv_ty: Option<&str>) -> Vec<usize> {
        let Some(all) = self.name_idx.get(name) else {
            return Vec::new();
        };
        if let Some(ty) = recv_ty {
            let typed: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| self.fns[i].impl_ty.as_deref() == Some(ty))
                .collect();
            if !typed.is_empty() {
                return typed;
            }
        }
        all.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(name, src)| {
                SourceFile::parse(&format!("{name}/src/lib.rs"), name, FileKind::Lib, src)
            })
            .collect();
        let asts: Vec<ast::File> = files.iter().map(|f| ast::parse(&f.tokens)).collect();
        let g = CallGraph::build(&files, &asts);
        (files, g)
    }

    #[test]
    fn test_mod_fns_are_excluded() {
        let (_f, g) = graph(&[(
            "a",
            "fn real() {}\n#[cfg(test)]\nmod tests { fn fake() {} }",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
    }

    #[test]
    fn name_union_merges_candidates() {
        let (_f, g) = graph(&[
            ("a", "fn work() { }"),
            ("b", "fn work() { } fn caller() { work(); }"),
        ]);
        let caller = g.fns.iter().find(|f| f.name == "caller").unwrap();
        assert!(caller.callees.contains("work"));
        let cands = g.candidates("work", None);
        assert_eq!(cands.len(), 2, "every same-named fn is a candidate");
        assert!(cands.iter().all(|&i| g.fns[i].name == "work"));
    }
}
