//! `cache-key-completeness`: every report-influencing config field must
//! be part of the job cache key.
//!
//! The `gh-jobs` executor memoizes `RunReport`s keyed by a stable hash
//! of `JobSpec::canonical_key()`. That is only sound if *every* field
//! that can change a report is folded into the key — a field that
//! steers the simulation but is missing from the key makes the cache
//! serve stale results for the configs that differ in it, silently and
//! deterministically.
//!
//! The rule anchors on any `impl` providing a `canonical_key` method:
//!
//! 1. **K** — the keyed set: field names read through `self` inside
//!    `canonical_key` (nested reads like `self.session.trace` contribute
//!    both `session` and `trace`).
//! 2. **Audited structs** — the anchor struct plus the struct types of
//!    its fields (one level deep; for `JobSpec` that pulls in
//!    `SessionOptions`). `RuntimeOptions` is deliberately not audited
//!    per-field: it is derived from the keyed platform, and the
//!    `SessionOptions -> SessionCtx` store path is covered.
//! 3. **R** — the escaping set: audited fields whose read value
//!    *escapes* the reading function — reaches a return, stored state,
//!    a branch decision (control influence), a trace/checksum/report
//!    sink, an output macro, or a call that consumes it per the
//!    interprocedural summaries ([`crate::summary`]); calls with no
//!    workspace candidate consume conservatively.
//!
//! Every field in `R \ K` is one finding, reported at the
//! `canonical_key` definition with a representative read site.
//! Functions that legitimately read fields without keying them
//! (`canonical_key` itself, `stable_hash`, `fmt`/`eq`/`hash`-style
//! trait plumbing) are exempt from the R-scan.

use crate::ast::{self, Expr, FnDef};
use crate::callgraph::for_each_graph_fn;
use crate::dataflow::{self, Label, Labels, TaintEnv, TaintSpec};
use crate::resolve::{expr_type_deep, fn_type_env, TypeEnv, Workspace};
use crate::rules::{Finding, FlowRule};
use std::collections::{BTreeMap, BTreeSet};

/// Trace/telemetry sinks (same vocabulary as the summary layer).
const TRACE_SINKS: [&str; 4] = ["emit", "count", "observe", "gauge"];

/// Output macros: printing a config field is publishing it in a report.
const OUTPUT_MACROS: [&str; 6] = ["print", "println", "eprint", "eprintln", "write", "writeln"];

/// Functions whose field reads are definitionally not report flows.
const EXEMPT_FNS: [&str; 10] = [
    "canonical_key",
    "stable_hash",
    "fmt",
    "hash",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "clone",
    "default",
];

/// See module docs.
#[derive(Debug)]
pub struct CacheKeyCompleteness;

impl FlowRule for CacheKeyCompleteness {
    fn name(&self) -> &'static str {
        "cache-key-completeness"
    }

    fn describe(&self) -> &'static str {
        "every config field that influences a report must appear in canonical_key"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        // Anchors: `canonical_key` methods with a known impl type.
        let mut anchors: Vec<(usize, String, u32)> = Vec::new();
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
            if fd.name == "canonical_key" {
                if let Some(ty) = impl_ty {
                    anchors.push((fidx, ty.to_string(), fd.line));
                }
            }
        });
        for (anchor_fidx, anchor_ty, anchor_line) in anchors {
            let Some(keyed) = keyed_fields(ws, anchor_fidx, &anchor_ty) else {
                continue;
            };
            let audited = audited_structs(ws, &anchor_ty);
            let (escaped, reads) = escaping_reads(ws, &audited);
            for (ty, fields) in &audited {
                for field in fields {
                    let key = format!("{ty}.{field}");
                    if !escaped.contains(&key) || keyed.contains(field) {
                        continue;
                    }
                    let site = reads
                        .get(&key)
                        .map(|(p, l)| format!(" (read at {p}:{l})"))
                        .unwrap_or_default();
                    out.push(Finding {
                        rule: self.name(),
                        path: ws.files[anchor_fidx].rel_path.clone(),
                        line: anchor_line,
                        msg: format!(
                            "field `{field}` of `{ty}` influences run output{site} but is \
                             missing from `{anchor_ty}::canonical_key` — a cached report \
                             would be served for configs that differ in it; fold the \
                             field into the key"
                        ),
                    });
                }
            }
        }
    }
}

/// Field names read through `self` inside the anchor's `canonical_key`.
fn keyed_fields(
    ws: &Workspace<'_>,
    anchor_fidx: usize,
    anchor_ty: &str,
) -> Option<BTreeSet<String>> {
    let mut keyed = None;
    for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
        if fidx != anchor_fidx || fd.name != "canonical_key" || impl_ty != Some(anchor_ty) {
            return;
        }
        let mut set = BTreeSet::new();
        if let Some(body) = &fd.body {
            ast::walk_block(body, &mut |e| {
                if let Expr::Field { name, .. } = e {
                    if roots_at_self(e) {
                        set.insert(name.clone());
                    }
                }
            });
        }
        keyed = Some(set);
    });
    keyed
}

/// True when the field chain of `e` is rooted at `self`.
fn roots_at_self(e: &Expr) -> bool {
    match e {
        Expr::Path { .. } => e.as_var() == Some("self"),
        Expr::Field { recv, .. } | Expr::Index { recv, .. } | Expr::Unary { expr: recv, .. } => {
            roots_at_self(recv)
        }
        _ => false,
    }
}

/// The anchor struct plus struct types of its fields, with their field
/// names (from the workspace-merged struct table).
fn audited_structs(ws: &Workspace<'_>, anchor_ty: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut out = BTreeMap::new();
    let Some(anchor_fields) = ws.merged.get(anchor_ty) else {
        return out;
    };
    out.insert(
        anchor_ty.to_string(),
        anchor_fields.keys().cloned().collect(),
    );
    for ftys in anchor_fields.values() {
        for t in ftys {
            if let Some(fields) = ws.merged.get(t) {
                out.entry(t.clone())
                    .or_insert_with(|| fields.keys().cloned().collect());
            }
        }
    }
    out
}

/// Scans every non-exempt graph function for audited-field reads whose
/// value escapes. Returns the escaped `"Ty.field"` keys and, per key,
/// the first read site.
fn escaping_reads(
    ws: &Workspace<'_>,
    audited: &BTreeMap<String, BTreeSet<String>>,
) -> (BTreeSet<String>, BTreeMap<String, (String, u32)>) {
    let mut escaped = BTreeSet::new();
    let mut reads = BTreeMap::new();
    for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, impl_ty, fd| {
        if EXEMPT_FNS.contains(&fd.name.as_str()) {
            return;
        }
        let mut spec = Spec {
            ws,
            fidx,
            impl_ty,
            tenv: fn_type_env(fd, &ws.fn_returns),
            audited,
            params: param_names(fd),
            escaped: &mut escaped,
            reads: &mut reads,
        };
        dataflow::run_fn(&mut spec, fd, TaintEnv::default());
    });
    (escaped, reads)
}

fn param_names(fd: &FnDef) -> BTreeSet<String> {
    fd.params
        .iter()
        .flat_map(|p| p.pats.iter().cloned())
        .collect()
}

struct Spec<'w, 'a> {
    ws: &'w Workspace<'a>,
    fidx: usize,
    impl_ty: Option<&'w str>,
    tenv: TypeEnv,
    audited: &'w BTreeMap<String, BTreeSet<String>>,
    params: BTreeSet<String>,
    escaped: &'w mut BTreeSet<String>,
    reads: &'w mut BTreeMap<String, (String, u32)>,
}

impl Spec<'_, '_> {
    fn self_fields(&self) -> Option<&BTreeMap<String, Vec<String>>> {
        self.impl_ty
            .and_then(|ty| self.ws.tables[self.fidx].get(ty))
    }

    /// Struct-type identifiers of a receiver expression; `self` resolves
    /// to the enclosing impl type.
    fn recv_types(&self, e: &Expr) -> Vec<String> {
        if e.as_var() == Some("self") {
            return self
                .impl_ty
                .map(|t| vec![t.to_string()])
                .unwrap_or_default();
        }
        expr_type_deep(
            e,
            &self.tenv,
            self.self_fields(),
            &self.ws.fn_returns,
            &self.ws.merged,
        )
    }

    fn first_recv_type(&self, e: &Expr) -> Option<String> {
        self.recv_types(e)
            .into_iter()
            .find(|i| i.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
    }

    fn mark_escaped(&mut self, labels: &Labels) {
        for l in labels {
            if let Label::Field(key) = l {
                if self.reads.contains_key(key) {
                    self.escaped.insert(key.clone());
                }
            }
        }
    }

    /// True when `e` is rooted at a plain local (non-parameter) variable.
    fn local_root<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        fn root(e: &Expr) -> Option<&str> {
            match e {
                Expr::Path { .. } => e.as_var(),
                Expr::Field { recv, .. }
                | Expr::Index { recv, .. }
                | Expr::Unary { expr: recv, .. } => root(recv),
                _ => None,
            }
        }
        let v = root(e)?;
        (v != "self" && !self.params.contains(v)).then_some(v)
    }
}

impl TaintSpec for Spec<'_, '_> {
    fn field(&mut self, e: &Expr, recv: Labels, _env: &mut TaintEnv) -> Labels {
        let Expr::Field {
            recv: recv_e, name, ..
        } = e
        else {
            return recv;
        };
        let mut out = recv;
        for ty in self.recv_types(recv_e) {
            if self
                .audited
                .get(&ty)
                .is_some_and(|fields| fields.contains(name))
            {
                let key = format!("{ty}.{name}");
                self.reads
                    .entry(key.clone())
                    .or_insert_with(|| (self.ws.files[self.fidx].rel_path.clone(), e.line()));
                out.insert(Label::Field(key));
            }
        }
        out
    }

    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Method {
            recv: recv_e, name, ..
        } = e
        else {
            return args
                .iter()
                .fold(recv, |acc, a| dataflow::union(acc, a.clone()));
        };
        let mut slots = Vec::with_capacity(args.len() + 1);
        slots.push(recv);
        slots.extend(args.iter().cloned());
        let all: Labels = slots.iter().cloned().fold(Labels::new(), dataflow::union);
        if TRACE_SINKS.contains(&name.as_str()) || name.contains("checksum") {
            self.mark_escaped(&all);
            return Labels::new();
        }
        let recv_ty = self.first_recv_type(recv_e);
        let consumed = self.ws.summaries.consumed_slots(
            &self.ws.graph,
            name,
            recv_ty.as_deref(),
            true,
            slots.len(),
        );
        for (slot, used) in slots.iter().zip(&consumed) {
            if *used {
                let slot = slot.clone();
                self.mark_escaped(&slot);
            }
        }
        // The result carries only the labels the summary says flow into
        // the callee's return value.
        let ret = self.ws.summaries.ret_slots(
            &self.ws.graph,
            name,
            recv_ty.as_deref(),
            true,
            slots.len(),
        );
        slots
            .into_iter()
            .zip(&ret)
            .filter(|(_, r)| **r)
            .map(|(s, _)| s)
            .fold(Labels::new(), dataflow::union)
    }

    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let all: Labels = args.iter().cloned().fold(Labels::new(), dataflow::union);
        let Expr::Call { callee, .. } = e else {
            return all;
        };
        let Expr::Path { segs, .. } = callee.as_ref() else {
            // Unknown callable: conservative escape.
            self.mark_escaped(&all);
            return all;
        };
        let Some(name) = segs.last() else { return all };
        if TRACE_SINKS.contains(&name.as_str()) || name.contains("checksum") {
            self.mark_escaped(&all);
            return Labels::new();
        }
        let qual_ty = (segs.len() >= 2).then(|| segs[segs.len() - 2].clone());
        let consumed = self.ws.summaries.consumed_slots(
            &self.ws.graph,
            name,
            qual_ty.as_deref(),
            false,
            args.len(),
        );
        for (slot, used) in args.iter().zip(&consumed) {
            if *used {
                let slot = slot.clone();
                self.mark_escaped(&slot);
            }
        }
        // The result carries only the labels the summary says flow into
        // the callee's return value.
        let ret = self.ws.summaries.ret_slots(
            &self.ws.graph,
            name,
            qual_ty.as_deref(),
            false,
            args.len(),
        );
        args.iter()
            .zip(&ret)
            .filter(|(_, r)| **r)
            .map(|(s, _)| s.clone())
            .fold(Labels::new(), dataflow::union)
    }

    fn macro_call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let all: Labels = args.iter().cloned().fold(Labels::new(), dataflow::union);
        if let Expr::Macro { name, .. } = e {
            if OUTPUT_MACROS.contains(&name.as_str()) {
                self.mark_escaped(&all);
            }
        }
        all
    }

    fn struct_lit(&mut self, e: &Expr, fields: &[(String, Labels)], _env: &mut TaintEnv) -> Labels {
        let all: Labels = fields
            .iter()
            .map(|(_, l)| l.clone())
            .fold(Labels::new(), dataflow::union);
        if let Expr::StructLit { segs, .. } = e {
            if segs.last().is_some_and(|s| s == "RunReport") {
                self.mark_escaped(&all);
            }
        }
        all
    }

    fn on_branch(&mut self, _e: &Expr, labels: &Labels) {
        let labels = labels.clone();
        self.mark_escaped(&labels);
    }

    fn on_return(&mut self, _e: &Expr, labels: &Labels) {
        let labels = labels.clone();
        self.mark_escaped(&labels);
    }

    fn on_store(&mut self, lhs: &Expr, _rhs: &Expr, labels: &Labels, env: &mut TaintEnv) {
        match self.local_root(lhs) {
            Some(v) => {
                let v = v.to_string();
                env.add(&v, labels);
            }
            None => {
                let labels = labels.clone();
                self.mark_escaped(&labels);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn check(src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            "crates/gh-jobs/src/lib.rs",
            "gh-jobs",
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        CacheKeyCompleteness.check_workspace(&ws, &mut out);
        out
    }

    const SPEC: &str = "pub struct Spec { pub app: u64, pub small: bool }\n";

    #[test]
    fn unkeyed_branch_field_fires() {
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}}\", self.app) }} }}\n\
             pub fn run(spec: &Spec) -> u64 {{ if spec.small {{ 1 }} else {{ 2 }} }}"
        );
        let out = check(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`small`"));
        assert!(out[0].msg.contains("canonical_key"));
    }

    #[test]
    fn fully_keyed_spec_is_clean() {
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}};small={{}}\", self.app, self.small) }} }}\n\
             pub fn run(spec: &Spec) -> u64 {{ if spec.small {{ spec.app }} else {{ 2 }} }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn unread_unkeyed_field_is_clean() {
        // `small` is never read outside canonical_key: nothing escapes.
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}}\", self.app) }} }}\n\
             pub fn run(spec: &Spec) -> u64 {{ spec.app }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn nested_session_field_fires_once() {
        let src = "pub struct Opts { pub trace: bool, pub perf: bool }\n\
                   pub struct Spec { pub app: u64, pub session: Opts }\n\
                   impl Spec { pub fn canonical_key(&self) -> String { format!(\"a={};t={}\", self.app, self.session.trace) } }\n\
                   pub fn run(spec: &Spec) -> u64 { if spec.session.perf { 1 } else { 0 } }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`perf`"));
        assert!(out[0].msg.contains("`Opts`"));
    }

    #[test]
    fn flow_through_helper_call_fires() {
        // The field value escapes only via a helper whose summary says
        // the parameter reaches the return value.
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}}\", self.app) }} }}\n\
             fn shape(x: bool) -> u64 {{ if x {{ 1 }} else {{ 0 }} }}\n\
             pub fn run(spec: &Spec) -> u64 {{ shape(spec.small) }}"
        );
        let out = check(&src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("`small`"));
    }

    #[test]
    fn helper_that_ignores_the_field_is_clean() {
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}}\", self.app) }} }}\n\
             fn drop_it(_x: bool) -> u64 {{ 7 }}\n\
             pub fn run(spec: &Spec) -> u64 {{ drop_it(spec.small) }}"
        );
        assert!(check(&src).is_empty(), "summary proves the arg is dead");
    }

    #[test]
    fn no_canonical_key_is_silent() {
        let src = format!(
            "{SPEC}pub fn run(spec: &Spec) -> u64 {{ if spec.small {{ 1 }} else {{ 0 }} }}"
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn printed_field_counts_as_output() {
        let src = format!(
            "{SPEC}impl Spec {{ pub fn canonical_key(&self) -> String {{ format!(\"app={{}}\", self.app) }} }}\n\
             pub fn dump(spec: &Spec) {{ println!(\"{{}}\", spec.small); }}"
        );
        assert_eq!(check(&src).len(), 1);
    }
}
