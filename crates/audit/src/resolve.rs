//! Name and type resolution over the [`crate::ast`] tree, plus the
//! [`Workspace`] context the flow rules run against.
//!
//! Resolution is deliberately shallow — the flow rules need "which unit
//! newtype / hash container is this expression", not full Rust typing:
//!
//! * per-file struct tables (struct name -> field -> type identifiers),
//! * a flow-insensitive per-function [`TypeEnv`] built from parameter
//!   annotations, `let` annotations, and `Type::constructor(...)`
//!   initializers,
//! * a workspace map of function name -> return-type identifiers, kept
//!   only when every same-named function agrees (ambiguity resolves to
//!   "unknown", which makes rules silent, never wrong).
//!
//! [`Workspace::build`] parses every collected source file once and
//! shares the ASTs and the type tables between flow rules.

use crate::ast::{self, Expr, FnDef};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// The `gh-units` quantity newtypes the unit rules know about.
pub const UNIT_TYPES: [&str; 8] = [
    "Bytes", "Pages", "Lines", "SimNs", "BwGiBs", "Vpn", "VpnRange", "PageSize",
];

/// Unordered std containers whose iteration order is randomized.
pub const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// First unit-type name among `idents`, if any.
pub fn first_unit(idents: &[String]) -> Option<&'static str> {
    idents
        .iter()
        .find_map(|i| UNIT_TYPES.iter().find(|u| *u == i).copied())
}

/// True when `idents` mention an unordered hash container.
pub fn mentions_hash(idents: &[String]) -> bool {
    idents.iter().any(|i| HASH_TYPES.contains(&i.as_str()))
}

/// Struct name -> field name -> identifiers in the field's type.
pub type StructTable = BTreeMap<String, BTreeMap<String, Vec<String>>>;

/// Builds the [`StructTable`] for one file.
pub fn struct_table(file: &ast::File) -> StructTable {
    let mut out = StructTable::new();
    ast::for_each_struct(file, &mut |s| {
        let fields = out.entry(s.name.clone()).or_default();
        for (name, ty) in &s.fields {
            fields.insert(name.clone(), ty.clone());
        }
    });
    out
}

/// Flow-insensitive variable types for one function: variable name ->
/// identifiers of its annotated or constructed type.
#[derive(Debug, Default)]
pub struct TypeEnv {
    vars: BTreeMap<String, Vec<String>>,
}

impl TypeEnv {
    /// Type identifiers recorded for `var`.
    pub fn get(&self, var: &str) -> Option<&[String]> {
        self.vars.get(var).map(Vec::as_slice)
    }
}

/// Methods assumed to preserve their receiver's type (unit arithmetic and
/// clamping return the same quantity).
const TYPE_PRESERVING: [&str; 9] = [
    "saturating_add",
    "saturating_sub",
    "checked_add",
    "checked_sub",
    "min",
    "max",
    "clamp",
    "clone",
    "unwrap_or",
];

/// Builds a [`TypeEnv`] for `fd` from parameter annotations, `let`
/// annotations, and constructor-shaped initializers (`Type::new(..)`,
/// `Type::with_capacity(..)`, a call to a function with a known return).
pub fn fn_type_env(fd: &FnDef, fn_returns: &BTreeMap<String, Vec<String>>) -> TypeEnv {
    let mut env = TypeEnv::default();
    for p in &fd.params {
        if p.ty.is_empty() {
            continue;
        }
        for pat in &p.pats {
            env.vars.insert(pat.clone(), p.ty.clone());
        }
    }
    let Some(body) = &fd.body else { return env };
    ast::walk_blocks(body, &mut |b| {
        for stmt in &b.stmts {
            let ast::Stmt::Let { pats, ty, init, .. } = stmt else {
                continue;
            };
            let inferred: Option<Vec<String>> = if !ty.is_empty() {
                Some(ty.clone())
            } else {
                init.as_ref().and_then(|e| init_type(e, fn_returns))
            };
            if let Some(idents) = inferred {
                for pat in pats {
                    env.vars
                        .entry(pat.clone())
                        .or_insert_with(|| idents.clone());
                }
            }
        }
    });
    env
}

/// Type identifiers of an initializer expression, when its shape names
/// them: `Type::ctor(..)` or a call to a function with a known return.
fn init_type(e: &Expr, fn_returns: &BTreeMap<String, Vec<String>>) -> Option<Vec<String>> {
    match e {
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } if segs.len() >= 2 => {
                let ty = &segs[segs.len() - 2];
                ty.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_uppercase())
                    .then(|| vec![ty.clone()])
            }
            Expr::Path { segs, .. } if segs.len() == 1 => fn_returns.get(&segs[0]).cloned(),
            _ => None,
        },
        Expr::Method { name, .. } if name == "clone" => None,
        _ => None,
    }
}

/// Resolves the type identifiers of `e` against a [`TypeEnv`], the
/// enclosing impl's struct fields, and the workspace function-return map.
/// Returns an empty vec when unknown.
pub fn expr_type(
    e: &Expr,
    tenv: &TypeEnv,
    self_fields: Option<&BTreeMap<String, Vec<String>>>,
    fn_returns: &BTreeMap<String, Vec<String>>,
) -> Vec<String> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => tenv
            .get(&segs[0])
            .map(<[String]>::to_vec)
            .unwrap_or_default(),
        Expr::Unary { expr, .. } => expr_type(expr, tenv, self_fields, fn_returns),
        Expr::Field { recv, name, .. } if recv.as_var() == Some("self") => self_fields
            .and_then(|f| f.get(name))
            .cloned()
            .unwrap_or_default(),
        Expr::Index { recv, .. } => expr_type(recv, tenv, self_fields, fn_returns),
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } if segs.len() >= 2 => {
                let ty = &segs[segs.len() - 2];
                if ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    vec![ty.clone()]
                } else {
                    Vec::new()
                }
            }
            Expr::Path { segs, .. } if segs.len() == 1 => {
                fn_returns.get(&segs[0]).cloned().unwrap_or_default()
            }
            _ => Vec::new(),
        },
        Expr::Method { recv, name, .. } if TYPE_PRESERVING.contains(&name.as_str()) => {
            expr_type(recv, tenv, self_fields, fn_returns)
        }
        _ => Vec::new(),
    }
}

/// Everything the flow rules see: the collected files, their parsed ASTs
/// (parallel by index), per-file struct tables, and the function-return
/// map.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// Collected source files, as discovered by the engine.
    pub files: &'a [SourceFile],
    /// `asts[i]` is the parse of `files[i]`.
    pub asts: Vec<ast::File>,
    /// `tables[i]` is the struct table of `files[i]`.
    pub tables: Vec<StructTable>,
    /// Function name -> return-type identifiers, library code only,
    /// dropped on cross-file disagreement.
    pub fn_returns: BTreeMap<String, Vec<String>>,
}

impl<'a> Workspace<'a> {
    /// Parses every file and builds the shared analysis context.
    pub fn build(files: &'a [SourceFile]) -> Workspace<'a> {
        let asts: Vec<ast::File> = files.iter().map(|f| ast::parse(&f.tokens)).collect();
        let tables: Vec<StructTable> = asts.iter().map(struct_table).collect();
        let mut fn_returns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut ambiguous: Vec<String> = Vec::new();
        for (file, tree) in files.iter().zip(&asts) {
            if file.kind != FileKind::Lib {
                continue;
            }
            ast::for_each_fn(tree, &mut |_, fd| {
                if fd.ret.is_empty() {
                    return;
                }
                match fn_returns.get(&fd.name) {
                    None => {
                        fn_returns.insert(fd.name.clone(), fd.ret.clone());
                    }
                    Some(prev) if *prev != fd.ret => ambiguous.push(fd.name.clone()),
                    Some(_) => {}
                }
            });
        }
        for name in ambiguous {
            fn_returns.remove(&name);
        }
        Workspace {
            files,
            asts,
            tables,
            fn_returns,
        }
    }

    /// Calls `f(file_index, impl_type, fn)` for every function of a
    /// `Lib`/`Bin` file outside `#[cfg(test)]` modules, in file and
    /// source order: the code the flow rules check.
    pub fn for_each_code_fn<'s>(&'s self, f: &mut dyn FnMut(usize, Option<&'s str>, &'s FnDef)) {
        for (idx, (file, tree)) in self.files.iter().zip(&self.asts).enumerate() {
            if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
                continue;
            }
            ast::for_each_fn(tree, &mut |impl_ty, fd| {
                if !file.in_test_mod(fd.line) {
                    f(idx, impl_ty, fd);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ast::File {
        ast::parse(&lex(src))
    }

    #[test]
    fn struct_table_records_field_types() {
        let t = tree("struct PageTable { entries: RadixTable<Pte>, epoch: u64 }");
        let table = struct_table(&t);
        assert!(table["PageTable"]["entries"].contains(&"RadixTable".to_string()));
        assert!(table["PageTable"]["epoch"].contains(&"u64".to_string()));
    }

    #[test]
    fn type_env_from_params_and_lets() {
        let t = tree(
            "fn f(b: Bytes, n: u64) { let p = Pages::new(n); let m: HashMap<u64, u64> = HashMap::new(); let q = helper(); }",
        );
        let mut returns = BTreeMap::new();
        returns.insert("helper".to_string(), vec!["SimNs".to_string()]);
        let mut seen = false;
        ast::for_each_fn(&t, &mut |_, fd| {
            let env = fn_type_env(fd, &returns);
            assert_eq!(env.get("b"), Some(&["Bytes".to_string()][..]));
            assert_eq!(env.get("p"), Some(&["Pages".to_string()][..]));
            assert!(mentions_hash(env.get("m").unwrap_or(&[])));
            assert_eq!(env.get("q"), Some(&["SimNs".to_string()][..]));
            assert!(env.get("n").is_some());
            seen = true;
        });
        assert!(seen);
    }

    #[test]
    fn expr_type_resolves_self_fields() {
        let t = tree("struct S { len: Bytes }\nimpl S { fn f(&self) -> u64 { self.len.get() } }");
        let table = struct_table(&t);
        let fields = table.get("S");
        let mut ok = false;
        ast::for_each_fn(&t, &mut |_, fd| {
            let env = fn_type_env(fd, &BTreeMap::new());
            // `self.len` inside the body:
            if let Some(Expr::Method { recv, .. }) =
                fd.body.as_ref().and_then(|b| b.tail.as_deref())
            {
                let ty = expr_type(recv, &env, fields, &BTreeMap::new());
                assert_eq!(first_unit(&ty), Some("Bytes"));
                ok = true;
            }
        });
        assert!(ok);
    }

    #[test]
    fn ambiguous_fn_returns_are_dropped() {
        let files = vec![
            SourceFile::parse(
                "a/src/lib.rs",
                "a",
                FileKind::Lib,
                "pub fn size() -> Bytes { Bytes::new(1) }",
            ),
            SourceFile::parse(
                "b/src/lib.rs",
                "b",
                FileKind::Lib,
                "pub fn size() -> Pages { Pages::new(1) }\npub fn uniq() -> SimNs { SimNs::new(0) }",
            ),
        ];
        let ws = Workspace::build(&files);
        assert!(!ws.fn_returns.contains_key("size"));
        assert_eq!(ws.fn_returns["uniq"], vec!["SimNs".to_string()]);
    }

    #[test]
    fn test_mod_fns_are_excluded() {
        let files = vec![SourceFile::parse(
            "a/src/lib.rs",
            "a",
            FileKind::Lib,
            "fn real() {}\n#[cfg(test)]\nmod tests { fn fake() {} }",
        )];
        let ws = Workspace::build(&files);
        let mut names = Vec::new();
        ws.for_each_code_fn(&mut |_, _, fd| names.push(fd.name.clone()));
        assert_eq!(names, ["real"]);
    }
}
