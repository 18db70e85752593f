//! Workspace walker and rule driver: discovers source files, classifies
//! them, runs every rule over each file's token stream, applies allow
//! directives, and reports malformed directives.

use crate::rules::{self, Finding};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the meta rule that reports malformed allow directives.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Workspace root (directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// When non-empty, only these rules report findings.
    pub only_rules: BTreeSet<String>,
}

impl AuditConfig {
    /// Audits the workspace rooted at `root` with all rules enabled.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        AuditConfig {
            root: root.into(),
            only_rules: BTreeSet::new(),
        }
    }
}

/// An engine failure (I/O with path context — rule findings are not
/// errors).
#[derive(Debug)]
pub struct AuditError {
    /// Path that failed.
    pub path: PathBuf,
    /// Underlying I/O error.
    pub source: std::io::Error,
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gh-audit: {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for AuditError {}

fn io_err(path: &Path, source: std::io::Error) -> AuditError {
    AuditError {
        path: path.to_path_buf(),
        source,
    }
}

/// Runs the full audit and returns findings sorted by path, line, rule.
pub fn audit_workspace(cfg: &AuditConfig) -> Result<Vec<Finding>, AuditError> {
    audit_workspace_with_stats(cfg).map(|(findings, _)| findings)
}

/// Audit statistics alongside the findings (for CI telemetry).
#[derive(Debug, Clone, Copy)]
pub struct AuditStats {
    /// Number of source files collected and scanned. Fixture trees under
    /// a `tests/fixtures/` directory are never collected, so seeded
    /// violations can neither fire nor inflate this count.
    pub files_scanned: usize,
}

/// Like [`audit_workspace`], also reporting scan statistics.
pub fn audit_workspace_with_stats(
    cfg: &AuditConfig,
) -> Result<(Vec<Finding>, AuditStats), AuditError> {
    let files = collect_files(&cfg.root)?;
    let mut findings = Vec::new();
    let rules = rules::all_rules();
    for f in &files {
        for rule in &rules {
            rule.check_file(f, &mut findings);
        }
    }
    // Allow filtering, then malformed-directive reporting.
    findings.retain(|f| {
        let file = files.iter().find(|s| s.rel_path == f.path);
        !file.map(|s| s.is_allowed(f.rule, f.line)).unwrap_or(false)
    });
    let known: BTreeSet<&str> = rules::rule_names().into_iter().collect();
    for f in &files {
        for a in &f.allows {
            // A directive can be wrong in several ways at once (reasonless
            // AND naming unknown rules); report each problem, not just the
            // first.
            let mut msgs = Vec::new();
            if a.rules.is_empty() {
                msgs.push(
                    "malformed gh-audit directive; expected `gh-audit: allow(<rule>) -- <reason>`"
                        .to_string(),
                );
            } else {
                if !a.has_reason {
                    msgs.push(format!(
                        "allow({}) has no `-- <reason>`; suppressions must say why",
                        a.rules.join(", ")
                    ));
                }
                for r in a.rules.iter().filter(|r| !known.contains(r.as_str())) {
                    msgs.push(format!("allow names unknown rule `{r}`"));
                }
            }
            for msg in msgs {
                findings.push(Finding {
                    rule: ALLOW_SYNTAX,
                    path: f.rel_path.clone(),
                    line: a.at,
                    msg,
                });
            }
        }
    }
    if !cfg.only_rules.is_empty() {
        findings.retain(|f| cfg.only_rules.contains(f.rule));
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    let stats = AuditStats {
        files_scanned: files.len(),
    };
    Ok((findings, stats))
}

/// Discovers and parses every auditable `.rs` file under the workspace.
///
/// Skipped on purpose: `target/` (build output), `shims/` (vendored
/// stand-ins for external crates — not our code to lint), hidden dirs,
/// and the audit crate's own `tests/fixtures/` (seeded violations).
pub fn collect_files(root: &Path) -> Result<Vec<SourceFile>, AuditError> {
    let mut out = Vec::new();
    // Root package.
    let root_pkg = package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "root".to_string());
    collect_package(root, root, &root_pkg, &mut out)?;
    // Member crates under crates/.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for dir in sorted_dirs(&crates_dir)? {
            let name = package_name(&dir.join("Cargo.toml")).unwrap_or_else(|| {
                dir.file_name()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
            collect_package(root, &dir, &name, &mut out)?;
        }
    }
    Ok(out)
}

/// Collects the standard target dirs of one package rooted at `pkg`.
fn collect_package(
    root: &Path,
    pkg: &Path,
    name: &str,
    out: &mut Vec<SourceFile>,
) -> Result<(), AuditError> {
    for (sub, kind) in [
        ("src", FileKind::Lib),
        ("tests", FileKind::Test),
        ("benches", FileKind::Bench),
        ("examples", FileKind::Example),
    ] {
        let dir = pkg.join(sub);
        if dir.is_dir() {
            collect_rs(root, &dir, name, kind, out)?;
        }
    }
    let build = pkg.join("build.rs");
    if build.is_file() {
        out.push(parse_one(root, &build, name, FileKind::Build)?);
    }
    Ok(())
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> Result<(), AuditError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let fname = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        if fname.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            // Fixture trees are skipped only under `tests/`: those hold
            // seeded violations for the audit's own tests. A `src/`
            // module that happens to be named `fixtures` is real code
            // and stays in scope (and in the stats line's file count).
            if fname == "target" || (fname == "fixtures" && kind == FileKind::Test) {
                continue;
            }
            let sub_kind = if fname == "bin" && kind == FileKind::Lib {
                FileKind::Bin
            } else {
                kind
            };
            collect_rs(root, &path, crate_name, sub_kind, out)?;
        } else if fname.ends_with(".rs") {
            let file_kind = if kind == FileKind::Lib && fname == "main.rs" {
                FileKind::Bin
            } else {
                kind
            };
            out.push(parse_one(root, &path, crate_name, file_kind)?);
        }
    }
    Ok(())
}

fn parse_one(
    root: &Path,
    path: &Path,
    crate_name: &str,
    kind: FileKind,
) -> Result<SourceFile, AuditError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(SourceFile::parse(&rel, crate_name, kind, &text))
}

fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, AuditError> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Extracts `name = "..."` from a `[package]` section (line-oriented; the
/// workspace's manifests are all simple).
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_simple_manifest() {
        let dir = std::env::temp_dir().join("gh-audit-test-manifest");
        fs::create_dir_all(&dir).expect("tempdir");
        let p = dir.join("Cargo.toml");
        fs::write(
            &p,
            "[package]\nname = \"gh-example\"\nversion = \"0.1.0\"\n",
        )
        .expect("write");
        assert_eq!(package_name(&p).as_deref(), Some("gh-example"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixtures_are_skipped_under_tests_but_not_under_src() {
        let dir = std::env::temp_dir().join("gh-audit-test-fixture-scope");
        let _ = fs::remove_dir_all(&dir);
        for sub in ["src/fixtures", "tests/fixtures"] {
            fs::create_dir_all(dir.join(sub)).expect("tempdir");
        }
        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"gh-scope\"\nversion = \"0.0.0\"\n",
        )
        .expect("write");
        fs::write(dir.join("src/lib.rs"), "pub mod fixtures;\n").expect("write");
        fs::write(dir.join("src/fixtures/mod.rs"), "pub fn real() {}\n").expect("write");
        fs::write(dir.join("tests/smoke.rs"), "#[test]\nfn t() {}\n").expect("write");
        fs::write(
            dir.join("tests/fixtures/seeded.rs"),
            "pub fn planted() { f64::NAN == 0.0; }\n",
        )
        .expect("write");
        let files = collect_files(&dir).expect("collect");
        let paths: Vec<&str> = files.iter().map(|f| f.rel_path.as_str()).collect();
        assert!(
            paths.contains(&"src/fixtures/mod.rs"),
            "src modules named fixtures are real code: {paths:?}"
        );
        assert!(
            paths.contains(&"tests/smoke.rs"),
            "ordinary tests stay in scope: {paths:?}"
        );
        assert!(
            !paths.iter().any(|p| p.starts_with("tests/fixtures/")),
            "seeded fixture trees must not be scanned: {paths:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fixture_trees_are_outside_audit_scope() {
        // The engine auditing this very workspace must not pick up the
        // seeded/clean twins (which would both fire rules and pad the
        // stats line's file count).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("collect");
        assert!(
            files
                .iter()
                .all(|f| !f.rel_path.contains("tests/fixtures/")),
            "fixture files leaked into the audit scope"
        );
    }

    #[test]
    fn workspace_manifest_without_package_yields_none() {
        let dir = std::env::temp_dir().join("gh-audit-test-manifest-ws");
        fs::create_dir_all(&dir).expect("tempdir");
        let p = dir.join("Cargo.toml");
        fs::write(&p, "[workspace]\nmembers = [\"a\"]\n").expect("write");
        assert_eq!(package_name(&p), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
