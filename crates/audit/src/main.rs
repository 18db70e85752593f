//! `gh-audit` CLI: scan the workspace, print findings, gate CI.
//!
//! ```text
//! gh-audit [--root <dir>] [--rule <name>[,<name>...]]...
//!          [--format text|json|sarif] [--deny] [--list-rules]
//! ```
//!
//! Findings go to stdout in the selected format; the `scanned N files`
//! stats line goes to stderr so machine formats stay parseable. Timing is
//! left to the caller (CI) — the audit binary itself reads no clocks, by
//! the workspace clippy config's `disallowed-methods`.
//!
//! Exit codes: 0 clean (or findings without `--deny`), 1 findings with
//! `--deny`, 2 usage error.

use gh_audit::engine::audit_workspace_with_stats;
use gh_audit::{report, rules, AuditConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: gh-audit [--root <dir>] [--rule <name>[,<name>...]]... \
                     [--format text|json|sarif] [--deny] [--list-rules]";

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut cfg = AuditConfig::new(std::env::current_dir().unwrap_or_else(|_| ".".into()));
    let mut deny = false;
    let mut format = Format::Text;
    let args = std::env::args_os().skip(1).map(|a| a.into_string());
    let mut args = match args.collect::<Result<Vec<String>, _>>() {
        Ok(args) => args.into_iter(),
        Err(a) => return usage(&format!("argument '{}' is not UTF-8", a.to_string_lossy())),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => cfg.root = dir.into(),
                None => return usage("--root needs a directory"),
            },
            "--rule" => match args.next() {
                // Comma-separated lists let CI request a rule subset in
                // one flag: `--rule no-float-eq,unit-launder`.
                Some(names) => {
                    for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                        if !rules::rule_names().contains(&name) {
                            return usage(&format!("unknown rule '{name}' (try --list-rules)"));
                        }
                        cfg.only_rules.insert(name.to_string());
                    }
                }
                None => return usage("--rule needs a rule name"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                Some(other) => {
                    return usage(&format!("unknown format '{other}' (text, json, sarif)"))
                }
                None => return usage("--format needs one of: text, json, sarif"),
            },
            "--list-rules" => {
                for r in rules::all_rules() {
                    println!("{:<38} {}", r.name(), r.describe());
                }
                println!(
                    "{:<38} allow directives are well-formed and carry a reason",
                    gh_audit::engine::ALLOW_SYNTAX
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }
    match audit_workspace_with_stats(&cfg) {
        Ok((findings, stats)) => {
            let rendered = match format {
                Format::Text => report::render(&findings),
                Format::Json => report::render_json(&findings),
                Format::Sarif => report::render_sarif(&findings),
            };
            print!("{rendered}");
            // CI greps `scanned N files` — keep that prefix stable.
            eprintln!(
                "gh-audit: scanned {} files, {} finding(s)",
                stats.files_scanned,
                findings.len()
            );
            if deny && !findings.is_empty() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("gh-audit: {msg}\n{USAGE}");
    ExitCode::from(2)
}
