//! Rendering of audit findings — human text, and SARIF 2.1.0 for CI
//! annotations. Both are deterministic, like everything else in this
//! workspace; the SARIF JSON is hand-rolled because the audit crate is
//! dependency-free on purpose.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders findings as `path:line: [rule] message` lines plus a per-rule
/// summary. Empty findings render the all-clear line.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg);
    }
    if findings.is_empty() {
        out.push_str("gh-audit: workspace clean (0 findings)\n");
    } else {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for f in findings {
            *by_rule.entry(f.rule).or_insert(0) += 1;
        }
        let _ = writeln!(out, "\ngh-audit: {} finding(s)", findings.len());
        for (rule, n) in by_rule {
            let _ = writeln!(out, "  {rule:<38} {n}");
        }
    }
    out
}

/// Escapes `s` for a JSON string body (quotes, backslashes, control
/// characters).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders findings as a minimal SARIF 2.1.0 log (one run, one result per
/// finding) so CI can surface them as code annotations.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut rules_seen: Vec<&str> = Vec::new();
    for f in findings {
        if !rules_seen.contains(&f.rule) {
            rules_seen.push(f.rule);
        }
    }
    rules_seen.sort_unstable();
    let mut out = String::from(
        "{\n  \"version\": \"2.1.0\",\n  \
         \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"runs\": [{\n    \"tool\": {\"driver\": {\"name\": \"gh-audit\", \"rules\": [",
    );
    for (i, r) in rules_seen.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"id\": \"");
        esc(r, &mut out);
        out.push_str("\"}");
    }
    out.push_str("]}},\n    \"results\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      {\"ruleId\": \"");
        esc(f.rule, &mut out);
        out.push_str("\", \"level\": \"error\", \"message\": {\"text\": \"");
        esc(&f.msg, &mut out);
        out.push_str(
            "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"",
        );
        esc(&f.path, &mut out);
        let _ = write!(
            out,
            "\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.line
        );
    }
    if !findings.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_render() {
        assert!(render(&[]).contains("workspace clean"));
    }

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "no-platform-leak",
            path: "a/src/lib.rs".into(),
            line: 3,
            msg: "names \"CostParams\"\nuse gh_sim::platform".into(),
        }]
    }

    #[test]
    fn sarif_has_schema_rules_and_results() {
        // The renderer derives rule ids from findings, so every rule
        // surfaces without any registry edit.
        const MORE_RULES: [&str; 2] = ["unit-launder", "typed-units"];
        let mut findings = sample();
        findings.extend(MORE_RULES.map(|rule| Finding {
            rule,
            path: "crates/jobs/src/lib.rs".into(),
            line: 1,
            msg: "m".into(),
        }));
        let s = render_sarif(&findings);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"gh-audit\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("\"uri\": \"a/src/lib.rs\""));
        assert!(
            s.contains("names \\\"CostParams\\\"\\nuse gh_sim::platform"),
            "{s}"
        );
        for r in ["no-platform-leak"].into_iter().chain(MORE_RULES) {
            assert!(s.contains(&format!("{{\"id\": \"{r}\"}}")), "{r}");
            assert!(s.contains(&format!("\"ruleId\": \"{r}\"")), "{r}");
        }
    }

    #[test]
    fn sarif_empty_run_is_valid_shape() {
        let s = render_sarif(&[]);
        assert!(s.contains("\"results\": []"));
        assert!(s.contains("\"rules\": []"));
    }

    #[test]
    fn findings_render_with_summary() {
        let fs = vec![
            Finding {
                rule: "typed-units",
                path: "a/src/lib.rs".into(),
                line: 3,
                msg: "m".into(),
            },
            Finding {
                rule: "typed-units",
                path: "b/src/lib.rs".into(),
                line: 9,
                msg: "m".into(),
            },
        ];
        let r = render(&fs);
        assert!(r.contains("a/src/lib.rs:3: [typed-units] m"));
        assert!(r.contains("2 finding(s)"));
        assert!(r.contains("typed-units"));
    }
}
