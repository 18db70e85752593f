//! The `gh-audit` binary's argument handling.

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_exits_2_with_the_usage_line() {
    use std::os::unix::ffi::OsStringExt;

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gh-audit"))
        .arg("--rule")
        .arg(std::ffi::OsString::from_vec(b"\xff".to_vec()))
        .output()
        .expect("spawn gh-audit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.starts_with("gh-audit: argument '\u{fffd}' is not UTF-8\nusage: gh-audit"),
        "{stderr}"
    );
}

#[test]
fn the_json_format_is_gone_and_exits_2_with_the_usage_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gh-audit"))
        .args(["--format", "json"])
        .output()
        .expect("spawn gh-audit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.starts_with("gh-audit: unknown format 'json' (text, sarif)\nusage: gh-audit"),
        "{stderr}"
    );
}
