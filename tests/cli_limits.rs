//! Sizes the platform cannot hold are usage errors (exit 2), never a
//! wrapped size or a panic: `grace-mem qv` bounds the statevector, and
//! `grace-mem replay` bounds a trace's live footprint, by the same
//! `Machine::capacity`. A replay's compute units saturate, never wrap.
//! A flag its subcommand does not honour is a usage error too.

use std::process::{Command, Output};

use grace_mem::sim::BufKind;
use grace_mem::{platform, qsim};

fn grace_mem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grace-mem"))
        .args(args)
        // The sanitizer is observation-only; off, the largest runs stay fast.
        .env("GH_SANITIZE", "0")
        .output()
        .expect("spawn grace-mem")
}

/// Runs `args`, asserting it exits with `code` and no panic.
fn checked(args: &[&str], code: i32) -> Output {
    let out = grace_mem(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out
}

/// Asserts `args` exits with `code` and no panic; returns its stderr.
fn exits(args: &[&str], code: i32) -> String {
    String::from_utf8_lossy(&checked(args, code).stderr).into_owned()
}

#[test]
fn qv_admits_exactly_the_statevectors_the_platform_holds() {
    for p in platform::all() {
        let name = p.caps().name;
        for (mode, kind) in [
            ("explicit", BufKind::Pinned),
            ("system", BufKind::System),
            ("managed", BufKind::Managed),
        ] {
            let cap = p.machine().capacity(kind);
            let largest = (2..64)
                .take_while(|&q| qsim::statevector_bytes(q).is_some_and(|sv| sv <= cap))
                .last()
                .expect("a 2-qubit statevector fits");
            let q = largest.to_string();
            exits(&["qv", &q, "--platform", name, "--mode", mode], 0);
            let next = (largest + 1).to_string();
            let err = exits(&["qv", &next, "--platform", name, "--mode", mode], 2);
            assert!(
                err.contains("does not fit"),
                "{name} {mode} qv {next}: {err}"
            );
        }
    }
    // Sizes a u64 cannot hold, and sizes it wraps to zero or a few bytes.
    for q in ["61", "63", "64", "70"] {
        exits(&["qv", q], 2);
    }
}

#[test]
fn replay_rejects_allocations_the_platform_cannot_hold() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, trace) in [
        "alloc a system 18446744073709551615\nkernel k\n  read a 0 64k\nend\n",
        "alloc a system 268435456g\n",
        "alloc a system 1g\ncpu_write a 0 1g\n",
        "alloc a pinned 200g\n",
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("oversized{i}.trace"));
        std::fs::write(&path, trace).expect("write trace");
        let path = path.to_str().expect("utf-8 path");
        let err = exits(&["replay", path], 2);
        assert!(err.contains("trace line 1:"), "{trace:?}: {err}");
    }
}

#[test]
fn compute_units_saturate_instead_of_wrapping() {
    // One path for both traces, so the report headers match too.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compute.trace");
    let replay = |units: &[&str]| {
        let body: String = units.iter().map(|u| format!("  compute {u}\n")).collect();
        std::fs::write(&path, format!("kernel k\n{body}end\n")).expect("write trace");
        checked(&["replay", path.to_str().expect("utf-8 path")], 0).stdout
    };
    let max = "18446744073709551615";
    assert_eq!(replay(&[max, max]), replay(&[max]));
}

#[test]
fn platform_errors_exit_2_with_the_cli_prefix() {
    for args in [
        &["app", "needle", "--small", "--page", "2m"][..],
        &["app", "needle", "--small", "--platform", "foo"][..],
    ] {
        let err = exits(args, 2);
        assert!(err.starts_with("grace-mem: "), "{args:?}: {err}");
    }
}

#[test]
fn each_subcommand_takes_exactly_the_flags_it_honours() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flags.json");
    let out = out.to_str().expect("utf-8 path");
    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/example.trace");
    let flags: [&[&str]; 13] = [
        &["--platform", "gh200"],
        &["--mode", "system"],
        &["--page", "64k"],
        &["--no-migration"],
        &["--oversubscribe", "1.5"],
        &["--small"],
        &["--prefetch"],
        &["--amplitudes"],
        &["--json"],
        &["--trace-out", out],
        &["--jobs", "2"],
        &["--perf"],
        &["--perf-out", out],
    ];
    let run = [
        "--platform",
        "--mode",
        "--page",
        "--no-migration",
        "--json",
        "--trace-out",
        "--perf",
        "--perf-out",
    ];
    // (cheap invocation, the flags it honours)
    let subcommands: [(&[&str], Vec<&str>); 6] = [
        (
            &["app", "hotspot", "--small"],
            [&run[..], &["--oversubscribe", "--small"]].concat(),
        ),
        (&["app", "stream"], run.to_vec()),
        (
            &["qv", "4"],
            [&run[..], &["--prefetch", "--amplitudes"]].concat(),
        ),
        (&["replay", trace], run.to_vec()),
        (&["advise", trace], vec!["--platform"]),
        (&["suite", "--small"], vec!["--jobs", "--small"]),
    ];
    for (base, honoured) in &subcommands {
        for flag in flags {
            let args = [base, flag].concat();
            if honoured.contains(&flag[0]) {
                checked(&args, 0);
            } else {
                let err = exits(&args, 2);
                assert!(
                    err.contains(&format!("does not take {}", flag[0])),
                    "{args:?}: {err}"
                );
            }
        }
    }
}
