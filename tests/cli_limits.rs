//! Sizes the platform cannot hold are usage errors (exit 2), never a
//! wrapped size or a panic: `grace-mem qv` bounds the statevector, and
//! `grace-mem replay` bounds a trace's live footprint, by the same
//! `Machine::capacity`. A replay's compute units saturate, never wrap.
//! A flag its subcommand does not honour is a usage error too, and so are
//! `--oversubscribe` in explicit mode and a stdout that takes no output.
//! On a platform with no balloon, `--oversubscribe` only adds its note;
//! elsewhere, a balloon that leaves less GPU memory free than the app's
//! GPU-only buffers take exits 2 before the run.
//! Generated hostile argument vectors (non-UTF-8 bytes, empty, negative,
//! non-finite or overflowing values, unknown flags, a flag missing its
//! value) exit 2 with a one-line error, never a panic.

use std::process::{Command, Output, Stdio};

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
fn a_closed_stdout_exits_2_without_a_panic() {
    for args in [&["list"][..], &["suite", "--small"][..]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        // With no reader left, the first write fails with a broken pipe.
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_grace-mem"))
            .args(args)
            .env("GH_SANITIZE", "0")
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn grace-mem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("grace-mem: cannot write stdout"),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
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
fn oversubscribe_needs_a_unified_mode() {
    for app in grace_mem::AppId::ALL {
        for (mode, code) in [("explicit", 2), ("system", 0), ("managed", 0)] {
            let args = [
                "app",
                app.name(),
                "--small",
                "--mode",
                mode,
                "--oversubscribe",
                "1.5",
            ];
            let err = exits(&args, code);
            if code == 2 {
                assert!(
                    err.starts_with("grace-mem: ")
                        && err.contains("--oversubscribe needs --mode system or managed"),
                    "{args:?}: {err}"
                );
            }
        }
    }
}

#[test]
fn a_balloon_that_leaves_no_room_for_gpu_only_buffers_exits_2() {
    // hotspot's scratch grid and pathfinder's result rows stay GPU-only in
    // every mode, and no eviction makes room for them.
    let expect_one_line = |args: &[&str], app: &str, ratio: &str| {
        let err = exits(args, 2);
        let head = format!("grace-mem: app {app}: --oversubscribe {ratio} leaves ");
        assert!(
            err.starts_with(&head) && err.contains(" short of the ") && err.contains(app),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    };
    for app in ["hotspot", "pathfinder"] {
        for mode in ["system", "managed"] {
            for page in ["4k", "64k"] {
                let args = [
                    "app",
                    app,
                    "--small",
                    "--mode",
                    mode,
                    "--page",
                    page,
                    "--oversubscribe",
                    "4",
                ];
                expect_one_line(&args, app, "4");
            }
        }
    }
    for (mode, ratio) in [("managed", "4.0"), ("system", "4.0"), ("system", "8.0")] {
        let args = ["app", "hotspot", "--mode", mode, "--oversubscribe", ratio];
        expect_one_line(&args, "hotspot", &ratio.replace(".0", ""));
    }
}

#[test]
fn oversubscribe_on_mi300a_only_adds_its_note() {
    // One physical pool holds no balloon, so the run (and the calibration
    // run that sizes a balloon elsewhere) has nothing to change.
    let note = "n/a: oversubscription (ratio 1.5) not applicable on mi300a: \
                single physical pool, no balloon to install";
    for app in grace_mem::AppId::ALL {
        let plain = ["app", app.name(), "--small", "--platform", "mi300a"];
        let over = [&plain[..], &["--oversubscribe", "1.5"]].concat();
        let stdout = |args: &[&str]| String::from_utf8_lossy(&checked(args, 0).stdout).into_owned();
        let (plain, over) = (stdout(&plain), stdout(&over));
        let rest: Vec<&str> = over.lines().filter(|l| *l != note).collect();
        assert_eq!(
            rest.len() + 1,
            over.lines().count(),
            "{}: {over}",
            app.name()
        );
        assert_eq!(rest, plain.lines().collect::<Vec<_>>(), "{}", app.name());
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

/// SplitMix64: a seeded stream, so a failing vector replays.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[cfg(unix)]
#[test]
fn hostile_arguments_exit_2_with_a_one_line_error() {
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;

    let trace = concat!(env!("CARGO_MANIFEST_DIR"), "/traces/example.trace");
    // Each subcommand's own flags with valid values; `--trace-out` and
    // `--perf-out` write files, so they stay out.
    let run = [
        &["--platform", "mi300a"][..],
        &["--mode", "managed"],
        &["--page", "4k"],
        &["--no-migration"],
        &["--json"],
        &["--perf"],
    ];
    let subcommands: [(&[&str], Vec<&[&str]>); 7] = [
        (&["list"], vec![]),
        (
            &["app", "srad"],
            [&run[..], &[&["--oversubscribe", "1.5"], &["--small"]]].concat(),
        ),
        (&["app", "lud"], run.to_vec()),
        (
            &["qv", "4"],
            [&run[..], &[&["--prefetch"], &["--amplitudes"]]].concat(),
        ),
        (&["replay", trace], run.to_vec()),
        (&["advise", trace], vec![&["--platform", "gh200"]]),
        (&["suite"], vec![&["--jobs", "2"], &["--small"]]),
    ];
    let not_utf8: [&[u8]; 3] = [b"\xff", b"--\xfe", b"/tmp/caf\xe9.trace"];
    let tokens = [
        "",
        "-1",
        "0",
        "nan",
        "1e309",
        "18446744073709551616",
        "--bogus",
    ];
    let mut rng = Rng(29);
    for _ in 0..64 {
        let (prefix, flags) = &subcommands[rng.below(subcommands.len())];
        let mut argv: Vec<OsString> = prefix.iter().map(OsString::from).collect();
        for _ in 0..rng.below(5) {
            if let Some(flag) = flags.get(rng.below(flags.len())) {
                argv.extend(flag.iter().map(OsString::from));
            }
        }
        match rng.below(tokens.len() + 2) {
            // A value-taking flag with nothing after it.
            0 => {
                let takes_value = flags.iter().filter(|f| f.len() == 2).map(|f| f[0]);
                let takes_value: Vec<&str> = takes_value.collect();
                let flag = takes_value.get(rng.below(takes_value.len()));
                argv.push(flag.copied().unwrap_or("--mode").into());
            }
            k => {
                let token = match tokens.get(k - 1) {
                    Some(&t) => OsString::from(t),
                    None => OsString::from_vec(not_utf8[rng.below(not_utf8.len())].to_vec()),
                };
                argv.insert(rng.below(argv.len() + 1), token);
            }
        }
        let out = Command::new(env!("CARGO_BIN_EXE_grace-mem"))
            .args(&argv)
            .env("GH_SANITIZE", "0")
            .output()
            .expect("spawn grace-mem");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(
            first.starts_with("grace-mem:") || first.starts_with("usage:"),
            "{argv:?}: {stderr}"
        );
    }
}
