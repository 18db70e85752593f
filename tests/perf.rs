//! gh-perf quarantine: the host-side self-profiler must measure real
//! host time without perturbing a single bit of simulated output, and
//! the CLI surface around it must fail with typed exit codes.
//!
//! Note on sanitizer interplay: `cargo test` builds are debug builds, so
//! the runtime invariant sanitizer is always armed here (the same
//! machinery `GH_SANITIZE=1` forces in release builds) and its verdict
//! is part of `RunReport::to_json()` — the byte-equality assertions
//! below therefore also prove profiling does not disturb sanitized runs.

use grace_mem::{platform, AppId, MachineConfig, MemMode, RunReport, SessionOptions};

fn run(mode: MemMode) -> RunReport {
    AppId::Hotspot.run_small(platform::gh200().machine(), mode)
}

/// Session spec with the self-profiler armed.
fn perf_opts() -> SessionOptions {
    SessionOptions {
        perf: true,
        ..Default::default()
    }
}

/// Runs hotspot under an armed profiler and returns both the report and
/// the drained profile.
fn run_profiled(mode: MemMode) -> (RunReport, gh_perf::PerfData) {
    let m = platform::gh200()
        .machine_session(&MachineConfig::default(), &perf_opts())
        .expect("default config is valid");
    let perf = m.rt.session().perf.clone();
    let r = AppId::Hotspot.run_small(m, mode);
    (r, perf.take())
}

#[test]
fn profiling_does_not_change_run_reports() {
    for mode in MemMode::ALL {
        let plain = run(mode);
        let (profiled, perf) = run_profiled(mode);

        assert_eq!(
            plain.to_json(),
            profiled.to_json(),
            "{mode}: RunReport must be bitwise-identical with profiling on"
        );
        // And the profiler must have actually measured the run.
        assert!(perf.host_total_ns > 0, "{mode}: host clock must tick");
        assert!(perf.sim_total_ns > 0, "{mode}: virtual clock must tick");
        assert!(
            perf.sim_speed().is_some_and(|s| s > 0.0),
            "{mode}: sim-speed ratio must be positive"
        );
    }
}

#[test]
fn perf_data_covers_phases_spans_and_counters() {
    for p in platform::all() {
        let m = p
            .machine_session(&MachineConfig::default(), &perf_opts())
            .expect("default config is valid");
        let perf = m.rt.session().perf.clone();
        let r = AppId::Hotspot.run_small(m, MemMode::Managed);
        let perf = perf.take();

        assert!(!perf.phases.is_empty(), "{}: no phases", p.caps().name);
        assert!(
            perf.phases.iter().any(|ph| ph.host_ns > 0),
            "{}: all phase host times zero",
            p.caps().name
        );
        assert!(
            perf.phases.iter().map(|ph| ph.sim_ns).sum::<u64>() > 0,
            "{}: phases carry no virtual time",
            p.caps().name
        );
        // Kernel launches open host-time spans and bump the counter.
        assert!(!perf.spans.is_empty(), "{}: no spans", p.caps().name);
        assert!(
            perf.spans.iter().any(|s| s.path.contains("kernel:")),
            "{}: kernel spans missing: {:?}",
            p.caps().name,
            perf.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
        assert_eq!(
            perf.counter("cuda.kernel_launches"),
            r.kernels.len() as u64,
            "{}: launch counter must match the report's kernel list",
            p.caps().name
        );
        assert!(
            perf.counter("tlb.walks") > 0,
            "{}: TLB walks must be counted",
            p.caps().name
        );
    }
}

#[test]
fn take_rearms_a_fresh_window() {
    // Two machines share one session (cloned handles reach the same
    // collector); take() between runs must leave the window re-armed.
    let session = grace_mem::SessionCtx::with_options(Default::default(), &perf_opts());
    let perf = session.perf.clone();
    let caps = platform::gh200().caps();
    let machine = || {
        grace_mem::Machine::with_session(
            // gh-audit: allow(no-platform-leak) -- sharing one session across two machines needs the raw constructor; the platform trait builds a fresh session per machine by design
            grace_mem::mem::params::CostParams::default(),
            session.clone(),
            caps,
        )
    };
    AppId::Hotspot.run_small(machine(), MemMode::System);
    let first = perf.take();
    AppId::Hotspot.run_small(machine(), MemMode::System);
    let second = perf.take();

    assert_eq!(first.runs, 1);
    assert_eq!(second.runs, 1, "take() must reset the window");
    assert!(first.sim_total_ns > 0 && second.sim_total_ns > 0);
    // Identical simulated work in both windows.
    assert_eq!(first.sim_total_ns, second.sim_total_ns);
}

#[test]
fn disabled_profiler_collects_nothing() {
    // A quiet session's perf handle stays disarmed through a full run.
    let m = platform::gh200().machine();
    let perf = m.rt.session().perf.clone();
    assert!(!perf.is_on());
    AppId::Hotspot.run_small(m, MemMode::System);
    let perf = perf.take();
    assert_eq!(perf.runs, 0);
    assert_eq!(perf.sim_total_ns, 0);
    assert!(perf.phases.is_empty());
}

// -- CLI surface: typed errors exit 2, --perf-out writes the profile --

fn bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_grace-mem"))
}

#[test]
fn cli_usage_and_read_errors_exit_2() {
    let usage = bin().arg("frobnicate").output().expect("spawn grace-mem");
    assert_eq!(usage.status.code(), Some(2));

    let replay = bin()
        .args(["replay", "/nonexistent/trace.txt"])
        .output()
        .expect("spawn grace-mem");
    assert_eq!(replay.status.code(), Some(2));
    let err = String::from_utf8_lossy(&replay.stderr);
    assert!(err.contains("cannot read"), "{err}");

    let advise = bin()
        .args(["advise", "/nonexistent/trace.txt"])
        .output()
        .expect("spawn grace-mem");
    assert_eq!(advise.status.code(), Some(2));

    // A hostile trace whose `off + len` wraps past the range check is a
    // typed replay error, not a panic (101) or a silent success (0).
    let hostile = std::env::temp_dir().join(format!("gh-hostile-{}.trace", std::process::id()));
    std::fs::write(
        &hostile,
        "alloc a system 1m\ncpu_write a 18446744073709551615 2\n",
    )
    .expect("write temp trace");
    let replay = bin()
        .arg("replay")
        .arg(&hostile)
        .output()
        .expect("spawn grace-mem");
    let _ = std::fs::remove_file(&hostile);
    assert_eq!(replay.status.code(), Some(2));
    let err = String::from_utf8_lossy(&replay.stderr);
    assert!(err.contains("trace line 2: out of range"), "{err}");
}

#[test]
fn cli_perf_out_writes_profile_and_keeps_stdout_deterministic() {
    let out = std::env::temp_dir().join(format!("gh-perf-cli-{}.json", std::process::id()));
    let out_s = out.to_str().expect("temp path is UTF-8");

    let plain = bin()
        .args(["app", "hotspot", "--small", "--json"])
        .output()
        .expect("spawn grace-mem");
    let profiled = bin()
        .args(["app", "hotspot", "--small", "--json", "--perf-out", out_s])
        .output()
        .expect("spawn grace-mem");
    assert!(plain.status.success() && profiled.status.success());
    assert_eq!(
        plain.stdout, profiled.stdout,
        "--perf-out must not change the deterministic report on stdout"
    );

    let json = std::fs::read_to_string(&out).expect("profile written");
    assert!(json.starts_with("{\"schema\":\"gh-perf/1\""), "{json}");
    let folded = std::fs::read_to_string(format!("{out_s}.folded")).expect("folded written");
    assert!(!folded.trim().is_empty());
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(format!("{out_s}.folded"));

    let table = String::from_utf8_lossy(&profiled.stderr);
    assert!(table.contains("-- gh-perf:"), "{table}");
    assert!(table.contains("sim-ns/host-ms"), "{table}");
}
