//! `grace-mem` CLI: run applications and experiments from the shell.
//!
//! ```sh
//! cargo run --release --bin grace-mem -- app hotspot --mode system --page 64k
//! cargo run --release --bin grace-mem -- qv 22 --mode managed --prefetch
//! cargo run --release --bin grace-mem -- list
//! ```

use grace_mem::sim::{BufKind, KIB, MIB};
use grace_mem::{
    platform, AppId, JobCache, JobError, Machine, MachineConfig, MemMode, Platform, QsimParams,
    SessionOptions,
};

fn usage() -> ! {
    eprintln!(
        "usage:
  grace-mem list
  grace-mem app <needle|pathfinder|bfs|hotspot|srad> <run flags>
            [--oversubscribe <ratio >= 1> (system or managed mode)] [--small]
  grace-mem app <kmeans|lud|stream|gups|pointer-chase> <run flags>
  grace-mem qv <sim_qubits (>= 2)> <run flags> [--prefetch] [--amplitudes]
  grace-mem replay <trace-file> <run flags>
  grace-mem advise <trace-file> [--platform gh200|mi300a]
  grace-mem suite [--jobs <n>] [--small]

run flags: [--platform gh200|mi300a] [--mode explicit|system|managed]
           [--page 4k|64k|2m] [--no-migration] [--json]
           [--trace-out <json-file>] [--perf] [--perf-out <json-file>]
           A subcommand rejects every flag it does not list (exit 2).

platforms: gh200 (default; two tiers + migration), mi300a (one unified
           physical pool, no page migration). The default page size is
           the platform's own (gh200: 64k, mi300a: 4k).

suite: the full app x platform x mode matrix on the gh-jobs executor
       (--jobs <n> worker threads; 1 = serial reference). Reports are
       bitwise-identical at any worker count; cache hit/miss counts go
       to stderr.

environment (read HERE, at the CLI boundary, to seed the per-run
session — library code never reads GH_* variables):
  GH_TRACE=1       trace the run on its session bus and print the
                   per-phase explain table (implied by --trace-out)
  GH_PERF=1        profile the simulator itself (host wall-clock) and
                   print the gh-perf table on stderr (implied by
                   --perf/--perf-out); never changes simulated output
  GH_SANITIZE=0|1  force the invariant sanitizer off/on (default: on in
                   debug builds only)
  GH_ACCESS_REF=1  use the per-page reference walk instead of the
                   fragment core (differential debugging; reports are
                   bit-identical either way)"
    );
    std::process::exit(2);
}

/// Everything that can go wrong after argument parsing. All variants
/// render as one `grace-mem: ...` line on stderr and exit with status 2,
/// the same code as usage errors, so scripts can test a single status.
#[derive(Debug)]
enum CliError {
    /// An input file (trace to replay or advise on) could not be read.
    Read(String, std::io::Error),
    /// An output file (`--trace-out`, `--perf-out`) could not be written.
    Write(String, std::io::Error),
    /// The platform layer rejected a registry name, a page size or a
    /// parameter tweak.
    Platform(grace_mem::PlatformError),
    /// The simulator rejected or failed the run (malformed trace, replay
    /// error, a panicked suite job).
    Sim(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, w: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Read(path, e) => write!(w, "cannot read {path}: {e}"),
            CliError::Write(path, e) => write!(w, "cannot write {path}: {e}"),
            CliError::Platform(e) => write!(w, "{e}"),
            CliError::Sim(e) => write!(w, "{e}"),
        }
    }
}

fn fail(e: CliError) -> ! {
    eprintln!("grace-mem: {e}");
    std::process::exit(2);
}

/// `print!` that fails like every other CLI error when stdout does not
/// take the text (a closed pipe, a full disk), where `print!` panics.
fn write_stdout(text: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(text).and_then(|()| out.flush()) {
        fail(CliError::Write("stdout".into(), e));
    }
}

/// `println!` through [`write_stdout`].
macro_rules! say {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

struct Flags {
    platform: &'static dyn Platform,
    mode: MemMode,
    page: Option<u64>,
    migration: bool,
    oversubscribe: Option<f64>,
    small: bool,
    prefetch: bool,
    amplitudes: bool,
    json: bool,
    trace_out: Option<String>,
    perf: bool,
    perf_out: Option<String>,
    jobs: usize,
}

/// The flags of every subcommand that runs one machine and prints its
/// report (`app`, `qv`, `replay`).
const RUN_FLAGS: [&str; 8] = [
    "--platform",
    "--mode",
    "--page",
    "--no-migration",
    "--json",
    "--trace-out",
    "--perf",
    "--perf-out",
];

/// The extension workloads, which `app` runs through their own entry
/// points.
const EXTENSIONS: [&str; 5] = ["kmeans", "lud", "stream", "gups", "pointer-chase"];

/// Parses the flags of subcommand `sub`. A flag outside the `allowed`
/// sets is a usage error, reported before any machine boots.
fn parse_flags(sub: &str, allowed: &[&[&str]], args: &[String]) -> Flags {
    let mut f = Flags {
        platform: platform::gh200(),
        mode: MemMode::System,
        page: None,
        migration: true,
        oversubscribe: None,
        small: false,
        prefetch: false,
        amplitudes: false,
        json: false,
        trace_out: None,
        perf: false,
        perf_out: None,
        jobs: 1,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !allowed.iter().any(|set| set.contains(&a.as_str())) {
            eprintln!("grace-mem: {sub} does not take {a}");
            std::process::exit(2);
        }
        match a.as_str() {
            "--platform" => {
                let Some(name) = it.next() else { usage() };
                f.platform =
                    platform::by_name(name).unwrap_or_else(|e| fail(CliError::Platform(e)));
            }
            "--mode" => {
                f.mode = match it.next().map(String::as_str) {
                    Some("explicit") => MemMode::Explicit,
                    Some("system") => MemMode::System,
                    Some("managed") => MemMode::Managed,
                    _ => usage(),
                }
            }
            "--page" => {
                f.page = match it.next().map(String::as_str) {
                    Some("4k") => Some(4 * KIB),
                    Some("64k") => Some(64 * KIB),
                    Some("2m") => Some(2 * MIB),
                    _ => usage(),
                }
            }
            "--no-migration" => f.migration = false,
            "--oversubscribe" => {
                // A ratio is finite and at least 1 (1 = no oversubscription).
                f.oversubscribe = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|r| r.is_finite() && *r >= 1.0);
                if f.oversubscribe.is_none() {
                    usage();
                }
            }
            "--small" => f.small = true,
            "--json" => f.json = true,
            "--prefetch" => f.prefetch = true,
            "--amplitudes" => f.amplitudes = true,
            "--trace-out" => {
                f.trace_out = it.next().cloned();
                if f.trace_out.is_none() {
                    usage();
                }
            }
            "--jobs" => {
                f.jobs = match it.next().and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            "--perf" => f.perf = true,
            "--perf-out" => {
                f.perf_out = it.next().cloned();
                if f.perf_out.is_none() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    f
}

fn machine(f: &Flags, so: &SessionOptions) -> Machine {
    let cfg = MachineConfig {
        page_size: f.page,
        auto_migration: f.migration,
        ..Default::default()
    };
    f.platform
        .machine_session(&cfg, so)
        .unwrap_or_else(|e| fail(CliError::Platform(e)))
}

fn print_report_maybe_json(label: &str, r: &grace_mem::RunReport, json: bool) {
    if json {
        say!("{}", r.to_json());
    } else {
        print_report(label, r);
    }
    report_sanitizer(r);
}

/// Surfaces invariant-sanitizer violations on stderr (see
/// `docs/units.md`). Clean runs print nothing, so sanitized stdout
/// stays bitwise-identical to an unsanitized run.
fn report_sanitizer(r: &grace_mem::RunReport) {
    let Some(s) = &r.sanitizer else { return };
    if s.is_clean() {
        return;
    }
    eprintln!("sanitizer: {s}");
    for v in &s.violations {
        eprintln!("  {v}");
    }
}

/// Reads a `GH_*` boolean env toggle: `None` when unset, `Some(false)`
/// for `""`/`"0"`, `Some(true)` otherwise. This is the *only* layer that
/// reads these variables — they seed the [`SessionOptions`] below and
/// never leak into library code (clippy's `disallowed-methods`).
#[expect(
    clippy::disallowed_methods,
    reason = "the CLI is the env boundary: GH_* toggles seed SessionOptions"
)]
fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|v| v != "0" && !v.is_empty())
}

/// Folds flags and boundary env vars into the run's session options.
fn session_opts(f: &Flags) -> SessionOptions {
    SessionOptions {
        trace: f.trace_out.is_some() || env_flag("GH_TRACE").unwrap_or(false),
        perf: f.perf || f.perf_out.is_some() || env_flag("GH_PERF").unwrap_or(false),
        sanitize: env_flag("GH_SANITIZE"),
        access_ref: env_flag("GH_ACCESS_REF").unwrap_or(false),
        ..Default::default()
    }
}

/// Prints the gh-perf table on stderr and writes the JSON + folded-stack
/// files for `--perf-out` (no-op when the session never armed the
/// profiler). Everything goes to stderr or side files: stdout carries
/// only the deterministic RunReport.
fn maybe_dump_perf(f: &Flags, perf: &gh_perf::Perf) {
    if !perf.is_on() {
        return;
    }
    let data = perf.take();
    eprint!("{}", gh_perf::export::table(&data));
    if let Some(out) = &f.perf_out {
        let folded = format!("{out}.folded");
        std::fs::write(out, gh_perf::export::json(&data))
            .unwrap_or_else(|e| fail(CliError::Write(out.clone(), e)));
        std::fs::write(&folded, gh_perf::export::folded(&data))
            .unwrap_or_else(|e| fail(CliError::Write(folded.clone(), e)));
        eprintln!("gh-perf profile written to {out} (folded stacks: {folded})");
    }
}

/// Writes the Chrome trace + metrics dump and prints the explain table
/// for a traced run (no-op when the run was not traced).
fn maybe_dump_trace(r: &grace_mem::RunReport, f: &Flags) {
    let Some(t) = &r.trace else { return };
    if let Some(out) = &f.trace_out {
        let metrics = format!("{out}.metrics.csv");
        std::fs::write(out, gh_trace::export::chrome_trace(t))
            .unwrap_or_else(|e| fail(CliError::Write(out.clone(), e)));
        std::fs::write(&metrics, gh_trace::export::metrics_csv(t))
            .unwrap_or_else(|e| fail(CliError::Write(metrics.clone(), e)));
        eprintln!("chrome trace written to {out} (metrics: {metrics})");
    }
    eprint!("{}", gh_trace::export::explain(t));
}

fn print_report(label: &str, r: &grace_mem::RunReport) {
    say!("== {label} [{}] ==", r.platform);
    say!(
        "phases (ms): ctx {:.3} | alloc {:.3} | cpu_init {:.3} | compute {:.3} | dealloc {:.3}",
        r.phases.ctx_init as f64 / 1e6,
        r.phases.alloc as f64 / 1e6,
        r.phases.cpu_init as f64 / 1e6,
        r.phases.compute as f64 / 1e6,
        r.phases.dealloc as f64 / 1e6,
    );
    say!(
        "reported total: {:.3} ms   checksum: {:.6}",
        r.reported_total() as f64 / 1e6,
        r.checksum
    );
    say!(
        "traffic (MiB): HBM r/w {}/{} | C2C r/w {}/{} | migrated in/out {}/{}",
        r.traffic.hbm_read >> 20,
        r.traffic.hbm_write >> 20,
        r.traffic.c2c_read >> 20,
        r.traffic.c2c_write >> 20,
        r.traffic.bytes_migrated_in >> 20,
        r.traffic.bytes_migrated_out >> 20,
    );
    say!(
        "faults: {} GPU (managed), {} ATS (system) | peak GPU {} MiB | peak RSS {} MiB",
        r.traffic.gpu_faults,
        r.traffic.ats_faults,
        r.peak_gpu >> 20,
        r.peak_rss >> 20,
    );
    for note in &r.not_applicable {
        say!("n/a: {note}");
    }
}

/// Runs extension workload `name` (one of [`EXTENSIONS`]).
fn run_extension(name: &str, f: &Flags) -> (grace_mem::RunReport, gh_perf::Perf) {
    use grace_mem::apps::{kmeans, lud, micro};
    let m = machine(f, &session_opts(f));
    let perf = m.rt.session().perf.clone();
    let mp = micro::MicroParams::default();
    let r = match name {
        "kmeans" => kmeans::run(m, f.mode, &kmeans::KmeansParams::default()),
        "lud" => lud::run(m, f.mode, &lud::LudParams::default()),
        "stream" => micro::stream(m, f.mode, &mp),
        "gups" => micro::gups(m, f.mode, &mp),
        "pointer-chase" => micro::pointer_chase(m, f.mode, &mp),
        _ => unreachable!("the caller checks membership in EXTENSIONS"),
    };
    (r, perf)
}

fn main() {
    let args = std::env::args_os().skip(1).map(|a| a.into_string());
    let args: Vec<String> = args.collect::<Result<_, _>>().unwrap_or_else(|a| {
        eprintln!("grace-mem: argument '{}' is not UTF-8", a.to_string_lossy());
        std::process::exit(2);
    });
    match args.first().map(String::as_str) {
        Some("list") => {
            // `list` takes no argument: any is a usage error.
            parse_flags("list", &[], &args[1..]);
            say!("paper applications:");
            for app in AppId::ALL {
                say!("  {:<14} {}", app.name(), app.pattern());
            }
            say!(
                "  {:<14} mixed (gh-qsim, `grace-mem qv <qubits>`)",
                "qiskit-qv"
            );
            say!("extension workloads (future-work study):");
            say!("  {:<14} iterative reuse, read-only hot set", "kmeans");
            say!("  {:<14} shrinking working set", "lud");
            say!("  {:<14} sequential bandwidth", "stream");
            say!("  {:<14} uniform sparse updates", "gups");
            say!("  {:<14} skewed irregular reads", "pointer-chase");
        }
        Some("app") => {
            let Some(name) = args.get(1) else { usage() };
            let sub = format!("app {name}");
            if EXTENSIONS.contains(&name.as_str()) {
                let f = parse_flags(&sub, &[&RUN_FLAGS], &args[2..]);
                let (report, perf) = run_extension(name, &f);
                print_report_maybe_json(name, &report, f.json);
                maybe_dump_trace(&report, &f);
                maybe_dump_perf(&f, &perf);
                return;
            }
            let Some(app) = AppId::ALL.iter().find(|a| a.name() == name) else {
                usage()
            };
            let paper_flags = ["--oversubscribe", "--small"];
            let f = parse_flags(&sub, &[&RUN_FLAGS, &paper_flags], &args[2..]);
            if f.mode == MemMode::Explicit && f.oversubscribe.is_some() {
                // Explicit mode holds every device buffer in GPU memory,
                // so a balloon can only make its allocations fail.
                eprintln!("grace-mem: {sub}: --oversubscribe needs --mode system or managed");
                std::process::exit(2);
            }
            let so = session_opts(&f);
            let mut m = machine(&f, &so);
            let perf = m.rt.session().perf.clone();
            if let Some(ratio) = f.oversubscribe {
                // Size the balloon from an unconstrained managed run, on a
                // platform that can hold one; elsewhere `oversubscribe`
                // only records that it does not apply.
                let peak = if !f.platform.caps().oversubscription {
                    0
                } else if f.small {
                    app.run_small(f.platform.machine(), MemMode::Managed)
                        .peak_gpu
                } else {
                    app.run(f.platform.machine(), MemMode::Managed).peak_gpu
                };
                let free =
                    m.oversubscribe(peak.saturating_sub(f.platform.gpu_driver_baseline()), ratio);
                // The balloon leaves room for the managed working set, but
                // the run's GPU-only buffers cannot be evicted to fit.
                let need = app.device_only_bytes(f.small, m.rt.params().gpu_page_size);
                if free < need {
                    eprintln!(
                        "grace-mem: {sub}: --oversubscribe {ratio} leaves {free} bytes of GPU memory free, \
                         {} short of the {need} bytes {} keeps GPU-only",
                        need - free,
                        app.name()
                    );
                    std::process::exit(2);
                }
            }
            let r = if f.small {
                app.run_small(m, f.mode)
            } else {
                app.run(m, f.mode)
            };
            print_report_maybe_json(&format!("{} ({})", app.name(), f.mode), &r, f.json);
            maybe_dump_trace(&r, &f);
            maybe_dump_perf(&f, &perf);
        }
        Some("qv") => {
            // A quantum-volume circuit needs at least two qubits.
            let Some(q) = args
                .get(1)
                .and_then(|s| s.parse::<u32>().ok())
                .filter(|&q| q >= 2)
            else {
                usage()
            };
            let qv_flags = ["--prefetch", "--amplitudes"];
            let f = parse_flags("qv", &[&RUN_FLAGS, &qv_flags], &args[2..]);
            let so = session_opts(&f);
            let p = QsimParams {
                sim_qubits: q,
                compute_amplitudes: f.amplitudes,
                prefetch: f.prefetch,
                ..Default::default()
            };
            let m = machine(&f, &so);
            // Explicit mode keeps a statevector too big for the device
            // in pinned host memory.
            let kind = match f.mode {
                MemMode::Explicit => BufKind::Pinned,
                MemMode::System => BufKind::System,
                MemMode::Managed => BufKind::Managed,
            };
            let cap = m.capacity(kind);
            if grace_mem::qsim::statevector_bytes(q).is_none_or(|sv| sv > cap) {
                eprintln!(
                    "grace-mem: a {q}-qubit statevector does not fit {} in {} mode \
                     ({cap} bytes at most)",
                    f.platform.caps().name,
                    f.mode
                );
                usage();
            }
            let perf = m.rt.session().perf.clone();
            let r = grace_mem::run_qv(m, f.mode, &p);
            print_report_maybe_json(
                &format!("qv {q} sim-qubits / paper {} ({})", q + 10, f.mode),
                &r,
                f.json,
            );
            maybe_dump_trace(&r, &f);
            maybe_dump_perf(&f, &perf);
        }
        Some("replay") => {
            let Some(path) = args.get(1) else { usage() };
            let explicit_mode = args[2..].iter().any(|a| a == "--mode");
            let f = parse_flags("replay", &[&RUN_FLAGS], &args[2..]);
            let so = session_opts(&f);
            let trace = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(CliError::Read(path.clone(), e)));
            let mode = explicit_mode.then_some(f.mode);
            let m = machine(&f, &so);
            let perf = m.rt.session().perf.clone();
            match grace_mem::sim::replay(m, &trace, mode) {
                Ok(r) => {
                    print_report_maybe_json(&format!("replay {path}"), &r, f.json);
                    // The bus captured the run as it happened — no second
                    // replay needed to export the timeline.
                    maybe_dump_trace(&r, &f);
                    maybe_dump_perf(&f, &perf);
                }
                Err(e) => fail(CliError::Sim(e.to_string())),
            }
        }
        Some("suite") => {
            let f = parse_flags("suite", &[&["--jobs", "--small"]], &args[1..]);
            let so = session_opts(&f);
            let specs = grace_mem::jobs::matrix(f.small, &so);
            let cache = JobCache::new();
            let outcomes = grace_mem::jobs::run_suite(&specs, f.jobs, &cache);
            // Deterministic stdout: one line per job, identical at any
            // worker count (CI diffs `--jobs 8` against `--jobs 1`).
            say!("app,platform,mode,total_ns,checksum_bits,job_hash");
            for (spec, out) in specs.iter().zip(outcomes) {
                let out = out.unwrap_or_else(|e| match e {
                    JobError::Platform(e) => fail(CliError::Platform(e)),
                    e @ JobError::Panicked { .. } => fail(CliError::Sim(e.to_string())),
                });
                say!(
                    "{},{},{},{},0x{:016x},0x{:016x}",
                    spec.app.name(),
                    spec.platform,
                    spec.mode.label(),
                    out.report.reported_total(),
                    out.report.checksum.to_bits(),
                    out.hash,
                );
                report_sanitizer(&out.report);
            }
            eprintln!(
                "suite: {} jobs on {} worker(s); cache {} hit(s), {} miss(es)",
                specs.len(),
                f.jobs,
                cache.hits(),
                cache.misses(),
            );
        }
        Some("advise") => {
            let Some(path) = args.get(1) else { usage() };
            let f = parse_flags("advise", &[&["--platform"]], &args[2..]);
            let trace = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(CliError::Read(path.clone(), e)));
            match grace_mem::sim::advise_on(f.platform, &trace) {
                Ok(a) => write_stdout(format_args!("{}", a.render())),
                Err(e) => fail(CliError::Sim(e.to_string())),
            }
        }
        _ => usage(),
    }
}
