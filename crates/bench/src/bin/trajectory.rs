//! `cargo run --release -p gh-bench --bin trajectory` records the
//! simulator's host-speed trajectory in `BENCH_<date>.json` at the repo
//! root (`BENCH_<date>b.json`, `c`, ... for later recordings that day);
//! the rows are in `gh_bench::trajectory`. It takes no flags and
//! reads no environment variable. It exits 1, naming the row, when a
//! command fails, a grace-bench result line does not parse, lacks a
//! declared metric or is not `"correct"`, or a `grace-mem` row's stdout
//! differs between runs.

use std::path::Path;
use std::process::{Command, Stdio};

use gh_bench::trajectory::{self as t, Benchmark, SEED};

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    if let Err(e) = record(root.expect("gh-bench lives at crates/bench")) {
        eprintln!("trajectory: {e}");
        std::process::exit(1);
    }
}

fn record(root: &Path) -> Result<(), String> {
    let decl = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let bench = Benchmark::parse(&decl)?;
    let (program, args) = bench.command.split_first().ok_or("empty command")?;
    let (secs, mut workloads) = (bench.run_seconds, Vec::new());
    for name in &bench.workloads {
        let mut runs = Vec::new();
        for run in 0..=t::TIMED_RUNS {
            let trace = u8::from(run == t::TIMED_RUNS);
            let row = format!("{name} run {} (--trace {trace})", run + 1);
            let flags = format!("--workload {name} --seed {SEED} --seconds {secs} --trace {trace}");
            let mut cmd = Command::new(program);
            cmd.current_dir(root).args(args).args(flags.split(' '));
            let (_, out) = timed(&row, &mut cmd)?;
            let out = String::from_utf8_lossy(&out);
            let required = [&bench.end_to_end, &bench.per_layer][usize::from(trace)];
            let run = t::parse_run(out.lines().last().unwrap_or(""), required);
            runs.push(run.map_err(|e| format!("{row}: {e}"))?);
        }
        workloads.push(runs);
    }

    let build = "build --release -q --bin grace-mem";
    timed(&format!("cargo {build}"), &mut cargo(root, build))?;
    let exe = std::env::current_exe().map_err(|e| format!("no target directory: {e}"))?;
    let exe = exe.with_file_name("grace-mem");
    let mut cli: Vec<(Vec<f64>, u64)> = Vec::new();
    for args in t::CLI_ROWS {
        let (mut walls, mut outs) = (Vec::new(), Vec::new());
        for run in 1..=3 {
            let row = format!("grace-mem {args} run {run}");
            let (wall, out) = timed(&row, Command::new(&exe).args(args.split(' ')))?;
            walls.push(wall);
            outs.push(out);
        }
        let digest = gh_jobs::fnv1a64(&outs[0]);
        if outs.iter().any(|out| *out != outs[0]) {
            return Err(format!("grace-mem {args}: stdout differs between runs"));
        }
        if args.starts_with("suite") && cli.first().is_some_and(|(_, d)| *d != digest) {
            return Err(format!("grace-mem {args}: stdout differs from row 1"));
        }
        cli.push((walls, digest));
    }

    let mut tools = Vec::new();
    for (warm_up, cmd) in t::TOOL_ROWS {
        timed(&format!("cargo {warm_up}"), &mut cargo(root, warm_up))?;
        tools.push(timed(&format!("cargo {cmd}"), &mut cargo(root, cmd))?.0);
    }

    let date = gh_perf::host_date();
    // A later recording on the same day takes the next letter, so the
    // files sort in recording order and none is overwritten.
    let path = std::iter::once(String::new())
        .chain(('b'..='z').map(String::from))
        .map(|letter| root.join(format!("BENCH_{date}{letter}.json")))
        .find(|p| !p.exists())
        .ok_or_else(|| format!("BENCH_{date}.json through BENCH_{date}z.json all exist"))?;
    let doc = t::document(&date, &bench, &workloads, &cli, &tools);
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trajectory: wrote {}", path.display());
    Ok(())
}

/// `cargo <args>`, run from the repo root.
fn cargo(root: &Path, args: &str) -> Command {
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root).args(args.split(' '));
    cmd
}

/// Runs `cmd` to completion; returns its host wall time in seconds and
/// its stdout. A command that cannot start or exits non-zero is an error
/// naming `row`.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the recorder times whole processes on the host clock; no reading reaches a simulation"
)]
fn timed(row: &str, cmd: &mut Command) -> Result<(f64, Vec<u8>), String> {
    eprintln!("trajectory: {row}");
    let t0 = std::time::Instant::now();
    let out = cmd.stderr(Stdio::inherit()).output();
    let out = out.map_err(|e| format!("{row}: cannot start: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("{row}: {}", out.status));
    }
    Ok((wall, out.stdout))
}
