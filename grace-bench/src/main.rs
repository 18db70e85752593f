//! `grace-bench` — the host-time benchmark of the grace-mem simulator.
//!
//! ```text
//! grace-bench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` it runs timed passes over the workload's ops with
//! every observability session disarmed until `--seconds` have passed
//! (and at least ten passes), setting the workload up again between
//! passes (reporting the median set-up), then checks every outcome
//! against an untimed oracle pass that reruns each distinct op on the
//! per-page reference access walk. Both times are scaled to a nominal
//! host speed read from a fixed reference loop (see `host.rs`). With
//! `--trace 1` it runs one quiet, one gh-perf-armed and
//! one gh-trace-armed pass, prints the per-layer metrics, and writes the
//! merged folded stacks to `target/grace-bench/<workload>-seed<n>.folded`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See README.md for the workloads and metrics.

// gh-audit: allow-file(no-wall-clock) -- a host-time benchmark: it times its own calls into the simulator with Instant and never feeds the readings back into a simulation

mod heap;
mod host;
mod layers;
mod opmix;
mod rng;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use layers::{per_layer, END_TO_END, PER_LAYER};
use stats::{low_percentile, median, sum_of_low_percentiles, tally, Tally, WALL_PERCENTILE};
use workload::{oracle, run_pass, setup, Arm, Op, Scale, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const MIB: f64 = (1u64 << 20) as f64;

const USAGE: &str =
    "usage: grace-bench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]\n\
workloads: rodinia, oversub-managed, qv-statevector, opmix, small-jobs";

/// How much work a run does. The CLI always runs [`FULL`]; tests run
/// the same code at test scale.
#[derive(Debug, Clone, Copy)]
struct Plan {
    scale: Scale,
    /// Set-ups per run at least; `setup_s` is their median.
    min_setups: usize,
    /// Beyond that, one more set-up runs before a timed pass while the
    /// set-ups have taken less than this share of the run so far, so
    /// they sample the host across the whole run.
    setup_share: f64,
    /// Timed passes per run, however short `--seconds` is.
    min_passes: usize,
}

const FULL: Plan = Plan {
    scale: Scale::Bench,
    min_setups: 5,
    setup_share: 0.15,
    min_passes: 10,
};

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: '{v}' is not 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run found: metrics in table order, the oracle verdict, and
/// lines for a human reader.
#[derive(Debug)]
struct Summary {
    metrics: Vec<(&'static str, &'static str, f64)>,
    tally: Tally,
    notes: Vec<String>,
    /// Merged folded stacks (traced runs only).
    folded: Option<String>,
}

fn with_units(
    table: &'static [(&'static str, &'static str)],
    values: impl IntoIterator<Item = f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

/// Times one set-up.
fn timed_setup(w: Workload, seed: u64, scale: Scale) -> (Vec<Op>, f64) {
    let t = Instant::now();
    let ops = setup(w, seed, scale);
    (ops, t.elapsed().as_secs_f64())
}

/// The end-to-end run: timed quiet passes with repeated set-ups between
/// them, then the oracle.
fn timed(w: Workload, seed: u64, seconds: f64, plan: Plan) -> Summary {
    let (ops, first) = timed_setup(w, seed, plan.scale);
    let mut setup_s = vec![first];
    let start = Instant::now();
    let mut outcomes = Vec::new();
    let mut op_s = vec![Vec::new(); ops.len()];
    let mut heap_mib = Vec::new();
    let mut reference_s = Vec::new();
    while outcomes.len() < plan.min_passes || start.elapsed().as_secs_f64() < seconds {
        if setup_s.len() < plan.min_setups
            || setup_s.iter().sum::<f64>() < plan.setup_share * start.elapsed().as_secs_f64()
        {
            setup_s.push(timed_setup(w, seed, plan.scale).1);
        }
        reference_s.push(host::sample());
        heap::HEAP.reset_peak();
        let (pass, out) = run_pass(&ops, Arm::Quiet);
        heap_mib.push(heap::HEAP.peak() as f64 / MIB);
        for (samples, &ns) in op_s.iter_mut().zip(&pass.op_ns) {
            samples.push(ns as f64 / 1e9);
        }
        outcomes.push(out);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let vm_hwm_mib = gh_perf::peak_rss_bytes() as f64 / MIB;
    let t = Instant::now();
    let tally = tally(&outcomes, &oracle(&ops, &[Arm::Quiet]));
    let oracle_s = t.elapsed().as_secs_f64();
    let host_s = sum_of_low_percentiles(&op_s);
    let reference = low_percentile(&reference_s).unwrap_or(host::nominal_s());
    let speed = host::nominal_s() / reference;
    let wall_s = host_s * speed;
    let setup_here = median(&setup_s).unwrap_or(0.0);
    let setup_med = setup_here * speed;
    let peak_heap_mib = median(&heap_mib).unwrap_or(0.0);
    let cached = outcomes.iter().flatten().filter(|o| o.cached).count();
    Summary {
        metrics: with_units(&END_TO_END, [wall_s, setup_med, peak_heap_mib]),
        tally,
        notes: vec![
            format!(
                "{} seed {seed}: {} passes of {} ops in {timed_s:.2} s, oracle pass {oracle_s:.2} s",
                w.name(),
                outcomes.len(),
                ops.len()
            ),
            format!(
                "wall_s       {wall_s:.6} s    at nominal host speed: {host_s:.6} s here, the sum over {} ops of each op's \
                 {WALL_PERCENTILE}th-percentile time of {} passes, scaled by the reference loop's {:.3} ms nominal / {:.3} ms here",
                ops.len(),
                outcomes.len(),
                host::nominal_s() * 1e3,
                reference * 1e3
            ),
            format!(
                "setup_s      {setup_med:.6} s    at nominal host speed: {setup_here:.6} s here, the median of {} set-ups",
                setup_s.len()
            ),
            format!(
                "peak_heap_mib {peak_heap_mib:.3} MiB  median over the passes of the most heap bytes live at once \
                 (process VmHWM {vm_hwm_mib:.1} MiB)"
            ),
            format!(
                "error_rate   {} ({} of {} outcomes failed; {cached} served by the job cache)",
                tally.error_rate(),
                tally.failed,
                tally.attempted
            ),
        ],
        folded: None,
    }
}

/// The per-layer run: one quiet, one perf-armed, one trace-armed pass.
fn traced(w: Workload, seed: u64, plan: Plan) -> Summary {
    let ops = setup(w, seed, plan.scale);
    let (quiet, q) = run_pass(&ops, Arm::Quiet);
    let (perf, p) = run_pass(&ops, Arm::Perf);
    let (trace, t) = run_pass(&ops, Arm::Trace);
    let tally = tally(&[q, p, t], &oracle(&ops, &[Arm::Quiet, Arm::Trace]));
    let metrics = per_layer(&quiet, &perf, &trace);
    let notes = std::iter::once(format!(
        "{} seed {seed}: quiet, perf-armed and trace-armed passes of {} ops; {} of {} outcomes failed",
        w.name(),
        ops.len(),
        tally.failed,
        tally.attempted
    ))
    .chain(
        metrics
            .iter()
            .zip(PER_LAYER)
            .map(|(&(name, v), (_, unit))| format!("{name:<26} {v:>16.6} {unit}")),
    )
    .collect();
    Summary {
        metrics: with_units(&PER_LAYER, metrics.into_iter().map(|(_, v)| v)),
        tally,
        notes,
        folded: Some(perf.perf.folded),
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(s: &Summary) -> String {
    let mut o = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        s.tally.failed == 0 && s.tally.attempted > 0,
        s.tally.attempted,
        s.tally.failed
    );
    for (i, (name, unit, v)) in s.metrics.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(
            o,
            "{}:{{\"value\":{},\"unit\":{}}}",
            gh_trace::json::quoted(name),
            gh_trace::json::f64_value(*v),
            gh_trace::json::quoted(unit)
        );
    }
    o.push_str("}}");
    o
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grace-bench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let summary = if args.trace {
        traced(args.workload, args.seed, FULL)
    } else {
        timed(args.workload, args.seed, args.seconds as f64, FULL)
    };
    if let Some(folded) = &summary.folded {
        let dir = std::path::Path::new("target/grace-bench");
        let path = dir.join(format!("{}-seed{}.folded", args.workload.name(), args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, folded)) {
            Ok(()) => eprintln!("folded stacks: {}", path.display()),
            Err(e) => eprintln!("grace-bench: cannot write {}: {e}", path.display()),
        }
    }
    for line in &summary.notes {
        println!("{line}");
    }
    println!("{}", result_json(&summary));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gh_trace::json::Value;

    const TEST: Plan = Plan {
        scale: Scale::Test,
        min_setups: 2,
        setup_share: 0.0,
        min_passes: 2,
    };

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_junk() {
        let a = parse_args(&strings(&["--workload", "opmix"])).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Opmix,
                seed: 0,
                seconds: 10,
                trace: false
            }
        );
        let a = parse_args(&strings(&[
            "--workload",
            "small-jobs",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "opmix", "--seed", "-1"],
            &["--workload", "opmix", "--trace", "2"],
            &["--workload", "opmix", "--seconds"],
            &["--workload", "opmix", "--extra"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_names_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| v.get(key).and_then(Value::as_arr).expect(key).to_vec();
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).expect(k).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|e| field(e, "name")).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert!((2..=8).contains(&workloads.len()));

        for (key, table, max) in [
            ("end_to_end", &END_TO_END[..], 16),
            ("per_layer", &PER_LAYER[..], 128),
        ] {
            let entries = list(key);
            let declared: Vec<(String, String)> = entries
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect();
            let emitted: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key}");
            assert!((1..=max).contains(&entries.len()), "{key}");
        }
        let mut all: Vec<String> = workloads;
        all.extend(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .map(|(n, _)| n.to_string()),
        );
        assert!(all.iter().all(|n| is_name(n)), "{all:?}");
        let distinct: std::collections::BTreeSet<&String> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "names are used once");

        let bounds: Vec<(String, f64)> = list("end_to_end")
            .iter()
            .map(|e| {
                assert_eq!(field(e, "better"), "lower");
                (
                    field(e, "name"),
                    e.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        assert!(bounds
            .iter()
            .all(|&(_, b)| b > 0.0 && b <= 0.25 && b <= setup));
    }

    fn smoke(w: Workload) {
        let s = timed(w, 1, 0.0, TEST);
        assert_eq!(s.tally.failed, 0, "{}: {:?}", w.name(), s.notes);
        assert_eq!(s.tally.attempted as usize % TEST.min_passes, 0);
        assert!(s.tally.attempted > 0);
        let names: Vec<&str> = s.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert!(
            s.metrics.iter().all(|m| m.2.is_finite() && m.2 > 0.0),
            "end-to-end metrics are never 0: {:?}",
            s.metrics
        );

        let t = traced(w, 1, TEST);
        assert_eq!(t.tally.failed, 0, "{}: {:?}", w.name(), t.notes);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        assert!(t.metrics.iter().all(|m| m.2.is_finite() && m.2 >= 0.0));
        let value = |name: &str| t.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(value("model.virtual_ms") > 0.0);
        assert!(value("obs.perf_overhead") > 0.0 && value("obs.trace_overhead") > 0.0);
        assert!(value("report.to_json_s") > 0.0);
        assert!(!t.folded.as_deref().unwrap_or("").is_empty());

        let line = Value::parse(&result_json(&t)).expect("the result line is JSON");
        assert!(matches!(line.get("correct"), Some(Value::Bool(true))));
        let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .values()
            .all(|m| m.get("value").and_then(Value::as_f64).is_some()));
    }

    #[test]
    fn smoke_rodinia() {
        smoke(Workload::Rodinia);
    }

    #[test]
    fn smoke_oversub_managed() {
        smoke(Workload::OversubManaged);
    }

    #[test]
    fn smoke_qv_statevector() {
        smoke(Workload::QvStatevector);
    }

    #[test]
    fn smoke_opmix() {
        smoke(Workload::Opmix);
        // The runtime workload is the one that times single calls.
        let t = traced(Workload::Opmix, 2, TEST);
        let value = |name: &str| t.metrics.iter().find(|m| m.0 == name).unwrap().2;
        assert!(value("cuda.kernel_us") > 0.0 && value("cuda.call_us_p90") > 0.0);
        assert!(value("sim.finish_s") > 0.0);
    }

    #[test]
    fn smoke_small_jobs() {
        smoke(Workload::SmallJobs);
        let t = traced(Workload::SmallJobs, 1, TEST);
        let value = |name: &str| t.metrics.iter().find(|m| m.0 == name).unwrap().2;
        // 4 of 16 jobs per batch repeat a quiet spec, each after its twin.
        let hits = value("jobs.cache_hit_ratio");
        assert!((hits - 0.25).abs() < 1e-9, "{hits}");
        assert!(value("jobs.worker_utilization") > 0.0);
        assert!(value("trace.chrome_export_s") > 0.0);
    }
}
