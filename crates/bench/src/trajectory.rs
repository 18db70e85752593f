//! The pure parts of the host-speed recorder (`cargo run --release -p
//! gh-bench --bin trajectory`): its rows, the readers of `BENCHMARK.json`
//! and of grace-bench result lines, and the `BENCH_<date>.json` writer.
//! docs/observability.md describes the document.

use std::collections::BTreeMap;

use gh_trace::json::{f64_value, quoted, Value};

/// Timed grace-bench runs (`--trace 0`) per workload; one traced run
/// (`--trace 1`) follows them.
pub const TIMED_RUNS: usize = 3;

/// The seed of every grace-bench run.
pub const SEED: u64 = 1;

/// The slow `grace-mem` cells (release build), each run three times.
/// Every run of a row, and both `suite` rows, must print the same stdout.
pub const CLI_ROWS: [&str; 11] = [
    "suite --jobs 1",
    "suite --jobs 2",
    "app bfs --page 4k",
    "app bfs --page 64k",
    "app srad",
    "app needle",
    "app pathfinder",
    "app hotspot",
    "qv 24 --mode system --page 4k",
    "qv 20 --amplitudes",
    "qv 24 --mode managed --prefetch",
];

/// Cargo commands timed once each, as `(untimed warm-up, timed)`.
pub const TOOL_ROWS: [(&str, &str); 2] = [
    ("test -q --no-run", "test -q"),
    ("build -q -p gh-audit", "run -q -p gh-audit -- --deny"),
];

/// What the recorder reads from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The command that runs grace-bench, before grace-bench's own flags.
    pub command: Vec<String>,
    /// `--seconds` of each timed run.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics each timed run's result line must carry.
    pub end_to_end: Vec<String>,
    /// Metrics the traced run's result line must carry.
    pub per_layer: Vec<String>,
}

impl Benchmark {
    /// Reads the declaration from the text of `BENCHMARK.json`.
    pub fn parse(src: &str) -> Result<Self, String> {
        let v = Value::parse(src).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let missing = |key: &str| format!("BENCHMARK.json has no {key}");
        let names = |key: &str| -> Result<Vec<String>, String> {
            let list = v.get(key).and_then(Value::as_arr);
            let name = |e: &Value| e.get("name").unwrap_or(e).as_str().map(str::to_string);
            let names: Option<_> = list.ok_or_else(|| missing(key))?.iter().map(name).collect();
            names.ok_or_else(|| missing(&format!("name in {key}")))
        };
        let run_seconds = v.get("run_seconds").and_then(Value::as_f64);
        Ok(Self {
            command: names("command")?,
            run_seconds: run_seconds.ok_or_else(|| missing("run_seconds"))?,
            workloads: names("workloads")?,
            end_to_end: names("end_to_end")?,
            per_layer: names("per_layer")?,
        })
    }
}

/// One grace-bench run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Its result line, checked, without surrounding whitespace.
    pub line: String,
    /// Every metric on the line that has a finite value.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads a grace-bench result line (the last line of its stdout). The
/// line must say `"correct": true`, count no failed outcome, and carry a
/// finite value for each metric in `required`.
pub fn parse_run(line: &str, required: &[String]) -> Result<Run, String> {
    let v = Value::parse(line).map_err(|e| format!("result line is not JSON ({e})"))?;
    let failed = v.get("failed").and_then(Value::as_f64);
    if v.get("correct") != Some(&Value::Bool(true)) || failed.is_none_or(|n| n > 0.0) {
        let failed = failed.map_or("unknown".into(), |n| n.to_string());
        return Err(format!("result line is not \"correct\" ({failed} failed)"));
    }
    let metrics = v.get("metrics").and_then(Value::as_obj);
    let metrics = metrics.ok_or("result line has no metrics")?.iter();
    let value = |m: &Value| m.get("value")?.as_f64().filter(|x| x.is_finite());
    let pairs = metrics.filter_map(|(k, m)| Some((k.clone(), value(m)?)));
    let metrics: BTreeMap<String, f64> = pairs.collect();
    if let Some(n) = required.iter().find(|n| !metrics.contains_key(*n)) {
        return Err(format!("result line has no finite \"{n}\" metric"));
    }
    let line = line.trim().to_string();
    Ok(Run { line, metrics })
}

/// `{"key":value,...}` from serialized values.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let fields = fields.into_iter().map(|(k, v)| quoted(k) + ":" + &v);
    format!("{{{}}}", fields.collect::<Vec<_>>().join(","))
}

/// `[item,...]` from serialized items, `sep` before each.
fn arr(items: impl IntoIterator<Item = String>, sep: &str) -> String {
    let items = items.into_iter().map(|i| format!("{sep}{i}"));
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Median, min and max of `metric` over `runs` (`null` when no run has it).
fn spread(runs: &[Run], metric: &str) -> String {
    let values = runs.iter().filter_map(|r| r.metrics.get(metric));
    let mut s: Vec<f64> = values.copied().collect();
    s.sort_by(f64::total_cmp);
    let at = |i: usize| s.get(i).copied().unwrap_or(f64::NAN);
    let last = s.len().saturating_sub(1);
    let median = (at(last / 2) + at(s.len() / 2)) / 2.0;
    let stats = [("median", median), ("min", at(0)), ("max", at(last))];
    obj(stats.map(|(k, x)| (k, f64_value(x))))
}

/// Writes a `BENCH_<date>.json` document. `workloads` holds each declared
/// workload's timed runs, then its traced run; `cli` each [`CLI_ROWS`]
/// row's run wall times and stdout digest (FNV-1a); `tools` each
/// [`TOOL_ROWS`] row's timed wall time. Times are host seconds. The
/// document also records gh-par's parallelism, which the threaded rows
/// depend on.
pub fn document(
    date: &str,
    bench: &Benchmark,
    workloads: &[Vec<Run>],
    cli: &[(Vec<f64>, u64)],
    tools: &[f64],
) -> String {
    let workloads = bench.workloads.iter().zip(workloads).map(|(name, runs)| {
        let (timed, traced) = runs.split_at(runs.len().min(TIMED_RUNS));
        let lines = arr(timed.iter().map(|r| r.line.clone()), "\n    ");
        let e2e = &bench.end_to_end;
        let spreads = e2e.iter().map(|m| (m.as_str(), spread(timed, m)));
        let traced = traced.first().map_or("null".into(), |r| r.line.clone());
        obj([
            ("name", quoted(name)),
            ("timed", lines),
            ("spread", obj(spreads)),
            ("traced", traced),
        ])
    });
    let grace_bench = obj([
        ("command", arr(bench.command.iter().map(|c| quoted(c)), "")),
        ("seed", SEED.to_string()),
        ("run_seconds", f64_value(bench.run_seconds)),
        ("workloads", arr(workloads, "\n  ")),
    ]);
    let cli = CLI_ROWS.iter().zip(cli).map(|(args, (walls, digest))| {
        let walls = arr(walls.iter().map(|w| f64_value(*w)), "");
        let digest = quoted(&format!("0x{digest:016x}"));
        obj([
            ("args", quoted(args)),
            ("wall_s", walls),
            ("stdout_fnv1a64", digest),
        ])
    });
    let tools = TOOL_ROWS.iter().zip(tools).map(|((_, cmd), wall)| {
        let cmd = quoted(&format!("cargo {cmd}"));
        obj([("command", cmd), ("wall_s", f64_value(*wall))])
    });
    let doc = obj([
        ("schema", quoted("gh-bench-trajectory/1")),
        ("date", quoted(date)),
        ("parallelism", gh_par::default_parallelism().to_string()),
        ("grace_bench", grace_bench),
        ("cli", arr(cli, "\n  ")),
        ("tools", arr(tools, "\n  ")),
    ]);
    doc + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The last stdout line of `grace-bench --workload rodinia --seed 1
    /// --seconds 15 --trace 0`.
    const RECORDED: &str = r#"{"correct":true,"attempted":480,"failed":0,"metrics":{"wall_s":{"value":0.18671042418388092,"unit":"s"},"setup_s":{"value":0.03220003774297037,"unit":"s"},"peak_heap_mib":{"value":12.3929123878479,"unit":"MiB"}}}"#;

    fn repo() -> Benchmark {
        Benchmark::parse(include_str!("../../../BENCHMARK.json")).unwrap()
    }

    fn e2e() -> Vec<String> {
        repo().end_to_end
    }

    #[test]
    fn the_repo_benchmark_declares_five_workloads_and_three_end_to_end_metrics() {
        assert_eq!(repo().workloads.len(), 5);
        assert_eq!(e2e(), ["wall_s", "setup_s", "peak_heap_mib"]);
    }

    #[test]
    fn a_recorded_line_parses_into_its_metrics() {
        let run = parse_run(RECORDED, &e2e()).unwrap();
        assert_eq!(run.metrics.get("setup_s"), Some(&0.03220003774297037));
        assert_eq!(run.metrics.len(), 3);
    }

    #[test]
    fn bad_lines_fail_naming_the_problem() {
        for (line, problem) in [
            (RECORDED.replace("true", "false"), "not \"correct\" (0"),
            (RECORDED.replace(":0,", ":2,"), "not \"correct\" (2"),
            (RECORDED[..RECORDED.len() / 2].into(), "not JSON"),
            ("grace-bench: unknown workload".into(), "not JSON"),
            (RECORDED.replace("\"setup_s\"", "\"setup\""), "\"setup_s\""),
        ] {
            let err = parse_run(&line, &e2e()).unwrap_err();
            assert!(err.contains(problem), "{line}: {err}");
        }
    }

    /// Every number in `v`.
    fn numbers(v: &Value, out: &mut Vec<f64>) {
        match v {
            Value::Num(n) => out.push(*n),
            Value::Arr(a) => a.iter().for_each(|x| numbers(x, out)),
            Value::Obj(m) => m.values().for_each(|x| numbers(x, out)),
            _ => {}
        }
    }

    #[test]
    fn the_document_round_trips_with_every_sample() {
        let run = |i: usize| parse_run(&RECORDED.replace("0.186", &format!("{i}.186")), &e2e());
        let workloads = vec![(0..=TIMED_RUNS)
            .map(|i| run(i).unwrap())
            .collect::<Vec<_>>()];
        let cli = [(vec![4.5, 4.75, 5.0], 0xfeed)];
        let doc = document("2026-01-01", &repo(), &workloads, &cli, &[6.25]);
        let v = Value::parse(&doc).unwrap();
        let mut got = Vec::new();
        numbers(&v, &mut got);
        let samples = workloads[0]
            .iter()
            .flat_map(|r| r.metrics.values().copied());
        for x in samples.chain([4.5, 4.75, 5.0, 6.25, 480.0]) {
            assert!(got.contains(&x), "{x} is missing from {doc}");
        }
        assert_eq!(v.get("date").and_then(Value::as_str), Some("2026-01-01"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A recorded line, cut short and spliced with JSON pieces, parses
        /// or fails; it never panics, and what parses carries every metric.
        #[test]
        fn hostile_lines_never_panic(
            cut in 0usize..220,
            splices in proptest::collection::vec((0usize..220, 0usize..14), 0..6),
        ) {
            let pieces: Vec<&str> = r#"{ } [ ] " : , null true false -1e999 "value" \u12 é"#.split(' ').collect();
            let mut line: Vec<char> = RECORDED.chars().take(cut).collect();
            for (at, piece) in splices {
                let at = at.min(line.len());
                line.splice(at..at, pieces[piece].chars());
            }
            let line: String = line.into_iter().collect();
            if let Ok(run) = parse_run(&line, &e2e()) {
                prop_assert!(e2e().iter().all(|m| run.metrics.contains_key(m)), "{line}");
            }
        }
    }
}
