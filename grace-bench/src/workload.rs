//! The five workloads, built from a seed, and the passes that run them.
//!
//! An [`Op`] is the unit the benchmark times: one application or QV run
//! on a fresh machine, one `opmix` session, or one `small-jobs` batch.
//! Every op turns into one or more [`Outcome`]s (a batch gives one per
//! job), each carrying the digest of its report's JSON, which the
//! reference-walk [`oracle`] must reproduce.

// gh-audit: allow-file(no-wall-clock) -- times each op and each executor batch from outside; the readings are reported, never fed back into a simulation

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gh_apps::{bfs, hotspot, needle, pathfinder, srad, AppId, MemMode};
use gh_cuda::SessionOptions;
use gh_jobs::{JobCache, JobSpec};
use gh_profiler::Phase;
use gh_qsim::QsimParams;
use gh_sim::{platform, Machine, MachineConfig, RunReport};

use crate::layers::{ns, Pass, Probe};
use crate::opmix::{self, Call};
use crate::rng::{derive, SplitMix};
use crate::stats::Outcome;

/// Oversubscription ratio of the `oversub-managed` balloon.
pub const OVERSUB_RATIO: f64 = 1.5;
/// `small-jobs` executor workers. One: `run_suite` then runs each job
/// in submission order on the calling thread. With two workers on a
/// 2-vCPU shared host, a batch's time follows whichever vCPU another
/// tenant holds, and spread 37% over runs of one seed against 8% here.
pub const WORKERS: usize = 1;

/// A benchmark workload (`--workload <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five Rodinia apps, gh200 × {system, managed}.
    Rodinia,
    /// Managed memory under a 1.5× balloon, plus QV past the 96 MiB GPU.
    OversubManaged,
    /// QV with real amplitudes: gate arithmetic dominates host time.
    QvStatevector,
    /// A seeded stream of single runtime calls on gh200 and mi300a.
    Opmix,
    /// The `--small` job matrix on the concurrent executor.
    SmallJobs,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::Rodinia,
        Workload::OversubManaged,
        Workload::QvStatevector,
        Workload::Opmix,
        Workload::SmallJobs,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rodinia => "rodinia",
            Workload::OversubManaged => "oversub-managed",
            Workload::QvStatevector => "qv-statevector",
            Workload::Opmix => "opmix",
            Workload::SmallJobs => "small-jobs",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the inputs the benchmark times, or smaller inputs for the
/// warm-up and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The timed inputs: sized so that no op takes much more than a
    /// tenth of a second, which gives every op tens of timed samples per
    /// run (see [`crate::stats::sum_of_low_percentiles`]).
    Bench,
    /// Inputs that run in milliseconds.
    Test,
}

/// What a pass arms on every session it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Nothing: the timed configuration.
    Quiet,
    /// The gh-perf self-profiler.
    Perf,
    /// The gh-trace bus.
    Trace,
    /// The per-page reference access walk (the oracle).
    Oracle,
}

impl Arm {
    fn apply(self, so: &SessionOptions) -> SessionOptions {
        let mut so = so.clone();
        match self {
            Arm::Quiet => {}
            Arm::Perf => so.perf = true,
            Arm::Trace => so.trace = true,
            Arm::Oracle => so.access_ref = true,
        }
        so
    }
}

/// One application's input parameters.
#[derive(Debug, Clone)]
pub enum AppParams {
    /// Needleman-Wunsch.
    Needle(needle::NeedleParams),
    /// Pathfinder.
    Pathfinder(pathfinder::PathfinderParams),
    /// BFS.
    Bfs(bfs::BfsParams),
    /// Hotspot.
    Hotspot(hotspot::HotspotParams),
    /// SRAD.
    Srad(srad::SradParams),
}

impl AppParams {
    /// `app`'s defaults, with its input seed derived from `seed` and its
    /// size set by `scale`. At bench scale pathfinder and hotspot keep the
    /// paper-scaled defaults and the three slower apps shrink: needle to
    /// half the sequence length, bfs to a twentieth of the nodes, srad to
    /// a third of the image side. At test scale the sizes are those of
    /// `AppId::run_small`; a test checks that the two runs agree.
    pub fn new(app: AppId, seed: u64, scale: Scale) -> AppParams {
        let test = scale == Scale::Test;
        let salt = 1 + AppId::ALL.iter().position(|&a| a == app).unwrap_or(0) as u64;
        let s = |default| derive(seed, salt, default);
        match app {
            AppId::Needle => {
                let d = needle::NeedleParams::default();
                AppParams::Needle(needle::NeedleParams {
                    n: if test { 256 } else { d.n / 2 },
                    seed: s(d.seed),
                    ..d
                })
            }
            AppId::Pathfinder => {
                let d = pathfinder::PathfinderParams::default();
                AppParams::Pathfinder(pathfinder::PathfinderParams {
                    rows: if test { 500 } else { d.rows },
                    cols: if test { 400 } else { d.cols },
                    seed: s(d.seed),
                    ..d
                })
            }
            AppId::Bfs => {
                let d = bfs::BfsParams::default();
                AppParams::Bfs(bfs::BfsParams {
                    nodes: if test { 20_000 } else { d.nodes / 20 },
                    seed: s(d.seed),
                    ..d
                })
            }
            AppId::Hotspot => {
                let d = hotspot::HotspotParams::default();
                AppParams::Hotspot(hotspot::HotspotParams {
                    size: if test { 256 } else { d.size },
                    iterations: if test { 8 } else { d.iterations },
                    seed: s(d.seed),
                })
            }
            AppId::Srad => {
                let d = srad::SradParams::default();
                AppParams::Srad(srad::SradParams {
                    size: if test { 256 } else { d.size / 3 },
                    iterations: if test { 4 } else { d.iterations },
                    seed: s(d.seed),
                    ..d
                })
            }
        }
    }

    fn run(&self, m: Machine, mode: MemMode) -> RunReport {
        match self {
            AppParams::Needle(p) => needle::run(m, mode, p),
            AppParams::Pathfinder(p) => pathfinder::run(m, mode, p),
            AppParams::Bfs(p) => bfs::run(m, mode, p),
            AppParams::Hotspot(p) => hotspot::run(m, mode, p),
            AppParams::Srad(p) => srad::run(m, mode, p),
        }
    }
}

/// A finished simulation, before the benchmark digests it.
#[derive(Debug)]
pub struct Run {
    /// The run's report.
    pub report: RunReport,
    /// The run's self-profile, when the session armed gh-perf.
    pub perf: Option<gh_perf::PerfData>,
    /// Served from the job cache.
    pub cached: bool,
}

/// One timed unit of work.
#[derive(Debug)]
pub enum Op {
    /// An application run on a fresh gh200, optionally under a balloon
    /// sized from the app's calibrated peak GPU use.
    App {
        /// Oracle key.
        label: String,
        /// Inputs.
        params: AppParams,
        /// Memory mode.
        mode: MemMode,
        /// Calibrated peak GPU bytes to oversubscribe by [`OVERSUB_RATIO`].
        balloon: Option<u64>,
    },
    /// A Quantum Volume run on a fresh gh200.
    Qv {
        /// Oracle key.
        label: String,
        /// Inputs.
        params: QsimParams,
        /// Memory mode.
        mode: MemMode,
    },
    /// An `opmix` session on a fresh machine.
    Session {
        /// Oracle key.
        label: String,
        /// Platform registry name.
        platform: &'static str,
        /// The calls, in order.
        calls: Vec<Call>,
    },
    /// A `small-jobs` batch on the executor with a fresh cache.
    Batch {
        /// Display label.
        label: String,
        /// Job specs in submission order (quiet-pass sessions).
        specs: Vec<JobSpec>,
    },
}

/// FNV-1a digest of a report's JSON: the value the oracle checks.
pub fn digest(json: &str) -> u64 {
    gh_jobs::fnv1a64(json.as_bytes())
}

/// Boots a machine on `platform_name` under `so` and hands it to `body`,
/// draining the session's self-profile when it is armed.
fn simulate(
    platform_name: &str,
    so: &SessionOptions,
    probe: &mut Probe,
    body: impl FnOnce(Machine, &mut Probe) -> RunReport,
) -> Result<Run, String> {
    let p = platform::by_name(platform_name).map_err(|e| e.to_string())?;
    let m = probe
        .time("sim.machine_session", || {
            p.machine_session(&MachineConfig::default(), so)
        })
        .map_err(|e| e.to_string())?;
    let perf = m.rt.session().perf.clone();
    let report = body(m, probe);
    Ok(Run {
        report,
        perf: perf.is_on().then(|| perf.take()),
        cached: false,
    })
}

/// Runs one `opmix` session: boot, the calls, `Machine::finish`.
pub fn opmix_session(
    platform_name: &str,
    calls: &[Call],
    so: &SessionOptions,
    probe: &mut Probe,
) -> Result<Run, String> {
    simulate(platform_name, so, probe, |mut m, probe| {
        m.phase(Phase::Compute);
        opmix::execute(calls, &mut m, probe);
        probe.time("sim.finish", || m.finish())
    })
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panic: {msg}")
}

/// A quiet session: nothing armed, and the sanitizer pinned off so
/// reports are the same in every build profile.
fn quiet() -> SessionOptions {
    SessionOptions {
        sanitize: Some(false),
        ..Default::default()
    }
}

/// A job spec as `arm` runs it.
fn armed(spec: &JobSpec, arm: Arm) -> JobSpec {
    JobSpec {
        session: arm.apply(&spec.session),
        ..spec.clone()
    }
}

/// The oracle key of a job run under `arm`: the armed spec minus the
/// options that never change a report (profiling, the reference walk).
/// Tracing stays in: a sanitized run checks link conservation only when
/// traced, so its report counts more checks.
fn job_key(spec: &JobSpec, arm: Arm) -> String {
    let mut s = armed(spec, arm);
    s.session.perf = false;
    s.session.access_ref = false;
    s.canonical_key()
}

impl Op {
    /// Oracle keys of the outcomes this op produces under `arm`, in order.
    pub fn keys(&self, arm: Arm) -> Vec<String> {
        match self {
            Op::Batch { specs, .. } => specs.iter().map(|s| job_key(s, arm)).collect(),
            _ => vec![self.label().to_string()],
        }
    }

    /// The op's display label.
    pub fn label(&self) -> &str {
        match self {
            Op::App { label, .. }
            | Op::Qv { label, .. }
            | Op::Session { label, .. }
            | Op::Batch { label, .. } => label,
        }
    }

    /// Runs the op under `arm`, digesting every report into `pass`. A
    /// panic anywhere in the op fails each of its outcomes.
    pub fn execute(&self, arm: Arm, pass: &mut Pass) -> Vec<Outcome> {
        match catch_unwind(AssertUnwindSafe(|| self.run(arm, pass))) {
            Ok(outcomes) => outcomes,
            Err(payload) => {
                let msg = panic_message(payload);
                self.keys(arm)
                    .into_iter()
                    .map(|key| Outcome {
                        key,
                        digest: Err(msg.clone()),
                        cached: false,
                    })
                    .collect()
            }
        }
    }

    fn run(&self, arm: Arm, pass: &mut Pass) -> Vec<Outcome> {
        let so = arm.apply(&quiet());
        let single = |run: Result<Run, String>, pass: &mut Pass| {
            let key = self.label().to_string();
            vec![match run {
                Ok(run) => pass.settle(self.label(), key, run),
                Err(e) => Outcome {
                    key,
                    digest: Err(e),
                    cached: false,
                },
            }]
        };
        match self {
            Op::App {
                params,
                mode,
                balloon,
                ..
            } => {
                let run = simulate("gh200", &so, &mut pass.probe, |mut m, probe| {
                    if let Some(peak) = balloon {
                        probe.time("sim.oversubscribe", || {
                            m.oversubscribe(*peak, OVERSUB_RATIO)
                        });
                    }
                    probe.time("apps.run", || params.run(m, *mode))
                });
                single(run, pass)
            }
            Op::Qv { params, mode, .. } => {
                let run = simulate("gh200", &so, &mut pass.probe, |m, probe| {
                    probe.time("qsim.run_qv", || gh_qsim::run_qv(m, *mode, params))
                });
                single(run, pass)
            }
            Op::Session {
                platform, calls, ..
            } => single(opmix_session(platform, calls, &so, &mut pass.probe), pass),
            Op::Batch { specs, .. } => {
                let jobs: Vec<JobSpec> = specs.iter().map(|s| armed(s, arm)).collect();
                let cache = Arc::new(JobCache::new());
                let t = Instant::now();
                let outs = gh_jobs::run_suite(&jobs, WORKERS, &cache);
                let wall = t.elapsed();
                pass.probe.record("jobs.run_suite", wall);
                let busy: u64 = outs
                    .iter()
                    .filter_map(|o| o.as_ref().ok()?.perf.as_ref())
                    .map(|p| p.host_total_ns)
                    .sum();
                pass.jobs
                    .add(cache.hits(), cache.misses(), busy, wall, WORKERS);
                self.keys(arm)
                    .into_iter()
                    .zip(outs)
                    .map(|(key, out)| match out {
                        Ok(o) => pass.settle(
                            self.label(),
                            key,
                            Run {
                                report: o.report,
                                perf: o.perf,
                                cached: o.cached,
                            },
                        ),
                        Err(e) => Outcome {
                            key,
                            digest: Err(e.to_string()),
                            cached: false,
                        },
                    })
                    .collect()
            }
        }
    }

    /// Adds the reference-walk digest of every key this op produces under
    /// `arm` that `table` lacks. Batches run each distinct job once.
    fn oracle_into(&self, arm: Arm, table: &mut BTreeMap<String, Result<u64, String>>) {
        match self {
            Op::Batch { specs, .. } => {
                for spec in specs {
                    let key = job_key(spec, arm);
                    if table.contains_key(&key) {
                        continue;
                    }
                    let mut job = armed(&armed(spec, arm), Arm::Oracle);
                    job.session.perf = false;
                    let d = catch_unwind(AssertUnwindSafe(|| gh_jobs::run_job(&job)))
                        .map_err(panic_message)
                        .and_then(|r| r.map_err(|e| e.to_string()))
                        .map(|(report, _)| digest(&report.to_json()));
                    table.insert(key, d);
                }
            }
            _ => {
                if !table.contains_key(self.label()) {
                    for o in self.execute(Arm::Oracle, &mut Pass::default()) {
                        table.insert(o.key, o.digest);
                    }
                }
            }
        }
    }
}

/// Runs every op once under `arm`, timing each.
pub fn run_pass(ops: &[Op], arm: Arm) -> (Pass, Vec<Outcome>) {
    let mut pass = Pass::default();
    let mut outcomes = Vec::new();
    for op in ops {
        let t = Instant::now();
        outcomes.extend(op.execute(arm, &mut pass));
        pass.op_ns.push(ns(t.elapsed()));
    }
    (pass, outcomes)
}

/// Reference-walk digests for every distinct key the ops produce under
/// any of `arms`.
pub fn oracle(ops: &[Op], arms: &[Arm]) -> BTreeMap<String, Result<u64, String>> {
    let mut table = BTreeMap::new();
    for op in ops {
        for &arm in arms {
            op.oracle_into(arm, &mut table);
        }
    }
    table
}

/// Peak GPU bytes above the driver baseline of an unconstrained managed
/// run: the paper's §3.2 recipe for sizing the oversubscription balloon.
fn calibrate(params: &AppParams) -> u64 {
    let m = platform::gh200().machine();
    let r = params.run(m, MemMode::Managed);
    r.peak_gpu
        .saturating_sub(platform::gh200().gpu_driver_baseline())
}

/// The ops of workload `w` for `seed`, in pass order. For
/// `oversub-managed` this runs the balloon calibration.
pub fn build(w: Workload, seed: u64, scale: Scale) -> Vec<Op> {
    let test = scale == Scale::Test;
    match w {
        Workload::Rodinia => {
            let mut ops = Vec::new();
            for app in AppId::ALL {
                let params = AppParams::new(app, seed, scale);
                for mode in [MemMode::System, MemMode::Managed] {
                    ops.push(Op::App {
                        label: format!("{}-gh200-{}", app.name(), mode.label()),
                        params: params.clone(),
                        mode,
                        balloon: None,
                    });
                }
            }
            ops
        }
        Workload::OversubManaged => {
            let mut ops = Vec::new();
            for app in [AppId::Needle, AppId::Srad, AppId::Bfs] {
                let params = AppParams::new(app, seed, scale);
                let peak = calibrate(&params);
                ops.push(Op::App {
                    label: format!("{}-gh200-managed-x{OVERSUB_RATIO}", app.name()),
                    params,
                    mode: MemMode::Managed,
                    balloon: Some(peak),
                });
            }
            // 24 sim-qubits = a 128 MiB statevector on the 96 MiB GPU.
            let qubits = if test { 14 } else { 24 };
            for prefetch in [false, true] {
                ops.push(Op::Qv {
                    label: format!(
                        "qv{qubits}-gh200-managed{}",
                        if prefetch { "-prefetch" } else { "" }
                    ),
                    params: QsimParams {
                        sim_qubits: qubits,
                        seed: derive(seed, 100, QsimParams::default().seed),
                        prefetch,
                        ..QsimParams::default()
                    },
                    mode: MemMode::Managed,
                });
            }
            ops
        }
        Workload::QvStatevector => {
            let mut ops = Vec::new();
            // 14 and 17 sim-qubits: 128 KiB and 1 MiB statevectors, whose
            // gate sweeps run on the host at two cache footprints.
            let sizes: [u32; 2] = if test { [8, 10] } else { [14, 17] };
            for qubits in sizes {
                let seed = derive(seed, 200 + u64::from(qubits), QsimParams::default().seed);
                for mode in [MemMode::System, MemMode::Managed] {
                    for fuse in [false, true] {
                        ops.push(Op::Qv {
                            label: format!(
                                "qv{qubits}-gh200-{}-{}",
                                mode.label(),
                                if fuse { "fused" } else { "unfused" }
                            ),
                            params: QsimParams {
                                sim_qubits: qubits,
                                seed,
                                compute_amplitudes: true,
                                fuse,
                                ..QsimParams::default()
                            },
                            mode,
                        });
                    }
                }
            }
            ops
        }
        Workload::Opmix => {
            // The oracle replays every session on the reference walk, which
            // allocates a fresh 12 MiB L2 model per launch (~0.3 ms): 20 k
            // calls per pass, 12 k of them launches, keep that replay near
            // 4 s.
            let (sessions, calls) = if test { (2, 400) } else { (10, 2_000) };
            (0..sessions)
                .map(|i| {
                    let platform = if i % 2 == 0 { "gh200" } else { "mi300a" };
                    let s = derive(seed, 300 + i, i + 1);
                    Op::Session {
                        label: format!("opmix-s{i}-{platform}"),
                        platform,
                        calls: opmix::generate(s, calls, opmix::limits(platform)),
                    }
                })
                .collect()
        }
        Workload::SmallJobs => {
            let (per_session, batches) = if test { (4, 2) } else { (usize::MAX, 1) };
            let sessions = [
                quiet(),
                SessionOptions {
                    trace: true,
                    ..quiet()
                },
                SessionOptions {
                    sanitize: Some(true),
                    ..quiet()
                },
                // The quiet specs again: a quarter of each batch hits the
                // cache.
                quiet(),
            ];
            let blocks: Vec<Vec<JobSpec>> = sessions
                .iter()
                .map(|so| {
                    gh_jobs::matrix(true, so)
                        .into_iter()
                        .take(per_session)
                        .collect()
                })
                .collect();
            // The seed orders the jobs within each session block only: the
            // blocks keep their places, so every repeat runs after its twin
            // and hits the cache.
            (0..batches)
                .map(|b| {
                    let mut rng = SplitMix::new(derive(seed, 400 + b, 0));
                    let mut specs = Vec::new();
                    for block in &blocks {
                        let mut block = block.clone();
                        if seed != 0 {
                            rng.shuffle(&mut block);
                        }
                        specs.extend(block);
                    }
                    Op::Batch {
                        label: format!("jobs-b{b}"),
                        specs,
                    }
                })
                .collect()
        }
    }
}

/// The benchmark's set-up: build the ops (calibrating the balloon for
/// `oversub-managed`), then warm up by running every op once at test
/// scale, so the thread pool and lazy state are live before timing.
pub fn setup(w: Workload, seed: u64, scale: Scale) -> Vec<Op> {
    let ops = build(w, seed, scale);
    let mut warm = Pass::default();
    for op in build(w, seed, Scale::Test) {
        op.execute(Arm::Quiet, &mut warm);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("rodinia-full"), None);
    }

    #[test]
    fn seed_zero_reproduces_crate_default_seeds() {
        let AppParams::Needle(p) = AppParams::new(AppId::Needle, 0, Scale::Bench) else {
            panic!("needle params");
        };
        let d = needle::NeedleParams::default();
        assert_eq!((p.seed, p.penalty), (d.seed, d.penalty));
        let ops = build(Workload::SmallJobs, 0, Scale::Test);
        let Op::Batch { specs, .. } = &ops[0] else {
            panic!("batch");
        };
        let natural: Vec<JobSpec> = gh_jobs::matrix(true, &quiet())
            .into_iter()
            .take(4)
            .collect();
        assert_eq!(specs[..4], natural[..]);
    }

    #[test]
    fn test_scale_at_seed_zero_is_run_small() {
        for app in AppId::ALL {
            let mode = MemMode::Managed;
            let ours = AppParams::new(app, 0, Scale::Test).run(platform::gh200().machine(), mode);
            let theirs = app.run_small(platform::gh200().machine(), mode);
            assert_eq!(ours.to_json(), theirs.to_json(), "{}", app.name());
        }
    }

    #[test]
    fn seeds_change_inputs_and_orders() {
        let seeds = |seed| match AppParams::new(AppId::Bfs, seed, Scale::Bench) {
            AppParams::Bfs(p) => p.seed,
            _ => unreachable!(),
        };
        assert_ne!(seeds(1), seeds(2));
        let keys = |seed| -> Vec<String> {
            build(Workload::SmallJobs, seed, Scale::Test)
                .iter()
                .flat_map(|op| op.keys(Arm::Quiet))
                .collect()
        };
        assert_ne!(keys(1), keys(2));
        assert_eq!(keys(1), keys(1));
    }

    #[test]
    fn same_seed_gives_the_same_oracle_digests() {
        for w in [
            Workload::Rodinia,
            Workload::QvStatevector,
            Workload::Opmix,
        ] {
            let a = oracle(&build(w, 5, Scale::Test), &[Arm::Quiet]);
            assert_eq!(
                a,
                oracle(&build(w, 5, Scale::Test), &[Arm::Quiet]),
                "{}",
                w.name()
            );
            assert_ne!(
                a,
                oracle(&build(w, 6, Scale::Test), &[Arm::Quiet]),
                "{}",
                w.name()
            );
            assert!(a.values().all(Result::is_ok), "{}: {a:?}", w.name());
        }
    }

    #[test]
    fn a_panicking_op_fails_each_of_its_outcomes() {
        let op = Op::Session {
            label: "bad".into(),
            platform: "gh200",
            // Frees a slot that was never allocated.
            calls: vec![Call::Free { slot: 0 }],
        };
        let out = op.execute(Arm::Quiet, &mut Pass::default());
        assert_eq!(out.len(), 1);
        assert!(out[0]
            .digest
            .as_ref()
            .is_err_and(|e| e.starts_with("panic")));
        let unknown = Op::Session {
            label: "unknown".into(),
            platform: "gh300",
            calls: vec![],
        };
        let out = unknown.execute(Arm::Quiet, &mut Pass::default());
        assert!(out[0].digest.as_ref().is_err_and(|e| e.contains("gh300")));
    }
}
