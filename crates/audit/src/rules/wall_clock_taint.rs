//! `wall-clock-taint`: host-time *values* must never reach model-visible
//! sinks — trace emission, counters, checksums, or a `RunReport`.
//!
//! The token-level `no-wall-clock` rule bans `Instant`/`SystemTime` from
//! model crates outright but exempts `gh-perf` wholesale — the
//! self-profiler's entire subject is host time. That per-crate exemption
//! is coarser than the actual invariant, which is about *values*: gh-perf
//! may read the clock all it wants as long as no wall-clock-derived
//! number flows into anything the determinism contract covers. This rule
//! tracks exactly that flow, in every crate including gh-perf, closing
//! the gap where a profiler refactor could route a measured duration into
//! a counter or report field and pass the old audit.
//!
//! Sources: `Instant::now()` / `SystemTime::now()`, `.elapsed()` /
//! `.duration_since(..)`, and calls through a `gh_perf` path. Propagation
//! is the default union (so `.as_nanos()`, arithmetic, and struct hops
//! keep the label). Sinks: `emit`/`count`/`observe`/`gauge` calls,
//! anything `*checksum*`-named, and `RunReport { .. }` field values.

use crate::ast::Expr;
use crate::callgraph::for_each_graph_fn;
use crate::dataflow::{self, Labels, TaintEnv, TaintSpec};
use crate::resolve::Workspace;
use crate::rules::{Finding, FlowRule};

/// The taint label for wall-clock-derived values.
const WALL: &str = "wall";

/// Types whose `now()` reads host time.
const CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// Methods that produce a host-time measurement from a clock value.
const CLOCK_METHODS: [&str; 2] = ["elapsed", "duration_since"];

/// Call/method names that feed model-visible outputs.
const SINKS: [&str; 4] = ["emit", "count", "observe", "gauge"];

/// See module docs.
#[derive(Debug)]
pub struct WallClockTaint;

impl FlowRule for WallClockTaint {
    fn name(&self) -> &'static str {
        "wall-clock-taint"
    }

    fn describe(&self) -> &'static str {
        "wall-clock-derived values must not flow into traces, counters, checksums, or RunReport"
    }

    fn check_workspace(&self, ws: &Workspace<'_>, out: &mut Vec<Finding>) {
        for_each_graph_fn(ws.files, &ws.asts, &mut |_, fidx, _, fd| {
            let file = &ws.files[fidx];
            let mut spec = Spec {
                findings: Vec::new(),
            };
            dataflow::run_fn(&mut spec, fd, TaintEnv::default());
            spec.findings.sort_unstable();
            spec.findings.dedup();
            for (line, sink) in spec.findings {
                out.push(Finding {
                    rule: self.name(),
                    path: file.rel_path.clone(),
                    line,
                    msg: format!(
                        "wall-clock-derived value reaches {sink}; host time must \
                         never feed model-visible output — derive the value from \
                         the virtual clock or keep it inside the profiler"
                    ),
                });
            }
        });
    }
}

struct Spec {
    /// (line, sink description)
    findings: Vec<(u32, &'static str)>,
}

/// True when a call/method name is a model-output sink; returns its
/// description.
fn sink_desc(name: &str) -> Option<&'static str> {
    if SINKS.contains(&name) {
        return Some("a trace/counter sink");
    }
    if name.contains("checksum") {
        return Some("a checksum");
    }
    None
}

impl TaintSpec for Spec {
    fn call(&mut self, e: &Expr, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Call { callee, line, .. } = e else {
            return args.iter().cloned().fold(Labels::new(), dataflow::union);
        };
        if let Expr::Path { segs, .. } = callee.as_ref() {
            if segs.len() >= 2
                && segs[segs.len() - 1] == "now"
                && CLOCK_TYPES.contains(&segs[segs.len() - 2].as_str())
            {
                return Labels::from([WALL]);
            }
            if segs.iter().any(|s| s == "gh_perf") {
                // Anything the profiler hands back is host-time-derived.
                return Labels::from([WALL]);
            }
            if let Some(desc) = segs.last().and_then(|s| sink_desc(s)) {
                if args.iter().any(|a| a.contains(WALL)) {
                    self.findings.push((*line, desc));
                }
                return Labels::new();
            }
        }
        args.iter().cloned().fold(Labels::new(), dataflow::union)
    }

    fn method(&mut self, e: &Expr, recv: Labels, args: &[Labels], _env: &mut TaintEnv) -> Labels {
        let Expr::Method { name, line, .. } = e else {
            return dataflow::union(
                recv,
                args.iter().cloned().fold(Labels::new(), dataflow::union),
            );
        };
        if CLOCK_METHODS.contains(&name.as_str()) {
            return Labels::from([WALL]);
        }
        if let Some(desc) = sink_desc(name) {
            if args.iter().any(|a| a.contains(WALL)) {
                self.findings.push((*line, desc));
            }
            return Labels::new();
        }
        args.iter()
            .fold(recv, |acc, a| dataflow::union(acc, a.clone()))
    }

    fn struct_lit(&mut self, e: &Expr, fields: &[(String, Labels)], _env: &mut TaintEnv) -> Labels {
        if let Expr::StructLit { segs, line, .. } = e {
            if segs.last().is_some_and(|s| s == "RunReport")
                && fields.iter().any(|(_, l)| l.contains(WALL))
            {
                self.findings.push((*line, "a RunReport field"));
            }
        }
        fields
            .iter()
            .map(|(_, l)| l.clone())
            .fold(Labels::new(), dataflow::union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};

    fn check_in(crate_name: &str, src: &str) -> Vec<Finding> {
        let files = vec![SourceFile::parse(
            &format!("crates/{crate_name}/src/lib.rs"),
            crate_name,
            FileKind::Lib,
            src,
        )];
        let ws = Workspace::build(&files);
        let mut out = Vec::new();
        WallClockTaint.check_workspace(&ws, &mut out);
        out
    }

    #[test]
    fn elapsed_into_counter_fires_even_in_gh_perf() {
        let src = "pub fn f(c: &Counters, t: Instant) { let d = t.elapsed(); c.count(d.as_nanos() as u64); }";
        let out = check_in("gh-perf", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("trace/counter sink"));
    }

    #[test]
    fn instant_now_into_checksum_fires() {
        let src = "pub fn f(h: &mut H) { let t = Instant::now(); h.mix_checksum(t.as_nanos()); }";
        assert_eq!(check_in("gh-mem", src).len(), 1);
    }

    #[test]
    fn tainted_run_report_field_fires() {
        let src = "pub fn f(t: Instant) -> RunReport { let ns = t.elapsed().as_nanos() as u64; RunReport { sim_ns: ns } }";
        let out = check_in("gh-cli", src);
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("RunReport"));
    }

    #[test]
    fn gh_perf_internal_timing_is_clean() {
        // Measuring and storing host time inside the profiler is the
        // profiler's job; only model-visible sinks are flagged.
        let src = "pub fn f(&mut self) { let t = Instant::now(); self.samples.push(t.elapsed()); }";
        assert!(check_in("gh-perf", src).is_empty());
    }

    #[test]
    fn virtual_clock_values_are_clean() {
        let src = "pub fn f(c: &Counters, clk: &Clock) { c.count(clk.now_ns().get()); }";
        assert!(check_in("gh-mem", src).is_empty());
    }

    #[test]
    fn gh_perf_api_results_are_tainted_sources() {
        let src = "pub fn f(c: &Counters) { let d = gh_perf::scope_ns(); c.observe(d); }";
        assert_eq!(check_in("gh-cli", src).len(), 1);
    }

    #[test]
    fn duration_since_propagates_through_arithmetic() {
        let src = "pub fn f(c: &Counters, a: Instant, b: Instant) { let d = b.duration_since(a).as_nanos() as u64 / 1000; c.gauge(d); }";
        assert_eq!(check_in("gh-mem", src).len(), 1);
    }

    #[test]
    fn untainted_report_is_clean() {
        let src = "pub fn f(ns: u64) -> RunReport { RunReport { sim_ns: ns } }";
        assert!(check_in("gh-cli", src).is_empty());
    }
}
