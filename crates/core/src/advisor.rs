//! Memory-mode advisor: the paper's conclusions, operationalized.
//!
//! The paper ends with guidance — system-allocated memory benefits most
//! use cases with minimal porting effort, managed memory wins for
//! GPU-initialized data, page size is a first-order knob. This module
//! turns that into a tool: run a workload (as a replay trace) under
//! every (mode × page size) combination and report the ranking together
//! with the behavioural signals that explain it.

use crate::mode::MemMode;
use crate::platform::{self, MachineConfig, Platform, PlatformCaps};
use crate::replay;
use crate::report::RunReport;
use gh_mem::params::{KIB, MIB};

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct AdvisorRow {
    /// Memory-management strategy.
    pub mode: MemMode,
    /// System page size in bytes.
    pub page_size: u64,
    /// Reported total (ns, paper convention).
    pub total_ns: u64,
    /// The full report for deeper inspection.
    pub report: RunReport,
}

/// Result of an advisory run: rows sorted fastest-first plus derived
/// observations.
#[derive(Debug, Clone)]
pub struct Advice {
    /// All evaluated configurations, fastest first.
    pub rows: Vec<AdvisorRow>,
    /// Human-readable observations derived from the signals.
    pub notes: Vec<String>,
}

impl Advice {
    /// The winning configuration.
    pub fn best(&self) -> &AdvisorRow {
        &self.rows[0]
    }

    /// Renders a compact report.
    pub fn render(&self) -> String {
        let mut out = String::from("mode      page   total_ms   c2c_mib  migrated_mib  faults\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<9} {:<6} {:<10.3} {:<8} {:<13} {}\n",
                r.mode.label(),
                fmt_page(r.page_size),
                r.total_ns as f64 / 1e6,
                (r.report.traffic.c2c_read + r.report.traffic.c2c_write) >> 20,
                r.report.traffic.bytes_migrated_in >> 20,
                r.report.traffic.gpu_faults + r.report.traffic.ats_faults,
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// Evaluates `trace` under every (mode × page size) combination.
///
/// Each candidate run is traced on its own session bus so the derived
/// notes can cite *measured* event counts (fault costs, evictions, link
/// bytes) rather than only end-of-run traffic totals. Sessions are
/// per-machine: the advisor never touches ambient state, so it can run
/// concurrently with other (traced or untraced) simulations.
pub fn advise(trace: &str) -> Result<Advice, replay::ReplayError> {
    advise_on(platform::gh200(), trace)
}

/// Like [`advise`], but for an explicit platform: the sweep covers the
/// platform's supported page sizes, and migration-dependent guidance is
/// reported as not applicable where the hardware cannot migrate.
pub fn advise_on(p: &'static dyn Platform, trace: &str) -> Result<Advice, replay::ReplayError> {
    let caps = p.caps();
    let traced = gh_cuda::SessionOptions {
        trace: true,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for mode in MemMode::ALL {
        for &page in caps.page_sizes {
            #[expect(
                clippy::expect_used,
                reason = "page comes from the platform's own caps"
            )]
            let machine = p
                .machine_session(&MachineConfig::with_page_size(page), &traced)
                .expect("platform advertises this page size");
            let report = replay::replay(machine, trace, Some(mode))?;
            rows.push(AdvisorRow {
                mode,
                page_size: page,
                total_ns: report.reported_total(),
                report,
            });
        }
    }
    rows.sort_by_key(|r| r.total_ns);
    let notes = derive_notes(&caps, &rows);
    Ok(Advice { rows, notes })
}

/// Compact page-size label for the rendered table (`4k`, `64k`, `2m`).
fn fmt_page(ps: u64) -> String {
    if ps.is_multiple_of(MIB) {
        format!("{}m", ps / MIB)
    } else if ps.is_multiple_of(KIB) {
        format!("{}k", ps / KIB)
    } else {
        format!("{ps}b")
    }
}

/// Long-form page-size label for notes (`4 KiB`, `2 MiB`).
fn fmt_page_long(ps: u64) -> String {
    if ps.is_multiple_of(MIB) {
        format!("{} MiB", ps / MIB)
    } else if ps.is_multiple_of(KIB) {
        format!("{} KiB", ps / KIB)
    } else {
        format!("{ps} B")
    }
}

fn derive_notes(caps: &PlatformCaps, rows: &[AdvisorRow]) -> Vec<String> {
    let mut notes = Vec::new();
    let best = &rows[0];
    notes.push(format!(
        "best configuration: {} memory with {} pages",
        best.mode.label(),
        fmt_page_long(best.page_size)
    ));
    if !caps.migration {
        notes.push(format!(
            "page-migration guidance not applicable on {}: single physical \
             pool, pages never migrate",
            caps.name
        ));
    }
    if best.mode == MemMode::System {
        notes.push(
            "system-allocated memory wins: coherent NVLink-C2C access avoids \
             fault-driven migration (the paper's headline result)"
                .into(),
        );
    }
    if let Some(r) = rows.iter().find(|r| r.mode == MemMode::System) {
        if r.report.traffic.ats_faults > 0 {
            let mut note = format!(
                "system memory pays {} GPU-first-touch (ATS) faults — consider \
                 cudaHostRegister pre-population or 64 KiB pages (paper 5.1.2)",
                r.report.traffic.ats_faults
            );
            // Cite the measured per-fault cost distribution when traced.
            if let Some(t) = &r.report.trace {
                if let Some(h) = t.metrics.histogram("fault.cost_ns") {
                    if h.count > 0 {
                        note.push_str(&format!(
                            " [measured: mean fault cost {:.0} ns, max {} ns]",
                            h.mean(),
                            h.max
                        ));
                    }
                }
            }
            notes.push(note);
        }
    }
    if let Some(r) = rows
        .iter()
        .find(|r| r.mode == MemMode::Managed)
        .filter(|_| caps.migration)
    {
        if r.report.traffic.pages_migrated_out > 0 {
            let mut note = String::from(
                "managed memory evicted under GPU memory pressure — expect \
                 oversubscription churn; system memory degrades more gracefully \
                 (paper Fig 11)",
            );
            if let Some(t) = &r.report.trace {
                let ev = t.counter("uvm.evictions");
                let out = t.counter("uvm.bytes_migrated_out");
                if ev > 0 {
                    note.push_str(&format!(
                        " [measured: {} eviction events, {} MiB migrated out]",
                        ev,
                        out >> 20
                    ));
                }
            }
            notes.push(note);
        }
    }
    let sys64 = rows
        .iter()
        .find(|r| r.mode == MemMode::System && r.page_size == 65536);
    let sys4 = rows
        .iter()
        .find(|r| r.mode == MemMode::System && r.page_size == 4096);
    // A zero total (an empty trace) supports no page-size claim.
    let timed = |r: &&AdvisorRow| r.total_ns > 0;
    if let (Some(a), Some(b)) = (sys64.filter(timed), sys4.filter(timed)) {
        let ratio = b.total_ns as f64 / a.total_ns as f64;
        if ratio > 1.5 {
            notes.push(format!(
                "64 KiB pages are {ratio:.1}x faster for the system version \
                 (fault-count dominated, paper Fig 8/9)"
            ));
        } else if ratio < 0.67 {
            notes.push(format!(
                "4 KiB pages are {:.1}x faster for the system version \
                 (migration amplification, paper Fig 7)",
                1.0 / ratio
            ));
        }
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPU_INIT_TRACE: &str = "
alloc data system 16m
cpu_write data 0 16m
kernel sweep
  read data 0 16m
end
";

    const GPU_INIT_TRACE: &str = "
alloc sv system 16m
kernel init
  write sv 0 16m
end
kernel gate
  read sv 0 16m
  write sv 0 16m
end
";

    #[test]
    fn cpu_initialized_workload_prefers_system_memory() {
        let advice = advise(CPU_INIT_TRACE).unwrap();
        assert_eq!(advice.rows.len(), 6);
        assert_eq!(advice.best().mode, MemMode::System, "\n{}", advice.render());
        assert!(advice.notes.iter().any(|n| n.contains("system")));
    }

    #[test]
    fn gpu_initialized_workload_flags_ats_faults() {
        let advice = advise(GPU_INIT_TRACE).unwrap();
        assert!(
            advice.notes.iter().any(|n| n.contains("ATS")),
            "\n{}",
            advice.render()
        );
        // The system-4K row must be the slowest system row.
        let sys: Vec<_> = advice
            .rows
            .iter()
            .filter(|r| r.mode == MemMode::System)
            .collect();
        assert!(sys[0].page_size > sys[1].page_size || sys[0].total_ns <= sys[1].total_ns);
    }

    #[test]
    fn render_contains_all_rows() {
        let advice = advise(CPU_INIT_TRACE).unwrap();
        let text = advice.render();
        assert!(text.matches("system").count() >= 2);
        assert!(text.contains("managed"));
        assert!(text.contains("explicit"));
        assert!(text.contains("note:"));
    }

    #[test]
    fn rows_are_sorted_fastest_first() {
        let advice = advise(CPU_INIT_TRACE).unwrap();
        assert!(advice
            .rows
            .windows(2)
            .all(|w| w[0].total_ns <= w[1].total_ns));
    }

    #[test]
    fn advise_on_mi300a_flags_migration_as_not_applicable() {
        let advice = advise_on(platform::mi300a(), CPU_INIT_TRACE).unwrap();
        // 3 modes × the platform's 2 page sizes.
        assert_eq!(advice.rows.len(), 6);
        assert!(
            advice.notes.iter().any(|n| n.contains("not applicable")),
            "\n{}",
            advice.render()
        );
        for r in &advice.rows {
            assert_eq!(r.report.platform, "mi300a");
            assert_eq!(r.report.traffic.pages_migrated_in, 0);
            assert_eq!(r.report.traffic.pages_migrated_out, 0);
        }
    }

    #[test]
    fn an_empty_trace_makes_no_page_size_claim() {
        let text = advise_on(platform::gh200(), "").unwrap().render();
        assert!(!text.contains("inf"), "\n{text}");
        assert!(!text.contains("pages are"), "\n{text}");
    }

    #[test]
    fn render_labels_huge_pages() {
        let advice = advise_on(platform::mi300a(), CPU_INIT_TRACE).unwrap();
        let text = advice.render();
        assert!(text.contains("4k"));
        assert!(text.contains("2m"), "\n{text}");
    }
}
