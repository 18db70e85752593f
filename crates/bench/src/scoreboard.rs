//! Reproduction scoreboard: every paper claim checked in one run.
//!
//! Each entry re-derives one of the paper's qualitative claims from a
//! fresh (fast-scale) experiment and reports pass/fail. This is the
//! one-command answer to "does this reproduction still hold?" — the same
//! claims are enforced as unit tests at full scale.

use gh_profiler::Csv;

/// One verified claim.
#[derive(Debug)]
pub struct Claim {
    /// Paper reference (figure/section).
    pub source: &'static str,
    /// The claim, in one sentence.
    pub claim: &'static str,
    /// Whether the fresh measurement supports it.
    pub holds: bool,
    /// The measured evidence, formatted.
    pub evidence: String,
}

/// Runs the full scoreboard (fast-scale experiments).
pub fn run() -> Vec<Claim> {
    let mut claims = Vec::new();

    // §2.1 bandwidths.
    {
        let csv = crate::bandwidth::run(true);
        let ok = crate::bandwidth::validate(&csv).is_ok();
        claims.push(Claim {
            source: "§2.1",
            claim: "STREAM and Comm|Scope bandwidths match the measured hardware",
            holds: ok,
            evidence: csv.render().lines().skip(1).collect::<Vec<_>>().join("; "),
        });
    }

    // Fig 3: system vs managed for CPU-init apps.
    {
        let csv = crate::fig03_overview::run(true);
        let mut ok = true;
        let mut ev = Vec::new();
        for app in ["needle", "pathfinder", "hotspot", "bfs"] {
            let s = crate::fig03_overview::speedup(&csv, app, "system");
            let m = crate::fig03_overview::speedup(&csv, app, "managed");
            ok &= s > m;
            ev.push(format!("{app}: sys {s:.2} vs man {m:.2}"));
        }
        claims.push(Claim {
            source: "Fig 3",
            claim: "system memory beats managed for CPU-initialized applications",
            holds: ok,
            evidence: ev.join("; "),
        });
    }

    // Fig 4: managed RSS collapse.
    {
        let csv = crate::fig04_hotspot_profile::run(true);
        let (peak, late, gpu) = crate::fig04_hotspot_profile::shape(&csv, "managed");
        let (s_peak, s_late, _) = crate::fig04_hotspot_profile::shape(&csv, "system");
        let ok = late < peak / 2.0 && gpu > peak / 2.0 && s_late > s_peak * 0.6;
        claims.push(Claim {
            source: "Fig 4",
            claim: "managed memory migrates at compute start (RSS collapses); system stays CPU-resident",
            holds: ok,
            evidence: format!(
                "managed rss {peak:.1}→{late:.1} MiB, gpu peak {gpu:.1}; system rss stays {s_late:.1}/{s_peak:.1}"
            ),
        });
    }

    // Fig 5: init ramps.
    {
        let csv = crate::fig05_qiskit_profile::run(true);
        let sys = crate::fig05_qiskit_profile::ramp_time(&csv, "system", 0.9);
        let man = crate::fig05_qiskit_profile::ramp_time(&csv, "managed", 0.9);
        claims.push(Claim {
            source: "Fig 5",
            claim: "GPU-side init ramps slowly for system memory, instantly for managed",
            holds: sys > man * 2.0,
            evidence: format!("ramp: system {sys:.3} ms vs managed {man:.3} ms"),
        });
    }

    // Fig 6: dealloc page-count effect.
    {
        let csv = crate::fig06_alloc_dealloc::run(true);
        let r = crate::fig06_alloc_dealloc::dealloc_ratio(&csv, "srad");
        claims.push(Claim {
            source: "Fig 6",
            claim: "de-allocation is far cheaper with 64 KiB pages (page-count bound)",
            holds: r > 4.0,
            evidence: format!("srad dealloc 4k/64k ratio {r:.1}x"),
        });
    }

    // Fig 8: system page-size speedup grows with size.
    {
        let csv = crate::fig08_qv_pagesize::run(true);
        let small = crate::fig08_qv_pagesize::speedup(&csv, 24, "system");
        let large = crate::fig08_qv_pagesize::speedup(&csv, 27, "system");
        claims.push(Claim {
            source: "Fig 8",
            claim: "the system version's 64 KiB speedup grows with the qubit count",
            holds: large > small && large > 1.5,
            evidence: format!("24q: {small:.2}x → 27q: {large:.2}x"),
        });
    }

    // Fig 9: init improvement at 64 KiB.
    {
        let csv = crate::fig09_qv_breakdown::run(true);
        let ratio = crate::fig09_qv_breakdown::init_ms(&csv, "system", "4k")
            / crate::fig09_qv_breakdown::init_ms(&csv, "system", "64k");
        claims.push(Claim {
            source: "Fig 9",
            claim: "system-memory GPU init improves ~5x from 4 KiB to 64 KiB pages",
            holds: (3.0..=30.0).contains(&ratio),
            evidence: format!("init ratio {ratio:.1}x"),
        });
    }

    // Fig 10: delayed migration pacing.
    {
        let csv = crate::fig10_srad_migration::run(true);
        let c2c = crate::fig10_srad_migration::series(&csv, "system", 4);
        let ok = c2c[0] > 0.0 && c2c[1] > 0.0 && *c2c.last().unwrap() < c2c[0] * 0.2;
        claims.push(Claim {
            source: "Fig 10",
            claim: "access-counter migration drains SRAD's remote reads over iterations 1-4",
            holds: ok,
            evidence: format!(
                "C2C per iteration (MiB): {}",
                c2c.iter()
                    .map(|v| format!("{v:.1}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        });
    }

    // Fig 12: prefetch restores throughput.
    {
        let csv = crate::fig12_qv_throughput::run(true);
        let plain = crate::fig12_qv_throughput::col(&csv, "managed_4k", 1);
        let pref = crate::fig12_qv_throughput::col(&csv, "managed_4k_prefetch", 1);
        claims.push(Claim {
            source: "Fig 12",
            claim: "explicit prefetching converts C2C-throttled managed access into HBM-local",
            holds: pref > plain * 2.0,
            evidence: format!("L1-L2 rate: {plain:.0} → {pref:.0} GB/s"),
        });
    }

    // §9 future work: counter selectivity.
    {
        let csv = crate::future_work::run(true);
        let chase = crate::future_work::cell(&csv, "pointer_chase", "64k", "on", 4);
        let gups = crate::future_work::cell(&csv, "gups_sparse", "64k", "on", 4);
        claims.push(Claim {
            source: "§9",
            claim: "the counter engine migrates hot sets but ignores uniformly sparse traffic",
            holds: chase > 0.0 && gups == 0.0,
            evidence: format!("pointer_chase migrated {chase:.1} MiB, gups {gups:.1} MiB"),
        });
    }

    claims
}

/// Formats the scoreboard as a table.
pub fn render(claims: &[Claim]) -> Csv {
    let mut csv = Csv::new(["source", "holds", "claim", "evidence"]);
    for c in claims {
        csv.row([
            c.source.to_string(),
            if c.holds { "PASS" } else { "FAIL" }.to_string(),
            c.claim.to_string(),
            c.evidence.clone(),
        ]);
    }
    csv
}
