//! Goldens for the page-migration paths: fault migration with
//! cross-allocation eviction, LRU eviction, the thrash pin, retrieval to
//! the CPU, prefetch in both directions (including one that un-pins) and
//! access-counter migration. Each run pins the report digest
//! (`fnv1a64(to_json())`) and the number of pages migrated, on gh200 at
//! 64 KiB and at 4 KiB system pages, so a faster migration path that
//! moves one page differently, hands out another frame or shoots down
//! another TLB entry shows up here.
//!
//! The app and QV runs consume their machine, so their migrated-page
//! count is read from the trace bus: `uvm.pages_migrated_in`,
//! `uvm.pages_migrated_out` and `counters.pages_migrated_in` partition
//! every migration, and the runtime sequences check that their sum
//! equals `Runtime::migrated_pages()`. Tracing leaves the report, and so
//! the digest, unchanged. Every session pins `sanitize: Some(false)` so
//! the digests agree between `cargo test` and `cargo test --release`.

use gh_units::Bytes;
use grace_mem::jobs::fnv1a64;
use grace_mem::sim::{Buffer, Machine, MachineConfig, Phase, RunReport};
use grace_mem::{platform, run_qv, AppId, MemMode, Node, QsimParams, SessionOptions};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// System page sizes every run is pinned at.
const PAGES: [u64; 2] = [64 * KIB, 4 * KIB];

/// A traced, unsanitized gh200 at system page size `page`.
fn machine(page: u64) -> Machine {
    let so = SessionOptions {
        trace: true,
        sanitize: Some(false),
        ..Default::default()
    };
    platform::gh200()
        .machine_session(&MachineConfig::with_page_size(page), &so)
        .expect("gh200 supports 4 KiB and 64 KiB pages")
}

/// Pages the run migrated, from its trace bus counters.
fn migrated(r: &RunReport) -> u64 {
    let t = r.trace.as_ref().expect("the session traces");
    t.counter("uvm.pages_migrated_in")
        + t.counter("uvm.pages_migrated_out")
        + t.counter("counters.pages_migrated_in")
}

fn digest(r: &RunReport) -> u64 {
    fnv1a64(r.to_json().as_bytes())
}

/// Checks `(digest, migrated pages)` of each named run against
/// `goldens`, in order, and reports every mismatch at once.
fn check(runs: &[(String, u64, u64)], goldens: &[(u64, u64)]) {
    let mut bad = Vec::new();
    for (i, (name, d, m)) in runs.iter().enumerate() {
        if goldens.get(i) != Some(&(*d, *m)) {
            bad.push(format!("{name}: ({d:#018x}, {m})"));
        }
    }
    assert!(
        bad.is_empty() && runs.len() == goldens.len(),
        "moved from the recorded goldens:\n{}",
        bad.join("\n")
    );
}

/// QV on a GPU that holds three quarters of the statevector. First touch
/// evicts the statevector's own blocks. Without prefetch the kernels'
/// faults fall back to remote mappings until the driver pins the
/// statevector CPU-side; with prefetch each window evicts the one
/// before it, and the faults between windows fall back too.
#[test]
fn qv_managed_under_a_small_gpu_matches_recorded_goldens() {
    const GOLDENS: [(u64, u64); 4] = [
        (0x267e_1a27_0ff8_3684, 160),    // 64 KiB, no prefetch
        (0x5746_9f14_1b53_e88f, 50592),  // 64 KiB, prefetch
        (0xd8cc_2993_6724_4484, 2560),   // 4 KiB, no prefetch
        (0xc6cc_4c18_2926_b1e5, 809472), // 4 KiB, prefetch
    ];
    let mut runs = Vec::new();
    for page in PAGES {
        for prefetch in [false, true] {
            let p = QsimParams {
                sim_qubits: 20, // an 8 MiB statevector
                prefetch,
                ..QsimParams::default()
            };
            let mut m = machine(page);
            m.oversubscribe(8 * MIB, 4.0 / 3.0);
            let r = run_qv(m, MemMode::Managed, &p);
            let t = r.trace.as_ref().expect("the session traces");
            assert!(t.counter("uvm.evictions") > 0, "no eviction");
            assert!(t.counter("uvm.remote_fallbacks") > 0, "no remote fallback");
            assert_eq!(
                t.counter("uvm.cpu_pins") > 0,
                !prefetch,
                "pinned iff no prefetch"
            );
            let name = format!("qv20 {} KiB prefetch {prefetch}", page / KIB);
            runs.push((name, digest(&r), migrated(&r)));
        }
    }
    check(&runs, &GOLDENS);
}

/// needle, srad and bfs under the paper's 1.5x balloon: every app's
/// kernels fault CPU-initialised blocks in, and srad's run evicts blocks
/// to make room for them.
#[test]
fn oversubscribed_apps_match_recorded_goldens() {
    const GOLDENS: [(u64, u64); 6] = [
        (0x82ce_72ef_c79c_2085, 12),   // needle 64 KiB
        (0x0a94_2137_46cb_8319, 164),  // srad 64 KiB
        (0x8da1_f777_84e0_1f8e, 19),   // bfs 64 KiB
        (0x4a8b_ed9e_502d_c840, 132),  // needle 4 KiB
        (0x8d69_3e72_b8ba_f12a, 2624), // srad 4 KiB
        (0x6238_cc82_9ab8_d836, 232),  // bfs 4 KiB
    ];
    let mut runs = Vec::new();
    for page in PAGES {
        let mut evictions = 0;
        for app in [AppId::Needle, AppId::Srad, AppId::Bfs] {
            let baseline = machine(page).rt.gpu_used();
            let peak = app.run_small(machine(page), MemMode::Managed).peak_gpu - baseline;
            let mut m = machine(page);
            m.oversubscribe(peak, 1.5);
            let r = app.run_small(m, MemMode::Managed);
            let t = r.trace.as_ref().expect("the session traces");
            assert!(t.counter("uvm.pages_migrated_in") > 0, "no fault migration");
            evictions += t.counter("uvm.evictions");
            let name = format!("{} {} KiB", app.name(), page / KIB);
            runs.push((name, digest(&r), migrated(&r)));
        }
        assert!(evictions > 0, "no eviction");
    }
    check(&runs, &GOLDENS);
}

/// Runs `body` on a fresh machine and returns the report and
/// `Runtime::migrated_pages()`, checked against the bus counters.
fn sequence(page: u64, body: impl FnOnce(&mut Machine)) -> (RunReport, u64) {
    let mut m = machine(page);
    body(&mut m);
    let pages = m.rt.migrated_pages();
    let r = m.finish();
    assert_eq!(migrated(&r), pages, "bus counters and the runtime disagree");
    (r, pages)
}

fn kernel(m: &mut Machine, name: &str, buf: &Buffer, off: u64, len: u64, write: bool) {
    let mut k = m.rt.launch(name);
    if write {
        k.write(buf, off, len);
    } else {
        k.read(buf, off, len);
    }
    k.compute(len / 8);
    k.finish();
}

/// Two managed buffers on a GPU that holds six of their ten MiB. Pages
/// go to the GPU by fault and by prefetch and come back by eviction, by
/// the thrash pin, by CPU reads and writes (retrieval) and by prefetch
/// to the CPU, over ranges that start and end inside 2 MiB blocks; the
/// first prefetch after the pin un-pins the buffer.
#[test]
fn managed_round_trips_match_recorded_goldens() {
    const GOLDENS: [(u64, u64); 2] = [
        (0x3a5d_42d8_3dfd_a735, 718),   // 64 KiB
        (0x3a40_281c_95fc_964f, 11518), // 4 KiB
    ];
    let mut runs = Vec::new();
    for page in PAGES {
        let (r, n) = sequence(page, |m| {
            m.oversubscribe(12 * MIB, 2.0);
            m.phase(Phase::Alloc);
            let a = m.rt.cuda_malloc_managed(Bytes::new(8 * MIB), "a");
            let b = m.rt.cuda_malloc_managed(Bytes::new(2 * MIB), "b");
            m.phase(Phase::CpuInit);
            m.rt.cpu_write(&a, 0, 5 * MIB);
            m.phase(Phase::Compute);
            kernel(m, "touch", &a, 0, 8 * MIB, true);
            for _ in 0..3 {
                kernel(m, "thrash", &a, 0, 8 * MIB, false);
            }
            m.rt.prefetch(&a, MIB + page, 5 * MIB, Node::Gpu);
            kernel(m, "touch b", &b, 0, 2 * MIB, true);
            m.rt.cpu_read(&a, MIB + 3 * page, 3 * MIB);
            m.rt.prefetch(&a, 0, 8 * MIB, Node::Gpu);
            m.rt.prefetch(&a, 3 * MIB - page, 4 * MIB, Node::Cpu);
            kernel(m, "read b", &b, 0, 2 * MIB, false);
            m.rt.prefetch(&b, page, 2 * MIB - 2 * page, Node::Cpu);
            m.rt.cpu_write(&a, 0, 8 * MIB);
            m.phase(Phase::Dealloc);
            m.rt.free(a);
            m.rt.free(b);
        });
        let t = r.trace.as_ref().expect("the session traces");
        for c in ["uvm.evictions", "uvm.cpu_pins", "uvm.pages_migrated_out"] {
            assert!(t.counter(c) > 0, "{c} is 0");
        }
        runs.push((format!("round trips {} KiB", page / KIB), digest(&r), n));
    }
    check(&runs, &GOLDENS);
}

/// CPU-resident system pages read over and over by GPU kernels: the
/// access counters trip and the driver migrates the touched pages, in
/// runs broken by pages it never touched.
#[test]
fn counter_migration_matches_recorded_goldens() {
    const GOLDENS: [(u64, u64); 2] = [
        (0x50c6_1195_a42c_9e38, 96),   // 64 KiB
        (0x8ac7_0942_c46f_29cb, 1536), // 4 KiB
    ];
    let mut runs = Vec::new();
    for page in PAGES {
        let (r, n) = sequence(page, |m| {
            m.phase(Phase::Alloc);
            let b = m.rt.malloc_system(Bytes::new(12 * MIB), "s");
            m.phase(Phase::CpuInit);
            m.rt.cpu_write(&b, 0, 12 * MIB);
            m.phase(Phase::Compute);
            for i in 0..12 {
                kernel(m, "dense", &b, 0, 6 * MIB, false);
                // Every third page of the upper half, from a moving start.
                let mut k = m.rt.launch("strided");
                let start = 6 * MIB + (i % 3) * page;
                k.read_strided(&b, start, 64, 3 * page, (12 * MIB - start) / (3 * page));
                k.finish();
            }
            m.phase(Phase::Dealloc);
            m.rt.free(b);
        });
        assert!(n > 0, "no counter migration");
        runs.push((format!("counters {} KiB", page / KIB), digest(&r), n));
    }
    check(&runs, &GOLDENS);
}
