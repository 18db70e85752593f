//! Seeded differential test of `Kernel::fragments`, the access core
//! every metered access goes through. Every list call must leave the
//! `RunReport`, the trace stream and each kernel's per-buffer attribution
//! exactly as
//!
//! * the same fragments issued one call each (`read`/`write`, which are
//!   one-fragment calls, for dense fragments; a one-segment
//!   `read_strided`/`write_strided` for irregular ones), so merging
//!   across a list changes nothing, and
//! * the same list call under the per-page reference walk
//!   (`SessionOptions::access_ref`).
//!
//! The lists are drawn from a seeded generator: clustered ascending
//! touches (bfs's coalesced lists), strided rows (needle), unsorted
//! gathers, and mixed lists with empty, overlapping and page-straddling
//! fragments, over device, pinned, system and managed buffers whose
//! pages start CPU-resident, GPU-resident or unpopulated and move as the
//! access counters and the UVM driver migrate them — on gh200 also
//! with a balloon that leaves the GPU too small, so managed blocks are
//! evicted, remotely mapped and pinned. Every platform runs at two page
//! sizes, with counters on and off, traced and quiet, and with its own
//! GPU TLB and an 8-entry one: the platforms' own TLBs never evict in
//! these cases, the small one does.

use gh_units::Bytes;
use grace_mem::sim::{Buffer, Frag, Machine, MachineConfig, Phase, RunReport};
use grace_mem::{platform, SessionCtx, SessionOptions};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// SplitMix64: a seeded stream the three variants replay identically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One scenario: a platform at one page size, counters on or off, the
/// GPU roomy or tight.
#[derive(Clone, Copy)]
struct Case {
    platform: &'static str,
    page: u64,
    counters: bool,
    tight: bool,
    seed: u64,
}

/// How a variant issues each list.
#[derive(Clone, Copy, PartialEq)]
enum Issue {
    /// One `fragments` call per list.
    List,
    /// One `read`/`write`/one-segment strided call per fragment.
    EachFragment,
}

/// A fragment list over a buffer of `size` bytes with system pages of
/// `page` bytes.
fn frag_list(rng: &mut Rng, size: u64, page: u64) -> Vec<Frag> {
    // Lists of four pages or fewer, and lists spanning more.
    let span = match rng.below(3) {
        0 => page * (1 + rng.below(4)),
        1 => page * (5 + rng.below(60)),
        _ => 5 * MIB,
    }
    .min(size);
    let base = rng.below(size - span + 1);
    let n = 1 + rng.below(400);
    let mut frags = Vec::new();
    match rng.below(4) {
        // Clustered ascending touches, dense or irregular by length.
        0 => {
            let mut off = base;
            for _ in 0..n {
                off += rng.below(3 * 128);
                let len = match rng.below(8) {
                    0 => 2048 + rng.below(3 * page),
                    _ => 1 + rng.below(300),
                };
                if off + len > base + span {
                    break;
                }
                frags.push(Frag {
                    off,
                    len,
                    random: len < 2048,
                });
                off += len;
            }
        }
        // Strided rows; a stride below the row length overlaps them.
        1 => {
            let len = 1 + rng.below(512);
            let stride = 1 + rng.below(span / n.min(64) + 1);
            for i in 0..n.min(64) {
                let off = base + i * stride;
                if off + len > base + span {
                    break;
                }
                frags.push(Frag::irregular(off, len));
            }
        }
        // An unsorted gather.
        2 => {
            let len = [1, 8, 64, 200][rng.below(4) as usize];
            for _ in 0..n {
                frags.push(Frag::irregular(base + rng.below(span - len + 1), len));
            }
        }
        // Everything at once: empty, overlapping, page-straddling.
        _ => {
            for _ in 0..n.min(100) {
                let len = match rng.below(5) {
                    0 => 0,
                    1 => page + rng.below(2 * page),
                    _ => 1 + rng.below(700),
                };
                let len = len.min(span);
                let off = base + rng.below(span - len + 1);
                frags.push(Frag {
                    off,
                    len,
                    random: rng.below(2) == 0,
                });
            }
            if rng.below(2) == 0 {
                frags.sort_by_key(|f| f.off);
            }
        }
    }
    frags
}

/// Runs `case` once, with a GPU TLB of `tlb` entries when given, and
/// returns the report and each kernel's per-buffer attribution.
fn run(
    case: Case,
    tlb: Option<usize>,
    trace: bool,
    access_ref: bool,
    issue: Issue,
) -> (RunReport, String) {
    let p = platform::by_name(case.platform).expect("known platform");
    let cfg = MachineConfig {
        page_size: Some(case.page),
        auto_migration: case.counters,
        ..MachineConfig::default()
    };
    let so = SessionOptions {
        trace,
        access_ref,
        sanitize: Some(true),
        ..SessionOptions::default()
    };
    let mut params = p.cost_params(&cfg).expect("valid configuration");
    if let Some(entries) = tlb {
        params.gpu_tlb_entries = entries;
    }
    let session = SessionCtx::with_options(p.runtime_options(&cfg), &so);
    let mut m = Machine::with_session(params, session, p.caps());
    let mut rng = Rng(case.seed);
    m.phase(Phase::Alloc);
    let bufs: Vec<Buffer> = vec![
        m.rt.cuda_malloc(Bytes::new(8 * MIB), "device")
            .expect("fits in GPU memory"),
        m.rt.cuda_malloc_host(Bytes::new(2 * MIB), "pinned"),
        m.rt.malloc_system(Bytes::new(8 * MIB), "system"),
        m.rt.cuda_malloc_managed(Bytes::new(8 * MIB), "managed"),
    ];
    if case.tight {
        m.oversubscribe(6 * MIB, 1.5);
    }
    // Mixed residency: a CPU-written head, a GPU-written middle and an
    // unpopulated tail in the system and managed buffers.
    m.phase(Phase::CpuInit);
    m.rt.cpu_write(&bufs[2], 0, 3 * MIB);
    m.rt.cpu_write(&bufs[3], 0, 2 * MIB + 100 * KIB);
    m.phase(Phase::Compute);
    {
        let mut k = m.rt.launch("init");
        k.write(&bufs[2], 3 * MIB, 2 * MIB);
        k.write(&bufs[3], 3 * MIB, 2 * MIB);
        k.finish();
    }
    let mut attribution = String::new();
    for round in 0..4 {
        let mut k = m.rt.launch(&format!("round{round}"));
        for _ in 0..6 {
            let buf = &bufs[rng.below(bufs.len() as u64) as usize];
            let write = rng.below(2) == 0;
            let frags = frag_list(&mut rng, buf.len(), case.page);
            match issue {
                Issue::List => k.fragments(buf, write, frags),
                Issue::EachFragment => {
                    for f in frags {
                        match (f.random, write) {
                            (false, false) => k.read(buf, f.off, f.len),
                            (false, true) => k.write(buf, f.off, f.len),
                            (true, false) => k.read_strided(buf, f.off, f.len, f.len.max(1), 1),
                            (true, true) => k.write_strided(buf, f.off, f.len, f.len.max(1), 1),
                        }
                    }
                }
            }
        }
        attribution += &format!("{:?}\n", k.finish().by_buffer);
    }
    m.phase(Phase::Dealloc);
    for b in bufs {
        m.rt.free(b);
    }
    (m.finish(), attribution)
}

/// What a comparison looks at: report, trace stream, attribution.
fn outcome((report, attribution): &(RunReport, String)) -> (String, Option<String>, &str) {
    (report.to_json(), report.chrome_trace(), attribution)
}

#[test]
fn fragment_lists_match_per_fragment_calls_and_the_reference_walk() {
    let mut cases = Vec::new();
    for (platform, pages) in [
        ("gh200", [4 * KIB, 64 * KIB]),
        ("mi300a", [4 * KIB, 2 * MIB]),
    ] {
        for page in pages {
            for counters in [true, false] {
                for tight in [false, platform == "gh200"] {
                    cases.push(Case {
                        platform,
                        page,
                        counters,
                        tight,
                        seed: page / KIB + u64::from(counters) * 7 + u64::from(tight) * 13,
                    });
                }
            }
        }
    }
    // What the cases must reach between them, or they prove little.
    let (mut notifications, mut ats_faults, mut gpu_faults, mut migrated) = (0, 0, 0, 0);
    let (mut evicted, mut fallbacks, mut tlb_evictions, mut dropped) = (0, 0, 0, 0);
    for case in cases {
        for (tlb, trace) in [None, Some(8)]
            .into_iter()
            .flat_map(|tlb| [(tlb, false), (tlb, true)])
        {
            let what = format!(
                "{} page {} KiB, counters {}, tight {}, tlb {tlb:?}, trace {trace}",
                case.platform,
                case.page / KIB,
                case.counters,
                case.tight
            );
            let list = run(case, tlb, trace, false, Issue::List);
            assert_eq!(
                trace,
                list.0.chrome_trace().is_some(),
                "{what}: trace section"
            );
            let each = run(case, tlb, trace, false, Issue::EachFragment);
            assert!(
                outcome(&list) == outcome(&each),
                "{what}: list calls diverged from per-fragment calls"
            );
            let reference = run(case, tlb, trace, true, Issue::List);
            assert!(
                outcome(&list) == outcome(&reference),
                "{what}: list calls diverged from the reference walk"
            );
            let t = &list.0.traffic;
            notifications += t.notifications;
            ats_faults += t.ats_faults;
            gpu_faults += t.gpu_faults;
            migrated += t.bytes_migrated_in;
            if let Some(trace) = &list.0.trace {
                evicted += trace.counter("uvm.bytes_migrated_out");
                fallbacks += trace.counter("uvm.remote_fallbacks");
                tlb_evictions += trace.counter("tlb.evictions");
                dropped += trace.dropped;
            }
        }
    }
    assert!(notifications > 0, "no access-counter notification fired");
    assert!(ats_faults > 0, "no ATS fault was taken");
    assert!(gpu_faults > 0, "no managed GPU fault was taken");
    assert!(migrated > 0, "nothing migrated");
    assert!(evicted > 0, "no managed block was evicted");
    assert!(
        fallbacks > 0,
        "no managed fault fell back to a remote mapping"
    );
    assert!(tlb_evictions > 0, "no GPU TLB entry was evicted");
    assert_eq!(
        dropped, 0,
        "a trace ring overflowed: the streams compared were cut"
    );
}
