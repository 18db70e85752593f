//! Goldens for the application arithmetic: checksum bits and whole-report
//! digests recorded from the scalar-loop implementation, so a faster app
//! kernel that changes a single bit of any result fails here. (The
//! benchmark's oracle reruns each op through the same app arithmetic, so
//! only recorded values can catch such a change.)
//!
//! Every session pins `sanitize: Some(false)`: the default arms the
//! sanitizer in debug-assertion builds, which adds a `sanitizer` section
//! to the JSON, and the digests must agree between `cargo test` and
//! `cargo test --release`.

use grace_mem::apps::{bfs, hotspot, needle, pathfinder, srad};
use grace_mem::jobs::fnv1a64;
use grace_mem::sim::platform::Platform;
use grace_mem::{platform, AppId, Machine, MachineConfig, MemMode, SessionOptions};

fn machine(p: &dyn Platform) -> Machine {
    let so = SessionOptions {
        sanitize: Some(false),
        ..Default::default()
    };
    p.machine_session(&MachineConfig::default(), &so)
        .expect("platform default configuration is valid")
}

#[test]
fn checksum_bits_match_recorded_goldens() {
    let gh = platform::gh200();
    let srad600 = srad::SradParams {
        size: 600,
        ..Default::default()
    };
    let needle1024 = needle::NeedleParams {
        n: 1024,
        ..Default::default()
    };
    let runs = [
        (
            "srad 600",
            srad::run(machine(gh), MemMode::System, &srad600).checksum,
            0x4122_4d7b_411b_bc00u64,
        ),
        (
            "srad 600 managed",
            srad::run(machine(gh), MemMode::Managed, &srad600).checksum,
            0x4122_4d7b_411b_bc00,
        ),
        (
            "needle 1024",
            needle::run(machine(gh), MemMode::System, &needle1024).checksum,
            0xc094_0c00_0000_0000,
        ),
        (
            "hotspot",
            hotspot::run(machine(gh), MemMode::System, &Default::default()).checksum,
            0x4127_d070_da95_ec00,
        ),
        (
            "pathfinder",
            pathfinder::run(machine(gh), MemMode::System, &Default::default()).checksum,
            0x416e_323c_c000_0000,
        ),
    ];
    for (name, checksum, golden) in runs {
        assert_eq!(
            checksum.to_bits(),
            golden,
            "{name}: checksum {checksum} moved"
        );
    }
}

#[test]
fn small_run_reports_match_recorded_digests() {
    // fnv1a64(to_json()) of `run_small`, in loop order.
    const DIGESTS: [u64; 20] = [
        0x9dc1_d64c_cefc_3b41, // gh200 needle system
        0x1841_b88a_fb8c_5610, // gh200 needle managed
        0x7b0f_b384_e279_2b8f, // gh200 pathfinder system
        0xa2d2_c68e_1d0e_cdf1, // gh200 pathfinder managed
        0x669d_d774_943b_6c99, // gh200 bfs system
        0xb440_34bc_b723_23e1, // gh200 bfs managed
        0x94b8_b70c_d8ad_819c, // gh200 hotspot system
        0xa5e5_49dc_1032_b9af, // gh200 hotspot managed
        0x8f62_fdc9_eff1_af47, // gh200 srad system
        0x3dc2_fa62_f700_1d9c, // gh200 srad managed
        0x4f79_5f28_aa2d_91b1, // mi300a needle system
        0xf837_5725_1de0_412f, // mi300a needle managed
        0x587f_7167_aae5_4ebb, // mi300a pathfinder system
        0xd227_9d70_ff23_8bf0, // mi300a pathfinder managed
        0x64aa_cb23_af39_c425, // mi300a bfs system
        0x5ccf_bcef_7b64_75ac, // mi300a bfs managed
        0x9904_bc50_2db0_215a, // mi300a hotspot system
        0xef9c_92ba_e542_9299, // mi300a hotspot managed
        0x49d3_8081_dba0_2cba, // mi300a srad system
        0x45b1_fc72_0ccb_5bfc, // mi300a srad managed
    ];
    let mut goldens = DIGESTS.iter();
    for p in platform::all() {
        for app in AppId::ALL {
            for mode in [MemMode::System, MemMode::Managed] {
                let digest = fnv1a64(app.run_small(machine(p), mode).to_json().as_bytes());
                assert_eq!(
                    Some(&digest),
                    goldens.next(),
                    "{}/{}/{mode}: report digest {digest:#018x} moved",
                    p.caps().name,
                    app.name()
                );
            }
        }
    }
}

#[test]
fn traced_bfs_reports_and_traces_match_recorded_digests() {
    // bfs meters lists it builds per level from data-dependent gathers;
    // the trace event stream sees every list's order, so pin it beside
    // the report. (fnv1a64(to_json()), fnv1a64(chrome_trace())) of a
    // traced `run_small`, in loop order.
    const DIGESTS: [(u64, u64); 4] = [
        (0x669d_d774_943b_6c99, 0x6207_139c_24ae_aa86), // gh200 system
        (0xb440_34bc_b723_23e1, 0xeb0f_15e7_c4ef_0300), // gh200 managed
        (0x64aa_cb23_af39_c425, 0xc1bf_140a_f2c4_91f1), // mi300a system
        (0x5ccf_bcef_7b64_75ac, 0x5e56_ae99_96ba_6135), // mi300a managed
    ];
    let so = SessionOptions {
        trace: true,
        sanitize: Some(false),
        ..Default::default()
    };
    let mut goldens = DIGESTS.iter();
    for p in platform::all() {
        for mode in [MemMode::System, MemMode::Managed] {
            let m = p
                .machine_session(&MachineConfig::default(), &so)
                .expect("platform default configuration is valid");
            let report = AppId::Bfs.run_small(m, mode);
            let trace = report.chrome_trace().expect("traced session");
            let digests = (
                fnv1a64(report.to_json().as_bytes()),
                fnv1a64(trace.as_bytes()),
            );
            assert_eq!(
                Some(&digests),
                goldens.next(),
                "{}/bfs/{mode}: traced digests {digests:#018x?} moved",
                p.caps().name
            );
        }
    }
}

#[test]
fn bench_size_reports_match_recorded_digests() {
    // The `--small` goldens above never reach the sizes grace-bench's
    // `rodinia` runs, where the widest needle waves and bfs levels are:
    // needle at n = 1024 and bfs at 50 k nodes. fnv1a64(to_json()) on
    // gh200, system then managed.
    const NEEDLE: [u64; 2] = [0x93a0_3dca_1fa8_b327, 0xe5e6_ee27_d3c7_2ea4];
    const BFS: [u64; 2] = [0x7e40_1940_07a6_a120, 0x0cdf_9fe3_7b19_75a5];
    // (fnv1a64(to_json()), fnv1a64(chrome_trace())) of the system-memory
    // bfs run, traced.
    const TRACED_BFS: (u64, u64) = (0x7e40_1940_07a6_a120, 0x379b_bc8d_254c_e899);
    let gh = platform::gh200();
    let needle1024 = needle::NeedleParams {
        n: 1024,
        ..Default::default()
    };
    let bfs50k = bfs::BfsParams {
        nodes: 50_000,
        ..Default::default()
    };
    let modes = [MemMode::System, MemMode::Managed];
    for (mode, (needle_golden, bfs_golden)) in modes.into_iter().zip(NEEDLE.into_iter().zip(BFS)) {
        for (app, report, golden) in [
            (
                "needle",
                needle::run(machine(gh), mode, &needle1024),
                needle_golden,
            ),
            ("bfs", bfs::run(machine(gh), mode, &bfs50k), bfs_golden),
        ] {
            let digest = fnv1a64(report.to_json().as_bytes());
            assert_eq!(
                digest, golden,
                "gh200/{app}/{mode}: report digest {digest:#018x} moved"
            );
        }
    }
    let so = SessionOptions {
        trace: true,
        sanitize: Some(false),
        ..Default::default()
    };
    let m = gh
        .machine_session(&MachineConfig::default(), &so)
        .expect("platform default configuration is valid");
    let report = bfs::run(m, MemMode::System, &bfs50k);
    let trace = report.chrome_trace().expect("traced session");
    let digests = (
        fnv1a64(report.to_json().as_bytes()),
        fnv1a64(trace.as_bytes()),
    );
    assert_eq!(
        digests, TRACED_BFS,
        "gh200/bfs/system traced: digests {digests:#018x?} moved"
    );
}
