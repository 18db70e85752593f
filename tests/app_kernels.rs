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

use grace_mem::apps::{hotspot, pathfinder, srad};
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
    let runs = [
        (
            "srad 600",
            srad::run(machine(gh), MemMode::System, &srad600).checksum,
            0x4122_4d7b_411b_bc00u64,
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
