//! Hash-stability contract for [`JobSpec`]: the canonical key string and
//! its FNV-1a hash are job identity across processes and platforms (the
//! `job_hash` column of `grace-mem suite`), so both are pinned here. If
//! one of these assertions fails, the change relabels every job in
//! recorded output and must be deliberate, with the goldens updated in
//! the same commit.

use gh_apps::{AppId, MemMode};
use gh_cuda::SessionOptions;
use gh_jobs::{fnv1a64, JobSpec};
use proptest::prelude::*;

/// A spec per key-relevant field departure from the defaults, plus the
/// all-defaults spec itself.
fn spec_matrix() -> Vec<JobSpec> {
    let mut m = Vec::new();
    m.push(JobSpec::new(AppId::Needle, "gh200", MemMode::Explicit));
    let mut s = JobSpec::new(AppId::Bfs, "gh200", MemMode::System);
    s.small = true;
    m.push(s);
    let mut s = JobSpec::new(AppId::Hotspot, "mi300a", MemMode::Managed);
    s.page_size = Some(65536);
    m.push(s);
    let mut s = JobSpec::new(AppId::Srad, "gh200", MemMode::System);
    s.session.trace = true;
    s.session.trace_capacity = Some(4096);
    m.push(s);
    let mut s = JobSpec::new(AppId::Pathfinder, "gh200", MemMode::Explicit);
    s.session.perf = true;
    s.session.sanitize = Some(false);
    m.push(s);
    let mut s = JobSpec::new(AppId::Needle, "gh200", MemMode::System);
    s.session.sanitize = Some(true);
    s.session.access_ref = true;
    m.push(s);
    m
}

/// Golden `(canonical_key, stable_hash)` pairs for [`spec_matrix`].
const GOLDEN: [(&str, u64); 6] = [
    (
        "app=needle;platform=gh200;mode=explicit;page=default;small=0;trace=0;cap=default;perf=0;sanitize=default;ref=0",
        0x0d3d_5c86_fb42_3ae8,
    ),
    (
        "app=bfs;platform=gh200;mode=system;page=default;small=1;trace=0;cap=default;perf=0;sanitize=default;ref=0",
        0x6ec7_ea69_8315_44e0,
    ),
    (
        "app=hotspot;platform=mi300a;mode=managed;page=65536;small=0;trace=0;cap=default;perf=0;sanitize=default;ref=0",
        0x83cd_8637_51bb_d6b8,
    ),
    (
        "app=srad;platform=gh200;mode=system;page=default;small=0;trace=1;cap=4096;perf=0;sanitize=default;ref=0",
        0x806f_10c1_2377_9ad5,
    ),
    (
        "app=pathfinder;platform=gh200;mode=explicit;page=default;small=0;trace=0;cap=default;perf=1;sanitize=0;ref=0",
        0x543b_ebf9_dcf4_63b0,
    ),
    (
        "app=needle;platform=gh200;mode=system;page=default;small=0;trace=0;cap=default;perf=0;sanitize=1;ref=1",
        0x1eae_1dc4_9d1f_9d52,
    ),
];

#[test]
fn canonical_keys_and_hashes_match_goldens() {
    let specs = spec_matrix();
    assert_eq!(specs.len(), GOLDEN.len());
    for (spec, (key, hash)) in specs.iter().zip(GOLDEN) {
        assert_eq!(spec.canonical_key(), key);
        assert_eq!(spec.stable_hash(), hash, "for key {key}");
    }
}

#[test]
fn stable_hash_is_fnv1a_of_the_key() {
    for spec in spec_matrix() {
        assert_eq!(spec.stable_hash(), fnv1a64(spec.canonical_key().as_bytes()));
    }
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    // Published FNV-1a 64-bit test vectors.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

/// Builds a spec from sampled field values.
#[allow(clippy::too_many_arguments)]
fn build(
    app: usize,
    platform: bool,
    mode: usize,
    page: usize,
    small: bool,
    trace: bool,
    cap: usize,
    perf: bool,
    sanitize: usize,
    access_ref: bool,
) -> JobSpec {
    let mut s = JobSpec::new(
        AppId::ALL[app % AppId::ALL.len()],
        if platform { "gh200" } else { "mi300a" },
        MemMode::ALL[mode % MemMode::ALL.len()],
    );
    s.page_size = [None, Some(4096), Some(65536)][page % 3];
    s.small = small;
    s.session = SessionOptions {
        trace,
        trace_capacity: [None, Some(1024), Some(4096)][cap % 3],
        perf,
        sanitize: [None, Some(false), Some(true)][sanitize % 3],
        access_ref,
    };
    s
}

proptest! {
    /// Two specs differing in exactly one field must hash differently:
    /// every spec field is injective into the canonical key.
    #[test]
    fn single_field_difference_changes_hash(
        app in 0usize..5, platform in prop::bool::ANY, mode in 0usize..3,
        page in 0usize..3, small in prop::bool::ANY, trace in prop::bool::ANY,
        cap in 0usize..3, perf in prop::bool::ANY, sanitize in 0usize..3,
        access_ref in prop::bool::ANY, flip in 0usize..10,
    ) {
        let base = build(app, platform, mode, page, small, trace, cap, perf, sanitize, access_ref);
        let other = build(
            if flip == 0 { app + 1 } else { app },
            if flip == 1 { !platform } else { platform },
            if flip == 2 { mode + 1 } else { mode },
            if flip == 3 { page + 1 } else { page },
            if flip == 4 { !small } else { small },
            if flip == 5 { !trace } else { trace },
            if flip == 6 { cap + 1 } else { cap },
            if flip == 7 { !perf } else { perf },
            if flip == 8 { sanitize + 1 } else { sanitize },
            if flip == 9 { !access_ref } else { access_ref },
        );
        prop_assert_ne!(base.canonical_key(), other.canonical_key());
        prop_assert_ne!(base.stable_hash(), other.stable_hash());
    }

    /// Hashing is a pure function of the key: equal specs, equal hashes.
    #[test]
    fn equal_specs_hash_equal(
        app in 0usize..5, mode in 0usize..3, small in prop::bool::ANY,
        trace in prop::bool::ANY, perf in prop::bool::ANY,
    ) {
        let a = build(app, true, mode, 0, small, trace, 0, perf, 0, false);
        let b = build(app, true, mode, 0, small, trace, 0, perf, 0, false);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.stable_hash(), b.stable_hash());
    }
}
