//! Cross-crate integration for the extension features: streams/events,
//! NUMA placement, trace replay, timeline export, per-buffer attribution
//! and the future-work workloads.

use grace_mem::os::NumaPolicy;
use grace_mem::{platform, Machine, MachineConfig, MemMode, Node, SessionOptions};

fn gh200() -> Machine {
    platform::gh200().machine()
}

#[test]
fn double_buffered_pipeline_beats_serial_copies() {
    // The explicit QV pipeline at natural oversubscription must beat a
    // hypothetical serial-copy implementation; verify through the stream
    // API directly: two streams halve the end-to-end time of
    // copy+compute chains.
    let mut m = gh200();
    let h =
        m.rt.cuda_malloc_host(gh_units::Bytes::new(64 << 20), "host");
    let d0 =
        m.rt.cuda_malloc(gh_units::Bytes::new(8 << 20), "chunk0")
            .unwrap();
    let d1 =
        m.rt.cuda_malloc(gh_units::Bytes::new(8 << 20), "chunk1")
            .unwrap();
    let s0 = m.rt.create_stream();
    let s1 = m.rt.create_stream();

    // Serial: one stream, one chunk.
    let t0 = m.now();
    for i in 0..8u64 {
        m.rt.memcpy_async(&d0, 0, &h, i * (8 << 20), 8 << 20, s0);
        m.rt.launch_async("serial", s0, &[(d0, 0, 8 << 20)], &[], 200_000_000);
    }
    m.rt.all_streams_synchronize();
    let serial = m.now() - t0;

    // Pipelined: alternate chunks and streams.
    let t0 = m.now();
    for i in 0..8u64 {
        let (d, s) = if i % 2 == 0 { (&d0, s0) } else { (&d1, s1) };
        m.rt.memcpy_async(d, 0, &h, i * (8 << 20), 8 << 20, s);
        m.rt.launch_async("pipe", s, &[(*d, 0, 8 << 20)], &[], 200_000_000);
    }
    m.rt.all_streams_synchronize();
    let pipelined = m.now() - t0;

    // Copies (~22 µs each) and kernels (~22 µs each) fully overlap in
    // the pipelined version: expect ≥ 30% savings.
    assert!(
        pipelined * 10 < serial * 7,
        "pipelining must overlap copies with compute: {serial} vs {pipelined}"
    );
}

#[test]
fn numa_bound_buffer_is_hbm_local_for_kernels() {
    let mut m = gh200();
    m.rt.cuda_init();
    let b = m.rt.malloc_system_with_policy(
        gh_units::Bytes::new(8 << 20),
        NumaPolicy::Bind(Node::Gpu),
        "bound",
    );
    m.rt.cpu_write(&b, 0, 8 << 20);
    let mut k = m.rt.launch("probe");
    k.read(&b, 0, 8 << 20);
    let rep = k.finish();
    assert_eq!(rep.traffic.c2c_read, 0);
    assert_eq!(rep.traffic.hbm_read, 8 << 20);
}

#[test]
fn numa_alloc_onnode_matches_table1_row() {
    // Table 1 lists numa_alloc_onnode as a CPU allocation interface:
    // eager CPU residency, coherent remote access from the GPU.
    let mut m = gh200();
    let b =
        m.rt.numa_alloc_onnode(gh_units::Bytes::new(4 << 20), Node::Cpu, "numa_cpu");
    assert_eq!(m.rt.rss(), 4 << 20);
    let mut k = m.rt.launch("probe");
    k.read(&b, 0, 4 << 20);
    let rep = k.finish();
    assert_eq!(rep.traffic.c2c_read, 4 << 20, "coherent remote access");
    assert_eq!(rep.traffic.ats_faults, 0, "eager population: no faults");
}

#[test]
fn replay_compares_modes_on_one_trace() {
    let trace = "
alloc a system 8m
cpu_write a 0 8m
kernel sweep
  read a 0 8m
end
kernel sweep
  read a 0 8m
end
";
    let sys = grace_mem::sim::replay(
        platform::gh200()
            .machine_cfg(&MachineConfig::without_migration())
            .unwrap(),
        trace,
        Some(MemMode::System),
    )
    .unwrap();
    let man = grace_mem::sim::replay(gh200(), trace, Some(MemMode::Managed)).unwrap();
    assert_eq!(sys.traffic.c2c_read, 16 << 20, "system: remote both sweeps");
    assert_eq!(
        man.traffic.bytes_migrated_in,
        8 << 20,
        "managed: migrate once"
    );
    assert_eq!(man.traffic.hbm_read, 16 << 20);
}

#[test]
fn timeline_export_covers_the_run() {
    let so = SessionOptions {
        trace: true,
        ..Default::default()
    };
    let mut m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .unwrap();
    let b =
        m.rt.cuda_malloc(gh_units::Bytes::new(4 << 20), "d")
            .unwrap();
    m.rt.cuda_memset(&b, 0, 4 << 20);
    for _ in 0..2 {
        let mut k = m.rt.launch("work");
        k.read(&b, 0, 4 << 20);
        k.finish();
    }
    let report = m.finish();
    let trace = report.trace.as_ref().expect("traced session");
    assert!(
        trace.spans_in("runtime").next().is_some(),
        "ctx init traced"
    );
    assert!(trace.spans_in("copy").next().is_some(), "memset traced");
    assert_eq!(trace.spans_in("kernel").count(), 2);
    let json = report.chrome_trace().expect("traced session");
    assert!(json.contains("\"ph\":\"X\""));
    // Kernel spans are time-ordered and non-overlapping in virtual time
    // in this serial run.
    let mut last_end = 0;
    for s in trace.spans_in("kernel") {
        assert!(s.start >= last_end, "{s:?} overlaps the previous kernel");
        last_end = s.end;
    }
}

#[test]
fn event_timing_matches_clock() {
    let mut m = gh200();
    let h = m.rt.cuda_malloc_host(gh_units::Bytes::new(16 << 20), "h");
    let d =
        m.rt.cuda_malloc(gh_units::Bytes::new(16 << 20), "d")
            .unwrap();
    let s = m.rt.create_stream();
    let e0 = m.rt.event_record(s);
    m.rt.memcpy_async(&d, 0, &h, 0, 16 << 20, s);
    let e1 = m.rt.event_record(s);
    m.rt.event_synchronize(e1);
    assert!(m.rt.event_elapsed(e0, e1) > 0);
}

#[test]
fn gate_fusion_reduces_sweep_count_in_simulation() {
    use grace_mem::qsim::{fusion, Gate2, QvCircuit};
    // Construct a fusable circuit and check the fused one applies fewer
    // gates while producing the same state.
    let mut c = QvCircuit::generate(6, 11);
    let repeat: Vec<_> = c
        .gates
        .iter()
        .take(3)
        .map(|g| grace_mem::qsim::qv::QvGate {
            gate: Gate2::random_su4(500),
            q0: g.q0,
            q1: g.q1,
        })
        .collect();
    let mut gates = Vec::new();
    for (g, r) in c.gates.iter().take(3).zip(repeat) {
        gates.push(g.clone());
        gates.push(r);
    }
    c.gates = gates;
    let fused = fusion::fuse(&c);
    assert_eq!(fused.len(), 3);
    assert_eq!(c.len(), 6);
}

#[test]
fn smaps_accounts_application_buffers() {
    let mut m = gh200();
    let a = m.rt.malloc_system(gh_units::Bytes::new(4 << 20), "alpha");
    m.rt.cpu_write(&a, 0, 4 << 20);
    let _b =
        m.rt.cuda_malloc_managed(gh_units::Bytes::new(2 << 20), "beta");
    let maps = m.rt.os().smaps();
    let alpha = maps.iter().find(|e| e.tag == "alpha").unwrap();
    assert_eq!(alpha.resident_cpu, 4 << 20);
    assert_eq!(alpha.resident_gpu, 0);
    let beta = maps.iter().find(|e| e.tag == "beta").unwrap();
    assert_eq!(beta.resident_cpu + beta.resident_gpu, 0, "lazy");
}
