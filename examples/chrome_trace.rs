//! Trace export: run a slice of SRAD on a traced session and dump the
//! Chrome-trace JSON of every kernel, copy, phase and migration event.
//!
//! ```sh
//! cargo run --release --example chrome_trace > srad_trace.json
//! # open chrome://tracing or https://ui.perfetto.dev and load the file
//! ```

use grace_mem::apps::srad::{self, SradParams};
use grace_mem::{platform, MachineConfig, Phase, SessionOptions};

fn main() {
    let p = SradParams {
        size: 1024,
        iterations: 6,
        ..Default::default()
    };
    let so = SessionOptions {
        trace: true,
        ..Default::default()
    };
    let mut m = platform::gh200()
        .machine_session(&MachineConfig::default(), &so)
        .expect("the gh200 defaults are valid");
    // Inline a small slice of the app: allocate, init, metered kernels.
    let bytes = (p.size * p.size * 4) as u64;
    m.phase(Phase::CtxInit);
    m.rt.cuda_init();
    m.phase(Phase::Alloc);
    let j = m.rt.malloc_system(gh_units::Bytes::new(bytes), "J");
    let c = m.rt.cuda_malloc_managed(gh_units::Bytes::new(bytes), "c");
    m.phase(Phase::CpuInit);
    m.rt.cpu_write(&j, 0, bytes);
    m.phase(Phase::Compute);
    for i in 0..p.iterations {
        let mut k = m.rt.launch(&format!("srad1_iter{i}"));
        k.read(&j, 0, bytes);
        k.write(&c, 0, bytes);
        k.compute((p.size * p.size * 30) as u64);
        k.finish();
        let mut k = m.rt.launch(&format!("srad2_iter{i}"));
        k.read(&c, 0, bytes);
        k.write(&j, 0, bytes);
        k.compute((p.size * p.size * 12) as u64);
        k.finish();
    }
    let report = m.finish();
    let trace = report.trace.as_ref().expect("traced session");
    println!("{}", report.chrome_trace().expect("traced session"));
    eprintln!(
        "{} spans and {} events over {:.3} ms of virtual time",
        trace.spans.len(),
        trace.events.len(),
        report.phases.wall_total() as f64 / 1e6
    );
    let _ = srad::reference; // keep the full app linked for doc purposes
}
