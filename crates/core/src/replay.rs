//! Workload replay: drive the simulated machine from a text trace.
//!
//! Downstream users can characterize *their* application's memory
//! behaviour without porting it to the kernel API: dump its allocation
//! and access pattern as a trace and replay it under any memory mode,
//! page size, or oversubscription setting.
//!
//! Format (line-oriented; `#` starts a comment):
//!
//! ```text
//! alloc   <name> <system|managed|device|pinned> <size>
//! cpu_write <name> <offset> <len>
//! cpu_read  <name> <offset> <len>
//! kernel  <label>                 # begins a kernel body
//!   read    <name> <offset> <len>
//!   write   <name> <offset> <len>
//!   strided <name> <offset> <seg> <stride> <count> [w]
//!   compute <units>
//! end
//! prefetch <name> <cpu|gpu> <offset> <len>
//! host_register <name>
//! memcpy  <dst> <dst_off> <src> <src_off> <len>
//! sync
//! free    <name>
//! ```
//!
//! Sizes accept `k`/`m`/`g` binary suffixes (`64k`, `8m`). Buffers not
//! freed explicitly are freed at the end of the replay.
//!
//! ```
//! use gh_sim::{platform, replay, MemMode};
//!
//! let trace = "
//! alloc data system 4m
//! cpu_write data 0 4m
//! kernel sweep
//!   read data 0 4m
//! end
//! ";
//! let machine = platform::gh200().machine();
//! let report = replay(machine, trace, Some(MemMode::System)).unwrap();
//! assert_eq!(report.traffic.c2c_read, 4 << 20);
//! ```

use std::collections::BTreeMap;

use crate::machine::Machine;
use crate::mode::MemMode;
use crate::report::RunReport;
use gh_cuda::{BufKind, Buffer, Kernel};
use gh_mem::phys::Node;
use gh_profiler::Phase;

/// A parse or execution error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ReplayError {}

fn err(line: usize, msg: impl Into<String>) -> ReplayError {
    ReplayError {
        line,
        msg: msg.into(),
    }
}

/// Parses a size literal: plain bytes or `k`/`m`/`g` (binary) suffix.
/// `None` when malformed or when the suffix overflows `u64`.
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    let (num, mult) = match s.chars().last()? {
        'k' => (&s[..s.len() - 1], 1u64 << 10),
        'm' => (&s[..s.len() - 1], 1u64 << 20),
        'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (&s[..], 1),
    };
    num.parse::<u64>().ok().and_then(|n| n.checked_mul(mult))
}

fn size(line: usize, s: &str) -> Result<u64, ReplayError> {
    parse_size(s).ok_or_else(|| err(line, format!("bad size '{s}'")))
}

/// The whitespace-separated tokens of a trace line, comment stripped.
fn tokens(raw: &str) -> Vec<&str> {
    raw.split('#')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect()
}

/// The form of each top-level directive, for arity errors.
const DIRECTIVES: [&str; 9] = [
    "alloc <name> <system|managed|device|pinned> <size>",
    "cpu_write <name> <offset> <len>",
    "cpu_read <name> <offset> <len>",
    "kernel [<label>]",
    "prefetch <name> <cpu|gpu> <offset> <len>",
    "host_register <name>",
    "memcpy <dst> <dst_off> <src> <src_off> <len>",
    "sync",
    "free <name>",
];

/// The form of each kernel-body operation, for arity errors.
const KERNEL_OPS: [&str; 5] = [
    "read <name> <offset> <len>",
    "write <name> <offset> <len>",
    "strided <name> <offset> <seg> <stride> <count> [w]",
    "compute <units>",
    "end",
];

/// The error for a line no pattern matched: a known `op` with the wrong
/// arity gets its expected form, anything else is unknown.
fn bad_line(line: usize, op: &str, forms: &[&str], what: &str) -> ReplayError {
    match forms.iter().find(|f| f.split(' ').next() == Some(op)) {
        Some(form) => err(line, format!("expected '{form}'")),
        None => err(line, format!("unknown {what} '{op}'")),
    }
}

fn get_buf(bufs: &BTreeMap<String, RBuf>, line: usize, name: &str) -> Result<RBuf, ReplayError> {
    bufs.get(name)
        .copied()
        .ok_or_else(|| err(line, format!("unknown buffer '{name}'")))
}

/// Replays `trace` on `machine` and extracts the run report. `mode`
/// substitutes the trace's `system|managed` unified allocations when
/// given (so one trace can be compared across strategies);
/// `device`/`pinned` lines are unaffected.
pub fn replay(
    mut machine: Machine,
    trace: &str,
    mode: Option<MemMode>,
) -> Result<RunReport, ReplayError> {
    replay_on(&mut machine, trace, mode)?;
    Ok(machine.finish())
}

/// A replay buffer: unified modes hold one allocation; the explicit
/// substitution holds a host/device pair with dirty tracking, so
/// `cpu_write → kernel` sequences insert the `cudaMemcpy` the original
/// code would have had (the paper's Fig 2 transformation, reversed).
#[derive(Clone, Copy)]
struct RBuf {
    host: Option<Buffer>,
    dev: Buffer,
    host_dirty: bool,
    dev_dirty: bool,
}

impl RBuf {
    fn unified(dev: Buffer) -> Self {
        RBuf {
            host: None,
            dev,
            host_dirty: false,
            dev_dirty: false,
        }
    }
}

/// Like [`replay`] but leaves the machine alive afterwards, so callers
/// can inspect runtime state (smaps, counters).
///
/// Every directive is checked before it reaches the runtime — arity,
/// sizes, buffer names, and `[off, off + len)` ranges (with overflow
/// counted as out of range) — so a malformed trace is a
/// [`ReplayError`], never a panic or a wrapped range.
pub fn replay_on(
    machine: &mut Machine,
    trace: &str,
    mode: Option<MemMode>,
) -> Result<(), ReplayError> {
    let mut bufs: BTreeMap<String, RBuf> = BTreeMap::new();
    let mut lines = trace.lines().enumerate();
    machine.phase(Phase::Compute);

    while let Some((idx, raw)) = lines.next() {
        let n = idx + 1;
        match tokens(raw).as_slice() {
            [] => {}
            ["alloc", name, kind, bytes] => {
                if bufs.contains_key(*name) {
                    return Err(err(n, format!("buffer '{name}' already exists")));
                }
                let bytes = gh_units::Bytes::new(size(n, bytes)?);
                let kind =
                    match (*kind, mode) {
                        ("system", Some(MemMode::Managed))
                        | ("managed", Some(MemMode::Managed)) => "managed",
                        ("system", Some(MemMode::System)) | ("managed", Some(MemMode::System)) => {
                            "system"
                        }
                        ("system", Some(MemMode::Explicit))
                        | ("managed", Some(MemMode::Explicit)) => "explicit_pair",
                        (k, _) => k,
                    };
                let buf = match kind {
                    "system" => RBuf::unified(machine.rt.malloc_system(bytes, name)),
                    "managed" => RBuf::unified(machine.rt.cuda_malloc_managed(bytes, name)),
                    "pinned" => RBuf::unified(machine.rt.cuda_malloc_host(bytes, name)),
                    "device" => RBuf::unified(
                        machine
                            .rt
                            .cuda_malloc(bytes, name)
                            .map_err(|e| err(n, format!("cudaMalloc failed: {e}")))?,
                    ),
                    "explicit_pair" => RBuf {
                        host: Some(machine.rt.malloc_system(bytes, &format!("{name}.host"))),
                        dev: machine
                            .rt
                            .cuda_malloc(bytes, &format!("{name}.dev"))
                            .map_err(|e| err(n, format!("cudaMalloc failed: {e}")))?,
                        host_dirty: false,
                        dev_dirty: false,
                    },
                    other => return Err(err(n, format!("unknown kind '{other}'"))),
                };
                bufs.insert(name.to_string(), buf);
            }
            [op @ ("cpu_write" | "cpu_read"), name, off, len] => {
                let b = get_buf(&bufs, n, name)?;
                let (off, len) = (size(n, off)?, size(n, len)?);
                let host_side = b.host.unwrap_or(b.dev);
                if host_side.kind == BufKind::Device {
                    return Err(err(n, format!("host cannot access device buffer '{name}'")));
                }
                if !host_side.in_bounds(off, len) {
                    return Err(err(n, "out of range"));
                }
                if *op == "cpu_write" {
                    machine.rt.cpu_write(&host_side, off, len);
                    if b.host.is_some() {
                        if let Some(e) = bufs.get_mut(*name) {
                            e.host_dirty = true;
                        }
                    }
                } else {
                    if let (Some(h), true) = (b.host, b.dev_dirty) {
                        // Explicit pair: results come back via cudaMemcpy.
                        machine
                            .rt
                            .memcpy(&h, 0, &b.dev, 0, b.dev.len().min(h.len()));
                        if let Some(e) = bufs.get_mut(*name) {
                            e.dev_dirty = false;
                        }
                    }
                    machine.rt.cpu_read(&host_side, off, len);
                }
            }
            ["kernel", label @ ..] if label.len() <= 1 => {
                // Explicit pairs: upload any host-dirty buffer first (the
                // cudaMemcpy the original code would perform). BTreeMap
                // iteration keeps the upload order name-sorted.
                for b in bufs.values_mut().filter(|b| b.host_dirty) {
                    if let Some(h) = b.host {
                        machine
                            .rt
                            .memcpy(&b.dev, 0, &h, 0, h.len().min(b.dev.len()));
                        b.host_dirty = false;
                    }
                }
                let mut k = machine
                    .rt
                    .launch(label.first().copied().unwrap_or("kernel"));
                let body = kernel_body(&mut k, &mut bufs, &mut lines, n);
                // Always close the recording before propagating errors —
                // an unfinished kernel is a simulator-usage bug.
                k.finish();
                body?;
            }
            ["prefetch", name, node, off, len] => {
                let b = get_buf(&bufs, n, name)?;
                let node = match *node {
                    "cpu" => Node::Cpu,
                    "gpu" => Node::Gpu,
                    other => return Err(err(n, format!("bad node '{other}'"))),
                };
                let (off, len) = (size(n, off)?, size(n, len)?);
                if !b.dev.in_bounds(off, len) {
                    return Err(err(n, "out of range"));
                }
                // Prefetch is a managed-memory API; under substitution to
                // other modes the directive is a no-op.
                if b.dev.kind == BufKind::Managed {
                    machine.rt.prefetch(&b.dev, off, len, node);
                }
            }
            ["host_register", name] => {
                let b = get_buf(&bufs, n, name)?;
                let target = b.host.unwrap_or(b.dev);
                if target.kind == BufKind::System {
                    machine.rt.cuda_host_register(&target);
                }
            }
            ["memcpy", dst, dst_off, src, src_off, len] => {
                let (dst, src) = (get_buf(&bufs, n, dst)?, get_buf(&bufs, n, src)?);
                let (dst_off, src_off, len) = (size(n, dst_off)?, size(n, src_off)?, size(n, len)?);
                if !dst.dev.in_bounds(dst_off, len) || !src.dev.in_bounds(src_off, len) {
                    return Err(err(n, "out of range"));
                }
                machine.rt.memcpy(&dst.dev, dst_off, &src.dev, src_off, len);
            }
            ["sync"] => machine.rt.device_synchronize(),
            ["free", name] => {
                let b = bufs
                    .remove(*name)
                    .ok_or_else(|| err(n, format!("unknown buffer '{name}'")))?;
                if let Some(h) = b.host {
                    machine.rt.free(h);
                }
                machine.rt.free(b.dev);
            }
            [op, ..] => return Err(bad_line(n, op, &DIRECTIVES, "directive")),
        }
    }
    machine.phase(Phase::Dealloc);
    // BTreeMap iterates name-sorted, so teardown order is deterministic.
    for (_, b) in std::mem::take(&mut bufs) {
        if let Some(h) = b.host {
            machine.rt.free(h);
        }
        machine.rt.free(b.dev);
    }
    Ok(())
}

/// Replays the body of the kernel opened on line `start`, through its
/// `end` line, into `k`.
fn kernel_body<'t>(
    k: &mut Kernel<'_>,
    bufs: &mut BTreeMap<String, RBuf>,
    lines: &mut impl Iterator<Item = (usize, &'t str)>,
    start: usize,
) -> Result<(), ReplayError> {
    for (idx, raw) in lines {
        let m = idx + 1;
        match tokens(raw).as_slice() {
            [] => {}
            ["end"] => return Ok(()),
            [op @ ("read" | "write"), name, off, len] => {
                let b = get_buf(bufs, m, name)?;
                let (off, len) = (size(m, off)?, size(m, len)?);
                if !b.dev.in_bounds(off, len) {
                    return Err(err(m, "out of range"));
                }
                if *op == "read" {
                    k.read(&b.dev, off, len);
                } else {
                    k.write(&b.dev, off, len);
                    if let Some(rb) = bufs.get_mut(*name) {
                        rb.dev_dirty = true;
                    }
                }
            }
            ["strided", name, off, seg, stride, count, w @ ..] if matches!(w, [] | ["w"]) => {
                let b = get_buf(bufs, m, name)?;
                let (off, seg) = (size(m, off)?, size(m, seg)?);
                let (stride, count) = (size(m, stride)?, size(m, count)?);
                if stride == 0 {
                    return Err(err(m, "stride must be positive"));
                }
                // Segments ascend, so the last one bounds them all.
                let in_range = count.checked_sub(1).is_none_or(|i| {
                    i.checked_mul(stride)
                        .and_then(|d| off.checked_add(d))
                        .is_some_and(|last| b.dev.in_bounds(last, seg))
                });
                if !in_range {
                    return Err(err(m, "out of range"));
                }
                if w.is_empty() {
                    k.read_strided(&b.dev, off, seg, stride, count);
                } else {
                    k.write_strided(&b.dev, off, seg, stride, count);
                }
            }
            ["compute", units] => k.compute(size(m, units)?),
            [op, ..] => return Err(bad_line(m, op, &KERNEL_OPS, "kernel op")),
        }
    }
    Err(err(start, "kernel body not closed with 'end'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gh200() -> Machine {
        crate::platform::gh200().machine()
    }

    const TRACE: &str = "
# a CPU-init-then-GPU-compute workload
alloc data system 4m
alloc out device 2m
cpu_write data 0 4m
kernel step
  read data 0 4m
  write out 0 1m
  strided data 0 1k 64k 16
  compute 100000
end
sync
free out
";

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("123"), Some(123));
        assert_eq!(parse_size("4k"), Some(4096));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("1g"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
        assert_eq!(parse_size("18446744073709551615k"), None, "overflow");
    }

    #[test]
    fn replays_a_trace_end_to_end() {
        let r = replay(gh200(), TRACE, None).unwrap();
        assert!(r.phases.compute > 0);
        assert_eq!(r.traffic.c2c_read >> 20, 4, "data read remotely");
        assert!(r.kernels.iter().any(|k| k.name.starts_with("step")));
    }

    #[test]
    fn mode_substitution_changes_behaviour() {
        let sys = replay(gh200(), TRACE, Some(MemMode::System)).unwrap();
        let man = replay(gh200(), TRACE, Some(MemMode::Managed)).unwrap();
        assert!(sys.traffic.c2c_read > 0);
        assert!(man.traffic.bytes_migrated_in > 0, "managed migrates");
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let e = replay(gh200(), "free nope\n", None).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("nope"));
    }

    #[test]
    fn unclosed_kernel_is_an_error() {
        let t = "alloc a system 1m\nkernel k\n  read a 0 1m\n";
        let e = replay(gh200(), t, None).unwrap_err();
        assert!(e.msg.contains("not closed"));
    }

    #[test]
    fn out_of_range_access_is_an_error() {
        // (trace, failing line): unchecked, each would panic inside the
        // runtime or wrap `off + len` past its range check.
        let max = u64::MAX;
        let cases = [
            ("alloc a system 1m\ncpu_write a 0 2m\n".to_string(), 2),
            (format!("alloc a system 1m\ncpu_write a {max} 2\n"), 2),
            (
                format!("alloc a system 1m\nkernel k\n  read a {max} 2\nend\n"),
                3,
            ),
            (
                "alloc a system 1m\nkernel k\n  strided a 0 64k 64k 17\nend\n".into(),
                3,
            ),
            (
                "alloc a system 1m\nkernel k\n  strided a 0 1k 0 4\nend\n".into(),
                3,
            ),
            (
                format!("alloc a system 1m\nkernel k\n  strided a 64k 1k {max} 2\nend\n"),
                3,
            ),
            ("alloc a managed 1m\nprefetch a gpu 0 4m\n".into(), 2),
            (
                "alloc a system 1m\nalloc b system 1m\nmemcpy a 0 b 0 4m\n".into(),
                3,
            ),
            ("alloc a device 2m\ncpu_write a 0 1k\n".into(), 2),
            (format!("alloc a system {max}k\n"), 1),
            // Wrong arity, at top level and in a kernel body.
            ("free\n".into(), 1),
            ("alloc a system 1m\nhost_register\n".into(), 2),
            ("alloc a system 1m\ncpu_write a 0 1k extra\n".into(), 2),
            ("alloc a system 1m\nkernel k\n  read a\nend\n".into(), 3),
            (
                "alloc a system 1m\nkernel k\n  strided a 0 1k 4k 2 x\nend\n".into(),
                3,
            ),
            ("kernel a b\nend\n".into(), 1),
        ];
        for (t, line) in cases {
            let e = replay(gh200(), &t, None).unwrap_err();
            assert_eq!(e.line, line, "{t:?}: {e}");
        }
    }

    #[test]
    fn arity_errors_name_the_expected_form() {
        let e = replay(gh200(), "free\n", None).unwrap_err();
        assert!(e.msg.contains("free <name>"), "{e}");
        let e = replay(gh200(), "frobnicate\n", None).unwrap_err();
        assert!(e.msg.contains("unknown directive"), "{e}");
        let t = "alloc a system 1m\nkernel k\n  splat a\nend\n";
        let e = replay(gh200(), t, None).unwrap_err();
        assert!(e.msg.contains("unknown kernel op"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let t = "\n# nothing\n   \nalloc a system 64k # trailing\nfree a\n";
        replay(gh200(), t, None).unwrap();
    }

    #[test]
    fn leftover_buffers_are_freed() {
        let t = "alloc a system 1m\nalloc b managed 1m\ncpu_write a 0 1m\n";
        let r = replay(gh200(), t, None).unwrap();
        let last = r.samples.last().unwrap();
        assert_eq!(last.rss, 0);
    }
}
