//! Host-side probes: peak RSS, minor page faults and the civil date. The
//! date is one of gh-perf's sanctioned host-clock reads (see the crate
//! docs).

/// Peak resident set size of this process in bytes, from
/// `/proc/self/status` `VmHWM`. Returns 0 on platforms without procfs —
/// callers treat 0 as "unknown", never as a measurement.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&status).unwrap_or(0)
}

/// Extracts `VmHWM:  <n> kB` from a `/proc/self/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())?;
    Some(kib * 1024)
}

/// Reads the minor page faults this process has taken so far, `minflt`
/// in `/proc/self/stat`. Process-wide like the peak RSS: every thread of
/// the process counts, including gh-par's workers and any other session
/// running beside the profiled one. The file stays open, so a read is a
/// seek and one `read`, a few microseconds. Reads 0 on platforms without
/// procfs.
#[derive(Debug)]
pub(crate) struct MinorFaults(Option<std::fs::File>);

impl MinorFaults {
    pub(crate) fn open() -> Self {
        MinorFaults(std::fs::File::open("/proc/self/stat").ok())
    }

    pub(crate) fn read(&self) -> u64 {
        use std::io::{Read, Seek};
        let Some(mut f) = self.0.as_ref() else {
            return 0;
        };
        // The line is about 300 bytes; `minflt` is in its first 100.
        let mut buf = [0u8; 1024];
        let Ok(len) = f.rewind().and_then(|()| f.read(&mut buf)) else {
            return 0;
        };
        let line = String::from_utf8_lossy(&buf[..len]);
        parse_minflt(&line).unwrap_or(0)
    }
}

/// Extracts `minflt`, field 10, from a `/proc/<pid>/stat` line. Field 2,
/// the command name, is parenthesised and may hold spaces and
/// parentheses, so fields are counted after the last `)`.
fn parse_minflt(stat: &str) -> Option<u64> {
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// Today's civil date as `YYYY-MM-DD` (UTC), for `BENCH_<date>.json`
/// file names. Falls back to `1970-01-01` if the host clock is broken.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a file-name date stamp, never a simulated quantity"
)]
pub fn host_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days-since-epoch to (year, month, day), Howard Hinnant's civil
/// algorithm (proleptic Gregorian).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_line() {
        let status = "Name:\tgrace-mem\nVmHWM:\t  123456 kB\nVmRSS:\t  1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123_456 * 1024));
    }

    #[test]
    fn missing_vm_hwm_is_none() {
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn parses_minflt_after_the_command_name() {
        // Field 10 is minflt; the name holds a space and a parenthesis.
        let stat = "4242 (gh (par) 0) S 1 4242 4242 0 -1 4194560 7315 0 12 0 \
                    31 4 0 0 20 0 3 0 123 45678 910 18446744073709551615";
        assert_eq!(parse_minflt(stat), Some(7315));
        assert_eq!(parse_minflt("4242 (x) S 1 2"), None);
        assert_eq!(parse_minflt("no parenthesis"), None);
    }

    #[test]
    fn minor_faults_grow_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let faults = MinorFaults::open();
            let before = faults.read();
            // Past glibc's largest mmap threshold (32 MiB), so the pages
            // are fresh and the first write to each is a minor fault.
            let pages = std::hint::black_box(vec![1u8; 40 << 20]);
            assert!(faults.read() > before, "{before}");
            drop(pages);
        }
    }

    #[test]
    fn civil_epoch_and_leap_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        // 2000-02-29 is day 11016 since the epoch.
        assert_eq!(civil_from_days(11_016), (2000, 2, 29));
        // 2026-08-08 is day 20673.
        assert_eq!(civil_from_days(20_673), (2026, 8, 8));
    }

    #[test]
    fn host_date_is_well_formed() {
        let d = host_date();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        // On Linux this should report at least one page; elsewhere 0.
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 4096, "got {rss}");
        }
    }
}
