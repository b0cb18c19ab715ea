//! Readers for the process counters the benchmark reports: CPU time from
//! `/proc/self/stat` and peak resident memory from `/proc/self/status`.

use std::io;

/// Clock ticks per second of the `utime`/`stime` fields. Linux fixes
/// `USER_HZ` at 100 in its user-space ABI, whatever the kernel's own tick.
pub const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time of the whole process (every thread, live or
/// exited), in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// `utime`: ticks spent in user mode.
    pub user: u64,
    /// `stime`: ticks spent in kernel mode.
    pub sys: u64,
}

impl CpuTicks {
    /// Ticks elapsed from `earlier` to `self`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks { user: self.user - earlier.user, sys: self.sys - earlier.sys }
    }

    /// Adds another interval.
    pub fn plus(self, other: CpuTicks) -> CpuTicks {
        CpuTicks { user: self.user + other.user, sys: self.sys + other.sys }
    }

    /// User time in seconds.
    pub fn user_s(self) -> f64 {
        self.user as f64 / TICKS_PER_S
    }

    /// System time in seconds.
    pub fn sys_s(self) -> f64 {
        self.sys as f64 / TICKS_PER_S
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) sits in parentheses
/// and may itself contain spaces or parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: field 3 (state) is index 0, so field n is n - 3.
    let mut fields = rest.split_whitespace().skip(14 - 3);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

/// Parses the `VmHWM` line (peak resident set size) of
/// `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Parses the host-wide `steal` ticks (field 8 of the aggregate `cpu`
/// line) of `/proc/stat`: time the hypervisor ran something else while a
/// virtual CPU of this machine was ready to run.
pub fn parse_steal(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal ticks of the whole machine so far.
pub fn steal_ticks() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_steal(&text).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/stat"))
}

/// The process's CPU ticks so far.
pub fn cpu_ticks() -> io::Result<CpuTicks> {
    let text = std::fs::read_to_string("/proc/self/stat")?;
    parse_stat(&text).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed /proc/self/stat"))
}

/// The process's peak resident set size in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    let kib =
        parse_vm_hwm_kib(&text).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_last_parenthesis() {
        let line = "4242 (serve bench) S 1 4242 4242 0 -1 4194560 2019 0 0 0 137 58 0 0 20 0 9 0 123 \
                    456789 1234 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat(line), Some(CpuTicks { user: 137, sys: 58 }));
        // A command name holding ") 9 9" must not shift the fields.
        let tricky = "7 (a) 9 9) R 1 7 7 0 -1 0 0 0 0 0 11 22 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat(tricky), Some(CpuTicks { user: 11, sys: 22 }));
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 5"), None);
        assert_eq!(parse_stat("no parenthesis at all"), None);
    }

    #[test]
    fn live_stat_parses() {
        let text = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
        assert!(parse_stat(&text).is_some());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tservebench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mib().expect("procfs is mounted") > 0.0);
    }

    #[test]
    fn steal_is_the_eighth_field_of_the_cpu_line() {
        let stat = "cpu  801074 0 334878 2209784 582 0 601 169503 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(169503));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal("cpu  1 2 3 4 5 6 7\n"), None);
        assert!(steal_ticks().is_ok());
    }

    #[test]
    fn tick_intervals_convert_to_seconds() {
        let d = CpuTicks { user: 250, sys: 120 }.since(CpuTicks { user: 50, sys: 20 });
        assert_eq!(d, CpuTicks { user: 200, sys: 100 });
        assert_eq!(d.user_s(), 2.0);
        assert_eq!(d.sys_s(), 1.0);
        assert_eq!(d.plus(d), CpuTicks { user: 400, sys: 200 });
    }
}
