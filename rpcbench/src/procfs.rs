//! What the kernel says this process cost: CPU time, context switches,
//! run-queue wait and peak resident memory, read from `/proc`.
//!
//! The parsers take text so they can be tested on fixture strings; only
//! [`ProcSnapshot::take`] touches the file system.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/*/stat`.
/// It is 100 on every Linux ABI this code can run on (it is a constant
/// of the kernel/user interface, not the kernel's internal tick rate),
/// and `sysconf` is not reachable without `unsafe` or libc.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` this benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub threads: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the *last*
/// `)`: state is field 3, utime 14, stime 15, num_threads 20.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `fields[0]` is field 3.
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        utime_ticks: field(14)?,
        stime_ticks: field(15)?,
        threads: field(20)?,
    })
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on a CPU,
/// nanoseconds runnable but waiting for one, timeslices run.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_ascii_whitespace();
    let run = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((run, wait))
}

/// The fields of `/proc/<pid>/status` this benchmark uses. A field the
/// text lacks reads 0 (kernel threads have no `VmHWM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub voluntary_switches: u64,
    pub nonvoluntary_switches: u64,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => s.vm_hwm_kb = number(),
            "voluntary_ctxt_switches" => s.voluntary_switches = number(),
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_switches = number(),
            _ => {}
        }
    }
    s
}

/// User + system CPU seconds of the whole process so far, from
/// `/proc/self/stat` alone — cheap enough (≈ 10 µs) to read at every
/// window boundary of a timed phase. 0 when the file cannot be read.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_stat)
        .map_or(0.0, |stat| {
            (stat.utime_ticks + stat.stime_ticks) as f64 / TICKS_PER_SEC
        })
}

/// The `steal` value of the aggregate `cpu` line of `/proc/stat`, in
/// ticks: time the hypervisor ran something else while this guest had
/// work for a processor. (`cpu user nice system idle iowait irq softirq
/// steal ...`.)
pub fn parse_steal_ticks(text: &str) -> Option<u64> {
    let line = text.lines().find(|line| line.starts_with("cpu "))?;
    line.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// Seconds stolen from this guest so far, all processors together; 0
/// when `/proc/stat` cannot be read or has no such value.
pub fn stolen_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .as_deref()
        .and_then(parse_steal_ticks)
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC)
}

/// One reading of the process's counters. CPU time comes from
/// `/proc/self/stat` (whole thread group, threads that already exited
/// included); switches and run-queue wait are summed over the threads
/// alive at the time of the reading, so take both readings of a phase
/// while its threads exist.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    pub user_s: f64,
    pub sys_s: f64,
    pub threads: u64,
    pub runq_wait_s: f64,
    pub voluntary_switches: u64,
    pub nonvoluntary_switches: u64,
    pub vm_hwm_kb: u64,
}

impl ProcSnapshot {
    /// Reads `/proc/self`. A file that cannot be read or parsed leaves
    /// its fields 0 — on a system without procfs the CPU and memory
    /// metrics read 0 and `main` reports that as a failed check.
    pub fn take() -> ProcSnapshot {
        let mut snap = ProcSnapshot::default();
        if let Some(stat) = fs::read_to_string("/proc/self/stat")
            .ok()
            .as_deref()
            .and_then(parse_stat)
        {
            snap.user_s = stat.utime_ticks as f64 / TICKS_PER_SEC;
            snap.sys_s = stat.stime_ticks as f64 / TICKS_PER_SEC;
            snap.threads = stat.threads;
        }
        if let Ok(text) = fs::read_to_string("/proc/self/status") {
            snap.vm_hwm_kb = parse_status(&text).vm_hwm_kb;
        }
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return snap;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            if let Some((_, wait)) = fs::read_to_string(dir.join("schedstat"))
                .ok()
                .as_deref()
                .and_then(parse_schedstat)
            {
                snap.runq_wait_s += wait as f64 / 1e9;
            }
            if let Ok(text) = fs::read_to_string(dir.join("status")) {
                let status = parse_status(&text);
                snap.voluntary_switches += status.voluntary_switches;
                snap.nonvoluntary_switches += status.nonvoluntary_switches;
            }
        }
        snap
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (rpc) bench :) S 1 4242 4242 0 -1 4194304 913 0 0 0 \
                    1234 567 0 0 20 0 7 0 8910 123456789 321 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(Stat {
                utime_ticks: 1234,
                stime_ticks: 567,
                threads: 7
            })
        );
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
        assert_eq!(parse_stat("no paren at all"), None);
    }

    #[test]
    fn schedstat_reads_run_and_wait() {
        assert_eq!(parse_schedstat("821132 59125 1\n"), Some((821_132, 59_125)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn status_picks_its_three_fields() {
        let text = "Name:\trpcbench\nVmPeak:\t   9000 kB\nVmHWM:\t    1392 kB\n\
                    Threads:\t5\nvoluntary_ctxt_switches:\t41\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 1392,
                voluntary_switches: 41,
                nonvoluntary_switches: 7
            }
        );
        assert_eq!(parse_status("garbage\n\n"), Status::default());
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let text = "cpu  1169285 0 1621621 2197575 15032 0 163659 125497 0 0\n\
                    cpu0 584642 0 810810 1098787 7516 0 81829 62748 0 0\n\
                    intr 12345\n";
        assert_eq!(parse_steal_ticks(text), Some(125_497));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3 4\n"), None);
        assert!(stolen_s() >= 0.0);
    }

    #[test]
    fn live_snapshot_reads_this_process() {
        let snap = ProcSnapshot::take();
        assert!(snap.threads >= 1);
        assert!(snap.vm_hwm_kb > 0);
        assert!(snap.cpu_s().is_finite());
    }
}
