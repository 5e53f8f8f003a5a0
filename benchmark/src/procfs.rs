//! Process resource figures from Linux `/proc`: peak resident memory
//! (`VmHWM`) and CPU time (user + system, every thread of the process).

use std::fmt;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel fixes at 100 per second on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// Why a `/proc` figure could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcError {
    /// The file could not be read (no `/proc`, or not Linux).
    Unreadable {
        /// The file that was read.
        path: &'static str,
        /// The I/O error kind.
        kind: std::io::ErrorKind,
    },
    /// The file was read but the field was missing or not a number.
    Malformed {
        /// The file that was read.
        path: &'static str,
        /// The field that was looked for.
        field: &'static str,
    },
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Unreadable { path, kind } => write!(f, "{path} is unreadable ({kind})"),
            ProcError::Malformed { path, field } => write!(f, "{path} has no numeric `{field}`"),
        }
    }
}

fn read(path: &'static str) -> Result<String, ProcError> {
    std::fs::read_to_string(path).map_err(|e| ProcError::Unreadable {
        path,
        kind: e.kind(),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, ProcError> {
    const PATH: &str = "/proc/self/status";
    const FIELD: &str = "VmHWM";
    let malformed = ProcError::Malformed {
        path: PATH,
        field: FIELD,
    };
    let status = read(PATH)?;
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(malformed)?;
    Ok(kib as f64 / 1024.0)
}

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> Result<f64, ProcError> {
    const PATH: &str = "/proc/self/stat";
    let stat = read(PATH)?;
    cpu_seconds_of(&stat).ok_or(ProcError::Malformed {
        path: PATH,
        field: "utime/stime",
    })
}

/// Parse `utime + stime` out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces, so fields are counted from the last
/// `)`: `utime` and `stime` are fields 14 and 15 overall.
fn cpu_seconds_of(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_past_the_command_name() {
        let line = "4242 (odd name) )) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        assert_eq!(cpu_seconds_of(line), Some(3.25));
        assert_eq!(cpu_seconds_of("4242 (x) R 1 2"), None);
        assert_eq!(cpu_seconds_of("no parenthesis"), None);
    }

    #[test]
    fn this_process_reports_memory_and_cpu() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }

    #[test]
    fn errors_name_the_file_and_field() {
        let e = ProcError::Malformed {
            path: "/proc/self/status",
            field: "VmHWM",
        };
        assert_eq!(e.to_string(), "/proc/self/status has no numeric `VmHWM`");
    }
}
