//! The host record every result carries, and the process's own memory
//! readings.
//!
//! Everything here reads `/proc` and `/sys`; on a host without them the
//! fields degrade to `unknown` / 0 rather than failing the run.

use islands_trace::json::Json;
use std::fs;

/// Shape of the machine a result was measured on. Two results are only
/// comparable when their host shapes agree.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism()`.
    pub cores: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Data/unified cache sizes of cpu0 in bytes, by level (L1d, L2, L3…).
    pub cache_bytes: Vec<(u32, u64)>,
    /// `MemTotal` in bytes.
    pub mem_total_bytes: u64,
}

impl Host {
    /// Reads the host record.
    pub fn detect() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            cache_bytes: cpu0_caches(),
            mem_total_bytes: meminfo_bytes("MemTotal"),
        }
    }

    /// Size of the last-level cache as sysfs reports it, bytes (0 when
    /// unknown).
    pub fn llc_bytes(&self) -> u64 {
        self.cache_bytes
            .iter()
            .max_by_key(|(level, _)| *level)
            .map_or(0, |(_, bytes)| *bytes)
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("cores".into(), Json::Num(self.cores as f64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            (
                "cache_bytes".into(),
                Json::Object(
                    self.cache_bytes
                        .iter()
                        .map(|(level, bytes)| (format!("L{level}"), Json::Num(*bytes as f64)))
                        .collect(),
                ),
            ),
            (
                "mem_total_bytes".into(),
                Json::Num(self.mem_total_bytes as f64),
            ),
        ])
    }
}

fn cpu0_caches() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |leaf: &str| fs::read_to_string(format!("{dir}/{leaf}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_size(size.trim())) {
            out.push((level, bytes));
        }
    }
    out.sort_unstable();
    out
}

/// Parses a sysfs cache size such as `2048K` or `260M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// One `kB` line of `/proc/meminfo` in bytes (0 when unreadable).
pub fn meminfo_bytes(key: &str) -> u64 {
    proc_kb("/proc/meminfo", key)
}

/// Peak resident set size of this process (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    proc_kb("/proc/self/status", "VmHWM") as f64 / 1e6
}

fn proc_kb(path: &str, key: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key) && l[key.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails. The child is waited for.
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse_with_their_suffix() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("K"), None);
    }

    #[test]
    fn llc_is_the_highest_level() {
        let host = Host {
            cores: 2,
            cpu_model: "x".into(),
            cache_bytes: vec![(1, 48 << 10), (2, 2 << 20), (3, 32 << 20)],
            mem_total_bytes: 0,
        };
        assert_eq!(host.llc_bytes(), 32 << 20);
    }

    #[test]
    fn a_missing_command_reads_as_unknown() {
        assert_eq!(command_line("definitely-not-a-program-xyz", &[]), "unknown");
    }
}
