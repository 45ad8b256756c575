//! Host-side readings from `/proc`: peak memory, per-thread scheduler
//! time, engine-worker CPU, and the host envelope every report carries.

use std::fs;

/// Scheduler time of one thread: on-CPU and waiting on a run queue, ns
/// (the first two fields of `schedstat`).
#[derive(Clone, Copy, Default)]
pub struct Sched {
    pub oncpu_ns: u64,
    pub runqueue_ns: u64,
}

fn parse_schedstat(text: &str) -> Option<Sched> {
    let mut it = text.split_whitespace().map(|v| v.parse::<u64>().ok());
    Some(Sched { oncpu_ns: it.next()??, runqueue_ns: it.next()?? })
}

/// The calling thread's scheduler time (zeros where `/proc` lacks it).
pub fn thread_sched() -> Sched {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or_default()
}

/// On-CPU ns of every live thread whose name starts with `prefix`
/// (the fabric's engine workers are `net-worker-N`).
pub fn threads_oncpu_ns(prefix: &str) -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return 0 };
    let mut total = 0;
    for entry in dir.flatten() {
        let path = entry.path();
        // A thread may exit between listing and reading; skip it.
        let Ok(comm) = fs::read_to_string(path.join("comm")) else { continue };
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        if let Some(s) =
            fs::read_to_string(path.join("schedstat")).ok().and_then(|t| parse_schedstat(&t))
        {
            total += s.oncpu_ns;
        }
    }
    total
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time the hypervisor ran something else on this machine's CPUs
/// (`steal` of `/proc/stat`, all CPUs), s. Host noise shows here.
pub fn steal_s() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// What the numbers were measured on.
pub struct Envelope {
    /// Processors the kernel lists in `/proc/cpuinfo`.
    pub nproc: usize,
    pub available_parallelism: usize,
    /// Worker threads the default sharded engine resolves to.
    pub engine_workers: usize,
    pub commit: String,
}

impl Envelope {
    pub fn probe(nodes: usize) -> Self {
        let nproc = fs::read_to_string("/proc/cpuinfo")
            .map(|t| t.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine_workers = interconnect::EngineMode::default().resolved_workers(nodes);
        // Only a checkout's own `.git` names its commit (git would
        // otherwise answer for an enclosing repository). `output` waits
        // for git to exit.
        let commit = std::path::Path::new(".git")
            .exists()
            .then(|| {
                std::process::Command::new("git")
                    .args(["rev-parse", "--short=12", "HEAD"])
                    .stderr(std::process::Stdio::null())
                    .output()
                    .ok()
            })
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Self { nproc, available_parallelism, engine_workers, commit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parses_first_two_fields() {
        let s = parse_schedstat("123 456 7\n").unwrap();
        assert_eq!((s.oncpu_ns, s.runqueue_ns), (123, 456));
        assert!(parse_schedstat("x").is_none());
    }
}
