//! The machine and source facts recorded beside every run's numbers.

use std::path::Path;

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of a `/proc` status-style file, in MB of 10⁶ bytes (0 when
/// absent, e.g. off Linux).
fn proc_kb_field(path: &str, field: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    proc_kb_field("/proc/self/status", "VmHWM:")
}

/// Total memory of the machine, MB.
pub fn mem_total_mb() -> f64 {
    proc_kb_field("/proc/meminfo", "MemTotal:")
}

/// Resets the process's peak-RSS mark so a later [`peak_rss_mb`] reads the
/// peak since now (Linux; a no-op where unsupported).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Nice value of the writer thread: ingest yields the CPU to the serving
/// threads, as a deployment that serves and ingests on one box would set
/// it, so reads wait on ingest only through shared state, not for a time
/// slice.
const WRITER_NICE: i32 = 10;

/// Lowers the calling thread's scheduling priority to [`WRITER_NICE`]. On
/// Linux the nice value is per thread and `who = 0` names the caller; a
/// failure leaves the priority as it was.
pub fn deprioritize_current_thread() {
    // SAFETY: `setpriority` only reads its integer arguments; PRIO_PROCESS
    // (0) with who = 0 targets the calling thread and cannot touch memory.
    let _ = unsafe { setpriority(0, 0, WRITER_NICE) };
}

/// The commit the checkout was built from, read from `.git`; `unknown` in
/// a checkout without one.
pub fn git_rev(root: &Path) -> String {
    read_git_head(&root.join(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}
