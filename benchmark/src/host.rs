//! What the benchmark needs from the host: a fingerprint for the result
//! record, the process's memory high-water mark, and scratch directories
//! that never outlive the run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Where a result is only comparable with results from the same place.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub profile: &'static str,
    pub git_head: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // The driver's checkout is not a git repository; the record
            // then says so instead of failing.
            git_head: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} cpu=\"{}\" rustc=\"{}\" profile={} git={}",
            self.nproc, self.cpu_model, self.rustc, self.profile, self.git_head
        )
    }
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// Keeps every core busy for a second before anything is timed. An idle
/// host (a VM that was descheduled, a core at its lowest clock) runs its
/// first second of work up to a third slower; without this the first timed
/// section of a process pays that, and only the first.
pub fn spin_up() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let start = std::time::Instant::now();
                let mut x = 1u64;
                while start.elapsed() < std::time::Duration::from_secs(1) {
                    for _ in 0..1024 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    }
                }
                std::hint::black_box(x);
            });
        }
    });
}

/// A directory under `benchmark/out/` unique to this process and call,
/// removed when the guard drops — on every exit path, a failed check or a
/// panic included. The benchmark writes nowhere outside its checkout.
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    pub fn create(out_dir: &Path, label: &str) -> Result<TmpDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = out_dir.join(format!(
            "tmp-{label}-{}-{nanos}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TmpDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_dirs_are_unique_and_removed_on_drop() {
        let out = std::env::temp_dir().join(format!("bcbpt-benchmark-test-{}", std::process::id()));
        let (a_path, b_path);
        {
            let a = TmpDir::create(&out, "t").unwrap();
            let b = TmpDir::create(&out, "t").unwrap();
            assert_ne!(a.path(), b.path());
            assert!(a.path().is_dir() && b.path().is_dir());
            a_path = a.path().to_path_buf();
            b_path = b.path().to_path_buf();
        }
        assert!(!a_path.exists() && !b_path.exists());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn memory_readings_are_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
