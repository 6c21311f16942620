//! The system under test as a child process: the release `datacron-serve`
//! built beside this binary, bound to port 0, killed on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Server flags common to every workload (ISSUE 11).
const COMMON_FLAGS: [&str; 6] = ["--workers", "2", "--queue", "128", "--query-workers", "2"];

/// `datacron-serve` is built by the same `cargo build` as this binary,
/// so it sits in the same directory and is never stale relative to it.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("datacron-serve");
    if !path.is_file() {
        return Err(format!(
            "{} is missing: build with `cargo build --release --manifest-path benchmark/Cargo.toml` (run.sh does)",
            path.display()
        ));
    }
    Ok(path)
}

/// A running server. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server with the common flags plus `extra`, and waits for
    /// its listen line.
    pub fn spawn(binary: &Path, extra: &[String]) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .args(COMMON_FLAGS)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => parse_listen_line(&line),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Server { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce an address: {line:?}"))
            }
        }
    }

    /// Peak resident set of the child so far, MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// User + system CPU seconds the child has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        process_cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// SIGKILL, as a crash would: no shutdown hook runs.
    pub fn kill(mut self) {
        self.kill_and_wait();
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// utime + stime of a `/proc/<pid>/stat` file, in seconds (USER_HZ = 100).
pub fn process_cpu_seconds(stat_path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    // Fields after the parenthesised command name: state is field 3.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err(format!("{stat_path}: unexpected format")),
    }
}

fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    line.split("listening on ")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Cargo's target directory, which holds `release/` with this binary:
/// inside the checkout and ignored by git, so the one place to write.
pub fn build_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the binary has no grandparent directory")?;
    Ok(dir.to_path_buf())
}

/// A scratch directory inside the build directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = build_dir()?
            .join("benchmark-work")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
