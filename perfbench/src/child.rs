//! Child processes of the benchmark: the built `culinaria` binary,
//! timed exec to exit, with its peak RSS read from `wait4`.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux's `struct rusage`: two timevals, then fourteen longs of which
/// only the first (peak RSS in KiB) is read here.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

// `wait4(2)` and `kill(2)` from the C library std already links: the
// standard library reaps children without reporting their peak RSS and
// cannot send SIGTERM.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when a signal killed it.
    pub code: Option<i32>,
    /// Peak resident set size in MiB.
    pub rss_mb: f64,
    /// Exec to reap.
    pub wall: Duration,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Block until `pid` exits; reap it and read its rusage.
fn reap(pid: u32) -> io::Result<(Option<i32>, f64)> {
    let pid = i32::try_from(pid).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: both out-pointers point at live, writable locals of
        // the layout wait4 expects (`int` and Linux's `struct rusage`:
        // two timevals then fourteen longs).
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.maxrss_kb as f64 / 1024.0))
}

fn signal(pid: u32, sig: i32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill takes plain integers; a stale pid only makes it
        // fail with ESRCH, which the caller does not need to see.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// Output of a child run to completion.
pub struct Finished {
    pub exit: Exit,
    pub stdout: String,
    pub stderr: String,
}

/// Run `bin args…` in the current directory to completion, capturing
/// stdout and stderr.
pub fn run(bin: &Path, args: &[&str]) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child
        .stderr
        .take()
        .ok_or_else(|| io::Error::other("no stderr"))?;
    let stderr = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)?;
    }
    let stderr = stderr.join().unwrap_or_default();
    let (code, rss_mb) = reap(child.id())?;
    Ok(Finished {
        exit: Exit {
            code,
            rss_mb,
            wall: start.elapsed(),
        },
        stdout,
        stderr,
    })
}

/// A long-running child (`culinaria serve`). Dropping it without
/// [`Daemon::terminate`] kills and reaps it, so no run leaves a
/// process behind.
pub struct Daemon {
    child: Option<Child>,
    pub started: Instant,
}

impl Daemon {
    /// Spawn `bin args…` with stdout and stderr appended to `log`.
    pub fn spawn(bin: &Path, args: &[&str], log: &Path) -> io::Result<Daemon> {
        let out = std::fs::File::create(log)?;
        let err = out.try_clone()?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()?;
        Ok(Daemon {
            child: Some(child),
            started,
        })
    }

    /// SIGTERM, then wait for the exit. `Exit::wall` is SIGTERM → exit
    /// (the drain time).
    pub fn terminate(mut self) -> io::Result<Exit> {
        let child = self
            .child
            .take()
            .ok_or_else(|| io::Error::other("reaped"))?;
        let t = Instant::now();
        signal(child.id(), SIGTERM);
        let (code, rss_mb) = reap(child.id())?;
        Ok(Exit {
            code,
            rss_mb,
            wall: t.elapsed(),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.take() {
            signal(child.id(), SIGKILL);
            let _ = reap(child.id());
        }
    }
}
