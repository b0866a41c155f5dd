//! Run one command and report what its user waits for and pays.
//!
//! Usage: `ftb-launch [--created <file>] <report.json> <program> [args...]`
//!
//! Spawns `program` with this process's stdin, stdout and stderr, waits
//! for it, and writes one JSON object to `report.json`:
//! `{"status", "answer_s", "created_s", "created_rt", "maxrss_kb"}`.
//! `answer_s` runs from just before the spawn to the reaping of the
//! child. `created_s` is when the child created `<file>`, on the same
//! clock, or `null`. `maxrss_kb` is the child's own peak RSS from
//! `wait4`.
//!
//! `created_s` comes from an inotify watch on the file's directory, set
//! before the spawn and read by a thread that blocks on it. File
//! timestamps would not do: the kernel stamps a new file from its coarse
//! clock, one tick (4 ms at 250 Hz) at a time. Nor would a plain thread:
//! woken while the child keeps its CPU busy, it waits for the next tick
//! to run. So the thread asks for the `SCHED_FIFO` policy, which runs it
//! as soon as it is woken, and `created_rt` says whether it got it. It
//! runs for microseconds, once, so it takes nothing measurable from the
//! child.
//!
//! The launcher exists because Linux carries a process's high-water mark
//! across `exec`: a child spawned straight from the benchmark's Python
//! process would report the Python heap as its peak. Spawned from this
//! small process, the child's figure can include at most this launcher's
//! own RSS of about 2 MiB.

use std::ffi::{c_char, c_void, CString};
use std::os::unix::ffi::OsStrExt;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long` fields, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: i32,
}

const SCHED_FIFO: i32 = 1;
const IN_CLOEXEC: i32 = 0o2_000_000;
const IN_CREATE: u32 = 0x100;
/// `struct inotify_event` without its trailing name: `wd`, `mask`,
/// `cookie`, `len`.
const EVENT_HEADER: usize = 16;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn inotify_init1(flags: i32) -> i32;
    fn inotify_add_watch(fd: i32, path: *const c_char, mask: u32) -> i32;
    fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Buffer for `struct inotify_event`s, aligned as the kernel wants.
#[repr(C, align(8))]
struct EventBuf([u8; 4096]);

/// Watch for the creation of `file`, and send the instant it was seen.
/// Returns once the watch is in place, with whether the watching thread
/// runs under `SCHED_FIFO`.
fn watch_creation(file: &Path) -> Result<(mpsc::Receiver<Instant>, bool), String> {
    let dir = file.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    let name = file
        .file_name()
        .ok_or_else(|| format!("{} names no file", file.display()))?
        .as_bytes()
        .to_vec();
    let dir_c = CString::new(dir.as_os_str().as_bytes()).map_err(|e| e.to_string())?;
    // SAFETY: a plain syscall wrapper that takes no pointers.
    let fd = unsafe { inotify_init1(IN_CLOEXEC) };
    // SAFETY: `dir_c` is a NUL-terminated string that outlives the call.
    let watched = fd >= 0 && unsafe { inotify_add_watch(fd, dir_c.as_ptr(), IN_CREATE) } >= 0;
    if !watched {
        return Err(format!(
            "watching {}: {}",
            dir.display(),
            std::io::Error::last_os_error()
        ));
    }
    let (tx, rx) = mpsc::channel();
    let (rt_tx, rt_rx) = mpsc::channel();
    // The thread is never joined: it ends with the process if the file
    // is never created.
    std::thread::spawn(move || {
        let param = SchedParam { priority: 1 };
        // SAFETY: pid 0 is the calling thread; `param` outlives the call.
        let _ = rt_tx.send(unsafe { sched_setscheduler(0, SCHED_FIFO, &param) } == 0);
        let mut buf = EventBuf([0; 4096]);
        loop {
            // SAFETY: `buf` is a valid, exclusively borrowed buffer of
            // the length passed.
            let n = unsafe { read(fd, buf.0.as_mut_ptr().cast(), buf.0.len()) };
            let seen = Instant::now();
            let Ok(n) = usize::try_from(n) else { return };
            let events = &buf.0[..n];
            let mut at = 0;
            while at + EVENT_HEADER <= n {
                let len = u32::from_ne_bytes(events[at + 12..at + 16].try_into().unwrap());
                let end = at + EVENT_HEADER + len as usize;
                let event_name = events[at + EVENT_HEADER..end].split(|&b| b == 0).next();
                if event_name == Some(name.as_slice()) {
                    let _ = tx.send(seen);
                    return;
                }
                at = end;
            }
        }
    });
    let rt = rt_rx.recv().unwrap_or(false);
    Ok((rx, rt))
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let created = if argv.first().map(String::as_str) == Some("--created") && argv.len() > 1 {
        Some(argv.drain(..2).nth(1).unwrap())
    } else {
        None
    };
    let [report, program, args @ ..] = argv.as_slice() else {
        eprintln!("usage: ftb-launch [--created <file>] <report.json> <program> [args...]");
        return ExitCode::from(2);
    };
    let creation = match created.as_deref().map(|f| watch_creation(Path::new(f))) {
        Some(Err(e)) => {
            eprintln!("ftb-launch: {e}");
            return ExitCode::from(2);
        }
        Some(Ok(watch)) => Some(watch),
        None => None,
    };
    let created_rt = creation.as_ref().is_some_and(|(_, rt)| *rt);
    let t0 = Instant::now();
    let child = match Command::new(program).args(args).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("ftb-launch: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std's `Child` never waits
    // on drop), and both out-pointers are valid, exclusively borrowed
    // locals whose layout matches what the kernel writes.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let answer_s = t0.elapsed().as_secs_f64();
    if reaped != pid {
        eprintln!(
            "ftb-launch: wait4 failed: {}",
            std::io::Error::last_os_error()
        );
        return ExitCode::from(2);
    }
    // a file the child created is already in the watch's queue; the
    // timeout only bounds the wait when it never was
    let created_s = creation
        .and_then(|(rx, _)| rx.recv_timeout(Duration::from_secs(1)).ok())
        .map_or("null".to_string(), |seen| {
            seen.duration_since(t0).as_secs_f64().to_string()
        });
    let json = format!(
        "{{\"status\": {status}, \"answer_s\": {answer_s}, \"created_s\": {created_s}, \
         \"created_rt\": {created_rt}, \"maxrss_kb\": {}}}\n",
        usage.maxrss
    );
    if let Err(e) = std::fs::write(report, json) {
        eprintln!("ftb-launch: writing {report}: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
