//! Process-level helpers: peak resident memory and timed child runs.

use std::path::Path;
use std::process::{Command, Output, Stdio};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

unsafe extern "C" {
    /// libc `getrusage(2)`; the workspace has no `libc` crate.
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn max_rss_kb(who: i32) -> u64 {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` with the kernel's
    // layout, and `who` is one of the two selectors the call accepts.
    let rc = unsafe { getrusage(who, &mut u) };
    if rc == 0 {
        u.maxrss.max(0) as u64
    } else {
        0
    }
}

/// Peak resident memory of this process, in KiB.
pub fn self_peak_rss_kb() -> u64 {
    max_rss_kb(RUSAGE_SELF)
}

/// Peak resident memory of the largest child (or grandchild) this
/// process has waited for, in KiB.
pub fn children_peak_rss_kb() -> u64 {
    max_rss_kb(RUSAGE_CHILDREN)
}

/// Run `program args…` to completion (waiting for it to exit), capturing
/// its output.
pub fn run_child(program: &Path, args: &[&str]) -> std::io::Result<Output> {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .output()
}
