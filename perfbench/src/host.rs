//! What the host gives a run: CPU time, peak memory, and the width.

use std::time::Duration;

/// The pool and executor width every workload uses: the host's CPU count,
/// never more.
pub fn width() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// CPU time and peak resident set of this process and of its children that
/// have ended and been waited for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU of this process.
    pub self_cpu: Duration,
    /// User + system CPU of waited-for children.
    pub child_cpu: Duration,
    /// Largest `maxrss` among waited-for children, in KiB.
    pub child_max_rss_kib: u64,
}

impl Usage {
    /// Reads both `getrusage` ledgers now.
    pub fn now() -> Usage {
        let own = rusage(RUSAGE_SELF);
        let children = rusage(RUSAGE_CHILDREN);
        Usage {
            self_cpu: own.cpu(),
            child_cpu: children.cpu(),
            child_max_rss_kib: children.ru_maxrss.max(0) as u64,
        }
    }

    /// CPU of this process and its children, in seconds.
    pub fn total_cpu_s(&self) -> f64 {
        (self.self_cpu + self.child_cpu).as_secs_f64()
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn self_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix("VmHWM:")?;
                rest.trim().trim_end_matches("kB").trim().parse().ok()
            })
        })
        .unwrap_or(0)
}

/// Returns freed heap memory to the operating system, then restarts this
/// process's `VmHWM` from its current resident set, so that a later reading
/// covers only what ran since, from the same floor.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and only releases free
    // heap pages; it may be called at any time.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 to clear_refs resets the peak RSS (Linux 4.0+); where that
    // is refused, the reading simply covers the whole process life.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process or of its largest child, in MB.
pub fn peak_rss_mb() -> f64 {
    let kib = self_peak_rss_kib().max(Usage::now().child_max_rss_kib);
    kib as f64 / 1024.0
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen `long`s.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

impl Rusage {
    fn cpu(&self) -> Duration {
        let micros = |t: Timeval| t.tv_sec.max(0) as u64 * 1_000_000 + t.tv_usec.max(0) as u64;
        Duration::from_micros(micros(self.ru_utime) + micros(self.ru_stime))
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `who` is one of the two values getrusage accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_peak_rss_is_positive() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(Usage::now().self_cpu > before.self_cpu);
        assert!(self_peak_rss_kib() > 0);
        assert!(width() >= 1);
    }
}
