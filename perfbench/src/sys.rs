//! Process facts: resident memory, core count, build profile, CPU
//! affinity.

/// Hand freed heap back to the kernel.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free heap pages; it is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Hand freed heap back to the kernel, then reset the kernel's peak-RSS
/// mark to the current RSS (`5` → `/proc/self/clear_refs`), so the peak
/// read later covers only what ran after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Confine this thread, and every thread it starts later, to one CPU: the
/// lowest it may run on now. Returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes, the length of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes, the length of `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set, in MiB.
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb as f64 / 1024.0)
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// CPU time the calling thread has run, in nanoseconds: time it spent
/// waiting for the CPU while other threads ran does not count.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: the kernel writes one timespec into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}
