//! Host clocks and the memory gauge read around each timed call.
//!
//! CPU time comes from `CLOCK_PROCESS_CPUTIME_ID` (all threads of the
//! process, nanosecond resolution); peak memory from the kernel's
//! `VmHWM`, which the benchmark resets between repetitions so one
//! repetition's high-water mark cannot leak into the next. Linux only.

use std::io;
use std::time::Instant;

/// CPU time consumed by the whole process so far, seconds.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of 64-bit Linux (two 64-bit fields), and clock_gettime
    // writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host cost of one call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Cost {
    pub fn add(&mut self, other: Cost) {
        self.cpu_s += other.cpu_s;
        self.wall_s += other.wall_s;
    }
}

/// Run `f` and return its result with the CPU and wall time it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (cpu0, wall0) = (process_cpu_s(), Instant::now());
    let out = f();
    let cost = Cost {
        cpu_s: process_cpu_s() - cpu0,
        wall_s: wall0.elapsed().as_secs_f64(),
    };
    (out, cost)
}

/// High-water resident memory of one repetition. Sections excluded with
/// [`PeakRss::exclude`] (correctness checks) do not count.
#[derive(Debug)]
pub struct PeakRss {
    max_bytes: u64,
}

impl PeakRss {
    /// Reset the kernel's high-water mark and start tracking.
    pub fn start() -> io::Result<Self> {
        reset_hwm()?;
        Ok(PeakRss { max_bytes: 0 })
    }

    /// Run `f` outside the measurement: fold the high-water mark so far
    /// into the maximum, run `f`, then start a fresh interval.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> io::Result<T> {
        self.max_bytes = self.max_bytes.max(vm_hwm_bytes()?);
        let out = f();
        reset_hwm()?;
        Ok(out)
    }

    /// The repetition's high-water mark, bytes.
    pub fn finish(self) -> io::Result<u64> {
        Ok(self.max_bytes.max(vm_hwm_bytes()?))
    }
}

/// Writing 5 to `clear_refs` resets `VmHWM` to the current RSS.
fn reset_hwm() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

fn vm_hwm_bytes() -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let (sum, cost) = measure(|| (0..2_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(cost.cpu_s > 0.0 && cost.wall_s > 0.0);
    }

    #[test]
    fn peak_rss_sees_an_allocation_and_excludes_checks() {
        // The buffer stays alive across the read, so a concurrent test
        // resetting the process-wide mark cannot hide it.
        let mut rss = PeakRss::start().unwrap();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        rss.exclude(|| ()).unwrap();
        drop(big);
        let peak = rss.finish().unwrap();
        assert!(peak >= 64 << 20, "peak {peak} misses a 64 MiB buffer");
    }
}
