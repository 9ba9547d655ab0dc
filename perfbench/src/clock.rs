//! Thread CPU time, the clock behind every per-layer self time.
//!
//! Host wall time is taken by the benchmark script (`run.py`) at the phase
//! markers this binary prints; inside the process the benchmark reads
//! only the calling thread's CPU time. That keeps other tenants'
//! preemption out of the layer shares, and it is not a wall clock, so
//! nothing here can leak into the simulation's virtual time.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU nanoseconds consumed by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The CPU time an empty timed interval reads (two back-to-back clock
/// reads), as the median of many tries. Timed spans subtract it so the
/// cost of the clock itself is not charged to the layer being timed.
pub fn null_interval_ns() -> u64 {
    let mut samples: Vec<u64> = (0..201)
        .map(|_| {
            let a = thread_cpu_ns();
            thread_cpu_ns() - a
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}
