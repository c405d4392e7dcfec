//! CPU placement of the whole benchmark.
//!
//! On the two-vCPU sandbox this benchmark is run in, a wake-up that
//! crosses CPUs costs tens of microseconds and its cost switches between
//! regimes every few hundred milliseconds; a request that is handed from
//! client to reactor to worker and back crosses up to four times.  Left to
//! the scheduler, `mac_steady`'s throughput wandered between 9 000 and
//! 27 000 requests a second within one run.  Confined to one CPU, parent
//! and server child together, the same run holds within a few percent —
//! and is faster.  What is then measured is the CPU cost of a request end
//! to end, which is what every planned optimisation changes; parallel
//! speed-up is not measurable on this rig either way.

use std::os::raw::c_int;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

/// Confines this process, and every thread and child it starts from here
/// on, to the lowest-numbered CPU it may run on.  Returns that CPU, or
/// `None` when the kernel refused (the run then floats as before).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
    let mut only: CpuSet = [0; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread, which is the only thread
    // of the process when `main` calls this.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) } == 0).then_some(cpu)
}
