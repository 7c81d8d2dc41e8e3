//! The CPU time of the whole benchmark process: client, server threads
//! and sweep worker alike.
//!
//! The end-to-end metrics are CPU time rather than wall-clock time
//! because the benchmark runs on a virtual machine whose host hands its
//! virtual CPUs to other guests: that time (steal) came to between 1% and
//! 34% of the machine in five-second samples taken while the benchmark
//! ran on a 2-vCPU KVM guest, and it changes over minutes, so the
//! wall-clock tick latency of one seed moved by more than a quarter
//! from one run to the next. A paravirtual
//! kernel charges no thread for stolen time, so process CPU time counts
//! the work the fleet does and not the host's other guests. With one
//! closed-loop client, and no thread that spins while it waits, a
//! request's CPU time is its latency less the time its threads spent
//! waiting to run.
//!
//! CPU time alone was not enough: with the client, the accept thread and
//! the sweep worker free to run on both vCPUs, every request woke a thread
//! on the other vCPU, and what a cross-vCPU wake-up costs the guest varies
//! with the host's load. The median tick took 79 us of CPU that way and
//! 31 us with the process held to one vCPU, on the same seed; ten runs of
//! one build on a busy host spread by more than a quarter of the median.
//! So the benchmark holds itself to one CPU (see [`pin_to_one_cpu`]):
//! request and reply hand over on one core, as on a fleet box that serves
//! one connection per core.

use std::ffi::{c_int, c_long, c_void};

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// Linux's `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

/// `struct timespec` of Linux's `<time.h>`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_void) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_void) -> c_int;
}

/// Holds this process, and every thread it starts later, to the last CPU
/// it may run on, and returns that CPU's number. Call it before starting
/// any thread: threads inherit the mask of the thread that starts them.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed, and
    // `sched_getaffinity` writes at most that many bytes into it.
    let rc =
        unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr().cast()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed, only read.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr().cast()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// CPU time every thread of this process has run so far, in nanoseconds.
pub fn process_ns() -> u64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "the process CPU clock is unreadable");
    time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64
}
