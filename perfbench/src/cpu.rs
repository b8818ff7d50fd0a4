//! Keeps a one-worker workload on one CPU and one malloc arena.
//!
//! On a shared host of a few virtual CPUs, a thread woken on an idle vCPU
//! waits until the hypervisor schedules that vCPU again. The wire workload
//! hands every batch from the client thread to a server thread and back, so
//! with its threads spread over two vCPUs those wake-ups, not the service,
//! set the tail: its p90 spread 28-40% across runs of the same code.
//! Alternating runs of one seed read a p90 of 6.2-10.5 ms under 3.2-17.2%
//! steal with the threads spread, and 5.6-6.6 ms under 1.6-3.8% steal with
//! every thread of the process on one CPU, where each hand-off is a context
//! switch on a CPU that is already running.

/// Restricts this thread, and every thread it spawns afterwards, to the
/// lowest CPU it may run on now. Returns that CPU, or `None` where the
/// affinity cannot be read or set (other systems than Linux included).
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

/// Makes glibc's malloc serve every thread from one arena. Once all threads
/// share one CPU, more arenas buy nothing, and how many the server's
/// per-connection threads happened to create moved the wire workload's peak
/// resident set: 11.8-13.4 MiB across runs of one seed, against 10.4-10.6
/// MiB with one arena. Returns whether the setting took (false where the C
/// library is not glibc).
pub fn one_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        /// `M_ARENA_MAX` of glibc's `malloc.h`.
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes a tunable of the allocator, and it
        // runs before this process spawns any thread.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` of glibc: 1024 bits.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_one_cpu() -> Option<usize> {
        let size = WORDS * std::mem::size_of::<u64>();
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().position(|&w| w != 0)?;
        let cpu = word * 64 + mask[word].trailing_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << (cpu % 64);
        // SAFETY: as above; the mask is only read.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}
