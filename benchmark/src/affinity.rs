//! Confining threads to CPUs (Linux only; elsewhere a no-op).
//!
//! Threads spawned afterwards inherit the mask, so pinning the thread that
//! boots a system pins the whole system.

/// A CPU set, as `sched_getaffinity` fills it (1024 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask([u64; 16]);

#[cfg(target_os = "linux")]
mod imp {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn current() -> Option<Mask> {
        let mut mask = Mask([0; 16]);
        // SAFETY: `mask.0` is `size_of_val(&mask.0)` writable bytes and that
        // size is what is passed; pid 0 names the calling thread.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask.0` is `size_of_val(&mask.0)` readable bytes and that
        // size is what is passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Mask;

    pub fn current() -> Option<Mask> {
        None
    }

    pub fn set(_mask: &Mask) -> bool {
        false
    }
}

/// Pins the calling thread (and every thread it spawns from now on) to the
/// highest CPU it is allowed on — CPU 0 is where interrupts tend to land.
/// Returns the mask it had before, for [`restore`]; `None` if the mask could
/// not be read or set, in which case nothing changed.
pub fn pin_to_one_cpu() -> Option<Mask> {
    let before = imp::current()?;
    let (word, bits) = before.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let mut one = Mask([0; 16]);
    one.0[word] = 1 << (63 - bits.leading_zeros());
    imp::set(&one).then_some(before)
}

/// Gives the calling thread the CPUs of `mask` back.
pub fn restore(mask: &Mask) -> bool {
    imp::set(mask)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_confines_the_thread_and_its_children_until_restored() {
        std::thread::spawn(|| {
            let before = pin_to_one_cpu().expect("affinity syscalls work");
            let pinned = imp::current().unwrap();
            assert_eq!(pinned.0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let child = std::thread::spawn(imp::current).join().unwrap();
            assert_eq!(child, Some(pinned));
            assert!(restore(&before));
            assert_eq!(imp::current(), Some(before));
        })
        .join()
        .unwrap();
    }
}
