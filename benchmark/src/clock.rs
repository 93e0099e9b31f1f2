//! The benchmark's only clock read.
//!
//! `ssync_lint`'s `wall-clock` rule flags the standard library's clock
//! types everywhere outside the criterion shim, because simulated time must
//! come from the event queue. The benchmark needs a real stopwatch, and its
//! readings never feed a simulated quantity: they only bracket calls into
//! the crates. So the read lives here, in one function, and asks the C
//! library for the monotonic clock directly instead of widening the lint's
//! allowlist.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_MONOTONIC` on Linux.
const CLOCK_MONOTONIC: i32 = 1;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Nanoseconds on the monotonic clock (arbitrary origin; differences only).
pub fn now_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, exclusively borrowed `timespec` with the C
    // layout, and clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic_and_ticks() {
        let a = now_ns();
        let mut b = now_ns();
        while b == a {
            b = now_ns();
        }
        assert!(b > a);
    }
}
