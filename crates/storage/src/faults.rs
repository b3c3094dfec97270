//! Failpoint-style fault injection for crash-torture testing.
//!
//! Only compiled with the `failpoints` cargo feature (tests and the
//! `experiments crash` harness). Every I/O side effect on the mutation
//! path calls [`check`] first; the harness arms a per-thread countdown and
//! the Nth operation returns an injected error. Once a fault fires the
//! thread is *tripped*: every subsequent gated operation fails too, which
//! is what makes the simulation a process death rather than a single
//! transient error — the build's remaining page writes and fsyncs and the
//! manifest rename all fail exactly as they would after a kill.
//!
//! State is thread-local so torture sweeps are deterministic and parallel
//! test threads do not interfere.

use std::cell::Cell;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// No injection; all operations pass.
    Disarmed,
    /// Count gated operations without failing (the measuring run of a
    /// torture sweep).
    Counting(u64),
    /// Allow this many more operations, then trip.
    Armed(u64),
    /// A fault has fired: all further operations fail.
    Tripped,
}

thread_local! {
    static MODE: Cell<Mode> = const { Cell::new(Mode::Disarmed) };
}

/// Arms the current thread: the next `allow` gated operations succeed, the
/// one after trips and every operation from then on fails until
/// [`disarm`].
pub fn arm(allow: u64) {
    MODE.with(|m| m.set(Mode::Armed(allow)));
}

/// Switches the current thread to counting mode: operations succeed and
/// are counted. Read the count back with [`disarm`].
pub fn arm_counting() {
    MODE.with(|m| m.set(Mode::Counting(0)));
}

/// Disarms the current thread and returns the number of operations
/// observed since [`arm_counting`] (0 in other modes).
pub fn disarm() -> u64 {
    MODE.with(|m| {
        let prev = m.replace(Mode::Disarmed);
        match prev {
            Mode::Counting(n) => n,
            _ => 0,
        }
    })
}

/// True once an armed fault has fired on this thread.
pub fn is_tripped() -> bool {
    MODE.with(|m| m.get() == Mode::Tripped)
}

/// The gate. Called by the storage layer before each real I/O side effect.
pub fn check(op: &'static str) -> std::io::Result<()> {
    MODE.with(|m| match m.get() {
        Mode::Disarmed => Ok(()),
        Mode::Counting(n) => {
            m.set(Mode::Counting(n + 1));
            Ok(())
        }
        Mode::Armed(0) => {
            m.set(Mode::Tripped);
            Err(injected(op))
        }
        Mode::Armed(n) => {
            m.set(Mode::Armed(n - 1));
            Ok(())
        }
        Mode::Tripped => Err(injected(op)),
    })
}

fn injected(op: &'static str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {op}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_then_armed_trips_at_nth_op() {
        arm_counting();
        for _ in 0..5 {
            check("op").unwrap();
        }
        assert_eq!(disarm(), 5);

        arm(2);
        assert!(check("a").is_ok());
        assert!(check("b").is_ok());
        assert!(check("c").is_err());
        assert!(is_tripped());
        // tripped: everything keeps failing, like a dead process
        assert!(check("d").is_err());
        disarm();
        assert!(check("e").is_ok());
    }
}
