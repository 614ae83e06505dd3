//! Minimal POSIX signal handling for graceful drain — `SIGTERM`/`SIGINT`
//! raise a process-wide flag the `cbic-serve` binary mirrors into the
//! server's [`ShutdownHandle`](crate::server::ShutdownHandle).
//!
//! The workspace is dependency-free, so instead of the `libc` crate this
//! binds the C library's `signal(2)` directly. The handler itself is a
//! bare `extern "C"` function that performs one atomic store — the only
//! async-signal-safe action it takes.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

/// `SIGINT` signal number (Ctrl-C).
const SIGINT: i32 = 2;
/// `SIGTERM` signal number (polite termination, e.g. from `kill` or a
/// supervisor).
const SIGTERM: i32 = 15;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Relaxed);
}

/// Installs `SIGTERM`/`SIGINT` handlers. After this call,
/// [`shutdown_requested`] flips to `true` when either signal arrives.
pub fn install_shutdown_handler() {
    let handler: extern "C" fn(i32) = on_signal;
    // SAFETY: `signal` is the C library's own registration call; the
    // handler only stores to a static atomic, which is async-signal-safe.
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

/// Whether a `SIGTERM`/`SIGINT` has arrived since
/// [`install_shutdown_handler`].
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Relaxed)
}
