//! Graceful-shutdown latching for SIGTERM / SIGINT.
//!
//! A polite `kill` (or Ctrl-C) should never cost a long run its flushed
//! state: the handler installed here only latches a process-wide atomic
//! flag, and cooperative code polls [`requested`] at safe points — the
//! harness between grid cells, the serving loop between batches — then
//! drains, flushes, and exits cleanly. (SIGKILL remains the crash-safety
//! journal's problem; this module covers the *polite* signals.)
//!
//! The flag is a latch: once set it stays set, and a second signal does
//! not escalate (the default disposition is replaced for the process
//! lifetime). [`trigger`] sets the same latch programmatically so tests
//! and embedders can drive the drain path without real signals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

static REQUESTED: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

/// A registered drain callback (boxed so hooks of any closure type share
/// one list).
type DrainHook = Box<dyn FnOnce() + Send>;

/// Cleanup callbacks run by [`drain`] when a latched shutdown unwinds to
/// the top-level driver. Signal handlers cannot run arbitrary code
/// (async-signal-safety), so hooks execute cooperatively, on the normal
/// control path, exactly once each.
static DRAIN_HOOKS: OnceLock<Mutex<Vec<DrainHook>>> = OnceLock::new();

fn hooks() -> &'static Mutex<Vec<DrainHook>> {
    DRAIN_HOOKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers a cleanup hook to run when the process drains after a
/// latched SIGTERM/SIGINT (see [`drain`]). Used by holders of shared
/// on-disk state — the shard coordinator registers one that releases its
/// held cell leases, so a politely-killed worker never forces peers to
/// wait out the lease TTL.
///
/// Hooks run in registration order, at most once; registering after a
/// drain runs the hook only on a subsequent [`drain`] call.
pub fn register_drain(hook: impl FnOnce() + Send + 'static) {
    hooks()
        .lock()
        .expect("drain hooks lock")
        .push(Box::new(hook));
}

/// Runs (and consumes) every registered drain hook. Called by top-level
/// drivers after catching the [`ShutdownRequested`] unwind — idempotent,
/// since each hook is taken out of the registry before it runs.
pub fn drain() {
    // Take the hooks out under the lock, run them outside it: a hook may
    // itself register further hooks without deadlocking.
    let pending: Vec<_> = std::mem::take(&mut *hooks().lock().expect("drain hooks lock"));
    for hook in pending {
        hook();
    }
}

/// Panic payload used to unwind out of deep work loops once shutdown is
/// requested. Layers that `catch_unwind` for *fault isolation* (retry,
/// resilience) must not treat this as a recoverable failure; the
/// top-level driver catches it and exits cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownRequested;

impl std::fmt::Display for ShutdownRequested {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shutdown requested (SIGTERM/SIGINT)")
    }
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // The platform C library is already linked by std on unix; binding
    // `signal` directly avoids a `libc` dependency. The handler
    // body is a single atomic store — async-signal-safe by construction.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        let handler = on_signal as *const () as usize;
        // SAFETY: `signal` is the C library's own, called with two valid
        // signal numbers and a handler of the C signature it expects whose
        // body is async-signal-safe; the returned old disposition is unused.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

/// Installs the SIGTERM/SIGINT latch handlers (idempotent). Call once
/// near the top of `main` in any binary that wants graceful drains.
pub fn install() {
    INSTALL.call_once(imp::install);
}

/// Whether a shutdown signal (or [`trigger`]) has been latched.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Latches the shutdown flag programmatically (tests, embedders).
pub fn trigger() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears the latch. Test hook only: real shutdowns never un-request.
#[doc(hidden)]
pub fn clear_for_test() {
    REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_round_trip() {
        clear_for_test();
        assert!(!requested());
        trigger();
        assert!(requested());
        trigger();
        assert!(requested(), "latch stays set");
        clear_for_test();
        assert!(!requested());
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }

    #[test]
    fn drain_hooks_run_once_in_order() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let log = log.clone();
            register_drain(move || log.lock().unwrap().push(i));
        }
        drain();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        // Consumed: a second drain is a no-op for already-run hooks.
        drain();
        assert_eq!(log.lock().unwrap().len(), 3);
        // A hook registered later runs on the next drain only.
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        register_drain(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        drain();
        drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
