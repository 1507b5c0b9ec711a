//! Graceful-shutdown plumbing: a cooperative shutdown flag and
//! SIGINT/SIGTERM handlers that trip it.
//!
//! The server never tears anything down from inside a signal handler —
//! the handler is async-signal-safe (one atomic store) and everything
//! else polls [`ShutdownFlag::is_triggered`]: the accept loop between
//! (non-blocking) accepts, and each connection's [`super::deadline::DeadlineReader`]
//! on its poll ticks. That keeps the shutdown sequence ordinary
//! sequential code: stop accepting → connections drain their buffered
//! frames → queues close → batchers flush replies → socket unlink →
//! exit 0 — with the determinism contract (serial-equivalent
//! batch replies) untouched, because shutdown reuses the exact
//! [`crate::BoundedQueue::close`] path every connection already ends
//! with.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Process-wide signal latch, written only by the signal handler.
static SIGNALED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

// `signal(2)` via the libc std already links — the workspace vendors no
// libc crate, and one registration call doesn't justify one.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// The handler itself: async-signal-safe by construction (a single
/// relaxed-to-SeqCst atomic store, no allocation, no locks, no I/O).
extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

/// A cooperative shutdown flag shared by the accept loop and every
/// connection. Cloning shares the underlying flag; [`ShutdownFlag::new`]
/// makes an independent one (used per-session and in tests).
///
/// A flag from [`ShutdownFlag::with_signal_handlers`] *also* observes
/// the process-wide SIGINT/SIGTERM latch, so operator signals and
/// programmatic [`ShutdownFlag::trigger`] calls read identically to
/// pollers.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag {
    local: Arc<AtomicBool>,
    follow_signals: bool,
}

impl ShutdownFlag {
    /// A fresh, untriggered flag that ignores process signals.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag::default()
    }

    /// Trip the flag. Idempotent; visible to every clone.
    pub fn trigger(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// True once [`ShutdownFlag::trigger`] ran — or, for a flag from
    /// [`ShutdownFlag::with_signal_handlers`], once SIGINT/SIGTERM
    /// arrived.
    pub fn is_triggered(&self) -> bool {
        self.local.load(Ordering::SeqCst)
            || (self.follow_signals && SIGNALED.load(Ordering::SeqCst))
    }

    /// Install SIGINT/SIGTERM handlers and return a clone of this flag
    /// that also trips on them. Safe to call more than once
    /// (re-registration is a no-op in effect); every such flag watches
    /// the same latch.
    pub fn with_signal_handlers(&self) -> ShutdownFlag {
        // SAFETY: `signal` is registering an async-signal-safe extern "C"
        // handler; the handler only stores to a static atomic.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        ShutdownFlag {
            local: Arc::clone(&self.local),
            follow_signals: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_flag_is_untriggered_and_clones_share_state() {
        let flag = ShutdownFlag::new();
        assert!(!flag.is_triggered());
        let peer = flag.clone();
        flag.trigger();
        assert!(peer.is_triggered());
        // Independent flags stay independent.
        assert!(!ShutdownFlag::new().is_triggered());
    }

    #[test]
    fn installed_flag_watches_the_signal_latch() {
        let base = ShutdownFlag::new();
        let flag = base.with_signal_handlers();
        assert!(!flag.is_triggered() || SIGNALED.load(Ordering::SeqCst));
        // Simulate signal delivery by calling the handler directly —
        // it must be nothing more than an atomic store.
        on_signal(SIGTERM);
        assert!(flag.is_triggered());
        // The base flag never follows signals; a trigger on it reaches
        // the signal-following clone.
        assert!(!base.is_triggered());
        SIGNALED.store(false, Ordering::SeqCst);
        assert!(!flag.is_triggered());
        base.trigger();
        assert!(flag.is_triggered());
    }
}
