//! Offline stand-in for the `parking_lot` crate: its `Mutex`, which is all
//! the workspace uses.
//!
//! Wraps `std::sync::Mutex` behind `parking_lot`'s API shape: `lock()`
//! returns the guard directly (no `Result`), and — critically for this
//! workspace — **poisoning is ignored**: the simulator's world-poisoning
//! protocol deliberately panics on ranks that hold locks (e.g. a rank
//! unwinding out of a collective's rendezvous), and the surviving ranks
//! must still be able to lock. `parking_lot` has no lock poisoning; this
//! stub matches that by unwrapping `PoisonError` into the inner guard.

use std::sync::{MutexGuard, PoisonError};

/// A mutual exclusion primitive (poison-free `lock()` API).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never fails: a panic on
    /// another thread while it held the lock does not poison it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(5i32));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, lock still usable.
        assert_eq!(*m.lock(), 5);
    }
}
