//! Single-flight request coalescing: identical concurrent queries
//! against the same source share one driver execution and one cache
//! fill, instead of stampeding the data source N times for the same
//! answer (the ROADMAP's "heavy traffic from millions of users" knob).
//!
//! The first caller to arrive for a key becomes the **leader** and runs
//! the closure; callers that arrive while the leader is in flight
//! become **followers**, block on a condvar, and receive a clone of the
//! leader's result. Once the leader publishes, the key is retired so
//! the *next* identical query starts a fresh flight (coalescing is
//! about concurrency, not caching — freshness is the cache
//! controller's job).
//!
//! In the single-threaded simulation harness every caller is a leader
//! and this module is a no-op, which is exactly why it cannot disturb
//! `determinism.rs`: coalescing only changes behaviour when real OS
//! threads overlap, and then only by *removing* duplicate work.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

enum SlotState<V> {
    Pending,
    Done(V),
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
    waiters: Mutex<usize>,
}

impl<V> Slot<V> {
    fn new() -> Slot<V> {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
            waiters: Mutex::new(0),
        }
    }
}

/// A map of in-flight computations keyed by `K`, deduplicating
/// concurrent identical work.
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty flight map.
    pub fn new() -> SingleFlight<K, V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Run `f` under single-flight semantics for `key`.
    ///
    /// Returns `(value, coalesced)`: `coalesced` is `false` for the
    /// leader that actually executed `f` and `true` for followers that
    /// shared the leader's published result.
    pub fn execute(&self, key: K, f: impl FnOnce() -> V) -> (V, bool) {
        let (slot, leader) = {
            let mut map = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot::new());
                    map.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if leader {
            let value = f();
            {
                let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
                *state = SlotState::Done(value.clone());
            }
            // Retire the key before waking followers: queries arriving
            // from here on start a fresh flight.
            self.inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key);
            slot.ready.notify_all();
            (value, false)
        } else {
            *slot.waiters.lock().unwrap_or_else(PoisonError::into_inner) += 1;
            let mut state = slot.state.lock().unwrap_or_else(PoisonError::into_inner);
            let value = loop {
                if let SlotState::Done(v) = &*state {
                    break v.clone();
                }
                state = slot
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            };
            drop(state);
            *slot.waiters.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
            (value, true)
        }
    }

    /// Number of followers currently blocked on `key`'s flight
    /// (0 when nothing is in flight). Lets tests synchronise on "the
    /// follower has actually joined" without timing races.
    pub fn waiters(&self, key: &K) -> usize {
        let slot = {
            self.inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(key)
                .map(Arc::clone)
        };
        slot.map(|s| *s.waiters.lock().unwrap_or_else(PoisonError::into_inner))
            .unwrap_or(0)
    }

    /// True when a flight for `key` is currently executing.
    pub fn in_flight(&self, key: &K) -> bool {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(key)
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> SingleFlight<K, V> {
        SingleFlight::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn sequential_calls_each_execute() {
        let sf: SingleFlight<&'static str, u32> = SingleFlight::new();
        let calls = AtomicUsize::new(0);
        let run = || {
            sf.execute("k", || {
                calls.fetch_add(1, Ordering::SeqCst);
                7
            })
        };
        assert_eq!(run(), (7, false));
        assert_eq!(run(), (7, false));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert!(!sf.in_flight(&"k"));
    }

    #[test]
    fn concurrent_identical_calls_share_one_execution() {
        let sf: Arc<SingleFlight<String, u32>> = Arc::new(SingleFlight::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();

        let leader = {
            let sf = Arc::clone(&sf);
            let calls = Arc::clone(&calls);
            thread::spawn(move || {
                sf.execute("q".to_owned(), move || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap(); // hold the flight open
                    42
                })
            })
        };
        entered_rx.recv().unwrap(); // leader is inside the closure

        let follower = {
            let sf = Arc::clone(&sf);
            let calls = Arc::clone(&calls);
            thread::spawn(move || {
                sf.execute("q".to_owned(), move || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    99 // must never run
                })
            })
        };
        // Wait until the follower is parked on the flight, then let the
        // leader publish.
        while sf.waiters(&"q".to_owned()) == 0 {
            thread::yield_now();
        }
        release_tx.send(()).unwrap();

        assert_eq!(leader.join().unwrap(), (42, false));
        assert_eq!(follower.join().unwrap(), (42, true));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one execution");
        assert!(!sf.in_flight(&"q".to_owned()));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf: SingleFlight<u32, u32> = SingleFlight::new();
        assert_eq!(sf.execute(1, || 10), (10, false));
        assert_eq!(sf.execute(2, || 20), (20, false));
    }
}
