//! Single-flight request coalescing: identical concurrent queries
//! against the same source share one driver execution and one cache
//! fill, instead of stampeding the data source N times for the same
//! answer (the ROADMAP's "heavy traffic from millions of users" knob).
//!
//! The first caller to arrive for a key becomes the **leader** and runs
//! the closure; callers that arrive while the leader is in flight
//! become **followers**, are counted, block on a condvar, and receive a
//! clone of the leader's result. When the leader finishes it first
//! retires the key, so the *next* identical query starts a fresh flight
//! (coalescing is about concurrency, not caching — freshness is the
//! cache controller's job), and then publishes a clone of its result
//! only if a follower joined.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Where a flight's followers wait for its leader's value.
struct Slot<V> {
    value: Mutex<Option<V>>,
    ready: Condvar,
}

/// One key's flight: its slot and the followers that joined it. The
/// count lives under the map's lock, so once the leader has retired the
/// key the count it took out with it is final.
struct Flight<V> {
    slot: Arc<Slot<V>>,
    followers: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A map of in-flight computations keyed by `K`, deduplicating
/// concurrent identical work.
pub struct SingleFlight<K, V> {
    inflight: Mutex<HashMap<K, Flight<V>>>,
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
    /// shared the leader's published result. A leader nobody joined
    /// publishes nothing, so it never clones its value.
    pub fn execute(&self, key: K, f: impl FnOnce() -> V) -> (V, bool) {
        let (slot, leader) = {
            let mut map = lock(&self.inflight);
            match map.get_mut(&key) {
                Some(flight) => {
                    flight.followers += 1;
                    (Arc::clone(&flight.slot), false)
                }
                None => {
                    let slot = Arc::new(Slot {
                        value: Mutex::new(None),
                        ready: Condvar::new(),
                    });
                    let flight = Flight {
                        slot: Arc::clone(&slot),
                        followers: 0,
                    };
                    map.insert(key.clone(), flight);
                    (slot, true)
                }
            }
        };

        if leader {
            let value = f();
            // Retire the key before publishing: queries arriving from
            // here on start a fresh flight, and no follower can join
            // this one any more.
            let followers = lock(&self.inflight)
                .remove(&key)
                .map_or(0, |flight| flight.followers);
            if followers > 0 {
                *lock(&slot.value) = Some(value.clone());
                slot.ready.notify_all();
            }
            (value, false)
        } else {
            #[cfg(test)]
            tests::between_join_and_wait();
            let mut published = lock(&slot.value);
            loop {
                if let Some(v) = &*published {
                    break (v.clone(), true);
                }
                published = slot
                    .ready
                    .wait(published)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Number of followers that joined `key`'s flight and wait for its
    /// leader (0 when nothing is in flight). Lets tests synchronise on
    /// "the follower has actually joined" without timing races.
    pub fn waiters(&self, key: &K) -> usize {
        lock(&self.inflight)
            .get(key)
            .map_or(0, |flight| flight.followers)
    }

    /// True when a flight for `key` is currently executing.
    pub fn in_flight(&self, key: &K) -> bool {
        lock(&self.inflight).contains_key(key)
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
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    thread_local! {
        /// Run by a follower on this thread after it joined a flight and
        /// released the map's lock, before it waits for the value.
        static BETWEEN_JOIN_AND_WAIT: RefCell<Option<Box<dyn FnOnce()>>> =
            const { RefCell::new(None) };
    }

    pub(super) fn between_join_and_wait() {
        if let Some(hook) = BETWEEN_JOIN_AND_WAIT.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// A value that counts its clones.
    #[derive(Debug)]
    struct Counted(Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.0.fetch_add(1, Ordering::SeqCst);
            Counted(Arc::clone(&self.0))
        }
    }

    #[test]
    fn a_leader_nobody_joined_never_clones_its_value() {
        let sf: SingleFlight<&'static str, Counted> = SingleFlight::new();
        let clones = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let (_, coalesced) = sf.execute("k", || Counted(Arc::clone(&clones)));
            assert!(!coalesced);
        }
        assert_eq!(clones.load(Ordering::SeqCst), 0);
    }

    /// The follower joins while the leader is still in flight, but only
    /// waits once the leader has retired the key and returned: it must
    /// have been counted when it joined, or nobody publishes for it.
    #[test]
    fn a_follower_that_joined_before_the_key_retired_gets_the_value() {
        let sf: Arc<SingleFlight<String, u32>> = Arc::new(SingleFlight::new());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || {
                sf.execute("q".to_owned(), move || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    42
                })
            })
        };
        entered_rx.recv().unwrap();

        let (got_tx, got_rx) = mpsc::channel();
        let follower = {
            let sf = Arc::clone(&sf);
            thread::spawn(move || {
                BETWEEN_JOIN_AND_WAIT.with(|h| {
                    *h.borrow_mut() = Some(Box::new(move || {
                        release_tx.send(()).unwrap();
                        assert_eq!(leader.join().unwrap(), (42, false));
                    }));
                });
                got_tx.send(sf.execute("q".to_owned(), || 99)).unwrap();
            })
        };
        let got = got_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the follower never received the leader's value");
        follower.join().unwrap();
        assert_eq!(got, (42, true));
        assert!(!sf.in_flight(&"q".to_owned()));
    }

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
