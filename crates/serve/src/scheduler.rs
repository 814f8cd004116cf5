//! The worker-pool scheduler: bounded per-source request queues with
//! admission control and FIFO load shedding.
//!
//! Every connection (a *source*) owns a bounded queue of decoded-enough
//! work items. Admission happens in the reader thread: a request that
//! would overflow its source's queue — or the global pending cap — is
//! *shed*: a pre-answered `Overloaded` reply is queued in its place, so
//! the client still receives responses strictly in request order and
//! learns the backpressure signal instead of hanging. A source that
//! keeps pumping requests while saturated (a full queue of shed markers
//! on top of a full queue of work) is closed outright.
//!
//! Execution is **serial per source, parallel across sources**: a
//! worker holds at most one token per source, processes one job, and
//! re-enqueues the token only while work remains. That guarantees
//! responses leave in request order without tagging frames, and gives
//! round-robin fairness between connections under load.
//!
//! A frame that waits on no other endpoint (a ping, a fresh cache hit)
//! skips the queue when its source is idle: the reader thread asks the
//! service to answer it there and then ([`FrameService::answer_now`]).
//! With nothing queued and no worker holding the source, no earlier
//! reply is pending, so order holds without further bookkeeping.

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

use crossbeam::channel::{unbounded, Receiver, Sender};
use gridrm_global::transport::{Answered, FrameService, Pending};
use gridrm_global::{GlobalResponse, WireFrame};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduler sizing and shedding knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Executable requests a single source may have queued.
    pub queue_bound: usize,
    /// Executable requests queued across all sources before global
    /// shedding kicks in.
    pub global_bound: usize,
    /// Backoff hint carried in `Overloaded` replies (wall-clock ms).
    pub retry_after_ms: u64,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_bound: 64,
            global_bound: 4_096,
            retry_after_ms: 50,
        }
    }
}

/// Monotonic scheduler counters (all totals since start).
#[derive(Debug, Default)]
pub struct SchedulerStats {
    /// Requests admitted for execution.
    pub accepted: AtomicU64,
    /// Requests shed with an `Overloaded` reply.
    pub shed: AtomicU64,
    /// Requests whose execution finished.
    pub executed: AtomicU64,
    /// Sources closed for flooding past the shed allowance.
    pub closed_sources: AtomicU64,
}

impl SchedulerStats {
    /// `(accepted, shed, executed, closed_sources)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.accepted.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.executed.load(Ordering::Relaxed),
            self.closed_sources.load(Ordering::Relaxed),
        )
    }
}

/// What [`Scheduler::submit`] decided about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued for execution.
    Accepted,
    /// Shed: an `Overloaded` reply was queued in request order.
    Shed,
    /// The source exhausted its shed allowance (or the scheduler is
    /// stopping): the caller must drop the connection.
    Closed,
}

enum JobKind {
    Execute(Pending),
    Shed { queue_depth: u64 },
}

struct Job {
    from: Arc<str>,
    kind: JobKind,
    respond: Box<dyn FnOnce(Vec<u8>) + Send>,
}

#[derive(Default)]
struct SourceInner {
    queue: VecDeque<Job>,
    /// Executable (non-shed) jobs currently queued.
    executable: usize,
    /// Shed markers currently queued.
    shed_pending: usize,
    /// A worker token for this source is in flight.
    active: bool,
}

/// One connection's scheduling state. Obtain via [`Scheduler::source`].
pub struct SourceQueue {
    inner: Mutex<SourceInner>,
}

/// The worker-pool scheduler.
pub struct Scheduler {
    config: SchedulerConfig,
    service: Arc<dyn FrameService>,
    tx: Mutex<Option<Sender<Arc<SourceQueue>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Executable jobs queued across all sources.
    pending: AtomicUsize,
    stopping: AtomicBool,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Start `config.workers` worker threads dispatching into `service`.
    pub fn start(config: SchedulerConfig, service: Arc<dyn FrameService>) -> Arc<Scheduler> {
        let (tx, rx) = unbounded::<Arc<SourceQueue>>();
        let scheduler = Arc::new(Scheduler {
            config: SchedulerConfig {
                workers: config.workers.max(1),
                queue_bound: config.queue_bound.max(1),
                global_bound: config.global_bound.max(1),
                ..config
            },
            service,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(Vec::new()),
            pending: AtomicUsize::new(0),
            stopping: AtomicBool::new(false),
            stats: SchedulerStats::default(),
        });
        let mut handles = Vec::with_capacity(scheduler.config.workers);
        for i in 0..scheduler.config.workers {
            let me = scheduler.clone();
            let rx: Receiver<Arc<SourceQueue>> = rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gridrm-serve-worker-{i}"))
                .spawn(move || me.worker_loop(&rx));
            match handle {
                Ok(h) => handles.push(h),
                // Thread spawn failing at startup leaves a smaller pool;
                // the scheduler still functions with >= 1 worker.
                Err(_) => continue,
            }
        }
        *scheduler.workers.lock() = handles;
        scheduler
    }

    /// A fresh per-source queue (one per accepted connection).
    pub fn source(&self) -> Arc<SourceQueue> {
        Arc::new(SourceQueue {
            inner: Mutex::new(SourceInner::default()),
        })
    }

    /// Counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Submit one request frame from `source`. `respond` is invoked
    /// exactly once with the response payload — in request order
    /// relative to every other submission from the same source — unless
    /// the return value is [`Admission::Closed`], in which case it is
    /// never invoked and the connection must be dropped.
    ///
    /// One thread submits a source's frames: its connection's reader.
    /// While the source is idle (nothing queued, no worker holding its
    /// token) no earlier reply is pending, so the service may answer
    /// the frame on that thread ([`FrameService::answer_now`]); `respond`
    /// then runs before `submit` returns and the answer counts as
    /// accepted and executed. Every other frame, as read or as the
    /// service handed it back, is admitted, queued or shed.
    pub fn submit(
        &self,
        source: &Arc<SourceQueue>,
        from: impl Into<Arc<str>>,
        payload: Vec<u8>,
        respond: Box<dyn FnOnce(Vec<u8>) + Send>,
    ) -> Admission {
        if self.stopping.load(Ordering::Acquire) {
            return Admission::Closed;
        }
        let from = from.into();
        let idle = {
            let inner = source.inner.lock();
            inner.queue.is_empty() && !inner.active
        };
        // No scheduler lock is held while the service answers.
        let pending = if idle {
            match self.service.answer_now(&from, payload) {
                Answered::Now(response) => {
                    self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.stats.executed.fetch_add(1, Ordering::Relaxed);
                    respond(response);
                    return Admission::Accepted;
                }
                Answered::Later(pending) => pending,
            }
        } else {
            Pending::Frame(payload)
        };
        let mut inner = source.inner.lock();
        let depth = inner.executable;
        let over_source = depth >= self.config.queue_bound;
        let over_global = self.pending.load(Ordering::Relaxed) >= self.config.global_bound;
        let admission = if over_source || over_global {
            if inner.shed_pending >= self.config.queue_bound {
                // Flooding past the shed allowance: close instead of
                // queueing unbounded markers.
                self.stats.closed_sources.fetch_add(1, Ordering::Relaxed);
                return Admission::Closed;
            }
            inner.queue.push_back(Job {
                from,
                kind: JobKind::Shed {
                    queue_depth: depth as u64,
                },
                respond,
            });
            inner.shed_pending += 1;
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            Admission::Shed
        } else {
            inner.queue.push_back(Job {
                from,
                kind: JobKind::Execute(pending),
                respond,
            });
            inner.executable += 1;
            self.pending.fetch_add(1, Ordering::Relaxed);
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            Admission::Accepted
        };
        let needs_token = !inner.active;
        if needs_token {
            inner.active = true;
        }
        drop(inner);
        if needs_token {
            self.enqueue_token(source);
        }
        admission
    }

    /// Hand `source`'s token to the pool. False once [`Scheduler::stop`]
    /// has closed the channel.
    fn enqueue_token(&self, source: &Arc<SourceQueue>) -> bool {
        let tx = self.tx.lock();
        tx.as_ref()
            .is_some_and(|tx| tx.send(source.clone()).is_ok())
    }

    fn worker_loop(&self, rx: &Receiver<Arc<SourceQueue>>) {
        while let Ok(source) = rx.recv() {
            // A token that can no longer be re-armed (the scheduler is
            // stopping) stays with this worker, which drains the source
            // itself: every accepted request is executed.
            while self.run_next(&source) && !self.enqueue_token(&source) {}
        }
    }

    /// Run the next job of `source`, whose token this worker holds.
    /// Returns whether work remains; if none does, the token is released.
    fn run_next(&self, source: &SourceQueue) -> bool {
        // Holding the token makes this worker the only executor for
        // this source until the token is released: per-source FIFO.
        let job = {
            let mut inner = source.inner.lock();
            match inner.queue.pop_front() {
                Some(job) => {
                    match &job.kind {
                        JobKind::Execute(_) => {
                            inner.executable = inner.executable.saturating_sub(1);
                            self.pending.fetch_sub(1, Ordering::Relaxed);
                        }
                        JobKind::Shed { .. } => {
                            inner.shed_pending = inner.shed_pending.saturating_sub(1);
                        }
                    }
                    job
                }
                None => {
                    inner.active = false;
                    return false;
                }
            }
        };
        let response = match job.kind {
            JobKind::Execute(pending) => {
                let resp = pending.reply(&*self.service, &job.from);
                self.stats.executed.fetch_add(1, Ordering::Relaxed);
                resp
            }
            JobKind::Shed { queue_depth } => WireFrame::encode(&GlobalResponse::Overloaded {
                queue_depth,
                retry_after_ms: self.config.retry_after_ms,
            })
            .into_bytes(),
        };
        (job.respond)(response);
        // Release or re-arm the token under the lock, so a submit
        // racing with this check cannot strand queued work.
        let mut inner = source.inner.lock();
        inner.active = !inner.queue.is_empty();
        inner.active
    }

    /// Stop accepting work, drain what is queued, and join the workers.
    /// Idempotent.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        // Dropping the sender lets workers drain the channel then exit.
        self.tx.lock().take();
        let handles = std::mem::take(&mut *self.workers.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded as chan;
    use gridrm_global::GlobalRequest;

    fn echo() -> Arc<dyn FrameService> {
        Arc::new(|_: &str, frame: &[u8]| frame.to_vec())
    }

    type Respond = Box<dyn FnOnce(Vec<u8>) + Send>;

    fn collect_responses() -> (impl Fn() -> Respond, Receiver<Vec<u8>>) {
        let (tx, rx) = chan::<Vec<u8>>();
        let factory = move || {
            let tx = tx.clone();
            let f: Respond = Box::new(move |resp| {
                let _ = tx.send(resp);
            });
            f
        };
        (factory, rx)
    }

    #[test]
    fn executes_in_order_per_source() {
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 4,
                ..SchedulerConfig::default()
            },
            echo(),
        );
        let source = sched.source();
        let (respond, rx) = collect_responses();
        for i in 0..50u32 {
            let adm = sched.submit(&source, "t", i.to_be_bytes().to_vec(), respond());
            assert_eq!(adm, Admission::Accepted);
        }
        let mut got = Vec::new();
        for _ in 0..50 {
            got.push(rx.recv().unwrap());
        }
        let expect: Vec<Vec<u8>> = (0..50u32).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, expect, "per-source FIFO violated");
        sched.stop();
        assert_eq!(sched.stats().snapshot().2, 50);
    }

    /// Answers frames that start with `i` on the submitting thread;
    /// everything it executes waits on `gate` first.
    struct AnswersNow {
        gate: Arc<Mutex<()>>,
    }

    impl FrameService for AnswersNow {
        fn handle_frame(&self, _: &str, frame: &[u8]) -> Vec<u8> {
            drop(self.gate.lock());
            frame.to_vec()
        }

        fn answer_now(&self, _: &str, frame: Vec<u8>) -> Answered {
            if frame.starts_with(b"i") {
                Answered::Now(frame)
            } else {
                Answered::Later(Pending::Frame(frame))
            }
        }
    }

    #[test]
    fn a_frame_is_answered_on_the_submitting_thread_only_while_its_source_is_idle() {
        let gate = Arc::new(Mutex::new(()));
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
            Arc::new(AnswersNow { gate: gate.clone() }),
        );
        let source = sched.source();
        let (respond, rx) = collect_responses();
        let idle = || {
            let inner = source.inner.lock();
            inner.queue.is_empty() && !inner.active
        };
        // Idle: answered before `submit` returns.
        assert_eq!(
            sched.submit(&source, "t", b"i1".to_vec(), respond()),
            Admission::Accepted
        );
        assert_eq!(rx.try_recv().unwrap(), b"i1".to_vec());
        // A worker holds the source: what it could answer now waits its
        // turn behind the running request.
        let held = gate.lock();
        sched.submit(&source, "t", b"q1".to_vec(), respond());
        while source.inner.lock().executable > 0 {
            std::thread::yield_now();
        }
        sched.submit(&source, "t", b"i2".to_vec(), respond());
        sched.submit(&source, "t", b"i3".to_vec(), respond());
        assert!(
            rx.try_recv().is_err(),
            "answered ahead of a running request"
        );
        drop(held);
        let got: Vec<Vec<u8>> = (0..3).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(got, [b"q1".to_vec(), b"i2".to_vec(), b"i3".to_vec()]);
        while !idle() {
            std::thread::yield_now();
        }
        sched.submit(&source, "t", b"i4".to_vec(), respond());
        assert_eq!(rx.try_recv().unwrap(), b"i4".to_vec());
        sched.stop();
        assert_eq!(sched.stats().snapshot(), (5, 0, 5, 0));
    }

    #[test]
    fn stop_runs_every_accepted_request() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
            Arc::new(AnswersNow { gate: gate.clone() }),
        );
        let (respond, rx) = collect_responses();
        let source = sched.source();
        for i in 0..8u8 {
            sched.submit(&source, "t", vec![b'q', i], respond());
        }
        // The worker is blocked in the first request when `stop` closes
        // the channel; the seven behind it still run.
        let stopping = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.stop())
        };
        while sched.tx.lock().is_some() {
            std::thread::yield_now();
        }
        drop(held);
        stopping.join().unwrap();
        assert_eq!(rx.try_iter().count(), 8);
        assert_eq!(sched.stats().snapshot(), (8, 0, 8, 0));
    }

    #[test]
    fn sheds_over_queue_bound_in_order() {
        // One slow job occupies the only worker; the queue bound is 2,
        // so submissions 4.. shed — and their Overloaded replies arrive
        // *after* the accepted jobs' replies.
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock();
        let slow_gate = gate.clone();
        let service: Arc<dyn FrameService> = Arc::new(move |_: &str, frame: &[u8]| {
            drop(slow_gate.lock());
            frame.to_vec()
        });
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                queue_bound: 2,
                ..SchedulerConfig::default()
            },
            service,
        );
        let source = sched.source();
        let (respond, rx) = collect_responses();
        // First submission starts executing (and blocks on the gate);
        // give the worker a moment to take it off the queue.
        assert_eq!(
            sched.submit(&source, "t", b"a".to_vec(), respond()),
            Admission::Accepted
        );
        while sched.stats().snapshot().0 - sched.stats().snapshot().2 > 0
            && source.inner.lock().executable > 0
        {
            std::thread::yield_now();
        }
        assert_eq!(
            sched.submit(&source, "t", b"b".to_vec(), respond()),
            Admission::Accepted
        );
        assert_eq!(
            sched.submit(&source, "t", b"c".to_vec(), respond()),
            Admission::Accepted
        );
        let adm = sched.submit(&source, "t", b"d".to_vec(), respond());
        assert_eq!(adm, Admission::Shed);
        drop(guard); // let the worker run
        let mut bodies = Vec::new();
        for _ in 0..4 {
            bodies.push(rx.recv().unwrap());
        }
        assert_eq!(bodies[0], b"a".to_vec());
        assert_eq!(bodies[1], b"b".to_vec());
        assert_eq!(bodies[2], b"c".to_vec());
        // The shed reply came last and is a decodable Overloaded frame.
        match WireFrame::decode::<GlobalResponse>(&bodies[3]) {
            Ok((GlobalResponse::Overloaded { retry_after_ms, .. }, _)) => {
                assert!(retry_after_ms > 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        sched.stop();
    }

    #[test]
    fn flooding_source_is_closed() {
        let gate = Arc::new(Mutex::new(()));
        let guard = gate.lock();
        let slow_gate = gate.clone();
        let service: Arc<dyn FrameService> = Arc::new(move |_: &str, frame: &[u8]| {
            drop(slow_gate.lock());
            frame.to_vec()
        });
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                queue_bound: 2,
                ..SchedulerConfig::default()
            },
            service,
        );
        let source = sched.source();
        let (respond, _rx) = collect_responses();
        let mut decisions = Vec::new();
        for _ in 0..16 {
            decisions.push(sched.submit(&source, "t", b"x".to_vec(), respond()));
        }
        assert!(decisions.contains(&Admission::Shed));
        assert_eq!(decisions.last(), Some(&Admission::Closed));
        assert!(sched.stats().snapshot().3 >= 1);
        drop(guard);
        sched.stop();
    }

    #[test]
    fn parallel_across_sources() {
        // With 4 workers and 4 sources, all four slow jobs must overlap:
        // a barrier that only opens when all 4 arrive would deadlock
        // under serial execution.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let b = barrier.clone();
        let service: Arc<dyn FrameService> = Arc::new(move |_: &str, frame: &[u8]| {
            b.wait();
            frame.to_vec()
        });
        let sched = Scheduler::start(
            SchedulerConfig {
                workers: 4,
                ..SchedulerConfig::default()
            },
            service,
        );
        let (respond, rx) = collect_responses();
        for _ in 0..4 {
            let source = sched.source();
            assert_eq!(
                sched.submit(&source, "t", b"x".to_vec(), respond()),
                Admission::Accepted
            );
        }
        for _ in 0..4 {
            assert_eq!(rx.recv().unwrap(), b"x".to_vec());
        }
        sched.stop();
    }

    #[test]
    fn stop_is_idempotent_and_rejects_new_work() {
        let sched = Scheduler::start(SchedulerConfig::default(), echo());
        let source = sched.source();
        sched.stop();
        sched.stop();
        let (respond, _rx) = collect_responses();
        assert_eq!(
            sched.submit(&source, "t", b"x".to_vec(), respond()),
            Admission::Closed
        );
        // Shed replies decode as the wire protocol's Overloaded.
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        assert!(!frame.is_empty());
    }
}
