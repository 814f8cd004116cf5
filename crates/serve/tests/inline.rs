//! Which thread answers a frame is invisible to its client. A
//! connection's reader answers pings and fresh cache hits while the
//! connection has nothing queued; a worker answers everything else.
//! Either way the replies are the bytes in-process handling returns, in
//! request order, closed-loop or pipelined; and a disconnect or a
//! `stop()` with requests in flight loses no accepted request and no
//! socket. A binary of its own because it counts `/proc/self/fd`, which
//! is process-wide; its tests take turns.

#![cfg(target_os = "linux")]

use gridrm_global::{GlobalRequest, GlobalResponse, WireFrame};
use gridrm_serve::{query_frame, read_frame, write_frame, SchedulerConfig, ServeWorld, TcpServer};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const HOSTS: usize = 6;
const SQL: &str = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname";

/// The tests of this binary run one at a time: each counts the file
/// descriptors of the whole process.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Poll until `done` holds; fail after 10 s.
fn await_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `stop()` has joined every reader and drained every worker, so the
/// counts are final: every accepted request ran.
fn assert_drained(server: &TcpServer) -> (u64, u64) {
    let (accepted, shed, executed, closed) = server.stats().snapshot();
    assert_eq!(executed, accepted, "accepted requests that never ran");
    assert_eq!(closed, 0);
    (accepted, shed)
}

/// One request of a generated sequence.
#[derive(Debug, Clone)]
enum Op {
    Ping,
    /// Bypasses the cache: it waits on agents, so a worker answers it.
    Fetch(Vec<usize>),
    /// Served from cache no older than the bound: a fresh hit is the
    /// reader's to answer, anything else a worker's.
    Cached(Vec<usize>, u64),
}

fn sources(world: &ServeWorld, hosts: &[usize]) -> Vec<String> {
    hosts.iter().map(|&n| world.source_url(n)).collect()
}

fn frame(world: &ServeWorld, op: &Op) -> Vec<u8> {
    match op {
        Op::Ping => WireFrame::encode(&GlobalRequest::Ping).into_bytes(),
        Op::Fetch(hosts) => query_frame(&sources(world, hosts), SQL, None),
        Op::Cached(hosts, age) => query_frame(&sources(world, hosts), SQL, Some(*age)),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    let hosts = || prop::sample::subsequence((0..HOSTS).collect(), 1..HOSTS + 1);
    let cached = || {
        (hosts(), prop::sample::select(vec![0u64, 1_500, 60_000]))
            .prop_map(|(hosts, age)| Op::Cached(hosts, age))
    };
    // Cached queries twice as often as the rest, so most are hits.
    prop_oneof![
        Just(Op::Ping),
        hosts().prop_map(Op::Fetch),
        cached(),
        cached()
    ]
}

/// A batch of requests, sent pipelined (one write) or closed-loop, and
/// the virtual milliseconds both worlds advance after it.
fn arb_batch() -> impl Strategy<Value = (bool, Vec<Op>, u64)> {
    (
        any::<bool>(),
        prop::collection::vec(arb_op(), 1..12),
        prop::sample::select(vec![0u64, 1_000, 2_000]),
    )
}

fn send_batch(conn: &mut TcpStream, requests: &[Vec<u8>], pipelined: bool) -> Vec<Vec<u8>> {
    let reply = |conn: &mut TcpStream| read_frame(conn).unwrap().expect("a reply");
    if pipelined {
        let mut burst = Vec::new();
        for request in requests {
            write_frame(&mut burst, request).unwrap();
        }
        conn.write_all(&burst).unwrap();
        requests.iter().map(|_| reply(conn)).collect()
    } else {
        (requests.iter())
            .map(|request| {
                write_frame(conn, request).unwrap();
                reply(conn)
            })
            .collect()
    }
}

/// Replay `batches` on one connection to a served world, and in process
/// on its twin (the same seed), and compare every reply's bytes.
fn replies_equal_in_process_handling(batches: &[(bool, Vec<Op>, u64)]) {
    let served = ServeWorld::build(HOSTS);
    let twin = ServeWorld::build(HOSTS);
    let twin_service = twin.service();
    let baseline = open_fds();
    let server =
        TcpServer::start("127.0.0.1:0", served.service(), SchedulerConfig::default()).unwrap();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut sent = 0;
    for (i, (pipelined, ops, advance)) in batches.iter().enumerate() {
        let requests: Vec<Vec<u8>> = ops.iter().map(|op| frame(&served, op)).collect();
        let expected: Vec<Vec<u8>> = (requests.iter())
            .map(|request| twin_service.handle_frame("twin", request))
            .collect();
        let got = send_batch(&mut conn, &requests, *pipelined);
        if got != expected {
            let text = |replies: &[Vec<u8>]| {
                (replies.iter())
                    .map(|r| String::from_utf8_lossy(r).into_owned())
                    .collect::<Vec<_>>()
            };
            panic!(
                "batch {i} ({}) {ops:?}\ngot      {:#?}\nexpected {:#?}",
                if *pipelined {
                    "pipelined"
                } else {
                    "closed-loop"
                },
                text(&got),
                text(&expected)
            );
        }
        sent += requests.len() as u64;
        served.net.clock().advance(*advance);
        twin.net.clock().advance(*advance);
    }
    drop(conn);
    server.stop();
    assert_eq!(assert_drained(&server), (sent, 0));
    drop(server);
    await_until("fds back at baseline", || open_fds() <= baseline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random pings, fresh hits, stale or cold cached queries and
    /// fetches, closed-loop and pipelined on one connection: the replies
    /// equal, byte for byte and in order, what in-process handling
    /// returns on a twin world. A reader that answered a hit while
    /// earlier requests were still queued would reorder them.
    #[test]
    fn replies_leave_in_request_order_whichever_thread_answers(
        batches in prop::collection::vec(arb_batch(), 1..6),
    ) {
        let _turn = turn();
        replies_equal_in_process_handling(&batches);
    }
}

/// Clients that pipeline fetches and hits and hang up without reading a
/// reply: every accepted request still runs, each socket is reaped, and
/// the server goes on serving.
#[test]
fn a_disconnect_with_requests_in_flight_loses_no_request_and_no_socket() {
    let _turn = turn();
    let world = ServeWorld::build(HOSTS);
    let all: Vec<usize> = (0..HOSTS).collect();
    let fetch = frame(&world, &Op::Fetch(all.clone()));
    let hit = frame(&world, &Op::Cached(all, 60_000));
    let before = open_fds();
    let server = TcpServer::start(
        "127.0.0.1:0",
        world.service(),
        SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    let serving = open_fds();
    for _ in 0..20 {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let mut burst = Vec::new();
        for i in 0..16 {
            write_frame(&mut burst, if i % 2 == 0 { &fetch } else { &hit }).unwrap();
        }
        conn.write_all(&burst).unwrap();
    }
    await_until("every accepted request ran", || {
        let (accepted, _, executed, _) = server.stats().snapshot();
        accepted == executed
    });
    await_until("every socket reaped", || open_fds() <= serving);

    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut conn, &frame(&world, &Op::Ping)).unwrap();
    let pong = read_frame(&mut conn).unwrap().expect("a reply");
    assert!(matches!(
        WireFrame::decode::<GlobalResponse>(&pong).unwrap().0,
        GlobalResponse::Pong { .. }
    ));
    drop(conn);
    server.stop();
    let (accepted, shed) = assert_drained(&server);
    assert!(
        accepted > 20,
        "the bursts reached the scheduler: {accepted}"
    );
    assert_eq!(shed, 0);
    drop(server);
    await_until("fds back at baseline", || open_fds() <= before);
}

/// `stop()` while four clients pipeline mixed bursts against two
/// workers and a queue bound they overrun: it returns, every accepted
/// request ran, and every socket is gone.
#[test]
fn stop_under_load_from_several_clients_runs_every_accepted_request() {
    let _turn = turn();
    let world = ServeWorld::build(HOSTS);
    let all: Vec<usize> = (0..HOSTS).collect();
    let burst = {
        let mut burst = Vec::new();
        for op in [
            Op::Fetch(all.clone()),
            Op::Cached(all.clone(), 60_000),
            Op::Ping,
            Op::Cached(vec![0], 60_000),
        ]
        .iter()
        .cycle()
        .take(12)
        {
            write_frame(&mut burst, &frame(&world, op)).unwrap();
        }
        burst
    };
    let baseline = open_fds();
    let server = TcpServer::start(
        "127.0.0.1:0",
        world.service(),
        SchedulerConfig {
            workers: 2,
            queue_bound: 8,
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let burst = burst.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                let mut replies = 0u64;
                // Until the server goes away.
                while conn.write_all(&burst).is_ok() {
                    for _ in 0..12 {
                        match read_frame(&mut conn) {
                            Ok(Some(_)) => replies += 1,
                            _ => return replies,
                        }
                    }
                }
                replies
            })
        })
        .collect();
    await_until("load", || server.stats().snapshot().0 >= 400);

    let (tx, rx) = std::sync::mpsc::channel();
    let stopping = std::thread::spawn(move || {
        server.stop();
        let _ = tx.send(());
        server
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("stop() returns under load");
    let server = stopping.join().unwrap();
    let replies: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let (accepted, shed) = assert_drained(&server);
    assert!(
        replies <= accepted + shed,
        "{replies} replies to {accepted} accepted and {shed} shed requests"
    );
    drop(server);
    await_until("fds back at baseline", || open_fds() <= baseline);
}
