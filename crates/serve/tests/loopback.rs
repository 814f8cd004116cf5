//! Loopback TCP smoke: the full serving path over real sockets —
//! query, cached re-read, subscribe/poll-deltas, hostile frames,
//! in-order shedding, the admin port, and clean shutdown.

use gridrm_global::transport::FrameService;
use gridrm_global::{GlobalRequest, GlobalResponse, WireFrame};
use gridrm_serve::scheduler::SchedulerConfig;
use gridrm_serve::server::{admin_request, AdminServer, TcpServer};
use gridrm_serve::world::{client_identity, query_frame, ServeWorld};
use gridrm_serve::{read_frame, write_frame};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn rpc(stream: &mut TcpStream, frame: &[u8]) -> GlobalResponse {
    write_frame(stream, frame).expect("write frame");
    let bytes = read_frame(stream).expect("read frame").expect("open");
    WireFrame::decode::<GlobalResponse>(&bytes)
        .expect("decode")
        .0
}

#[test]
fn query_and_cached_read_over_tcp() {
    let world = ServeWorld::build(3);
    let server =
        TcpServer::start("127.0.0.1:0", world.service(), SchedulerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    match rpc(
        &mut stream,
        &WireFrame::encode(&GlobalRequest::Ping).into_bytes(),
    ) {
        GlobalResponse::Pong { gateway } => assert_eq!(gateway, "gw-serve"),
        other => panic!("expected pong, got {other:?}"),
    }

    let sources = vec![world.source_url(0), world.source_url(1)];
    let sql = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname";
    match rpc(&mut stream, &query_frame(&sources, sql, None)) {
        GlobalResponse::Rows { rows, .. } => assert_eq!(rows.rows.len(), 2),
        other => panic!("expected rows, got {other:?}"),
    }
    // Re-read within the cache window: served_from_cache covers both
    // sources, and the row payload matches the real-time read.
    match rpc(&mut stream, &query_frame(&sources, sql, Some(60_000))) {
        GlobalResponse::Rows {
            rows,
            served_from_cache,
            ..
        } => {
            assert_eq!(served_from_cache, 2);
            assert_eq!(rows.rows.len(), 2);
        }
        other => panic!("expected cached rows, got {other:?}"),
    }
    server.stop();
}

#[test]
fn subscribe_and_poll_deltas_over_tcp() {
    let world = ServeWorld::build(2);
    let server =
        TcpServer::start("127.0.0.1:0", world.service(), SchedulerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    let sub_frame = WireFrame::encode(&GlobalRequest::Subscribe {
        from_gateway: "wire-client".to_owned(),
        identity: client_identity(),
        sources: vec![world.source_url(0)],
        sql: "SELECT Hostname, Load1 FROM Processor".to_owned(),
        every_ms: Some(1_000),
        buffer: None,
        backpressure: None,
    })
    .into_bytes();
    let subscription = match rpc(&mut stream, &sub_frame) {
        GlobalResponse::Subscribed { subscription } => subscription,
        other => panic!("expected subscribed, got {other:?}"),
    };

    for _ in 0..3 {
        world.pump_once(1_000);
    }
    let poll = WireFrame::encode(&GlobalRequest::PollDeltas {
        subscription,
        max: 0,
    })
    .into_bytes();
    match rpc(&mut stream, &poll) {
        GlobalResponse::Deltas { deltas } => assert!(!deltas.is_empty()),
        other => panic!("expected deltas, got {other:?}"),
    }

    let bye = WireFrame::encode(&GlobalRequest::Unsubscribe { subscription }).into_bytes();
    match rpc(&mut stream, &bye) {
        GlobalResponse::Unsubscribed { existed } => assert!(existed),
        other => panic!("expected unsubscribed, got {other:?}"),
    }
    server.stop();
}

/// Frames no codec should trust: 1 MiB of `[`, bare and inside a field
/// this build does not know (nested far deeper than any message; either
/// used to overflow the worker's stack and abort the whole gateway),
/// plain garbage, and a request cut short. Each is answered with an
/// `Error`, and the connection serves the next request.
#[test]
fn hostile_frames_get_an_error_and_the_connection_lives() {
    let world = ServeWorld::build(1);
    let server =
        TcpServer::start("127.0.0.1:0", world.service(), SchedulerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    let ping = WireFrame::encode(&GlobalRequest::Ping).into_bytes();
    let query = query_frame(
        &[world.source_url(0)],
        "SELECT Hostname FROM Processor",
        None,
    );
    let deep = vec![b'['; 1 << 20];
    let hostile = [
        (deep.clone(), "expected an enum"),
        (
            [&br#"{"Query":{"hops":"#[..], &deep[..]].concat(),
            "nesting deeper than 128",
        ),
        (b"not json".to_vec(), "bad global-layer message"),
        (query[..query.len() / 2].to_vec(), "unexpected end of input"),
    ];
    for (frame, want) in &hostile {
        match rpc(&mut stream, frame) {
            GlobalResponse::Error { message } => assert!(message.contains(want), "{message}"),
            other => panic!("expected an error, got {other:?}"),
        }
        match rpc(&mut stream, &ping) {
            GlobalResponse::Pong { gateway } => assert_eq!(gateway, "gw-serve"),
            other => panic!("expected pong, got {other:?}"),
        }
    }
    server.stop();
}

/// A pipelined burst against a gate-blocked single worker: the queue
/// absorbs its bound, the rest answer `Overloaded`, and every response
/// arrives in request order (the shed markers ride the same queue).
#[test]
fn pipelined_burst_sheds_in_order() {
    let gate = Arc::new(Mutex::new(()));
    let held = gate.lock();
    let (entered, worker_busy) = std::sync::mpsc::channel();
    let service: Arc<dyn FrameService> = {
        let gate = gate.clone();
        Arc::new(move |_from: &str, _req: &[u8]| {
            let _ = entered.send(());
            drop(gate.lock());
            WireFrame::encode(&GlobalResponse::Pong {
                gateway: "gated".to_owned(),
            })
            .into_bytes()
        })
    };
    let server = TcpServer::start(
        "127.0.0.1:0",
        service,
        SchedulerConfig {
            workers: 1,
            queue_bound: 3,
            global_bound: 4_096,
            retry_after_ms: 40,
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // The first request occupies the only worker, which blocks on the
    // gate; of the next four, the queue takes its bound of 3 and the
    // last is shed — never enough markers to close the source.
    let ping = WireFrame::encode(&GlobalRequest::Ping).into_bytes();
    write_frame(&mut stream, &ping).unwrap();
    worker_busy.recv().unwrap();
    for _ in 0..4 {
        write_frame(&mut stream, &ping).unwrap();
    }
    // Open the gate only once the reader has admitted or shed all five;
    // earlier, the worker could drain the queue as fast as it fills.
    while {
        let (accepted, shed, ..) = server.stats().snapshot();
        accepted + shed < 5
    } {
        std::thread::yield_now();
    }
    drop(held);

    let mut kinds = Vec::new();
    for _ in 0..5 {
        let bytes = read_frame(&mut stream).unwrap().expect("open");
        match WireFrame::decode::<GlobalResponse>(&bytes).unwrap().0 {
            GlobalResponse::Pong { .. } => kinds.push("pong"),
            GlobalResponse::Overloaded {
                queue_depth,
                retry_after_ms,
            } => {
                assert_eq!(retry_after_ms, 40);
                assert_eq!(queue_depth, 3);
                kinds.push("shed");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Responses stay in request order: accepted work first, then the
    // shed tail.
    assert_eq!(kinds, ["pong", "pong", "pong", "pong", "shed"]);

    let (accepted, shed, _executed, closed) = server.stats().snapshot();
    assert_eq!((accepted, shed, closed), (4, 1, 0));
    server.stop();
}

/// A client that pipelines large replies and never reads them fills its
/// receive buffer and stalls the worker writing to it. The reply write
/// is bounded by the wire port's 10 s stall bound, so the only worker
/// comes free again and another client gets its `Pong`.
#[test]
fn a_client_that_never_reads_cannot_stall_the_worker() {
    let world = ServeWorld::build(400);
    let server = TcpServer::start(
        "127.0.0.1:0",
        world.service(),
        SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    let sources: Vec<String> = (0..400).map(|n| world.source_url(n)).collect();
    let sql = "SELECT Hostname, NCpu, Load1, Load5, Load15 FROM Processor";
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    match rpc(&mut silent, &query_frame(&sources, sql, None)) {
        GlobalResponse::Rows { rows, .. } => assert_eq!(rows.rows.len(), 400),
        other => panic!("expected rows, got {other:?}"),
    }
    // Every cached copy answers with the same ~68 KB of rows, far more
    // than the loopback socket buffers hold.
    let cached = query_frame(&sources, sql, Some(600_000));
    for _ in 0..100 {
        write_frame(&mut silent, &cached).unwrap();
    }
    std::thread::sleep(Duration::from_millis(500));

    // `read_frame` waits out idle timeouts, so read the reply by hand
    // under a bound: the stall bound plus 5 s of slack.
    let mut other = TcpStream::connect(server.local_addr()).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    write_frame(
        &mut other,
        &WireFrame::encode(&GlobalRequest::Ping).into_bytes(),
    )
    .unwrap();
    let mut len = [0u8; 4];
    other
        .read_exact(&mut len)
        .unwrap_or_else(|e| panic!("no reply while the silent client held the worker: {e}"));
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    other.read_exact(&mut body).unwrap();
    match WireFrame::decode::<GlobalResponse>(&body).unwrap().0 {
        GlobalResponse::Pong { gateway } => assert_eq!(gateway, "gw-serve"),
        other => panic!("expected pong, got {other:?}"),
    }
    drop(silent);
    server.stop();
}

/// The same bound on the worker's side. The silent client's queries
/// bypass the cache, so a worker, not the connection's reader, writes
/// the replies nobody reads, until the socket buffers fill and the
/// worker stalls. A fetch sent by another client during the stall is
/// answered within the stall bound plus slack, and by then the silent
/// client's socket has been shut.
#[test]
fn a_client_that_never_reads_its_fetches_cannot_stall_the_worker() {
    let world = ServeWorld::build(400);
    let server = TcpServer::start(
        "127.0.0.1:0",
        world.service(),
        SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    let sources: Vec<String> = (0..400).map(|n| world.source_url(n)).collect();
    // Every column: ~150 KB a reply, so the 65 the queue admits hold
    // several times what the socket buffers do.
    let fetch = query_frame(&sources, "SELECT * FROM Processor", None);
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    let started = std::time::Instant::now();
    match rpc(&mut silent, &fetch) {
        GlobalResponse::Rows { rows, .. } => assert_eq!(rows.rows.len(), 400),
        other => panic!("expected rows, got {other:?}"),
    }
    // Work takes at most this long between two finished fetches.
    let busy = (3 * started.elapsed()).max(Duration::from_secs(1));
    assert!(busy < Duration::from_secs(8), "one fetch took {busy:?}");
    for _ in 0..100 {
        write_frame(&mut silent, &fetch).unwrap();
    }
    // Stalled: queued work, and none of it finishing for `busy`.
    let mut last = server.stats().snapshot();
    let mut still_since = std::time::Instant::now();
    while still_since.elapsed() < busy {
        std::thread::sleep(Duration::from_millis(50));
        let now = server.stats().snapshot();
        let (accepted, _, executed, _) = now;
        assert!(executed < accepted, "every fetch was written: no stall");
        if now != last {
            (last, still_since) = (now, std::time::Instant::now());
        }
    }

    let mut other = TcpStream::connect(server.local_addr()).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(15)))
        .unwrap();
    write_frame(
        &mut other,
        &query_frame(
            &[world.source_url(0)],
            "SELECT Hostname FROM Processor",
            None,
        ),
    )
    .unwrap();
    let mut len = [0u8; 4];
    other
        .read_exact(&mut len)
        .unwrap_or_else(|e| panic!("no reply while the silent client held the worker: {e}"));
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    other.read_exact(&mut body).unwrap();
    match WireFrame::decode::<GlobalResponse>(&body).unwrap().0 {
        GlobalResponse::Rows { rows, .. } => assert_eq!(rows.rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }

    // Shut, not merely slow: what is buffered drains, then the stream ends.
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let ended = silent.read_to_end(&mut Vec::new());
    assert!(
        !matches!(&ended, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "the silent client's socket is still open: {ended:?}"
    );
    server.stop();
}

#[test]
fn admin_port_serves_versioned_endpoints() {
    let world = ServeWorld::build(2);
    let admin = AdminServer::start("127.0.0.1:0", world.gateway.admin().clone()).unwrap();
    for path in [
        "/v1/health",
        "/v1/metrics",
        "/v1/metrics.json",
        "/v1/sources",
        "/v1/query_costs",
    ] {
        let (ok, content_type, body) = admin_request(admin.local_addr(), path).unwrap();
        assert!(ok, "{path}");
        if content_type == "application/json" {
            assert!(
                serde_json::from_str::<serde_json::Value>(&body).is_ok(),
                "{path} body is not JSON"
            );
        }
    }
    let (ok, _, body) = admin_request(admin.local_addr(), "/v1/nope").unwrap();
    assert!(!ok);
    assert!(body.contains("/v1/health"), "404 body lists endpoints");
    admin.stop();
}

/// 1 MiB with no newline is not a request: the admin port stops reading
/// at its line bound and closes the connection without a header, and
/// the next client is served as usual.
#[test]
fn admin_line_past_the_bound_closes_unanswered() {
    let world = ServeWorld::build(1);
    let admin = AdminServer::start("127.0.0.1:0", world.gateway.admin().clone()).unwrap();
    let mut stream = TcpStream::connect(admin.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may close mid-write; the write's outcome is not the check.
    let _ = stream.write_all(&vec![b'a'; 1 << 20]);
    let _ = stream.shutdown(Shutdown::Write);
    let mut answer = Vec::new();
    let outcome = stream.read_to_end(&mut answer);
    assert!(
        answer.is_empty(),
        "answered {:?} ({outcome:?})",
        String::from_utf8_lossy(&answer[..answer.len().min(80)])
    );
    let (ok, _, _) = admin_request(admin.local_addr(), "/v1/health").unwrap();
    assert!(ok);
    admin.stop();
}

#[test]
fn clean_shutdown_closes_connections_and_rejects_new_ones() {
    let world = ServeWorld::build(2);
    let server =
        TcpServer::start("127.0.0.1:0", world.service(), SchedulerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    let ping = WireFrame::encode(&GlobalRequest::Ping).into_bytes();
    assert!(matches!(
        rpc(&mut stream, &ping),
        GlobalResponse::Pong { .. }
    ));

    server.stop();
    server.stop(); // idempotent

    // The live connection is gone...
    let dead = write_frame(&mut stream, &ping)
        .and_then(|()| read_frame(&mut stream))
        .map(|r| r.is_none());
    assert!(matches!(dead, Ok(true) | Err(_)), "{dead:?}");
    // ...and fresh connections are refused or immediately closed.
    if let Ok(mut fresh) = TcpStream::connect(addr) {
        let refused = write_frame(&mut fresh, &ping)
            .and_then(|()| read_frame(&mut fresh))
            .map(|r| r.is_none());
        assert!(matches!(refused, Ok(true) | Err(_)), "{refused:?}");
    }
}
