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
use std::net::TcpStream;
use std::sync::Arc;

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
    let service: Arc<dyn FrameService> = {
        let gate = gate.clone();
        Arc::new(move |_from: &str, _req: &[u8]| {
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

    // The worker can pop at most one job before blocking on the gate,
    // so a 5-deep burst queues 3-4 executables and sheds the rest —
    // never enough markers to close the source.
    let ping = WireFrame::encode(&GlobalRequest::Ping).into_bytes();
    for _ in 0..5 {
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
                assert!(queue_depth >= 3, "queue_depth = {queue_depth}");
                kinds.push("shed");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let pongs = kinds.iter().filter(|k| **k == "pong").count();
    assert!((3..=4).contains(&pongs), "{kinds:?}");
    // Responses stay in request order: accepted work first, then the
    // shed tail.
    assert_eq!(kinds.last().copied(), Some("shed"), "{kinds:?}");
    assert!(kinds[..pongs].iter().all(|k| *k == "pong"), "{kinds:?}");

    let (accepted, shed, _executed, closed) = server.stats().snapshot();
    assert_eq!(accepted, pongs as u64);
    assert_eq!(shed, (5 - pongs) as u64);
    assert_eq!(closed, 0);
    server.stop();
}

#[test]
fn admin_port_serves_versioned_endpoints() {
    let world = ServeWorld::build(2);
    let admin = AdminServer::start("127.0.0.1:0", world.gateway.admin().clone()).unwrap();
    for path in ["/v1/health", "/v1/metrics.json", "/v1/sources", "/v1/costs"] {
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
