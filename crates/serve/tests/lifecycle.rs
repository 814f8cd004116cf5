//! Connection lifecycle over loopback: on both ports a closed
//! connection takes its socket with it, and `stop()` returns while idle
//! and half-sent connections are still open. A binary of its own
//! because it counts `/proc/self/fd`, which is process-wide.

#![cfg(target_os = "linux")]

use gridrm_global::{GlobalRequest, GlobalResponse, WireFrame};
use gridrm_serve::scheduler::SchedulerConfig;
use gridrm_serve::server::{admin_request, AdminServer, TcpServer};
use gridrm_serve::world::ServeWorld;
use gridrm_serve::{read_frame, write_frame};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const CYCLES: usize = 200;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Poll until `done(open fds)` holds; fail after a deadline.
fn await_fds(what: &str, done: impl Fn(usize) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = open_fds();
        if done(open) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {open} fds open");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn ping(stream: &mut TcpStream, frame: &[u8]) {
    write_frame(stream, frame).unwrap();
    let reply = read_frame(stream).unwrap().expect("a reply");
    match WireFrame::decode::<GlobalResponse>(&reply).unwrap().0 {
        GlobalResponse::Pong { .. } => {}
        other => panic!("expected pong, got {other:?}"),
    }
}

#[test]
fn closed_connections_are_reaped_and_stop_returns() {
    let world = ServeWorld::build(1);
    let server =
        TcpServer::start("127.0.0.1:0", world.service(), SchedulerConfig::default()).unwrap();
    let admin = AdminServer::start("127.0.0.1:0", world.gateway.admin().clone()).unwrap();
    let frame = WireFrame::encode(&GlobalRequest::Ping).into_bytes();

    let baseline = open_fds();
    for _ in 0..CYCLES {
        ping(
            &mut TcpStream::connect(server.local_addr()).unwrap(),
            &frame,
        );
    }
    await_fds(&format!("wire port, baseline {baseline}"), |open| {
        open <= baseline
    });
    for _ in 0..CYCLES {
        let (ok, _, _) = admin_request(admin.local_addr(), "/v1/health").unwrap();
        assert!(ok);
    }
    await_fds(&format!("admin port, baseline {baseline}"), |open| {
        open <= baseline
    });

    let (accepted, shed, executed, closed_sources) = server.stats().snapshot();
    assert_eq!(accepted, CYCLES as u64);
    assert_eq!(executed, accepted);
    assert_eq!((shed, closed_sources), (0, 0));

    // Connections a stop must not wait on: one idle after a ping, one
    // that has sent half a frame, one admin line without its end.
    let mut idle = TcpStream::connect(server.local_addr()).unwrap();
    ping(&mut idle, &frame);
    let mut half = TcpStream::connect(server.local_addr()).unwrap();
    ping(&mut half, &frame);
    let mut framed = Vec::new();
    write_frame(&mut framed, &frame).unwrap();
    half.write_all(&framed[..framed.len() / 2]).unwrap();
    let mut line = TcpStream::connect(admin.local_addr()).unwrap();
    line.write_all(b"/v1/hea").unwrap();
    // Client and server ends of all three are open.
    await_fds("open connections", |open| open >= baseline + 6);

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        admin.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("stop() returns within 5 s");
}
