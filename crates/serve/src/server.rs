//! Real sockets: the gateway wire protocol over TCP ([`TcpServer`]),
//! the plain-text admin port ([`AdminServer`]), and a production
//! [`Transport`] backed by both ([`TcpTransport`]).
//!
//! The TCP server is deliberately thin: it owns connection lifecycle
//! (accept, per-connection reader thread, shutdown) and nothing else.
//! Every frame it reads goes straight into the [`Scheduler`], which
//! owns ordering, fairness, and load shedding; every response payload
//! comes back through a write-half mutex so pipelined replies stay in
//! request order. The payload bytes on the socket are exactly the
//! bytes the simnet would have carried — the length prefix added by
//! [`crate::frame`] carries no semantics — so cost accounting agrees
//! across transports.

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

use crate::frame::{read_frame, write_frame};
use crate::scheduler::{Admission, Scheduler, SchedulerConfig, SchedulerStats};
use gridrm_core::{AdminInterface, AdminStatus};
use gridrm_global::transport::{FrameService, Transport, TransportError};
use gridrm_global::WireFrame;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// State shared between the accept thread, reader threads, and the
/// owning [`TcpServer`] handle. Threads hold this (never the server
/// handle itself), so dropping the handle can stop them.
struct Shared {
    scheduler: Arc<Scheduler>,
    stopping: AtomicBool,
    /// Shutdown clones of every live connection, so `stop` can unblock
    /// reader threads parked in `read`.
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    accepted: AtomicU64,
}

/// A wire-protocol server on a real TCP socket.
///
/// Frames are length-prefixed [`WireFrame`] payloads (see
/// [`crate::frame`]); each accepted connection becomes one scheduler
/// *source*, giving it a bounded queue, in-order responses, and a fair
/// share of the worker pool. Stop explicitly with [`TcpServer::stop`]
/// (also invoked on drop).
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl TcpServer {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `service` behind a [`Scheduler`] built from `config`.
    pub fn start(
        bind: &str,
        service: Arc<dyn FrameService>,
        config: SchedulerConfig,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            scheduler: Scheduler::start(config, service),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
        });
        let accept_shared = shared.clone();
        let accept_handle = std::thread::Builder::new()
            .name("gridrm-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(TcpServer {
            local_addr,
            shared,
            accept_handle: Mutex::new(Some(accept_handle)),
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Scheduler counters (accepted / shed / executed / closed sources).
    pub fn stats(&self) -> &SchedulerStats {
        self.shared.scheduler.stats()
    }

    /// Connections accepted since start.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Stop accepting, close every connection, drain the worker pool,
    /// and join all threads. Idempotent.
    pub fn stop(&self) {
        if self.shared.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the blocking accept with a throwaway connection; the
        // loop re-checks `stopping` before handling it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.lock().take() {
            let _ = handle.join();
        }
        for conn in self.shared.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.readers.lock());
        for handle in readers {
            let _ = handle.join();
        }
        self.shared.scheduler.stop();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            // A failed accept (e.g. transient resource exhaustion) is
            // not fatal to the server; keep listening.
            Err(_) => continue,
        };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        spawn_reader(shared, stream);
    }
}

/// One reader thread per connection: frames in, scheduler submissions
/// out. Responses are written by worker threads through a shared
/// write-half mutex (the scheduler already serialises them per source,
/// the mutex just keeps the byte stream intact).
fn spawn_reader(shared: &Arc<Shared>, stream: TcpStream) {
    // Request/response frames are small; Nagle's algorithm would add
    // delayed-ACK-sized stalls to every round trip.
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());
    let write_half = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(_) => {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    };
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().push(clone);
    }
    let scheduler = shared.scheduler.clone();
    let source = scheduler.source();
    let handle = std::thread::Builder::new()
        .name("gridrm-serve-conn".to_owned())
        .spawn(move || {
            let mut stream = stream;
            // A clean close (`Ok(None)`) or a read error both end the
            // connection; only a full frame keeps the loop going.
            while let Ok(Some(payload)) = read_frame(&mut stream) {
                let writer = write_half.clone();
                let admission = scheduler.submit(
                    &source,
                    &peer,
                    payload,
                    Box::new(move |response| {
                        let mut guard = writer.lock();
                        // A response to a gone client is dropped; the
                        // reader notices the closed socket separately.
                        let _ = write_frame(&mut *guard, &response);
                    }),
                );
                if admission == Admission::Closed {
                    break;
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
        });
    if let Ok(handle) = handle {
        shared.readers.lock().push(handle);
    }
}

/// The versioned admin API on a TCP port, one request per line.
///
/// Protocol: the client sends a path (e.g. `/v1/health`) terminated by
/// a newline; the server answers with a header line
/// `<OK|NOTFOUND> <content-type> <body-bytes>` followed by exactly
/// `body-bytes` bytes of body. Connections persist across requests.
/// Dispatch goes through [`AdminInterface::handle`], so the TCP port
/// and in-process callers see identical payloads.
pub struct AdminServer {
    local_addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept_handle: Mutex<Option<JoinHandle<()>>>,
}

impl AdminServer {
    /// Bind `bind` and serve `admin`'s versioned endpoints.
    pub fn start(bind: &str, admin: Arc<AdminInterface>) -> io::Result<AdminServer> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let workers = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let stopping = stopping.clone();
            let conns = conns.clone();
            let workers = workers.clone();
            std::thread::Builder::new()
                .name("gridrm-admin-accept".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stopping.load(Ordering::Acquire) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let _ = stream.set_nodelay(true);
                        if let Ok(clone) = stream.try_clone() {
                            conns.lock().push(clone);
                        }
                        let admin = admin.clone();
                        let handle = std::thread::Builder::new()
                            .name("gridrm-admin-conn".to_owned())
                            .spawn(move || admin_conn(stream, &admin));
                        if let Ok(handle) = handle {
                            workers.lock().push(handle);
                        }
                    }
                })?
        };
        Ok(AdminServer {
            local_addr,
            stopping,
            conns,
            workers,
            accept_handle: Mutex::new(Some(accept)),
        })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, close connections, join threads. Idempotent.
    pub fn stop(&self) {
        if self.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.lock().take() {
            let _ = handle.join();
        }
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn admin_conn(stream: TcpStream, admin: &Arc<AdminInterface>) {
    let read_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let response = admin.handle(line.trim());
        let status = match response.status {
            AdminStatus::Ok => "OK",
            AdminStatus::NotFound => "NOTFOUND",
        };
        let header = format!(
            "{status} {} {}\n",
            response.content_type,
            response.body.len()
        );
        if stream.write_all(header.as_bytes()).is_err()
            || stream.write_all(response.body.as_bytes()).is_err()
            || stream.flush().is_err()
        {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// One admin request over a fresh connection: send `path`, parse the
/// header, read the body. The client half of the [`AdminServer`] line
/// protocol, shared by the CLI and the tests.
pub fn admin_request(addr: SocketAddr, path: &str) -> io::Result<(bool, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(format!("{path}\n").as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let bad_header = || io::Error::new(io::ErrorKind::InvalidData, "bad admin header");
    let mut parts = header.trim_end().splitn(3, ' ');
    let status = parts.next().ok_or_else(bad_header)?.to_owned();
    let content_type = parts.next().ok_or_else(bad_header)?.to_owned();
    let len: usize = parts
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(bad_header)?;
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| bad_header())?;
    Ok((status == "OK", content_type, body))
}

/// The production [`Transport`]: every `serve` binds a real TCP socket
/// and every `send_frame` travels over a pooled client connection.
///
/// Logical wire addresses (`gw.site:gma`) map to socket addresses via
/// an internal route table: `serve` records the bound address
/// automatically, and [`TcpTransport::register_route`] adds peers that
/// live in other processes. Unlike the simnet this transport is *not*
/// deterministic — round-trip times are wall-clock — which is exactly
/// why the simnet remains the test transport (see `docs/serving.md`).
pub struct TcpTransport {
    config: SchedulerConfig,
    bind_host: String,
    routes: Mutex<HashMap<String, SocketAddr>>,
    servers: Mutex<HashMap<String, TcpServer>>,
    pool: Mutex<HashMap<String, TcpStream>>,
}

impl TcpTransport {
    /// A transport binding ephemeral ports on `127.0.0.1` whose servers
    /// use `config` for their schedulers.
    pub fn new(config: SchedulerConfig) -> Arc<TcpTransport> {
        TcpTransport::bound_to("127.0.0.1", config)
    }

    /// A transport binding ephemeral ports on `bind_host`.
    pub fn bound_to(bind_host: &str, config: SchedulerConfig) -> Arc<TcpTransport> {
        Arc::new(TcpTransport {
            config,
            bind_host: bind_host.to_owned(),
            routes: Mutex::new(HashMap::new()),
            servers: Mutex::new(HashMap::new()),
            pool: Mutex::new(HashMap::new()),
        })
    }

    /// Map a logical wire address to a socket address (for peers served
    /// by another process).
    pub fn register_route(&self, logical: &str, addr: SocketAddr) {
        self.routes.lock().insert(logical.to_owned(), addr);
    }

    /// The socket address a logical wire address resolves to, if known.
    pub fn route(&self, logical: &str) -> Option<SocketAddr> {
        self.routes.lock().get(logical).copied()
    }

    /// Stop every server this transport started.
    pub fn stop_all(&self) {
        for (_, server) in self.servers.lock().drain() {
            server.stop();
        }
        self.pool.lock().clear();
    }

    fn exchange(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(stream, payload)?;
        match read_frame(stream)? {
            Some(bytes) => Ok(bytes),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed before replying",
            )),
        }
    }
}

impl Transport for TcpTransport {
    fn serve(&self, addr: &str, service: Arc<dyn FrameService>) {
        let bind = format!("{}:0", self.bind_host);
        match TcpServer::start(&bind, service, self.config.clone()) {
            Ok(server) => {
                self.routes
                    .lock()
                    .insert(addr.to_owned(), server.local_addr());
                self.servers.lock().insert(addr.to_owned(), server);
            }
            // Transport::serve is infallible by contract (the simnet
            // cannot fail); a TCP bind failure leaves the route absent,
            // so sends to it surface "no route" errors.
            Err(e) => eprintln!("gridrm-serve: cannot serve '{addr}': {e}"),
        }
    }

    fn unserve(&self, addr: &str) -> bool {
        self.routes.lock().remove(addr);
        self.pool.lock().remove(addr);
        match self.servers.lock().remove(addr) {
            Some(server) => {
                server.stop();
                true
            }
            None => false,
        }
    }

    fn send_frame(
        &self,
        _src: &str,
        dst: &str,
        frame: &WireFrame,
    ) -> Result<(Vec<u8>, u64), TransportError> {
        let target = self
            .routes
            .lock()
            .get(dst)
            .copied()
            .ok_or_else(|| TransportError(format!("tcp {dst}: no route")))?;
        let started = Instant::now();
        // Reuse the pooled connection when one is idle; a stale pooled
        // connection (server restarted, idle timeout) falls through to
        // one fresh-connection retry.
        let mut reply = None;
        if let Some(mut stream) = self.pool.lock().remove(dst) {
            if let Ok(bytes) = TcpTransport::exchange(&mut stream, frame.bytes()) {
                reply = Some((stream, bytes));
            }
        }
        let (stream, bytes) = match reply {
            Some(got) => got,
            None => {
                let mut stream = TcpStream::connect(target)
                    .map_err(|e| TransportError(format!("tcp {dst}: {e}")))?;
                let _ = stream.set_nodelay(true);
                let bytes = TcpTransport::exchange(&mut stream, frame.bytes())
                    .map_err(|e| TransportError(format!("tcp {dst}: {e}")))?;
                (stream, bytes)
            }
        };
        self.pool.lock().insert(dst.to_owned(), stream);
        Ok((bytes, started.elapsed().as_micros() as u64))
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_global::{GlobalRequest, GlobalResponse};

    fn echo_service() -> Arc<dyn FrameService> {
        Arc::new(
            |_from: &str, req: &[u8]| match WireFrame::decode::<GlobalRequest>(req) {
                Ok((GlobalRequest::Ping, _)) => WireFrame::encode(&GlobalResponse::Pong {
                    gateway: "echo".to_owned(),
                })
                .into_bytes(),
                _ => WireFrame::encode(&GlobalResponse::Error {
                    message: "unexpected".to_owned(),
                })
                .into_bytes(),
            },
        )
    }

    #[test]
    fn tcp_round_trip_and_clean_stop() {
        let server =
            TcpServer::start("127.0.0.1:0", echo_service(), SchedulerConfig::default()).unwrap();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        for _ in 0..3 {
            let frame = WireFrame::encode(&GlobalRequest::Ping);
            write_frame(&mut stream, frame.bytes()).unwrap();
            let bytes = read_frame(&mut stream).unwrap().unwrap();
            let (resp, _) = WireFrame::decode::<GlobalResponse>(&bytes).unwrap();
            assert!(matches!(resp, GlobalResponse::Pong { .. }));
        }
        assert_eq!(server.connections_accepted(), 1);
        server.stop();
        server.stop(); // idempotent
                       // The old connection is dead after stop.
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        let dead = write_frame(&mut stream, frame.bytes())
            .and_then(|()| read_frame(&mut stream))
            .map(|r| r.is_none());
        assert!(matches!(dead, Ok(true) | Err(_)));
    }

    #[test]
    fn tcp_transport_routes_and_pools() {
        let transport = TcpTransport::new(SchedulerConfig::default());
        transport.serve("gw.alpha:gma", echo_service());
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        let (bytes, _rtt) = transport
            .send_frame("client", "gw.alpha:gma", &frame)
            .unwrap();
        let (resp, _) = WireFrame::decode::<GlobalResponse>(&bytes).unwrap();
        assert!(matches!(resp, GlobalResponse::Pong { .. }));
        // Second send reuses the pooled connection.
        let (bytes, _rtt) = transport
            .send_frame("client", "gw.alpha:gma", &frame)
            .unwrap();
        assert!(WireFrame::decode::<GlobalResponse>(&bytes).is_ok());
        let err = transport
            .send_frame("client", "gw.nowhere:gma", &frame)
            .unwrap_err();
        assert!(err.to_string().contains("no route"), "{err}");
        assert_eq!(transport.kind(), "tcp");
        assert!(transport.unserve("gw.alpha:gma"));
        assert!(!transport.unserve("gw.alpha:gma"));
        assert!(transport
            .send_frame("client", "gw.alpha:gma", &frame)
            .is_err());
    }

    #[test]
    fn admin_server_line_protocol() {
        use gridrm_core::{Gateway, GatewayConfig};
        use gridrm_simnet::{Network, SimClock};
        let net = Network::new(SimClock::new(), 7);
        let gateway = Gateway::new(GatewayConfig::new("gw-adm", "adm"), net);
        let server = AdminServer::start("127.0.0.1:0", gateway.admin().clone()).unwrap();
        let (ok, ct, body) = admin_request(server.local_addr(), "/v1/health").unwrap();
        assert!(ok);
        assert_eq!(ct, "application/json");
        assert!(serde_json::from_str::<serde_json::Value>(&body).is_ok());
        let (ok, _, _) = admin_request(server.local_addr(), "/v1/nope").unwrap();
        assert!(!ok);
        server.stop();
    }
}
