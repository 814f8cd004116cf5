//! Real sockets: the gateway wire protocol over TCP ([`TcpServer`]),
//! the plain-text admin port ([`AdminServer`]), and a production
//! [`Transport`] backed by both ([`TcpTransport`]).
//!
//! Both ports share one connection lifecycle (`Acceptor`): accept,
//! one handler thread per connection, reap the connection when its
//! handler returns, and shut everything down on stop. The wire port's
//! handler sends every frame straight into the [`Scheduler`], which
//! owns ordering, fairness, and load shedding, and answers a frame that
//! waits on no endpoint on the handler's own thread; every response
//! payload goes out through a write lock so pipelined replies stay in
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

use crate::frame::{encode_frame, read_frame, read_reply, write_frame};
use crate::scheduler::{Admission, Scheduler, SchedulerConfig, SchedulerStats};
use gridrm_core::{AdminInterface, AdminStatus};
use gridrm_global::transport::{FrameService, Transport, TransportError};
use gridrm_global::WireFrame;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a started frame may stall, or a reply take to be written,
/// before the wire port closes its connection. Idle time between frames
/// is not bounded.
/// A [`TcpTransport`] client waits no longer than this to connect, to
/// send, or for its reply to start.
const FRAME_STALL: Duration = Duration::from_secs(10);

/// Longest admin request line, newline included; the longest route is
/// `/v1/spans/<trace_id>`. A longer line closes the connection unanswered.
const MAX_ADMIN_LINE: u64 = 4 * 1024;

/// The connection lifecycle both ports share: bind, one accept loop,
/// one handler thread per connection, and a table of the connections
/// still open. A connection leaves the table, and its socket is shut
/// down, when its handler returns. Stopped on drop.
struct Acceptor {
    local_addr: SocketAddr,
    live: Arc<Mutex<Live>>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

/// The accept loop's registrations, guarded as one so that a
/// connection is either registered before `stop` sweeps or sees
/// `stopping` and is dropped.
#[derive(Default)]
struct Live {
    stopping: bool,
    next_id: u64,
    open: HashMap<u64, Arc<TcpStream>>,
}

impl Acceptor {
    /// Bind `bind` and run `handler` on its own thread (named
    /// `{name}-conn`) for every accepted connection.
    fn start(
        bind: &str,
        name: &str,
        handler: impl Fn(&Arc<TcpStream>) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let live = Arc::new(Mutex::new(Live::default()));
        let accept_live = live.clone();
        let conn_name = format!("{name}-conn");
        let accept_thread = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &accept_live, &handler, &conn_name))?;
        Ok(Acceptor {
            local_addr,
            live,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// Stop accepting, shut down every open connection, and return once
    /// every handler has. Idempotent.
    fn stop(&self) {
        {
            let mut live = self.live.lock();
            if live.stopping {
                return;
            }
            live.stopping = true;
            for conn in live.open.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // Wake the blocking accept with a throwaway connection; the loop
        // sees `stopping` and ends once every handler has returned.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The one accept loop. Handlers run as scoped threads, so leaving the
/// scope is waiting for every one of them.
fn accept_loop(
    listener: &TcpListener,
    live: &Mutex<Live>,
    handler: &(impl Fn(&Arc<TcpStream>) + Sync),
    conn_name: &str,
) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            // A failed accept (e.g. transient resource exhaustion) is
            // not fatal to the server; keep listening.
            let Ok(stream) = stream else { continue };
            let conn = Arc::new(stream);
            let id = {
                let mut live = live.lock();
                if live.stopping {
                    break;
                }
                live.next_id += 1;
                let id = live.next_id;
                live.open.insert(id, conn.clone());
                id
            };
            // Request/response exchanges are small; Nagle's algorithm
            // would add delayed-ACK-sized stalls to every round trip.
            let _ = conn.set_nodelay(true);
            let spawned = std::thread::Builder::new()
                .name(conn_name.to_owned())
                .spawn_scoped(scope, move || {
                    handler(&conn);
                    retire(live, id);
                });
            if spawned.is_err() {
                retire(live, id);
            }
        }
    });
}

/// Take connection `id` out of the table and shut it down, so the peer
/// sees the close even while queued responses still hold the socket.
fn retire(live: &Mutex<Live>, id: u64) {
    let conn = live.lock().open.remove(&id);
    if let Some(conn) = conn {
        let _ = conn.shutdown(Shutdown::Both);
    }
}

/// A wire-protocol server on a real TCP socket.
///
/// Frames are length-prefixed [`WireFrame`] payloads (see
/// [`crate::frame`]); each accepted connection becomes one scheduler
/// *source*, giving it a bounded queue, in-order responses, and a fair
/// share of the worker pool. Stop explicitly with [`TcpServer::stop`]
/// (also invoked on drop).
pub struct TcpServer {
    acceptor: Acceptor,
    scheduler: Arc<Scheduler>,
}

impl TcpServer {
    /// Bind `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `service` behind a [`Scheduler`] built from `config`.
    pub fn start(
        bind: &str,
        service: Arc<dyn FrameService>,
        config: SchedulerConfig,
    ) -> io::Result<TcpServer> {
        let scheduler = Scheduler::start(config, service);
        let sched = scheduler.clone();
        let acceptor =
            Acceptor::start(bind, "gridrm-serve", move |conn| serve_frames(conn, &sched))
                .inspect_err(|_| scheduler.stop())?;
        Ok(TcpServer {
            acceptor,
            scheduler,
        })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr
    }

    /// Scheduler counters (accepted / shed / executed / closed sources).
    pub fn stats(&self) -> &SchedulerStats {
        self.scheduler.stats()
    }

    /// Stop accepting, close every connection, drain the worker pool,
    /// and join all threads. Idempotent.
    pub fn stop(&self) {
        self.acceptor.stop();
        self.scheduler.stop();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One wire connection: frames in, scheduler submissions out. Replies
/// are written through a write lock by whichever thread answers: a
/// worker, or this reader when the scheduler lets the service answer a
/// frame at once (the scheduler already serialises replies per source,
/// the lock just keeps the byte stream intact). A reply not taken whole
/// within [`FRAME_STALL`] fails and shuts the connection, so a client
/// that stops reading cannot hold a worker, or its own reader, longer.
fn serve_frames(conn: &Arc<TcpStream>, scheduler: &Scheduler) {
    let _ = conn.set_read_timeout(Some(FRAME_STALL));
    let _ = conn.set_write_timeout(Some(FRAME_STALL));
    let peer: Arc<str> = match conn.peer_addr() {
        Ok(addr) => addr.to_string().into(),
        Err(_) => "unknown".into(),
    };
    let writer = Arc::new(Mutex::new(conn.clone()));
    let source = scheduler.source();
    // A clean close (`Ok(None)`), a stall or a read error all end the
    // connection; only a full frame keeps the loop going.
    while let Ok(Some(payload)) = read_frame(&mut &**conn) {
        let writer = writer.clone();
        let admission = scheduler.submit(
            &source,
            peer.clone(),
            payload,
            Box::new(move |response| {
                // A reply that cannot be written (client gone, or not
                // reading within FRAME_STALL) leaves the byte stream
                // broken: shut the socket so the reader ends and the
                // replies still queued fail at once.
                let conn = writer.lock();
                if write_reply(&conn, &response).is_err() {
                    let _ = conn.shutdown(Shutdown::Both);
                }
            }),
        );
        if admission == Admission::Closed {
            break;
        }
    }
}

/// Write one reply frame, all of it within [`FRAME_STALL`]. The socket's
/// write timeout bounds one `write` call, and a peer that never reads
/// still takes a few bytes now and then (the kernel probes its closed
/// window), so each call after the first gets only what is left of the
/// bound. A reply taken by the first call costs no extra syscall.
fn write_reply(mut conn: &TcpStream, payload: &[u8]) -> io::Result<()> {
    let framed = encode_frame(payload)?;
    let deadline = Instant::now() + FRAME_STALL;
    let (mut sent, mut shortened) = (0, false);
    while let Some(rest) = framed.get(sent..).filter(|rest| !rest.is_empty()) {
        if sent > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "reply not taken within the stall bound",
                ));
            }
            conn.set_write_timeout(Some(left))?;
            shortened = true;
        }
        match conn.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if shortened {
        conn.set_write_timeout(Some(FRAME_STALL))?;
    }
    Ok(())
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
    acceptor: Acceptor,
}

impl AdminServer {
    /// Bind `bind` and serve `admin`'s versioned endpoints.
    pub fn start(bind: &str, admin: Arc<AdminInterface>) -> io::Result<AdminServer> {
        let acceptor =
            Acceptor::start(bind, "gridrm-admin", move |conn| serve_admin(conn, &admin))?;
        Ok(AdminServer { acceptor })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr
    }

    /// Stop accepting, close connections, join threads. Idempotent.
    pub fn stop(&self) {
        self.acceptor.stop();
    }
}

fn serve_admin(mut conn: &TcpStream, admin: &AdminInterface) {
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    loop {
        line.clear();
        // A line without its newline is the peer closing, or a line
        // past MAX_ADMIN_LINE: either way not a request to answer.
        match reader.by_ref().take(MAX_ADMIN_LINE).read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {}
            _ => break,
        }
        let response = admin.handle(line.trim());
        let status = match response.status {
            AdminStatus::Ok => "OK",
            AdminStatus::NotFound => "NOTFOUND",
        };
        let reply = format!(
            "{status} {} {}\n{}",
            response.content_type,
            response.body.len(),
            response.body
        );
        if conn.write_all(reply.as_bytes()).is_err() {
            break;
        }
    }
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

    /// A client connection: every wait on it is bounded by
    /// [`FRAME_STALL`].
    fn connect(target: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&target, FRAME_STALL)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(FRAME_STALL))?;
        stream.set_write_timeout(Some(FRAME_STALL))?;
        Ok(stream)
    }

    fn exchange(stream: &mut TcpStream, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(stream, payload)?;
        match read_reply(stream) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed before replying",
            )),
            Err(e) if is_timeout(&e) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no reply within {FRAME_STALL:?}"),
            )),
            Err(e) => Err(e),
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
        // A peer that took the frame and stayed silent past the bound is
        // not stale: a retry would only wait the bound again.
        let failed = |e: io::Error| TransportError(format!("tcp {dst}: {e}"));
        let mut reply = None;
        if let Some(mut stream) = self.pool.lock().remove(dst) {
            match TcpTransport::exchange(&mut stream, frame.bytes()) {
                Ok(bytes) => reply = Some((stream, bytes)),
                Err(e) if is_timeout(&e) => return Err(failed(e)),
                Err(_) => {}
            }
        }
        let (stream, bytes) = match reply {
            Some(got) => got,
            None => {
                let mut stream = TcpTransport::connect(target).map_err(failed)?;
                let bytes = TcpTransport::exchange(&mut stream, frame.bytes()).map_err(failed)?;
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

/// A socket read or write that gave up at its timeout.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
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

    /// A peer that accepts and never answers: the exchange fails within
    /// the stall bound instead of waiting forever.
    #[test]
    fn send_frame_gives_up_on_a_peer_that_never_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The accepted socket is held open, unread, until the join.
        let holder = std::thread::spawn(move || listener.accept().map(|(conn, _)| conn));
        let transport = TcpTransport::new(SchedulerConfig::default());
        transport.register_route("gw.silent:gma", addr);
        let started = Instant::now();
        let err = transport
            .send_frame(
                "client",
                "gw.silent:gma",
                &WireFrame::encode(&GlobalRequest::Ping),
            )
            .unwrap_err();
        let waited = started.elapsed();
        assert!(
            waited < FRAME_STALL + Duration::from_secs(5),
            "gave up after {waited:?}"
        );
        assert!(err.to_string().contains("no reply within"), "{err}");
        drop(holder.join().unwrap());
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
