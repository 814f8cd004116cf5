//! The unified `Transport` API: how gateway wire frames move.
//!
//! Everything the Global layer says on the wire is a [`WireFrame`]
//! (encoded [`GlobalRequest`](crate::GlobalRequest) /
//! [`GlobalResponse`](crate::GlobalResponse)); *how* a frame reaches the
//! peer is the transport's business. Two implementations exist:
//!
//! * the deterministic in-memory simnet — [`gridrm_simnet::Network`]
//!   implements [`Transport`] directly, so every existing test and
//!   experiment keeps replaying byte-identically in virtual time;
//! * real TCP with length-prefixed frames — `gridrm-serve`'s
//!   `TcpTransport`, the production path, which adds a worker-pool
//!   scheduler and admission control in front of the same
//!   [`FrameService`].
//!
//! [`GlobalLayer`](crate::GlobalLayer), the fan-out engine and the grid
//! subscription plumbing only ever see `Arc<dyn Transport>`: the Global
//! layer cannot tell (and must not care) whether a frame crossed a
//! channel or a socket.

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

use crate::protocol::WireFrame;
use std::fmt;
use std::sync::Arc;

/// A service that answers wire frames: the receiving side of a gateway's
/// `:gma` endpoint (and, over TCP, of the admin port's query plane).
///
/// `from` is the transport-level peer label — a simnet address or a
/// `tcp:<ip>:<port>` socket label — used for auditing only; trust comes
/// from the vouched identity *inside* the frame, never from the address.
pub trait FrameService: Send + Sync {
    /// Handle one request frame, producing the response frame's payload.
    fn handle_frame(&self, from: &str, frame: &[u8]) -> Vec<u8>;

    /// Begin answering `frame` on the calling thread. A frame whose
    /// answer waits on no other endpoint is answered here
    /// ([`Answered::Now`]); any other is handed back to be queued, with
    /// whatever was already made of it ([`Answered::Later`]), so the
    /// worker that finishes it does not start over. Either way the reply
    /// is exactly the bytes [`FrameService::handle_frame`] returns. The
    /// default hands every frame back untouched.
    fn answer_now(&self, _from: &str, frame: Vec<u8>) -> Answered {
        Answered::Later(Pending::Frame(frame))
    }
}

/// What [`FrameService::answer_now`] made of a frame.
pub enum Answered {
    /// The reply, produced on the calling thread.
    Now(Vec<u8>),
    /// The reply is still to be produced, by a worker.
    Later(Pending),
}

/// A frame whose reply a worker still has to produce.
pub enum Pending {
    /// The frame as it was read: the worker hands it to
    /// [`FrameService::handle_frame`].
    Frame(Vec<u8>),
    /// The rest of a reply already begun (its frame decoded).
    Begun(Box<dyn FnOnce() -> Vec<u8> + Send>),
}

impl Pending {
    /// Produce the reply, on the calling (worker) thread.
    pub fn reply(self, service: &dyn FrameService, from: &str) -> Vec<u8> {
        match self {
            Pending::Frame(frame) => service.handle_frame(from, &frame),
            Pending::Begun(rest) => rest(),
        }
    }
}

impl<F> FrameService for F
where
    F: Fn(&str, &[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle_frame(&self, from: &str, frame: &[u8]) -> Vec<u8> {
        self(from, frame)
    }
}

/// A transport-level delivery failure (endpoint missing or down, link
/// partitioned, connection refused, frame oversized, …).
///
/// Deliberately just a message: the Global layer maps every transport
/// failure to `SqlError::Connection` and the simnet impl preserves
/// [`gridrm_simnet::NetError`]'s display text exactly, so the refactor
/// from direct `Network` calls changes no observable byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError(pub String);

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TransportError {}

/// How wire frames move between gateways (and from serving-layer
/// clients to a gateway).
///
/// Semantics every implementation must honour:
///
/// * **serve** — `service` answers all frames addressed to `addr` until
///   [`Transport::unserve`] (re-serving an address replaces the previous
///   service);
/// * **send_frame** — synchronous request/response: deliver `frame` to
///   `dst`, return the raw response payload plus the round-trip latency
///   in microseconds (virtual for simnet, wall-clock for TCP);
/// * frames are opaque: a transport never inspects, re-encodes or
///   re-frames the payload bytes, so the sizes [`WireFrame`] measures
///   are the bytes that travel. The Global layer's one exchange with a
///   peer (`GlobalLayer::exchange`) prices every outbound frame from
///   them, and its wire service prices every inbound one.
pub trait Transport: Send + Sync {
    /// Serve `service` at `addr`, replacing any previous registration.
    fn serve(&self, addr: &str, service: Arc<dyn FrameService>);

    /// Stop serving `addr`. Returns whether anything was registered.
    fn unserve(&self, addr: &str) -> bool;

    /// Send one frame from `src` to `dst` and wait for the response.
    /// Returns the response payload and the sampled round-trip latency
    /// in microseconds.
    fn send_frame(
        &self,
        src: &str,
        dst: &str,
        frame: &WireFrame,
    ) -> Result<(Vec<u8>, u64), TransportError>;

    /// Short label for diagnostics (`"simnet"`, `"tcp"`, …).
    fn kind(&self) -> &'static str {
        "unknown"
    }
}

/// Adapter: a [`FrameService`] as a simnet [`gridrm_simnet::Service`].
struct SimService {
    inner: Arc<dyn FrameService>,
}

impl gridrm_simnet::Service for SimService {
    fn handle(&self, from: &str, request: &[u8]) -> Vec<u8> {
        self.inner.handle_frame(from, request)
    }
}

/// The deterministic test transport: the in-memory simnet carries wire
/// frames exactly as it always has — same RPC path, same latency model,
/// same RNG draws — so transcripts are byte-identical to the
/// pre-`Transport` direct-`Network` code.
impl Transport for gridrm_simnet::Network {
    fn serve(&self, addr: &str, service: Arc<dyn FrameService>) {
        self.register(addr, Arc::new(SimService { inner: service }));
    }

    fn unserve(&self, addr: &str) -> bool {
        self.unregister(addr)
    }

    fn send_frame(
        &self,
        src: &str,
        dst: &str,
        frame: &WireFrame,
    ) -> Result<(Vec<u8>, u64), TransportError> {
        self.request_timed(src, dst, frame.bytes())
            .map_err(|e| TransportError(e.to_string()))
    }

    fn kind(&self) -> &'static str {
        "simnet"
    }
}

/// One recorded exchange: `(src, dst, request bytes, response or error)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportExchange {
    /// Sending address.
    pub src: String,
    /// Receiving address.
    pub dst: String,
    /// The request frame payload.
    pub request: Vec<u8>,
    /// The response payload, or the transport error's display text.
    pub response: Result<Vec<u8>, String>,
}

/// A pass-through [`Transport`] wrapper that records every outbound
/// exchange byte-for-byte. Test instrumentation: the determinism suite
/// runs the same grid scenario twice and asserts the two transcripts
/// are identical, which pins the trait plumbing to the wire bytes.
pub struct RecordingTransport {
    inner: Arc<dyn Transport>,
    log: parking_lot::Mutex<Vec<TransportExchange>>,
}

impl RecordingTransport {
    /// Wrap `inner`, recording every [`Transport::send_frame`].
    pub fn new(inner: Arc<dyn Transport>) -> Arc<RecordingTransport> {
        Arc::new(RecordingTransport {
            inner,
            log: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// The exchanges recorded so far, in send order.
    pub fn transcript(&self) -> Vec<TransportExchange> {
        self.log.lock().clone()
    }

    /// Render the transcript as one comparable string (lossless for
    /// JSON frames: raw bytes are shown lossy-UTF-8 with lengths).
    pub fn transcript_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, x) in self.log.lock().iter().enumerate() {
            let _ = write!(
                out,
                "[{i}] {} -> {} ({}B) {}\n    ",
                x.src,
                x.dst,
                x.request.len(),
                String::from_utf8_lossy(&x.request)
            );
            match &x.response {
                Ok(bytes) => {
                    let _ = writeln!(
                        out,
                        "<- ({}B) {}",
                        bytes.len(),
                        String::from_utf8_lossy(bytes)
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "<- ERR {e}");
                }
            }
        }
        out
    }
}

impl Transport for RecordingTransport {
    fn serve(&self, addr: &str, service: Arc<dyn FrameService>) {
        self.inner.serve(addr, service);
    }

    fn unserve(&self, addr: &str) -> bool {
        self.inner.unserve(addr)
    }

    fn send_frame(
        &self,
        src: &str,
        dst: &str,
        frame: &WireFrame,
    ) -> Result<(Vec<u8>, u64), TransportError> {
        let result = self.inner.send_frame(src, dst, frame);
        self.log.lock().push(TransportExchange {
            src: src.to_owned(),
            dst: dst.to_owned(),
            request: frame.bytes().to_vec(),
            response: match &result {
                Ok((bytes, _)) => Ok(bytes.clone()),
                Err(e) => Err(e.to_string()),
            },
        });
        result
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{GlobalRequest, WireFrame};
    use gridrm_simnet::{Network, SimClock};

    fn echo_service() -> Arc<dyn FrameService> {
        Arc::new(|_from: &str, frame: &[u8]| {
            let mut v = b"echo:".to_vec();
            v.extend_from_slice(frame);
            v
        })
    }

    #[test]
    fn simnet_transport_round_trip() {
        let net = Network::new(SimClock::new(), 7);
        let t: Arc<dyn Transport> = net.clone();
        t.serve("peer:gma", echo_service());
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        let (resp, _rtt) = t.send_frame("me:gma", "peer:gma", &frame).unwrap();
        assert!(resp.starts_with(b"echo:"));
        assert_eq!(t.kind(), "simnet");
        assert!(t.unserve("peer:gma"));
        assert!(!t.unserve("peer:gma"));
        let err = t.send_frame("me:gma", "peer:gma", &frame).unwrap_err();
        assert_eq!(err.to_string(), "no endpoint at 'peer:gma'");
    }

    #[test]
    fn simnet_transport_preserves_net_error_text() {
        // The refactor contract: trait-mapped errors display exactly as
        // the NetError the engine used to format directly.
        let net = Network::new(SimClock::new(), 7);
        let t: Arc<dyn Transport> = net.clone();
        t.serve("peer:gma", echo_service());
        net.set_blocked("me:gma", "peer:gma", true);
        let err = t
            .send_frame(
                "me:gma",
                "peer:gma",
                &WireFrame::encode(&GlobalRequest::Ping),
            )
            .unwrap_err();
        assert_eq!(err.to_string(), "link me:gma -> peer:gma is partitioned");
    }

    #[test]
    fn simnet_transport_charges_virtual_latency() {
        let net = Network::new(SimClock::new(), 7);
        net.set_latency("me:gma", "peer:gma", gridrm_simnet::Latency::ms(10, 0));
        let t: Arc<dyn Transport> = net.clone();
        t.serve("peer:gma", echo_service());
        let (_, rtt_us) = t
            .send_frame(
                "me:gma",
                "peer:gma",
                &WireFrame::encode(&GlobalRequest::Ping),
            )
            .unwrap();
        assert_eq!(rtt_us, 20_000);
    }

    #[test]
    fn recording_transport_captures_bytes_both_ways() {
        let net = Network::new(SimClock::new(), 7);
        let rec = RecordingTransport::new(net.clone());
        rec.serve("peer:gma", echo_service());
        let frame = WireFrame::encode(&GlobalRequest::Ping);
        rec.send_frame("me:gma", "peer:gma", &frame).unwrap();
        net.set_down("peer:gma", true);
        assert!(rec.send_frame("me:gma", "peer:gma", &frame).is_err());
        let log = rec.transcript();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].request, frame.bytes());
        assert!(log[0].response.as_ref().unwrap().starts_with(b"echo:"));
        assert_eq!(
            log[1].response.as_ref().unwrap_err(),
            "endpoint 'peer:gma' is down"
        );
        let text = rec.transcript_text();
        assert!(text.contains("me:gma -> peer:gma"));
        assert!(text.contains("ERR endpoint"));
    }
}
