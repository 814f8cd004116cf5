//! Length-prefixed framing over byte streams: `u32` big-endian payload
//! length, then the payload — the TCP encoding of a
//! [`WireFrame`](gridrm_global::WireFrame). The prefix carries *no*
//! semantics beyond delimiting; the payload bytes are exactly what the
//! simnet would have carried, so cost accounting (which prices payload
//! bytes) agrees across transports.

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

use std::io::{self, Read, Write};

/// Refuse frames larger than this (16 MiB): a corrupt or hostile length
/// prefix must not make the server allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The first payload read asks for at most this much; later reads at
/// most double what has arrived. A prefix alone buys a stranger no
/// memory, and a payload up to this size still takes one `read`.
const PAYLOAD_CHUNK: usize = 64 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()
}

/// One frame as one buffer: the 4-byte big-endian length, then the
/// payload. One buffer, one write: a prefix written separately from its
/// payload tickles Nagle/delayed-ACK stalls on real sockets.
pub(crate) fn encode_frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds {MAX_FRAME_BYTES}", payload.len()),
        ));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Read one frame. Returns `Ok(None)` on a clean close (EOF exactly at
/// a frame boundary); a close mid-frame is an error.
///
/// A read timeout (`WouldBlock`/`TimedOut`) before the first prefix
/// byte is an idle peer and is waited out: pooled connections idle as
/// long as they like. Once a frame has started, it is a stall and an
/// error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_waiting(r, true)
}

/// Read one reply frame: [`read_frame`], except that a read timeout
/// before the first prefix byte is an error too. A client awaiting its
/// reply is not an idle connection.
pub(crate) fn read_reply(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_waiting(r, false)
}

fn read_frame_waiting(r: &mut impl Read, wait_idle: bool) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while let Some(rest) = len_buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-length-prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if wait_idle
                    && filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let got = payload.len();
        payload.resize(got + (len - got).min(got.max(PAYLOAD_CHUNK)), 0);
        if let Some(chunk) = payload.get_mut(got..) {
            r.read_exact(chunk)?;
        }
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"world"[..]));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_write_rejected() {
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &huge).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // length prefix + 2 payload bytes
        let mut r = Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());
        // EOF mid-prefix is also an error, not a clean close.
        let mut r = Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut r).is_err());
    }

    /// One scripted outcome per `read` call (bytes are handed out over
    /// as many calls as the offered buffers need; an empty script is
    /// EOF). Counts its calls and records the largest buffer offered.
    struct Scripted {
        script: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
        calls: usize,
        largest: usize,
    }

    impl Scripted {
        fn new(script: Vec<Result<Vec<u8>, io::ErrorKind>>) -> Scripted {
            Scripted {
                script: script.into(),
                calls: 0,
                largest: 0,
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            self.largest = self.largest.max(buf.len());
            match self.script.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    let rest = bytes.split_off(n);
                    if !rest.is_empty() {
                        self.script.push_front(Ok(rest));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        buf
    }

    #[test]
    fn payload_buffer_grows_with_the_bytes_that_arrived() {
        // A 16 MiB prefix followed by 10 bytes and EOF.
        let mut hostile = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
        hostile.extend_from_slice(&[7u8; 10]);
        let mut r = Scripted::new(vec![Ok(hostile)]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.largest <= PAYLOAD_CHUNK, "offered {} bytes", r.largest);

        // A cached_point-sized frame: one read for the prefix, one for
        // the payload, none after.
        let payload = vec![b'x'; 580];
        let mut r = Scripted::new(vec![Ok(framed(&payload))]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(r.calls, 2);

        // A payload past one chunk arrives whole.
        let payload: Vec<u8> = (0..3 * PAYLOAD_CHUNK + 5).map(|i| i as u8).collect();
        let mut r = Scripted::new(vec![Ok(framed(&payload))]);
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
    }

    #[test]
    fn a_timeout_waits_while_idle_and_fails_mid_frame() {
        let frame = framed(b"ping");
        let mut r = Scripted::new(vec![
            Err(io::ErrorKind::WouldBlock),
            Err(io::ErrorKind::TimedOut),
            Ok(frame.clone()),
        ]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"ping"[..]));

        for (sent, kind) in [
            (2, io::ErrorKind::WouldBlock), // mid-prefix
            (6, io::ErrorKind::TimedOut),   // mid-payload
        ] {
            let mut r = Scripted::new(vec![Ok(frame[..sent].to_vec()), Err(kind)]);
            assert_eq!(read_frame(&mut r).unwrap_err().kind(), kind);
        }
    }

    #[test]
    fn a_reply_that_has_not_started_within_the_bound_is_an_error() {
        let frame = framed(b"ping");
        let mut r = Scripted::new(vec![Err(io::ErrorKind::WouldBlock), Ok(frame.clone())]);
        assert_eq!(
            read_reply(&mut r).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        let mut r = Scripted::new(vec![Ok(frame)]);
        assert_eq!(read_reply(&mut r).unwrap().as_deref(), Some(&b"ping"[..]));
    }
}
