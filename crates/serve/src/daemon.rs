//! The connection-facing daemon: frames in, responses out.
//!
//! [`Daemon`] wraps an [`Engine`] behind the wire protocol. The frame
//! handler is a plain in-process function — `handle_request` — so the
//! replay and fuzz suites drive the daemon without a socket; the socket
//! fronts ([`serve_tcp`](Daemon::serve_tcp),
//! [`serve_unix`](Daemon::serve_unix)) are thin read/decode/respond loops
//! over the same handler. Connections are served one at a time, in accept
//! order: the daemon's state evolution is a pure function of the byte
//! streams it is fed, which is what makes online runs replayable at all.

use crate::engine::{Engine, ScriptedWrite, ServeConfig};
use crate::protocol::{encode_response, FrameDecoder, ProtoError, Request, STATUS_OK};
use pcm_core::WriteError;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;

/// Error code for a line index outside the bank (see the protocol table).
pub(crate) const ERR_BAD_ADDRESS: u8 = 6;
/// Error code for an uncorrectable line failure.
pub(crate) const ERR_LINE_DEAD: u8 = 7;

/// What to do with the connection after handling a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Keep reading frames.
    Open,
    /// Stop: clean shutdown or fatal protocol error.
    Closed,
}

/// The protocol-facing daemon.
pub struct Daemon {
    engine: Engine,
    shutdown: bool,
}

impl Daemon {
    /// Builds a daemon over a fresh engine.
    pub fn new(cfg: ServeConfig) -> Self {
        Daemon {
            engine: Engine::new(cfg),
            shutdown: false,
        }
    }

    /// The engine (telemetry, digests).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access for script replay (`pcm-serve --duration`'s
    /// batch phase, before any connection is served).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// True once a SHUTDOWN frame has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Serves one parsed request, returning the encoded response frame and
    /// the resulting connection state.
    pub fn handle_request(&mut self, req: &Request) -> (Vec<u8>, ConnState) {
        match req {
            Request::Write {
                at,
                tenant,
                line,
                data,
            } => {
                let w = ScriptedWrite {
                    at: *at,
                    tenant: *tenant,
                    line: *line,
                    data: *data,
                };
                match self.engine.write(&w) {
                    Ok(latency) => (
                        encode_response(STATUS_OK, &latency.to_le_bytes()),
                        ConnState::Open,
                    ),
                    Err(e) => (encode_response(write_error_code(&e), &[]), ConnState::Open),
                }
            }
            Request::Read { tenant, line } => match self.engine.read(*tenant, *line) {
                Ok(data) => (
                    encode_response(STATUS_OK, &data.to_bytes()),
                    ConnState::Open,
                ),
                Err(e) => (encode_response(write_error_code(&e), &[]), ConnState::Open),
            },
            Request::Telemetry => (
                encode_response(STATUS_OK, self.engine.snapshot().render().as_bytes()),
                ConnState::Open,
            ),
            Request::Shutdown => {
                self.shutdown = true;
                (encode_response(STATUS_OK, &[]), ConnState::Closed)
            }
        }
    }

    /// Serves a protocol error, returning its response frame and whether
    /// the connection survives.
    pub(crate) fn handle_error(&mut self, err: &ProtoError) -> (Vec<u8>, ConnState) {
        let state = if err.is_fatal() {
            ConnState::Closed
        } else {
            ConnState::Open
        };
        (encode_response(err.code(), &[]), state)
    }

    /// Feeds raw bytes through a connection's decoder, appending every
    /// response frame to `out`. Returns the connection state after
    /// consuming all complete frames.
    pub fn handle_bytes(
        &mut self,
        decoder: &mut FrameDecoder,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> ConnState {
        decoder.push(bytes);
        while let Some(result) = decoder.next_frame() {
            let (resp, state) = match result {
                Ok(req) => self.handle_request(&req),
                Err(e) => self.handle_error(&e),
            };
            out.extend_from_slice(&resp);
            if state == ConnState::Closed {
                return ConnState::Closed;
            }
        }
        ConnState::Open
    }

    /// Serves one byte stream (socket connection) to completion.
    ///
    /// # Errors
    ///
    /// Returns the stream's read or write error; the connection is then
    /// unusable.
    // pcm-audit: root(panic-reach) — a malformed or adversarial frame must produce an error response, never a panic
    fn serve_stream<S: Read + Write>(&mut self, stream: &mut S) -> std::io::Result<()> {
        let mut decoder = FrameDecoder::new();
        let mut buf = [0u8; 4096];
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                // End of stream: a partial frame left behind is a
                // truncation — answer it so the client knows.
                if decoder.finish().is_err() {
                    let (resp, _) = self.handle_error(&ProtoError::Truncated);
                    stream.write_all(&resp)?;
                }
                return Ok(());
            }
            let mut out = Vec::new();
            // pcm-audit: allow(panic-reach) — Read::read returns n <= buf.len() by contract
            let state = self.handle_bytes(&mut decoder, &buf[..n], &mut out);
            stream.write_all(&out)?;
            if state == ConnState::Closed {
                return Ok(());
            }
        }
    }

    /// Serves connections from `accept`, one at a time in accept order,
    /// until a SHUTDOWN frame arrives.
    fn serve_each<S: Read + Write>(
        &mut self,
        mut accept: impl FnMut() -> std::io::Result<S>,
    ) -> std::io::Result<()> {
        while !self.shutdown {
            let mut stream = accept()?;
            // A client that vanishes or breaks its socket ends only its
            // own connection: the frames already served stay applied, the
            // banks keep their wear state, and the next client is served.
            let _ = self.serve_stream(&mut stream);
        }
        Ok(())
    }

    /// Accept loop over TCP: serves connections in accept order until a
    /// SHUTDOWN frame arrives. A read or write error on a connection
    /// closes that connection only.
    ///
    /// # Errors
    ///
    /// Propagates the listener's `accept` errors.
    pub fn serve_tcp(&mut self, listener: &TcpListener) -> std::io::Result<()> {
        self.serve_each(|| listener.accept().map(|(stream, _)| stream))
    }

    /// Accept loop over a Unix socket, same contract as
    /// [`serve_tcp`](Self::serve_tcp).
    ///
    /// # Errors
    ///
    /// Propagates the listener's `accept` errors.
    pub fn serve_unix(&mut self, listener: &UnixListener) -> std::io::Result<()> {
        self.serve_each(|| listener.accept().map(|(stream, _)| stream))
    }
}

fn write_error_code(e: &WriteError) -> u8 {
    match e {
        WriteError::BadAddress => ERR_BAD_ADDRESS,
        WriteError::LineDead { .. } => ERR_LINE_DEAD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_shutdown, encode_telemetry, encode_write};
    use pcm_util::Line512;

    fn drive(daemon: &mut Daemon, wire: &[u8]) -> Vec<(u8, Vec<u8>)> {
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        daemon.handle_bytes(&mut decoder, wire, &mut out);
        let mut responses = Vec::new();
        let mut rest = &out[..];
        while let Some((status, body, used)) = decode_response(rest) {
            responses.push((status, body.to_vec()));
            rest = &rest[used..];
        }
        assert!(rest.is_empty(), "response stream is whole frames");
        responses
    }

    #[test]
    fn write_then_telemetry_over_the_wire() {
        let mut daemon = Daemon::new(ServeConfig::new(21));
        let mut wire = encode_write(100, 3, 5, &Line512::ones());
        wire.extend(encode_telemetry());
        let responses = drive(&mut daemon, &wire);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].0, STATUS_OK);
        let latency = u64::from_le_bytes(responses[0].1.as_slice().try_into().expect("8 bytes"));
        assert!(latency >= 68, "latency {latency} covers occupancy");
        assert_eq!(responses[1].0, STATUS_OK);
        let text = String::from_utf8(responses[1].1.clone()).expect("utf8 telemetry");
        assert!(text.contains("writes 1"));
    }

    #[test]
    fn shutdown_closes_and_sets_flag() {
        let mut daemon = Daemon::new(ServeConfig::new(21));
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        let state = daemon.handle_bytes(&mut decoder, &encode_shutdown(), &mut out);
        assert_eq!(state, ConnState::Closed);
        assert!(daemon.shutdown_requested());
    }

    #[test]
    fn tcp_round_trip() {
        use std::net::TcpStream;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let mut daemon = Daemon::new(ServeConfig::new(8));
            daemon.serve_tcp(&listener).expect("serve");
            daemon.engine().snapshot()
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut wire = encode_write(50, 1, 2, &Line512::ones());
        wire.extend(encode_shutdown());
        stream.write_all(&wire).expect("send");
        let mut got = Vec::new();
        stream.read_to_end(&mut got).expect("responses");
        let (status, _, used) = decode_response(&got).expect("write response");
        assert_eq!(status, STATUS_OK);
        let (status, _, _) = decode_response(&got[used..]).expect("shutdown ack");
        assert_eq!(status, STATUS_OK);
        let snap = server.join().expect("server thread");
        assert_eq!(snap.writes, 1);
    }

    #[test]
    fn unix_client_that_closes_unread_ends_only_its_connection() {
        use std::os::unix::net::UnixStream;
        let path =
            std::env::temp_dir().join(format!("pcm-serve-vanish-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind unix socket");
        // Client A queues writes and closes before the daemon has read
        // any of them, so the daemon's first response hits a closed peer.
        // 100 frames (9.3 KB) span several 4 KiB reads yet fit the socket
        // buffer, so the send completes with no daemon reading.
        {
            let mut a = UnixStream::connect(&path).expect("client A connects");
            let wire: Vec<u8> = (0..100u64)
                .flat_map(|i| encode_write(10 * i, i % 5, i % 7, &Line512::ones()))
                .collect();
            a.write_all(&wire).expect("client A sends");
        }
        let server = std::thread::spawn(move || {
            let mut daemon = Daemon::new(ServeConfig::new(8));
            let served = daemon.serve_unix(&listener);
            (served, daemon.engine().snapshot())
        });
        let mut b = UnixStream::connect(&path).expect("client B connects");
        let mut wire = encode_telemetry();
        wire.extend(encode_shutdown());
        b.write_all(&wire).expect("client B sends");
        let mut got = Vec::new();
        b.read_to_end(&mut got).expect("client B reads");
        let (served, snap) = server.join().expect("server thread");
        let _ = std::fs::remove_file(&path);
        served.expect("serve_unix outlives a vanished client");
        let (status, body, used) = decode_response(&got).expect("telemetry response");
        assert_eq!(status, STATUS_OK);
        let text = String::from_utf8(body.to_vec()).expect("utf8 telemetry");
        assert!(text.contains(&format!("writes {}", snap.writes)), "{text}");
        assert!(snap.writes > 0, "client A's served writes are kept");
        let (status, _, _) = decode_response(&got[used..]).expect("shutdown ack");
        assert_eq!(status, STATUS_OK);
    }
}
