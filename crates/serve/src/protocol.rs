//! Length-prefixed binary wire protocol.
//!
//! Every frame, in both directions, is a little-endian `u32` payload
//! length followed by that many payload bytes. Request payloads start with
//! a one-byte opcode; response payloads start with a one-byte status code
//! (`0` = ok, else an error code from the table below).
//!
//! ## Requests
//!
//! | opcode | name      | body                                             |
//! |-------:|-----------|--------------------------------------------------|
//! | `0x01` | WRITE     | `at: u64`, `tenant: u64`, `line: u64`, 64B data  |
//! | `0x02` | READ      | `tenant: u64`, `line: u64`                       |
//! | `0x03` | TELEMETRY | empty — response body is the rendered snapshot   |
//! | `0x04` | SHUTDOWN  | empty — daemon acks, then closes                 |
//!
//! `at` is the request's arrival time in **virtual bus cycles**; clients
//! (the built-in generator, replay scripts) timestamp their own load so
//! the daemon never consults a wall clock.
//!
//! ## Error codes (golden table — `tests/protocol_fuzz.rs` pins it)
//!
//! | code | name          | meaning                                  | connection |
//! |-----:|---------------|------------------------------------------|------------|
//! | 1    | `TRUNCATED`   | stream ended inside a frame              | closed     |
//! | 2    | `OVERSIZE`    | declared length > [`MAX_FRAME`]          | closed     |
//! | 3    | `EMPTY`       | declared length 0 (no opcode)            | open       |
//! | 4    | `BAD_OPCODE`  | unknown opcode byte                      | open       |
//! | 5    | `BAD_LENGTH`  | body length wrong for the opcode         | open       |
//! | 6    | `BAD_ADDRESS` | line index out of range for the bank     | open       |
//! | 7    | `LINE_DEAD`   | uncorrectable error serving the request  | open       |
//!
//! Desync is impossible by construction for non-fatal errors: the length
//! prefix tells the decoder how many bytes to skip even when the payload
//! is garbage, so one bad frame costs exactly one error response and the
//! next frame parses cleanly. The two fatal codes are exactly the cases
//! where the prefix itself cannot be trusted (`OVERSIZE`) or cannot be
//! satisfied (`TRUNCATED`), so the daemon answers and closes instead of
//! guessing at a resync point.

use pcm_util::{Line512, DATA_BYTES};

/// Largest accepted payload (opcode + body), bytes. Telemetry responses
/// may be larger; the cap applies to what clients send.
pub const MAX_FRAME: u32 = 4096;

/// WRITE opcode.
pub const OP_WRITE: u8 = 0x01;
/// READ opcode.
pub const OP_READ: u8 = 0x02;
/// TELEMETRY opcode.
pub(crate) const OP_TELEMETRY: u8 = 0x03;
/// SHUTDOWN opcode.
pub(crate) const OP_SHUTDOWN: u8 = 0x04;

/// Response status: success.
pub const STATUS_OK: u8 = 0;

const WRITE_BODY: u32 = 8 + 8 + 8 + DATA_BYTES as u32;
const READ_BODY: u32 = 8 + 8;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One write-back: store `data` at the tenant's `line`, arriving at
    /// virtual cycle `at`.
    Write {
        /// Arrival time, virtual bus cycles.
        at: u64,
        /// Tenant id (routed to a bank, see [`crate::router`]).
        tenant: u64,
        /// Bank-local logical line index.
        line: u64,
        /// The 64-byte payload.
        data: Line512,
    },
    /// Read a line back.
    Read {
        /// Tenant id.
        tenant: u64,
        /// Bank-local logical line index.
        line: u64,
    },
    /// Fetch a rendered telemetry snapshot.
    Telemetry,
    /// Clean shutdown.
    Shutdown,
}

/// A typed protocol violation. `code()` is the on-wire error byte from the
/// module-level golden table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended inside a frame (header or payload incomplete).
    Truncated,
    /// Declared payload length exceeds [`MAX_FRAME`].
    Oversize {
        /// The length the prefix declared.
        declared: u32,
    },
    /// Zero-length payload: there is no opcode to dispatch on.
    Empty,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Body size does not match the opcode's fixed layout.
    BadLength {
        /// The offending opcode.
        opcode: u8,
        /// Body bytes received.
        got: u32,
        /// Body bytes the opcode requires.
        want: u32,
    },
}

impl ProtoError {
    /// The on-wire error code.
    pub fn code(&self) -> u8 {
        match self {
            ProtoError::Truncated => 1,
            ProtoError::Oversize { .. } => 2,
            ProtoError::Empty => 3,
            ProtoError::BadOpcode(_) => 4,
            ProtoError::BadLength { .. } => 5,
        }
    }

    /// Whether the connection must close: true exactly when the length
    /// prefix itself cannot be trusted, so skipping to the next frame
    /// would be a guess.
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtoError::Truncated | ProtoError::Oversize { .. })
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "stream ended inside a frame"),
            ProtoError::Oversize { declared } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds {MAX_FRAME}"
                )
            }
            ProtoError::Empty => write!(f, "zero-length payload carries no opcode"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtoError::BadLength { opcode, got, want } => {
                write!(
                    f,
                    "opcode {opcode:#04x} wants a {want}-byte body, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Incremental frame decoder over a byte stream.
///
/// Push raw socket reads in with [`push`](Self::push), drain parsed frames
/// with [`next_frame`](Self::next_frame), and call
/// [`finish`](Self::finish) at end-of-stream to surface a trailing partial
/// frame as [`ProtoError::Truncated`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing so a long-lived connection cannot
        // accumulate consumed prefix forever.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Parses the next complete frame, if one is buffered.
    ///
    /// Returns `None` when more bytes are needed. A non-fatal `Err`
    /// consumes exactly the offending frame — parsing may continue.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversize`] (fatal), [`ProtoError::Empty`],
    /// [`ProtoError::BadOpcode`], [`ProtoError::BadLength`].
    #[allow(clippy::should_implement_trait)]
    pub fn next_frame(&mut self) -> Option<Result<Request, ProtoError>> {
        let avail = self.buf.get(self.pos..).unwrap_or(&[]);
        let declared = u32::from_le_bytes(*avail.first_chunk::<4>()?);
        if declared > MAX_FRAME {
            // Fatal: do not consume — the connection is closing and the
            // buffer is dead anyway.
            return Some(Err(ProtoError::Oversize { declared }));
        }
        if declared == 0 {
            self.pos += 4;
            return Some(Err(ProtoError::Empty));
        }
        let total = 4 + declared as usize;
        let payload = avail.get(4..total)?;
        self.pos += total;
        Some(decode_payload(payload))
    }

    /// Signals end-of-stream: any buffered partial frame is a truncation.
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Truncated)
        }
    }
}

fn decode_payload(payload: &[u8]) -> Result<Request, ProtoError> {
    let Some(&opcode) = payload.first() else {
        return Err(ProtoError::Empty);
    };
    let body = payload.get(1..).unwrap_or(&[]);
    let want = match opcode {
        OP_WRITE => WRITE_BODY,
        OP_READ => READ_BODY,
        OP_TELEMETRY | OP_SHUTDOWN => 0,
        op => return Err(ProtoError::BadOpcode(op)),
    };
    if body.len() as u32 != want {
        return Err(ProtoError::BadLength {
            opcode,
            got: body.len() as u32,
            want,
        });
    }
    // Body length is validated above; the accessors still degrade to
    // zeroed fields rather than panic if a decode bug ever breaks that.
    let u64_at = |off: usize| {
        body.get(off..)
            .and_then(|s| s.first_chunk::<8>())
            .map(|c| u64::from_le_bytes(*c))
            .unwrap_or(0)
    };
    let mut raw = [0u8; DATA_BYTES];
    if let Some(src) = body.get(24..24 + DATA_BYTES) {
        raw.copy_from_slice(src);
    }
    Ok(match opcode {
        OP_WRITE => Request::Write {
            at: u64_at(0),
            tenant: u64_at(8),
            line: u64_at(16),
            data: Line512::from_bytes(&raw),
        },
        OP_READ => Request::Read {
            tenant: u64_at(0),
            line: u64_at(8),
        },
        OP_TELEMETRY => Request::Telemetry,
        _ => Request::Shutdown,
    })
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a WRITE request frame.
pub fn encode_write(at: u64, tenant: u64, line: u64, data: &Line512) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + WRITE_BODY as usize);
    p.push(OP_WRITE);
    p.extend_from_slice(&at.to_le_bytes());
    p.extend_from_slice(&tenant.to_le_bytes());
    p.extend_from_slice(&line.to_le_bytes());
    p.extend_from_slice(&data.to_bytes());
    frame(&p)
}

/// Encodes a READ request frame.
pub fn encode_read(tenant: u64, line: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + READ_BODY as usize);
    p.push(OP_READ);
    p.extend_from_slice(&tenant.to_le_bytes());
    p.extend_from_slice(&line.to_le_bytes());
    frame(&p)
}

/// Encodes a TELEMETRY request frame.
pub fn encode_telemetry() -> Vec<u8> {
    frame(&[OP_TELEMETRY])
}

/// Encodes a SHUTDOWN request frame.
pub fn encode_shutdown() -> Vec<u8> {
    frame(&[OP_SHUTDOWN])
}

/// Encodes a response frame: status byte plus body.
pub fn encode_response(status: u8, body: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + body.len());
    p.push(status);
    p.extend_from_slice(body);
    frame(&p)
}

/// Splits one response frame off the front of `buf`, returning
/// `(status, body, bytes_consumed)`. `None` if a full frame isn't there
/// yet. Client-side helper for tests and the smoke stage.
pub fn decode_response(buf: &[u8]) -> Option<(u8, &[u8], usize)> {
    if buf.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice")) as usize;
    if len == 0 || buf.len() < 4 + len {
        return None;
    }
    Some((buf[4], &buf[4 + 1..4 + len], 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_round_trips() {
        let data = Line512::ones();
        let wire = encode_write(99, 7, 3, &data);
        let mut d = FrameDecoder::new();
        d.push(&wire);
        let req = d.next_frame().expect("complete").expect("valid");
        assert_eq!(
            req,
            Request::Write {
                at: 99,
                tenant: 7,
                line: 3,
                data
            }
        );
        assert!(d.next_frame().is_none());
        assert!(d.finish().is_ok());
    }

    #[test]
    fn frames_survive_byte_at_a_time_delivery() {
        let mut wire = encode_read(1, 2);
        wire.extend(encode_telemetry());
        wire.extend(encode_shutdown());
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            d.push(&[b]);
            while let Some(r) = d.next_frame() {
                got.push(r.expect("valid"));
            }
        }
        assert_eq!(
            got,
            vec![
                Request::Read { tenant: 1, line: 2 },
                Request::Telemetry,
                Request::Shutdown
            ]
        );
    }

    #[test]
    fn bad_frame_consumes_exactly_itself() {
        // garbage opcode frame followed by a valid one: the decoder must
        // resync on the length prefix alone.
        let mut wire = frame(&[0xEE, 1, 2, 3]);
        wire.extend(encode_read(5, 6));
        let mut d = FrameDecoder::new();
        d.push(&wire);
        assert_eq!(d.next_frame(), Some(Err(ProtoError::BadOpcode(0xEE))));
        assert_eq!(
            d.next_frame(),
            Some(Ok(Request::Read { tenant: 5, line: 6 }))
        );
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(ProtoError::Truncated.code(), 1);
        assert_eq!(ProtoError::Oversize { declared: 9999 }.code(), 2);
        assert_eq!(ProtoError::Empty.code(), 3);
        assert_eq!(ProtoError::BadOpcode(0xFF).code(), 4);
        assert_eq!(
            ProtoError::BadLength {
                opcode: OP_READ,
                got: 3,
                want: 16
            }
            .code(),
            5
        );
    }

    #[test]
    fn response_round_trips() {
        let wire = encode_response(STATUS_OK, b"hello");
        let (status, body, used) = decode_response(&wire).expect("full frame");
        assert_eq!(status, STATUS_OK);
        assert_eq!(body, b"hello");
        assert_eq!(used, wire.len());
    }
}
