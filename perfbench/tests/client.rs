//! The closed-loop client against an in-process daemon behind a fake
//! connection that counts what is outstanding on the daemon's side.

use pcm_perfbench::serve::{self, closed_loop, ClientStats, Stream, WINDOW};
use pcm_serve::protocol::decode_response;
use pcm_serve::{Daemon, FrameDecoder};
use std::io::{self, Read, Write};

/// Answers each write at once and hands responses back in small pieces,
/// so the client sees split frames.
struct FakeConn {
    daemon: Daemon,
    decoder: FrameDecoder,
    out: Vec<u8>,
    read_pos: usize,
    response_ends: Vec<usize>,
    requests: usize,
    max_outstanding: usize,
    /// Index of a response to damage.
    corrupt: Option<usize>,
}

impl FakeConn {
    fn new() -> Self {
        FakeConn {
            daemon: Daemon::new(serve::daemon_config()),
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            read_pos: 0,
            response_ends: Vec::new(),
            requests: 0,
            max_outstanding: 0,
            corrupt: None,
        }
    }

    fn responses_read(&self) -> usize {
        self.response_ends
            .partition_point(|&end| end <= self.read_pos)
    }
}

impl Write for FakeConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut fresh = Vec::new();
        self.daemon.handle_bytes(&mut self.decoder, buf, &mut fresh);
        let mut at = 0;
        while let Some((_, _, len)) = decode_response(&fresh[at..]) {
            if self.corrupt == Some(self.requests) {
                fresh[at + len - 1] ^= 1;
            }
            at += len;
            self.requests += 1;
            self.response_ends.push(self.out.len() + at);
        }
        assert_eq!(at, fresh.len(), "daemon wrote a partial response");
        self.out.extend_from_slice(&fresh);
        self.max_outstanding = self
            .max_outstanding
            .max(self.requests - self.responses_read());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for FakeConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(100).min(self.out.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.out[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

#[test]
fn client_keeps_the_window_and_gets_one_response_per_request() {
    let mut stream = Stream::new(3);
    let rounds = [
        stream.round(3_000, None),
        stream.round(1_000, None),
        stream.finale(None),
    ];
    let total: usize = rounds.iter().map(|r| r.len()).sum();
    let mut conn = FakeConn::new();
    let mut stats = ClientStats::default();
    for round in &rounds {
        closed_loop(&mut conn, round, WINDOW, &mut stats).expect("in-process daemon answers");
    }
    assert_eq!(conn.requests, total);
    assert_eq!(stats.responses as usize, total);
    assert_eq!(
        conn.read_pos,
        conn.out.len(),
        "every response byte consumed"
    );
    assert_eq!(conn.max_outstanding, WINDOW);
    assert_eq!(stats.max_in_flight, WINDOW);
    assert_eq!(stats.latency.len(), total);
    assert_eq!(stats.mismatches, 0, "responses differ from the oracle");
    assert_eq!(stream.oracle_mismatches, 0);
    assert!(conn.daemon.shutdown_requested());
}

#[test]
fn a_wrong_response_counts_as_a_mismatch() {
    let mut stream = Stream::new(3);
    let round = stream.round(500, None);
    let mut conn = FakeConn::new();
    conn.corrupt = Some(123);
    let mut stats = ClientStats::default();
    closed_loop(&mut conn, &round, WINDOW, &mut stats).expect("in-process daemon answers");
    assert_eq!(stats.responses as usize, round.len());
    assert_eq!(stats.mismatches, 1);
}
