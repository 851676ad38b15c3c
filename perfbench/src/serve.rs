//! `pcm-serve` driven over a Unix socket by one closed-loop client, with
//! an in-process `Engine` replay as the oracle of every response.
//!
//! The request stream is the `TrafficGen` write stream, a READ of the
//! just-written line after every [`READ_EVERY`]th write, and a TELEMETRY
//! closing every [`ROUND`] requests; the run ends with a final TELEMETRY
//! and SHUTDOWN. Rounds are encoded, and their expected responses
//! computed, before they are sent, so the timed client loop only writes,
//! reads and compares bytes.

use crate::clock::{now, secs_since, Samples};
use crate::report::Report;
use pcm_core::WriteError;
use pcm_serve::protocol::{
    decode_response, encode_read, encode_response, encode_shutdown, encode_telemetry, encode_write,
    STATUS_OK,
};
use pcm_serve::{Daemon, Engine, FrameDecoder, Request, ServeConfig, Snapshot, TrafficGen};
use pcm_util::Line512;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Requests the client keeps outstanding.
pub const WINDOW: usize = 32;

/// Requests per round; the last one of each round is a TELEMETRY.
pub const ROUND: usize = 16_384;

/// A READ of the just-written line follows every this-many writes.
pub const READ_EVERY: u64 = 4;

/// `pcm-serve`'s default `--seed`: the daemon runs its default
/// configuration, and the benchmark seed only shapes the traffic.
pub const DAEMON_SEED: u64 = 2017;

/// Response code of a write or read to a dead line (protocol table).
const ERR_BAD_ADDRESS: u8 = 6;
const ERR_LINE_DEAD: u8 = 7;

/// How long the client waits for the daemon before giving up.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The daemon's configuration: `pcm-serve` defaults with one shard.
pub fn daemon_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(DAEMON_SEED);
    cfg.shards = 1;
    cfg
}

/// Pre-encoded requests and the exact response frames they must get.
#[derive(Debug, Default)]
pub struct Round {
    frames: Vec<u8>,
    frame_ends: Vec<usize>,
    expected: Vec<u8>,
    expected_ends: Vec<usize>,
}

impl Round {
    fn push(&mut self, frame: &[u8], response: &[u8]) {
        self.frames.extend_from_slice(frame);
        self.frame_ends.push(self.frames.len());
        self.expected.extend_from_slice(response);
        self.expected_ends.push(self.expected.len());
    }

    /// Requests in the round.
    pub fn len(&self) -> usize {
        self.frame_ends.len()
    }

    /// True for an empty round.
    pub fn is_empty(&self) -> bool {
        self.frame_ends.is_empty()
    }

    /// The encoded requests `lo..hi`, contiguous.
    pub fn frames(&self, lo: usize, hi: usize) -> &[u8] {
        let start = if lo == 0 { 0 } else { self.frame_ends[lo - 1] };
        &self.frames[start..self.frame_ends[hi - 1]]
    }

    /// Every encoded request.
    pub fn bytes(&self) -> &[u8] {
        &self.frames
    }

    /// The response frame request `i` must get.
    pub fn expected(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.expected_ends[i - 1] };
        &self.expected[start..self.expected_ends[i]]
    }

    /// Every expected response, concatenated.
    pub fn expected_bytes(&self) -> &[u8] {
        &self.expected
    }
}

/// Per-call host times of the oracle `Engine`.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// `Engine::write`.
    pub write: Samples,
    /// `Engine::read`.
    pub read: Samples,
    /// `Engine::snapshot().render()`.
    pub snapshot: Samples,
}

/// The request stream and its oracle.
pub struct Stream {
    traffic: TrafficGen,
    oracle: Engine,
    /// Last data written to each `(bank, line)`: tenants share bank lines.
    shadow: Vec<Option<Line512>>,
    lines_per_bank: u64,
    writes: u64,
    /// READs where the oracle engine disagreed with the shadow copy.
    pub oracle_mismatches: u64,
}

impl Stream {
    /// The stream for benchmark seed `seed`, against the daemon's
    /// configuration.
    pub fn new(seed: u64) -> Self {
        let daemon = daemon_config();
        // Same fleet geometry as the daemon; only the traffic seed differs.
        let traffic = ServeConfig::new(seed);
        Stream {
            traffic: TrafficGen::new(&traffic),
            shadow: vec![None; daemon.banks * daemon.lines_per_bank as usize],
            lines_per_bank: daemon.lines_per_bank,
            oracle: Engine::new(daemon),
            writes: 0,
            oracle_mismatches: 0,
        }
    }

    /// The oracle engine (final telemetry).
    pub fn oracle(&self) -> &Engine {
        &self.oracle
    }

    /// The next `n` requests, the last a TELEMETRY.
    pub fn round(&mut self, n: usize, mut trace: Option<&mut EngineTrace>) -> Round {
        let mut round = Round::default();
        while round.len() + 1 < n {
            let w = self.traffic.next_write();
            let t = now();
            let result = self.oracle.write(&w);
            if let Some(tr) = trace.as_deref_mut() {
                tr.write.push(t.elapsed());
            }
            let slot =
                self.oracle.bank_of(w.tenant) * self.lines_per_bank as usize + w.line as usize;
            let response = match result {
                Ok(latency) => {
                    self.shadow[slot] = Some(w.data);
                    encode_response(STATUS_OK, &latency.to_le_bytes())
                }
                Err(e) => encode_response(error_code(&e), &[]),
            };
            round.push(&encode_write(w.at, w.tenant, w.line, &w.data), &response);
            self.writes += 1;
            if self.writes.is_multiple_of(READ_EVERY) && round.len() + 1 < n {
                let t = now();
                let got = self.oracle.read(w.tenant, w.line);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.read.push(t.elapsed());
                }
                let oracle_response = match &got {
                    Ok(data) => encode_response(STATUS_OK, &data.to_bytes()),
                    Err(e) => encode_response(error_code(e), &[]),
                };
                let response = match self.shadow[slot] {
                    Some(data) => {
                        if got.as_ref().ok() != Some(&data) {
                            self.oracle_mismatches += 1;
                        }
                        encode_response(STATUS_OK, &data.to_bytes())
                    }
                    None => oracle_response,
                };
                round.push(&encode_read(w.tenant, w.line), &response);
            }
        }
        self.push_telemetry(&mut round, trace);
        round
    }

    /// The closing TELEMETRY and SHUTDOWN.
    pub fn finale(&mut self, trace: Option<&mut EngineTrace>) -> Round {
        let mut round = Round::default();
        self.push_telemetry(&mut round, trace);
        round.push(&encode_shutdown(), &encode_response(STATUS_OK, &[]));
        round
    }

    fn push_telemetry(&mut self, round: &mut Round, trace: Option<&mut EngineTrace>) {
        let t = now();
        let body = self.oracle.snapshot().render();
        if let Some(tr) = trace {
            tr.snapshot.push(t.elapsed());
        }
        round.push(
            &encode_telemetry(),
            &encode_response(STATUS_OK, body.as_bytes()),
        );
    }
}

fn error_code(e: &WriteError) -> u8 {
    match e {
        WriteError::BadAddress => ERR_BAD_ADDRESS,
        WriteError::LineDead { .. } => ERR_LINE_DEAD,
    }
}

/// What the client saw.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Wall seconds inside [`closed_loop`].
    pub wall_s: f64,
    /// Seconds blocked reading the connection.
    pub recv_wait_s: f64,
    /// Send-to-response time of every request.
    pub latency: Samples,
    /// Responses received.
    pub responses: u64,
    /// Responses that differ from the expected frame, plus unexpected
    /// trailing bytes.
    pub mismatches: u64,
    /// LINE_DEAD responses.
    pub line_dead: u64,
    /// Most requests ever outstanding.
    pub max_in_flight: usize,
}

/// Sends `round` over `conn` keeping at most `window` requests
/// outstanding, and compares every response with the expected frame.
///
/// `conn` may be non-blocking: the client then polls, yielding the CPU
/// between attempts, instead of sleeping in `read`. On a VM a sleeping
/// client pays a cross-CPU wake-up per response batch, which made
/// requests/s swing by 2× between otherwise identical runs.
///
/// # Errors
///
/// Connection errors, no progress for 30 s, or the daemon closing early.
pub fn closed_loop<S: Read + Write>(
    conn: &mut S,
    round: &Round,
    window: usize,
    stats: &mut ClientStats,
) -> io::Result<()> {
    let n = round.len();
    let (mut sent, mut done) = (0usize, 0usize);
    let mut sent_at = Vec::with_capacity(n);
    let mut inbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut consumed = 0usize;
    let mut buf = vec![0u8; 1 << 16];
    let start = now();
    while done < n {
        let hi = n.min(done + window);
        if sent < hi {
            let t = now();
            write_all_polling(conn, round.frames(sent, hi))?;
            sent_at.resize(hi, t);
            sent = hi;
            stats.max_in_flight = stats.max_in_flight.max(sent - done);
        }
        let t = now();
        let got = loop {
            match conn.read(&mut buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => stall(t)?,
                r => break r?,
            }
        };
        let arrived = now();
        stats.recv_wait_s += (arrived - t).as_secs_f64();
        if got == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("daemon closed the connection after {done} of {n} responses"),
            ));
        }
        inbox.extend_from_slice(&buf[..got]);
        while done < n {
            let Some((status, _, len)) = decode_response(&inbox[consumed..]) else {
                break;
            };
            if inbox[consumed..consumed + len] != *round.expected(done) {
                stats.mismatches += 1;
            }
            if status == ERR_LINE_DEAD {
                stats.line_dead += 1;
            }
            stats.latency.push(arrived - sent_at[done]);
            consumed += len;
            done += 1;
            stats.responses += 1;
        }
        if consumed == inbox.len() {
            inbox.clear();
            consumed = 0;
        }
    }
    if consumed != inbox.len() {
        stats.mismatches += 1;
    }
    stats.wall_s += secs_since(start);
    Ok(())
}

/// `write_all` that also works on a non-blocking connection.
fn write_all_polling<S: Write>(conn: &mut S, mut bytes: &[u8]) -> io::Result<()> {
    let t = now();
    while !bytes.is_empty() {
        match conn.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => stall(t)?,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One idle poll: yields the CPU, or fails once `since` is [`IO_TIMEOUT`]
/// ago.
fn stall(since: std::time::Instant) -> io::Result<()> {
    if since.elapsed() > IO_TIMEOUT {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no progress on the daemon connection",
        ));
    }
    std::thread::yield_now();
    Ok(())
}

/// A `pcm-serve` child process and the client's connection to it. Dropping
/// it kills the daemon and waits for it.
pub struct DaemonProcess {
    child: Option<Child>,
    conn: UnixStream,
    socket: PathBuf,
}

impl DaemonProcess {
    /// Starts `pcm-serve --duration 0 --unix SOCKET --shards 1` and
    /// connects once the socket accepts.
    ///
    /// # Errors
    ///
    /// Spawn failure, or the daemon exiting or not listening within 10 s.
    pub fn start(bin: &Path, socket: &Path) -> io::Result<Self> {
        let _ = std::fs::remove_file(socket);
        let mut child = Command::new(bin)
            .args(["--duration", "0", "--shards", "1", "--unix"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", bin.display())))?;
        let start = now();
        loop {
            match UnixStream::connect(socket) {
                Ok(conn) => {
                    conn.set_nonblocking(true)?;
                    return Ok(DaemonProcess {
                        child: Some(child),
                        conn,
                        socket: socket.to_path_buf(),
                    });
                }
                Err(e) => {
                    let exited = child.try_wait()?;
                    if exited.is_some() || secs_since(start) > 10.0 {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::other(format!(
                            "pcm-serve did not accept on {} ({e}; exit {exited:?})",
                            socket.display()
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The client connection.
    pub fn conn(&mut self) -> &mut UnixStream {
        &mut self.conn
    }

    /// Waits up to 10 s for the daemon to exit after a SHUTDOWN.
    ///
    /// # Errors
    ///
    /// The daemon failing or not exiting in time.
    pub fn wait_exit(mut self) -> io::Result<()> {
        let mut child = self
            .child
            .take()
            .expect("daemon child is present until drop");
        let start = now();
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("pcm-serve exited with {status}")))
                };
            }
            if secs_since(start) > 10.0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("pcm-serve did not exit after SHUTDOWN"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The in-process twin: two daemons fed the byte stream the socket
/// carried. One handles whole rounds through `handle_bytes` untimed per
/// call (the in-process handle time); the other times the decoder and
/// every `handle_request`.
pub struct Twin {
    plain: Daemon,
    plain_decoder: FrameDecoder,
    traced: Daemon,
    traced_decoder: FrameDecoder,
    /// Seconds the plain twin spent handling.
    pub plain_s: f64,
    /// Seconds the traced twin spent, timers included.
    pub traced_s: f64,
    /// `FrameDecoder::push` + `next_frame`, per frame.
    pub decode: Samples,
    /// `Daemon::handle_request` per opcode.
    pub write: Samples,
    /// READ handling.
    pub read: Samples,
    /// TELEMETRY handling.
    pub telemetry: Samples,
    /// Responses checked.
    pub responses: u64,
    /// Responses that differ from the expected frame.
    pub mismatches: u64,
}

impl Default for Twin {
    fn default() -> Self {
        Twin {
            plain: Daemon::new(daemon_config()),
            plain_decoder: FrameDecoder::new(),
            traced: Daemon::new(daemon_config()),
            traced_decoder: FrameDecoder::new(),
            plain_s: 0.0,
            traced_s: 0.0,
            decode: Samples::default(),
            write: Samples::default(),
            read: Samples::default(),
            telemetry: Samples::default(),
            responses: 0,
            mismatches: 0,
        }
    }
}

impl Twin {
    /// Feeds one round to both twins and checks their responses.
    pub fn feed(&mut self, round: &Round) {
        let mut out = Vec::with_capacity(round.expected_bytes().len());
        let t = now();
        self.plain
            .handle_bytes(&mut self.plain_decoder, round.bytes(), &mut out);
        self.plain_s += secs_since(t);
        if out != round.expected_bytes() {
            self.mismatches += 1;
        }

        let start = now();
        let t = now();
        self.traced_decoder.push(round.bytes());
        let mut push = Some(t.elapsed());
        let mut i = 0;
        loop {
            let t = now();
            let next = self.traced_decoder.next_frame();
            let decode = t.elapsed() + push.take().unwrap_or_default();
            let Some(frame) = next else { break };
            self.decode.push(decode);
            let Ok(request) = frame else {
                self.mismatches += 1;
                continue;
            };
            let t = now();
            let (response, _) = self.traced.handle_request(&request);
            let spent = t.elapsed();
            match request {
                Request::Write { .. } => self.write.push(spent),
                Request::Read { .. } => self.read.push(spent),
                Request::Telemetry => self.telemetry.push(spent),
                Request::Shutdown => {}
            }
            self.responses += 1;
            if i >= round.len() || response != round.expected(i) {
                self.mismatches += 1;
            }
            i += 1;
        }
        self.traced_s += secs_since(start);
        if i != round.len() {
            self.mismatches += 1;
        }
    }
}

/// Everything the serve workload needs before its timed phase.
pub struct Setup {
    /// The request stream.
    pub stream: Stream,
    /// The first round, already encoded.
    pub first: Round,
    /// The running daemon.
    pub daemon: DaemonProcess,
}

/// Builds the stream and its first round, and starts the daemon.
///
/// # Errors
///
/// As [`DaemonProcess::start`].
pub fn setup(
    bin: &Path,
    socket: &Path,
    seed: u64,
    trace: Option<&mut EngineTrace>,
) -> io::Result<Setup> {
    let mut stream = Stream::new(seed);
    let first = stream.round(ROUND, trace);
    let daemon = DaemonProcess::start(bin, socket)?;
    Ok(Setup {
        stream,
        first,
        daemon,
    })
}

/// The outcome of one socket run.
#[derive(Debug, Default)]
pub struct Drive {
    /// Requests per second of each timed round.
    pub round_rates: Vec<f64>,
    /// Median latency of each timed round, µs.
    pub round_p50_us: Vec<f64>,
    /// 99th-percentile latency of each timed round, µs.
    pub round_p99_us: Vec<f64>,
    /// Client view of the timed rounds.
    pub stats: ClientStats,
    /// Peak RSS of the daemon, MiB.
    pub daemon_rss_mib: f64,
    /// The oracle's final telemetry.
    pub oracle: Option<Snapshot>,
}

/// Sends rounds until `seconds` of socket time or `max_rounds` rounds have
/// passed, then the finale, and waits for the daemon to exit. Every
/// response is counted in `report`; with `trace`, the oracle is timed and
/// every round is fed to the twin too.
///
/// # Errors
///
/// Socket or process failures.
pub fn drive(
    setup: Setup,
    seconds: f64,
    max_rounds: usize,
    mut trace: Option<(&mut EngineTrace, &mut Twin)>,
    report: &mut Report,
) -> io::Result<Drive> {
    let Setup {
        mut stream,
        first,
        mut daemon,
    } = setup;
    let mut out = Drive::default();
    let mut round = first;
    let mut requests = 0u64;
    loop {
        let before = out.stats.wall_s;
        let first = out.stats.latency.len();
        closed_loop(daemon.conn(), &round, WINDOW, &mut out.stats)?;
        out.round_rates
            .push(round.len() as f64 / (out.stats.wall_s - before));
        let latency = &out.stats.latency;
        out.round_p50_us
            .push(latency.percentile_ns_since(first, 0.5) / 1e3);
        out.round_p99_us
            .push(latency.percentile_ns_since(first, 0.99) / 1e3);
        requests += round.len() as u64;
        if let Some((_, twin)) = trace.as_mut() {
            twin.feed(&round);
        }
        if out.stats.wall_s >= seconds || out.round_rates.len() >= max_rounds {
            break;
        }
        round = stream.round(ROUND, trace.as_mut().map(|(e, _)| &mut **e));
    }
    out.daemon_rss_mib = crate::clock::peak_rss_mib(Some(daemon.pid())).unwrap_or(0.0);

    let finale = stream.finale(trace.as_mut().map(|(e, _)| &mut **e));
    let mut closing = ClientStats::default();
    closed_loop(daemon.conn(), &finale, WINDOW, &mut closing)?;
    if let Some((_, twin)) = trace.as_mut() {
        twin.feed(&finale);
    }
    daemon.wait_exit()?;

    // One check per request: it got exactly the expected response, and
    // the oracle's own reads agreed with the shadow copy.
    let total = requests + finale.len() as u64;
    let responses = out.stats.responses + closing.responses;
    let failed = total.saturating_sub(responses)
        + out.stats.mismatches
        + closing.mismatches
        + stream.oracle_mismatches;
    report.tally(total, failed.min(total), || {
        format!(
            "{} of {total} requests unanswered, {} responses differ from the oracle, \
             {} oracle reads differ from the shadow copy",
            total.saturating_sub(responses),
            out.stats.mismatches + closing.mismatches,
            stream.oracle_mismatches
        )
    });
    out.stats.line_dead += closing.line_dead;
    out.oracle = Some(stream.oracle().snapshot());
    Ok(out)
}

/// Records the traced serve metrics.
pub fn layer_metrics(engine: &EngineTrace, twin: &Twin, drive: &Drive, report: &mut Report) {
    report.tally(twin.responses, twin.mismatches.min(twin.responses), || {
        "in-process twin responses that differ from the oracle".into()
    });
    report.metric(
        "protocol.decode_ns",
        twin.decode.total_ns() / twin.decode.len().max(1) as f64,
        "ns",
    );
    report.metric("daemon.write_ns_p50", twin.write.percentile_ns(0.5), "ns");
    report.metric("daemon.write_ns_p99", twin.write.percentile_ns(0.99), "ns");
    report.metric("daemon.read_ns_p50", twin.read.percentile_ns(0.5), "ns");
    report.metric(
        "daemon.telemetry_ns_p50",
        twin.telemetry.percentile_ns(0.5),
        "ns",
    );
    report.metric("engine.write_ns_p50", engine.write.percentile_ns(0.5), "ns");
    report.metric(
        "engine.write_ns_p99",
        engine.write.percentile_ns(0.99),
        "ns",
    );
    report.metric("engine.read_ns_p50", engine.read.percentile_ns(0.5), "ns");
    report.metric(
        "telemetry.snapshot_ns",
        engine.snapshot.percentile_ns(0.5),
        "ns",
    );
    let stats = &drive.stats;
    report.metric("client.recv_wait_s", stats.recv_wait_s, "s");
    report.metric(
        "client.busy_frac",
        1.0 - stats.recv_wait_s / stats.wall_s,
        "frac",
    );
    report.metric(
        "serve.socket_frac",
        1.0 - twin.plain_s / stats.wall_s,
        "frac",
    );
    report.metric("serve.line_dead", stats.line_dead as f64, "count");
    if let Some(snap) = &drive.oracle {
        report.metric("serve.writes", snap.writes as f64, "count");
        report.metric("serve.reads", snap.reads as f64, "count");
        report.metric("serve.compressed_frac", snap.compressed_fraction, "frac");
    }
}
