//! The trace and compression layers, timed on their own over a workload's
//! apps: `BlockStream::next_data` then `compress_best_into` on the same
//! blocks.

use crate::clock::{now, secs_since};
use crate::report::Report;
use pcm_compress::compress_best_into;
use pcm_trace::{BlockStream, SpecApp};
use pcm_util::{child_seed, Line512, DATA_BYTES};
use std::hint::black_box;

/// Block streams per app: one stream follows a single block's rewrites,
/// whose content class is sticky, so averages need many streams.
pub const STREAMS_PER_APP: usize = 256;

/// Writes drawn from each stream.
pub const BLOCKS_PER_STREAM: usize = 128;

/// Records `trace.ns_per_block` and `compress.*` over `apps`.
pub fn trace_and_compress(apps: &[SpecApp], seed: u64, report: &mut Report) {
    let per_app = STREAMS_PER_APP * BLOCKS_PER_STREAM;
    let mut blocks: Vec<Line512> = Vec::with_capacity(apps.len() * per_app);
    let mut trace_s = 0.0;
    for (i, app) in apps.iter().enumerate() {
        for s in 0..STREAMS_PER_APP {
            let stream_seed = child_seed(seed, (0x7ACE + i * STREAMS_PER_APP + s) as u64);
            let mut stream = BlockStream::new(app.profile(), stream_seed);
            let t = now();
            for _ in 0..BLOCKS_PER_STREAM {
                blocks.push(stream.next_data());
            }
            trace_s += secs_since(t);
        }
    }

    let mut out = [0u8; DATA_BYTES];
    let (mut bytes, mut hits) = (0usize, 0usize);
    let t = now();
    for line in &blocks {
        let (method, len) = compress_best_into(black_box(line), &mut out);
        bytes += len;
        hits += usize::from(method.is_compressed());
    }
    let compress_s = secs_since(t);
    black_box(&out);

    let n = blocks.len() as f64;
    report.metric("trace.ns_per_block", trace_s * 1e9 / n, "ns");
    report.metric("compress.ns_per_line", compress_s * 1e9 / n, "ns");
    report.metric("compress.mean_bytes", bytes as f64 / n, "bytes");
    report.metric("compress.hit_frac", hits as f64 / n, "frac");
}
