//! Workload-generation and controller-policy hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcm_core::window;
use pcm_core::CompressionHeuristic;
use pcm_ecc::Ecp;
use pcm_trace::{BlockStream, SpecApp, TraceGenerator};
use pcm_util::fault::{FaultMap, StuckAt};
use std::hint::black_box;

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    for app in [SpecApp::Milc, SpecApp::Gcc, SpecApp::Lbm] {
        group.bench_with_input(
            BenchmarkId::new("next_write", app.name()),
            &app,
            |b, &app| {
                let mut g = TraceGenerator::from_profile(app.profile(), 1024, 7);
                b.iter(|| g.next_write())
            },
        );
    }
    group.bench_function("block_stream/next_data", |b| {
        let mut s = BlockStream::new(SpecApp::Bzip2.profile(), 9);
        b.iter(|| s.next_data())
    });
    group.finish();
}

fn bench_window_ops(c: &mut Criterion) {
    let faults: FaultMap = (0..24u16)
        .map(|i| StuckAt {
            pos: i * 21,
            value: i % 2 == 0,
        })
        .collect();
    let ecp = Ecp::new(6);
    c.bench_function("window/find_offset_24faults", |b| {
        b.iter(|| window::find_offset(&ecp, black_box(&faults), 24, 17, 1))
    });
    let payload = [0xABu8; 24];
    let base = pcm_util::Line512::ones();
    c.bench_function("window/place_wrapped", |b| {
        b.iter(|| window::place(black_box(&base), 50, black_box(&payload)))
    });
}

fn bench_heuristic(c: &mut Criterion) {
    let h = CompressionHeuristic::paper();
    c.bench_function("heuristic/decide", |b| {
        let mut sc = 0u8;
        let mut size = 10usize;
        b.iter(|| {
            size = (size * 7 + 3) % 64 + 1;
            let (d, new_sc) = h.decide(size, 32, sc);
            sc = new_sc;
            d
        })
    });
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_window_ops,
    bench_heuristic
);
criterion_main!(benches);
