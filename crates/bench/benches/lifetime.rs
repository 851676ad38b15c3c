//! The lifetime engine's hot paths: one managed-line write and one
//! accelerated line simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use pcm_compress::compress_best;
use pcm_core::lifetime::{simulate_line, LineSimConfig};
use pcm_core::line::{ManagedLine, Payload};
use pcm_core::{EccChoice, SystemConfig, SystemKind};
use pcm_trace::{BlockStream, SpecApp};
use std::hint::black_box;

fn bench_managed_line_write(c: &mut Criterion) {
    let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
    let mut stream = BlockStream::new(SpecApp::Milc.profile(), 3);
    c.bench_function("line/write_compressed", |b| {
        b.iter(|| {
            let data = stream.next_data();
            let cw = compress_best(&data);
            line.write(
                EccChoice::Ecp6,
                Payload {
                    method: cw.method(),
                    bytes: cw.bytes(),
                },
                black_box(0),
                true,
                1,
            )
            .expect("healthy line")
        })
    });
}

fn bench_line_simulation(c: &mut Criterion) {
    let system = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(2_000.0);
    let mut cfg = LineSimConfig::new(system, SpecApp::Milc.profile());
    cfg.sample_writes = 8;
    c.bench_function("lifetime/simulate_line_milc_wf", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simulate_line(black_box(&cfg), seed)
        })
    });
}

criterion_group!(benches, bench_managed_line_write, bench_line_simulation);
criterion_main!(benches);
