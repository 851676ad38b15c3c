#!/bin/bash
# Fixture gate script: carries every required stage marker and driver
# invocation, so `gate-stages` must stay silent.
set -u

echo "== fmt check =="
cargo fmt --all --check

echo "== audit =="
cargo run -q --release -p pcm-audit --bin pcm-audit
cargo run -q --release -p pcm-audit --bin pcm-audit -- --json > results/audit.json

cargo build -q --release -p pcm-bench

echo "== verify =="
cargo run -q --release --bin pcm-verify

echo "== examples =="
cargo run -q --release --example quickstart -- --quick

echo "== perfbench =="
CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== bench hotpath =="
cargo run -q --release -p pcm-bench --bin pcm-bench-hotpath -- --smoke

echo "== serve =="
cargo run -q --release -p pcm-serve --bin pcm-serve -- --seed 7 --duration 100000

echo "== rivals =="
cargo run -q --release -p pcm-bench --bin pcm-lab -- run rival_lifetime --quick > results/rivals.txt

echo "== experiments =="
cargo run -q --release -p pcm-bench --bin pcm-lab -- run-all --out-dir results
