#!/bin/bash
# Regenerates every table and figure into results/ via the experiment
# registry (`pcm-lab run-all`); there is no per-experiment binary list to
# maintain — registering an Experiment is enough to be picked up here.
#
# Flags consumed by this script (everything else — --quick, --seed N,
# --apps a,b,c — is passed through to `pcm-lab run-all`):
#   --bench-smoke   run the hot-path bench harness in smoke mode (seconds,
#                   for the CI gate) instead of the full calibrated run
#   --diff          after regenerating, re-run `pcm-lab diff` against the
#                   freshly written results/ and fail non-zero on drift
set -u
cd /root/repo

# Warnings are errors for everything the gate builds below.
export RUSTFLAGS="-D warnings"

# Split our own flags from the passthrough args: pcm-lab aborts on flags
# it doesn't know. pcm-verify only understands --seed, so that is the one
# experiment option it also receives.
BENCH_SMOKE=0
RUN_DIFF=0
EXPECT_SEED=0
PASSTHROUGH=()
VERIFY_ARGS=()
for arg in "$@"; do
  if [ "$EXPECT_SEED" = 1 ]; then
    VERIFY_ARGS+=("$arg")
    PASSTHROUGH+=("$arg")
    EXPECT_SEED=0
    continue
  fi
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --diff) RUN_DIFF=1 ;;
    --seed) EXPECT_SEED=1; VERIFY_ARGS+=("$arg"); PASSTHROUGH+=("$arg") ;;
    *) PASSTHROUGH+=("$arg") ;;
  esac
done
set -- ${PASSTHROUGH[@]+"${PASSTHROUGH[@]}"}

mkdir -p results

# Style gate: formatting drift fails the run before anything expensive.
echo "== fmt check =="
if ! cargo fmt --all --check > results/fmt.txt 2>&1; then
  echo "   FMT CHECK FAILED (run 'cargo fmt'; see results/fmt.txt)" >&2
  tail -n 20 results/fmt.txt >&2
  exit 1
fi
echo "   ok"

# Static-analysis gate: determinism & hygiene lints (DESIGN.md §11) run
# before anything expensive is built. pcm-audit is dependency-free, so
# this compiles in seconds even on a cold target/. Fails non-zero on any
# finding no inline pragma covers; --quick does not skip it.
echo "== audit =="
if ! /usr/bin/timeout 600 cargo run -q --release -p pcm-audit --bin pcm-audit > results/audit.txt 2>&1; then
  echo "   AUDIT FAILED (see results/audit.txt)" >&2
  tail -n 30 results/audit.txt >&2
  exit 1
fi
# Machine-readable twin of the report above: the same scan, emitted as
# JSON for tooling (and diffed by artifact-sync, so it cannot go stale).
if ! /usr/bin/timeout 600 cargo run -q --release -p pcm-audit --bin pcm-audit -- --json > results/audit.json 2>&1; then
  echo "   AUDIT --json FAILED (see results/audit.json)" >&2
  tail -n 30 results/audit.json >&2
  exit 1
fi
echo "   ok ($(wc -l < results/audit.txt) lines)"

cargo build -q --release -p pcm-bench 2>/dev/null

# Verification gate: the fault-injection churn matrix and the differential
# replay-vs-engine oracle (see DESIGN.md "Verification") must pass before
# any figures are regenerated. A mismatch aborts the whole run non-zero.
echo "== verify =="
if ! /usr/bin/timeout 3000 cargo run -q --release --bin pcm-verify -- ${VERIFY_ARGS[@]+"${VERIFY_ARGS[@]}"} > results/verify.txt 2>&1; then
  echo "   VERIFY FAILED (see results/verify.txt)" >&2
  tail -n 20 results/verify.txt >&2
  exit 1
fi
# The harness checks itself (DESIGN.md §8): with the ECC mutation switches
# compiled in, the churn checks must catch a mis-wired ECP pointer and a
# mis-mapped SAFER partition, or the green runs above prove nothing.
if ! /usr/bin/timeout 1200 cargo test -q --release --offline -p pcm-core \
    --features verify-mutations mutation_tests >> results/verify.txt 2>&1; then
  echo "   VERIFY SELF-CHECK FAILED (see results/verify.txt)" >&2
  tail -n 20 results/verify.txt >&2
  exit 1
fi
echo "   ok ($(wc -l < results/verify.txt) lines)"

# Example smoke: the documented entry points must build and run.
echo "== examples =="
for ex in quickstart lifetime_campaign; do
  if ! /usr/bin/timeout 600 cargo run -q --release --example $ex -- --quick > results/example_$ex.txt 2>&1; then
    echo "   EXAMPLE $ex FAILED (see results/example_$ex.txt)" >&2
    tail -n 20 results/example_$ex.txt >&2
    exit 1
  fi
done
echo "   ok"

# Repo benchmark build: `perfbench/` is a cargo workspace of its own that
# drives the library crates' public API, so nothing else here compiles it.
# Its tests build it under this script's -D warnings and check its
# wrappers and a small campaign, so an API change that breaks the
# benchmark fails here rather than in a benchmark run.
echo "== perfbench =="
if ! CARGO_TARGET_DIR=target /usr/bin/timeout 1200 cargo test --release --offline \
    --manifest-path perfbench/Cargo.toml > results/perfbench.txt 2>&1; then
  echo "   PERFBENCH FAILED (see results/perfbench.txt)" >&2
  tail -n 20 results/perfbench.txt >&2
  exit 1
fi
echo "   ok"

# Hot-path benchmark: full calibrated run refreshes BENCH_hotpath.json;
# --bench-smoke instead does a seconds-long sanity pass for the gate.
# Either way the fresh run is ratcheted against the committed report
# before overwriting it: checksum drift or a bench falling under the
# throughput floor fails the stage.
echo "== bench hotpath =="
if [ "$BENCH_SMOKE" = 1 ]; then
  BENCH_ARGS=(--smoke --out results/BENCH_hotpath_smoke.json
              --ratchet results/BENCH_hotpath_smoke.json)
else
  BENCH_ARGS=(--out BENCH_hotpath.json --ratchet BENCH_hotpath.json)
fi
if ! /usr/bin/timeout 3000 cargo run -q --release -p pcm-bench --bin pcm-bench-hotpath -- "${BENCH_ARGS[@]}" > results/bench_hotpath.txt 2>&1; then
  echo "   BENCH FAILED (see results/bench_hotpath.txt)" >&2
  tail -n 20 results/bench_hotpath.txt >&2
  exit 1
fi
echo "   ok ($(wc -l < results/bench_hotpath.txt) lines)"

# Serve smoke: a short seeded daemon run must come up, serve the built-in
# open-loop generator in virtual time, report sane telemetry, and exit
# cleanly. The replay suite (tests/serve_replay.rs) owns the byte-identity
# guarantees; this stage guards the binary's end-to-end wiring.
echo "== serve =="
if ! /usr/bin/timeout 600 cargo run -q --release -p pcm-serve --bin pcm-serve -- \
    --seed 7 --shards 4 --duration 200000 > results/serve.txt 2>&1; then
  echo "   SERVE FAILED (see results/serve.txt)" >&2
  tail -n 20 results/serve.txt >&2
  exit 1
fi
if ! grep -q "pcm-serve telemetry @ cycle" results/serve.txt \
    || ! grep -q "wear_digests " results/serve.txt; then
  echo "   SERVE SMOKE MISSING TELEMETRY (see results/serve.txt)" >&2
  tail -n 20 results/serve.txt >&2
  exit 1
fi
echo "   ok ($(wc -l < results/serve.txt) lines)"

# Rival-stack gate: the pluggable-scheme grid must push WoLFRaM and
# restricted coset coding end-to-end through the unmodified controller
# loop (DESIGN.md §14) before the full matrix regenerates. run-all
# refreshes the same experiment at full scale afterwards; this quick pass
# fails fast if a registry stack stops composing.
echo "== rivals =="
if ! /usr/bin/timeout 600 cargo run -q --release -p pcm-bench --bin pcm-lab -- \
    run rival_lifetime --quick > results/rivals.txt 2>&1; then
  echo "   RIVALS FAILED (see results/rivals.txt)" >&2
  tail -n 20 results/rivals.txt >&2
  exit 1
fi
echo "   ok ($(wc -l < results/rivals.txt) lines)"

# Experiment matrix: every registered experiment, deterministic order,
# results/<name>.txt + results/<name>.json.
echo "== experiments =="
if ! /usr/bin/timeout 36000 cargo run -q --release -p pcm-bench --bin pcm-lab -- \
    run-all --out-dir results "$@"; then
  echo "   RUN-ALL FAILED" >&2
  exit 1
fi

# Drift gate: re-run each tracked report at its recorded seed/scale and
# compare within the per-statistic tolerance bands.
if [ "$RUN_DIFF" = 1 ]; then
  echo "== diff =="
  if ! /usr/bin/timeout 36000 cargo run -q --release -p pcm-bench --bin pcm-lab -- diff; then
    echo "   DIFF FAILED (results/ drifted out of tolerance)" >&2
    exit 1
  fi
fi
