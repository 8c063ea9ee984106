# Developer entry points. `just check` is what CI runs; everything works
# offline (dependencies are vendored path crates under vendor/).

# Build, test and lint — the full CI gate.
check: build test clippy fmt-check

# Release build of every crate.
build:
    cargo build --release --workspace

# Tier-1 tests (root package, as the roadmap's verify command) plus the
# whole workspace.
test:
    cargo test -q
    cargo test -q --workspace

# Lint with warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Alias for clippy (matches the CI step name).
lint: clippy

# Formatting check (non-mutating).
fmt-check:
    cargo fmt --all --check

# Reformat the tree.
fmt:
    cargo fmt --all

# Regenerate the paper's figures and their BENCH_*.json reports.
figures:
    cargo run --release -p skelcl-bench --bin fig4_mandelbrot
    cargo run --release -p skelcl-bench --bin fig5_sobel
    cargo run --release -p skelcl-bench --bin scaling
    cargo run --release -p skelcl-bench --bin interp
    cargo run --release -p skelcl-bench --bin loc_table

# A/B the two vgpu execution engines (EXT-INTERP): pooled fast engine vs
# legacy lockstep, with bit-identical-output checks and spawn accounting.
bench-interp:
    cargo run --release -p skelcl-bench --bin interp

# A/B the two compile pipelines (EXT-IR): legacy stack codegen vs the MIR
# optimization passes, per pass and end-to-end. Same binary as
# bench-interp — the EXT-IR section is the second half of its report.
bench-ir:
    cargo run --release -p skelcl-bench --bin interp

# A/B the plan rewrite rules (EXT-PLAN): map → stencil → reduce lowered
# staged (SKELCL_PLAN=0) vs rewritten (SKELCL_PLAN=1), with launch and
# intermediate-byte accounting. The EXT-PLAN section is part of the
# scaling binary's report (`results.plan` in BENCH_scaling.json).
bench-plan:
    cargo run --release -p skelcl-bench --bin scaling

# A/B the out-of-core streaming executor (EXT-STREAM): map → stencil →
# reduce under a 256 KiB per-device budget, streamed (SKELCL_STREAM=2)
# vs the non-streamed oracle (SKELCL_STREAM=0), with peak-residency,
# hidden-transfer and bit-identity accounting. The EXT-STREAM section is
# part of the scaling binary's report (`results.stream` in
# BENCH_scaling.json).
bench-stream:
    cargo run --release -p skelcl-bench --bin scaling

# Regenerate the reports into a scratch directory and diff them against
# the committed baselines in bench/baselines/ (exits non-zero on any
# regression — see crates/skelcl-bench/src/gate.rs for the rules).
bench-gate:
    rm -rf target/bench-fresh && mkdir -p target/bench-fresh
    SKELCL_BENCH_DIR=target/bench-fresh cargo run --release -p skelcl-bench --bin fig4_mandelbrot
    SKELCL_BENCH_DIR=target/bench-fresh cargo run --release -p skelcl-bench --bin fig5_sobel
    SKELCL_BENCH_DIR=target/bench-fresh cargo run --release -p skelcl-bench --bin scaling
    SKELCL_BENCH_DIR=target/bench-fresh cargo run --release -p skelcl-bench --bin interp
    cargo run --release -p skelcl-bench --bin bench_gate -- bench/baselines target/bench-fresh

# Refresh the committed baselines after an intentional perf change.
bench-baseline:
    SKELCL_BENCH_DIR=bench/baselines cargo run --release -p skelcl-bench --bin fig4_mandelbrot
    SKELCL_BENCH_DIR=bench/baselines cargo run --release -p skelcl-bench --bin fig5_sobel
    SKELCL_BENCH_DIR=bench/baselines cargo run --release -p skelcl-bench --bin scaling
    SKELCL_BENCH_DIR=bench/baselines cargo run --release -p skelcl-bench --bin interp

# The standalone end-to-end benchmark crate (bench/e2e, what BENCHMARK.json
# runs) is outside the workspace, so `just test` never compiles it: build
# it against the current `skelcl-kernel`/`vgpu`/`skelcl` public signatures,
# run its unit tests, then its smoke test (all six workloads, untraced and
# traced, every result checked; ~15 s).
bench-e2e-quick:
    cargo test --release --offline --manifest-path bench/e2e/Cargo.toml
    cargo run --release --offline --manifest-path bench/e2e/Cargo.toml -- quick

# Quickstart with profiling: prints the metrics summary and writes
# trace.json for chrome://tracing.
trace:
    SKELCL_TRACE=trace.json cargo run --release -p skelcl-repro --example quickstart

# Full observability demo: 2-GPU dot product with the Chrome trace (flow
# arrows + counter tracks) and the flight recorder, dumping the ring at
# the end of the run.
trace-demo:
    SKELCL_TRACE=trace_demo.json SKELCL_FLIGHT=1024 cargo run --release -p skelcl-repro --example trace_demo
