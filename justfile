# Developer entry points. `just check` is what CI runs; everything works
# offline (dependencies are vendored path crates under vendor/).

# Build, test and lint — the full CI gate.
check: build test clippy fmt-check

# Release build of every crate.
build:
    cargo build --release --workspace

# Tier-1 tests (root package, as the roadmap's verify command) plus the
# whole workspace, then the VM and the engine once more in release: the lane
# loops are where a release-only difference (overflow checks off, different
# inlining) would first show.
test:
    cargo test -q
    cargo test -q --workspace
    cargo test --release -q -p vgpu -p skelcl-kernel

# Lint with warnings denied.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Clippy, then rustdoc with warnings denied over the workspace's own
# packages (matches the CI step name). Not `--workspace`: the vendored
# crates' docs are not ours to fix.
lint: clippy
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p skelcl -p skelcl-kernel -p vgpu -p skelcl-profile -p skelcl-bench -p skelcl-repro

# Formatting check (non-mutating).
fmt-check:
    cargo fmt --all --check

# Reformat the tree.
fmt:
    cargo fmt --all

# Rust line counts per crate and in total over crates/ tests/ src/ examples/
# — the number ROADMAP quotes, so a "falling line count" is reproducible.
loc:
    @for d in crates/* tests src examples; do printf '%8d  %s\n' "$(find "$d" -name '*.rs' -print0 | xargs -0 cat | wc -l)" "$d"; done
    @printf '%8d  total\n' "$(find crates tests src examples -name '*.rs' -print0 | xargs -0 cat | wc -l)"

# Regenerate every golden file from the current code (the three `--ignored`
# regenerators: the kernel compiler's emit corpus, the container coherence
# corpus and the reduce/weld launch goldens), then list the goldens that
# moved, so a change shows exactly which pinned outputs it altered.
goldens:
    cargo test -q -p skelcl-kernel --test emit_golden -- --ignored
    cargo test -q -p skelcl --test coherence_golden -- --ignored
    cargo test -q -p skelcl --test fusion -- --ignored
    git status --short -- '*.golden'

# Per-layer ledger of the kernel compiler over
# crates/skelcl-kernel/tests/corpus (the seven welded skeleton kernels and
# the six raw benchmark kernels): median µs per set for every compile stage
# and every MIR pass, and the MIR sizes the passes work on.
compile-prof reps="300":
    cargo run --release -p skelcl-kernel --example compile_prof -- {{reps}}

# Per-lane ledger of the group executor over the raw Mandelbrot, Sobel,
# zip-multiply and tree-reduce corpus kernels and the welded `skelcl_map`
# Mandelbrot kernel on 256-lane 1-D groups (one WorkGroup over
# HostMemory): lane-ops, group steps and lane utilisation per launch, and
# the median host ns per lane-op over `reps` launches.
lane-prof reps="20":
    cargo run --release -p skelcl-kernel --example lane_prof -- {{reps}}

# Regenerate the paper's figures and their BENCH_*.json reports.
figures:
    cargo run --release -p skelcl-bench --bin fig4_mandelbrot
    cargo run --release -p skelcl-bench --bin fig5_sobel
    cargo run --release -p skelcl-bench --bin scaling
    cargo run --release -p skelcl-bench --bin interp
    cargo run --release -p skelcl-bench --bin loc_table

# EXT-INTERP / EXT-IR: executed ops and dispatches per compiler pass
# (base: no passes) and the production run's counters and histograms, all
# deterministic. Writes BENCH_interp.json.
bench-interp:
    cargo run --release -p skelcl-bench --bin interp

# EXT-SCALE with the EXT-PLAN (`results.plan`: staged oracle vs rewrite
# rules, launches and intermediate bytes) and EXT-STREAM (`results.stream`:
# streamed under a 256 KiB device budget vs the non-streamed oracle, peak
# residency, hidden transfers, bit-identity) and EXT-REDIST
# (`results.redist`: redistribution round trips and a cold vs warm `Map`,
# with their transfer counters) sections. Writes BENCH_scaling.json.
bench-scaling:
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

# A/B of this tree against another checkout of the repository (say, the
# parent commit cloned into a scratch directory): builds bench/e2e in both,
# runs `pairs` 15 s pairs per workload and seed — the parent first in odd
# pairs, this tree first in even ones — and prints per seed `compare` and,
# per workload, the claim rule for a lower `iter_ms_p50`: pairs this tree
# won (pair i is the i-th record of the workload in each file), both
# medians, the parent's interquartile range, and `holds: yes` iff it won
# at least 9 pairs in 10 and its median is lower by more than that range. A `worse` row does not
# stop the run: both seeds always run, the recipe ends with each seed's
# count of `worse` rows and exits non-zero if any seed had one. All six
# workloads unless some are named: `just bench-ab ../parent sobel dot`.
# Records go to target/bench-ab/{a,b}-<seed>.jsonl (a = the other
# checkout), each seed's `compare` table to target/bench-ab/compare-<seed>.txt.
bench-ab parent *workloads:
    #!/usr/bin/env bash
    set -euo pipefail
    pairs="${PAIRS:-10}"; seconds="${SECONDS_PER_RUN:-15}"; out=target/bench-ab
    workloads="{{workloads}}"
    [ -n "$workloads" ] || workloads="mandelbrot sobel dot stream_pipeline small_calls compile_cold"
    cargo build --release --offline --manifest-path "{{parent}}/bench/e2e/Cargo.toml"
    cargo build --release --offline --manifest-path bench/e2e/Cargo.toml
    rm -rf "$out" && mkdir -p "$out"
    cp "{{parent}}/bench/e2e/target/release/skelcl-e2e" "$out/a"
    cp bench/e2e/target/release/skelcl-e2e "$out/b"
    status=0; summary=""
    for seed in 20130901 777; do
      for workload in $workloads; do
        for pair in $(seq "$pairs"); do
          if [ $((pair % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
          for side in $order; do
            "$out/$side" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
              --trace 0 --out "$out/$side-$seed.jsonl" > /dev/null
          done
        done
      done
      "$out/b" compare "$out/a-$seed.jsonl" "$out/b-$seed.jsonl" > "$out/compare-$seed.txt" || status=1
      cat "$out/compare-$seed.txt"
      summary="$summary seed $seed: $(tail -n 1 "$out/compare-$seed.txt");"
      awk -v seed="$seed" '
        match($0, /"workload":"[^"]*"/) { w = substr($0, RSTART + 12, RLENGTH - 13) }
        match($0, /"iter_ms_p50":[{]"value":[^,}]*/) { v = substr($0, RSTART + 23, RLENGTH - 23) + 0 }
        FILENAME == ARGV[1] { a[w, na[w]++] = v; next }
        { b[w, nb[w]++] = v }
        # Quantile q of the n values in s[1..n], sorted in place (linear
        # interpolation between closest ranks).
        function quantile(s, n, q,    i, j, t, h) {
          for (i = 2; i <= n; i++)
            for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
          h = (n - 1) * q + 1; i = int(h)
          return i >= n ? s[n] : s[i] + (h - i) * (s[i + 1] - s[i])
        }
        END {
          for (w in na) {
            n = na[w] < nb[w] ? na[w] : nb[w]; won = 0
            for (i = 0; i < n; i++) { won += b[w, i] < a[w, i]; sa[i + 1] = a[w, i]; sb[i + 1] = b[w, i] }
            ma = quantile(sa, n, 0.5); mb = quantile(sb, n, 0.5)
            iqr = quantile(sa, n, 0.75) - quantile(sa, n, 0.25)
            holds = (won * 10 >= 9 * n && ma - mb > iqr) ? "yes" : "no"
            printf "seed %s %-16s iter_ms_p50: this tree won %d/%d pairs; median %.3f -> %.3f ms; parent IQR %.3f ms; holds: %s\n", seed, w, won, n, ma, mb, iqr, holds
          }
        }' "$out/a-$seed.jsonl" "$out/b-$seed.jsonl"
    done
    echo "worse rows per seed:$summary"
    exit "$status"

# Quickstart with profiling: prints the metrics summary and writes
# trace.json for chrome://tracing.
trace:
    SKELCL_TRACE=trace.json cargo run --release -p skelcl-repro --example quickstart

# Full observability demo: 2-GPU dot product with the Chrome trace (flow
# arrows + counter tracks) and the flight recorder, dumping the ring at
# the end of the run.
trace-demo:
    SKELCL_TRACE=trace_demo.json SKELCL_FLIGHT=1024 cargo run --release -p skelcl-repro --example trace_demo
