#!/usr/bin/env bash
# Tier-1 gate: every change must pass `./ci.sh` (all lanes, in order).
#
# Lanes are individually addressable so the GitHub Actions matrix
# (.github/workflows/ci.yml) can run them as parallel jobs:
#
#   ./ci.sh                 # every lane, the local pre-push gate
#   ./ci.sh lint test       # just those lanes, in the order given
#   ./ci.sh --list          # lane names, one per line
#
# Lane -> invariant map lives in docs/ARCHITECTURE.md §CI.
set -euo pipefail
cd "$(dirname "$0")"

# Minimum supported Rust version; must match workspace.package.rust-version
# in Cargo.toml (the msrv lane greps it out so they can't drift).
MSRV="$(sed -n 's/^rust-version = "\(.*\)"$/\1/p' Cargo.toml)"

lane_lint() {
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
    echo "==> cargo clippy --workspace --all-targets (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo doc --workspace --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

lane_test() {
    echo "==> cargo build --workspace --release"
    cargo build --workspace --release
    echo "==> cargo test --workspace -q"
    cargo test --workspace -q
}

lane_fault_differential() {
    echo "==> fault differential suite (flat engine == reference, faulted)"
    cargo test --release -p dut-netsim --test differential -q
    echo "==> wake-rule harness (leader, BFS, convergecast, broadcast, residue, forwarding, ARQ convergecast + broadcast, Luby MIS, routing == reference; plain and coded, clean and faulted)"
    cargo test --release -p dut-netsim -p dut-congest --lib matches_reference_engine -q
    echo "==> flip-kernel oracle and law (geometric-skip flips == naive definition, bit for bit and in order; descent == scan; Wilson-bounded per-bit, adjacent-pair and clean-word rates)"
    cargo test --release -p dut-netsim --lib fault::tests -q
    echo "==> Justesen codec differential (syndrome decoder == Berlekamp-Welch reference, corrected-bit counts, row encode == Horner)"
    cargo test --release -p dut-ecc --lib justesen -q
    echo "==> codec codebook equivalence (codebook encode/decode == bare Justesen code on clean, flipped and foreign words; a flipped copy leaves shared words alone)"
    cargo test --release -p dut-congest --lib codec -q
}

lane_testkit() {
    echo "==> testkit lane (exact oracles, strategies, regression suite)"
    cargo test --release -p dut-testkit -q
    echo "==> parallel differential suite (serial == 2 == 8 threads, bit-identical)"
    cargo test --release -p dut-core --test parallel_differential -q
    cargo test --release -p dut-congest --test parallel_differential -q
    echo "==> fixed-seed codec-corruption smoke (RS + Justesen, seeded)"
    cargo test --release -p dut-testkit --test fuzz_drivers -q
    echo "==> stream service differential (label-indexed service == BTreeMap model, shard-count invariant on adversarial labels)"
    cargo test --release -p dut-stream --test merge_differential -q service_
}

lane_feature_matrix() {
    echo "==> feature-matrix lane (fast-sampling on/off, no-default-features)"
    # fast-sampling swaps the Monte-Carlo trial generator to BatchRng:
    # a different (still deterministic) sample stream. The differential
    # suites must hold on it, not just on the default stream.
    cargo test --release --workspace --features dut-core/fast-sampling -q \
        --target-dir target/feature-matrix
    # No defaults: every crate must build and test without any optional
    # feature, so nothing load-bearing hides behind one.
    cargo test --release --workspace --no-default-features -q \
        --target-dir target/feature-matrix
}

lane_overflow() {
    echo "==> overflow-checks lane (arithmetic panics surface in release codecs)"
    RUSTFLAGS="-C overflow-checks=on" \
        cargo test --release -p dut-ecc -p dut-distributions -p dut-netsim -p dut-stream -q \
        --target-dir target/overflow-checks
}

lane_experiments_smoke() {
    echo "==> experiments smoke (E1-E16 quick scale, verdicts vs EXPERIMENTS.md)"
    local quick
    quick="$(mktemp)"
    cargo run --release -p dut-bench --bin experiments -- --quick --check all > "${quick}"
    echo "==> quick-table golden (tables == experiments_quick.txt, wall clock masked)"
    if ! awk -f crates/bench/mask_wall_clock.awk "${quick}" | diff -u experiments_quick.txt -; then
        echo "experiments-smoke: quick tables differ from experiments_quick.txt" >&2
        rm -f "${quick}"
        exit 1
    fi
    rm -f "${quick}"
}

lane_conductance() {
    echo "==> conductance lane (sparse walk census == frozen dense-census oracle)"
    cargo test --release -p dut-congest --lib conductance -q
    echo "==> conductance lane (walk + pipeline differential: flat == reference, materialized == implicit)"
    cargo test --release -p dut-congest --test conductance_differential -q
    echo "==> conductance lane (Margulis k = 4096 tester smoke: verdict, tokens, collisions == 274)"
    cargo test --release -p dut-congest --test conductance_differential -q -- --ignored
    echo "==> conductance lane (walk proptests: engine invariance, clique stationarity)"
    cargo test --release -p dut-congest --test walk_differential -q
    echo "==> conductance lane (exact small-graph oracle cross-check)"
    cargo test --release -p dut-testkit conductance -q
    echo "==> conductance lane (E16 quick smoke, verdict vs EXPERIMENTS.md)"
    cargo run --release -p dut-bench --bin experiments -- --quick --check e16 > /dev/null
}

lane_stream() {
    echo "==> stream lane (merge-differential suite: sketches == batch testers)"
    cargo test --release -p dut-stream -q
    echo "==> stream lane (dgk feature: sublinear-memory sketch + merge law)"
    cargo test --release -p dut-stream --features dgk -q
    echo "==> stream lane (E14 quick smoke, verdict vs EXPERIMENTS.md)"
    cargo run --release -p dut-bench --bin experiments -- --quick --check e14 > /dev/null
}

lane_netsim_scale() {
    echo "==> netsim-scale lane (10^6-node implicit-torus smokes, implicit == materialized, clean and faulted)"
    cargo test --release -p dut-netsim --test scale -q -- --ignored
    echo "==> netsim-scale lane (implicit-vs-materialized + wake-rule differential: stepped on mail only == every round)"
    cargo test --release -p dut-netsim --test implicit -q
}

lane_chaos() {
    echo "==> chaos lane (boundary-search regression: pinned minimal witness, thread-invariant)"
    # The pinned-witness test fails if the fixed-seed fault-boundary
    # search stops reproducing its recorded minimal fault plan and
    # drop/flip frontiers bit-identically.
    cargo test --release -p dut-testkit chaos -q
    echo "==> chaos lane (E15 soak verdict, quick scale)"
    cargo run --release -p dut-bench --bin experiments -- --quick --check e15 > /dev/null
    echo "==> chaos lane (30-second seeded wall-clock soak smoke)"
    # The zero-silent-flips invariant holds at ANY horizon (unlike 100%
    # pipeline survival, which only the pinned fixed-budget ticks
    # guarantee), so the smoke audits it from the per-tick JSONL trail.
    local soak_jsonl
    soak_jsonl="$(mktemp)"
    cargo run --release -p dut-bench --bin experiments -- \
        --quick --soak 30 --metrics "${soak_jsonl}" > /dev/null
    if grep -q '"soak.verdict_flips":[1-9]' "${soak_jsonl}"; then
        echo "chaos lane: silent verdict flip during wall-clock soak" >&2
        rm -f "${soak_jsonl}"
        exit 1
    fi
    rm -f "${soak_jsonl}"
}

lane_perf_gate() {
    echo "==> perf-regression gate (BENCH_netsim.json + BENCH_montecarlo.json + BENCH_sampling.json)"
    cargo run --release -p dut-bench --bin ci-bench-check
}

lane_msrv() {
    echo "==> msrv lane (workspace builds on Rust ${MSRV})"
    if command -v rustup > /dev/null && rustup toolchain list | grep -q "^${MSRV}"; then
        cargo "+${MSRV}" build --workspace --locked
    elif [ "${CI:-}" = "true" ]; then
        # CI must install the toolchain (the workflow's msrv job does);
        # a silent skip there would let an MSRV break land.
        echo "msrv lane requires the ${MSRV} toolchain in CI" >&2
        exit 1
    else
        echo "    (skipped: rustup toolchain ${MSRV} not installed;"
        echo "     install with: rustup toolchain install ${MSRV})"
    fi
}

LANES=(lint test fault-differential testkit feature-matrix overflow experiments-smoke conductance stream netsim-scale chaos perf-gate msrv)

if [ "${1:-}" = "--list" ]; then
    printf '%s\n' "${LANES[@]}"
    exit 0
fi

run_lane() {
    case "$1" in
        lint) lane_lint ;;
        test) lane_test ;;
        fault-differential) lane_fault_differential ;;
        testkit) lane_testkit ;;
        feature-matrix) lane_feature_matrix ;;
        overflow) lane_overflow ;;
        experiments-smoke) lane_experiments_smoke ;;
        conductance) lane_conductance ;;
        stream) lane_stream ;;
        netsim-scale) lane_netsim_scale ;;
        chaos) lane_chaos ;;
        perf-gate) lane_perf_gate ;;
        msrv) lane_msrv ;;
        *)
            echo "unknown lane: $1 (try: ./ci.sh --list)" >&2
            exit 2
            ;;
    esac
}

if [ "$#" -eq 0 ]; then
    for lane in "${LANES[@]}"; do
        run_lane "$lane"
    done
else
    for lane in "$@"; do
        run_lane "$lane"
    done
fi

echo "ci.sh: all green"
