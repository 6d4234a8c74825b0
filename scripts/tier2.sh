#!/usr/bin/env bash
# Tier-2 gate: the tier-1 commands plus the tick-engine throughput
# benchmark, so every change leaves a perf trajectory (BENCH_sim.json)
# behind it.
#
# Usage: scripts/tier2.sh [bench_tick args, e.g. --scale test]
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1: the repo must build and its tests must pass.
cargo build --release
cargo test -q

# The member crates' own unit and integration tests: the root
# `cargo test` above covers only the `ices` facade package.
cargo test --workspace -q

# Formatting of the simulation crate (the whole workspace is not
# gated: `cargo fmt --all` would also rewrite the vendored shims).
cargo fmt -p ices-sim -- --check

# The NPS goldens, the pipeline goldens, the NPS driver's unit tests
# (its own module and the shared secured-core tests, which run on both
# backends) and the simulation determinism suites again, built with
# optimisation: the packed lane kernel only exists in optimised code,
# which the debug `cargo test` runs above never reach. A name filter
# that matches nothing passes silently, so the filter's match count is
# checked first.
cargo test --release -q -p ices-nps
sim_driver_filter=(-p ices-sim --lib -- nps_driver secured)
test "$(cargo test --release -q "${sim_driver_filter[@]}" --list | grep -c ': test$')" -gt 0
cargo test --release -q "${sim_driver_filter[@]}"
cargo test --release -q -p ices-sim --test golden_pipeline --test determinism \
  --test chaos_determinism --test adversary_determinism --test obs_invariance \
  --test secured_backends --test arm_deferral
# The batched probe passes, the split vet sweep and the pass-built King
# construction (row fill, close/far pools, sparse index sampler),
# optimised: the equivalence tests must hold where the passes are
# packed, and the construction goldens pin the 1740-node matrix and
# neighbour sets.
cargo test --release -q -p ices-netsim -p ices-core -p ices-stats -p ices-vivaldi
cargo test --release -q -p ices-sim --test golden_construction

# Static analysis: determinism & panic-hygiene invariants (also gated
# in tier-1 via tests/audit_clean.rs; run here with --json for the
# machine-readable allowlist inventory). --strict-allows turns stale
# audit:allow comments into failures, and the committed audit.baseline
# (empty unless a finding was explicitly grandfathered) means only
# findings *newer* than the baseline fail the gate.
scripts/audit.sh --json --strict-allows --baseline audit.baseline

# Lint gate: the [workspace.lints] policy (root Cargo.toml) must hold
# across every target; deny-level lints (dbg!, todo!, mem::forget,
# suspicious groupings) fail the build here.
cargo clippy --workspace --all-targets

# Pool protocol model: re-runs the handoff protocol of
# crates/par/src/pool.rs on loom's instrumented primitives across many
# seeded schedules (see crates/par/tests/loom_pool.rs). Separate
# RUSTFLAGS value, so this build does not share the default cache.
RUSTFLAGS="--cfg loom" cargo test -q -p ices-par --test loom_pool

# Unsafe-island validation under Miri when a Miri toolchain exists
# (the stock container ships none): the pool's lifetime-erased
# dispatch is exactly what its borrow tracking checks.
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p ices-par --test miri_smoke
else
    echo "tier2: cargo-miri not installed; skipping the miri_smoke step" >&2
fi

# Observability smoke: run a small journaled secured-Vivaldi pipeline,
# then re-validate the emitted JSONL against the schema (obs_report
# exits nonzero on any violation).
cargo run -q --release -p ices-bench --bin obs_report -- --smoke target/obs_smoke.jsonl
cargo run -q --release -p ices-bench --bin obs_report -- --check target/obs_smoke.jsonl

# Adversary smoke: one cell per attack (Sybil / eclipse / slow drift)
# with the cross-verification defense off and on; exits nonzero unless
# the sybil swarm stays blatant, cross-verification recovers eclipse
# detection, and sub-threshold slow drift evades (the reported
# negative result).
cargo run -q --release -p ices-bench --bin adversary_sweep -- --smoke

# Service loopback smoke: an in-process coordinate daemon plus 10k
# simulated clients driven by loadgen over 127.0.0.1 (two UDP
# round-trips each: certified probe + detector-vetted claim; ~10%
# liars must be rejected on the wire). --gate exits nonzero on any
# decode error, timeout, or short run; the grep additionally gates
# that the p50/p99 latency percentiles were measured and reported.
cargo run -q --release -p ices-svc --bin loadgen -- --clients 10000 --gate \
  | tee target/loadgen_smoke.txt
grep -Eq 'p50 [0-9]+ us, p99 [0-9]+ us' target/loadgen_smoke.txt

# Benchmark smoke: every perfbench workload at its seconds-long smoke
# size, traced and untraced; exits nonzero unless every metric of
# BENCHMARK.json is emitted with its unit, the output checks pass and
# the span files are well formed.
python3 perfbench/smoke_test.py

# Tier 2: time the two-phase tick engine sequentially and at host
# parallelism, plus one faulty-network configuration per driver
# (10% probe loss + churn), the streamed-topology scale sweep
# (280 / 1740 / 50k nodes on the matrix-free King generator; set
# ICES_SCALE=xl to add the million-node construction smoke), the
# persistent-pool dispatch microbenchmark, and the NPS solver
# microbenchmark; rewrites BENCH_sim.json at the repo root and warns
# (non-fatally) if any configuration regressed beyond its budget
# against the committed baseline — 20% for paper-scale rows, 30% for
# the ≥50k sweep rows, threads=1 rows only across differently-sized
# hosts.
scripts/bench_check.sh "$@"
