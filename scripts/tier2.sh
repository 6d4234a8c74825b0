#!/usr/bin/env bash
# Tier-2 gate: the tier-1 commands plus the member crates' tests, the
# optimised goldens and equivalence suites, static analysis, the
# observability, adversary and benchmark smokes, and the two in-run
# overhead budgets.
#
# Usage: scripts/tier2.sh [overhead_budgets args, e.g. --scale test]
set -euo pipefail
cd "$(dirname "$0")/.."

# Tier 1: the repo must build and its tests must pass.
cargo build --release
cargo test -q

# The member crates' own unit and integration tests: the root
# `cargo test` above covers only the `ices` facade package.
cargo test --workspace -q

# Formatting of the simulation, benchmark, service, core and pool
# crates (the whole workspace is not gated: `cargo fmt --all` would
# also rewrite the vendored shims).
cargo fmt -p ices-sim -p ices-bench -p ices-svc -p ices-core -p ices-par -- --check

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
# packed, the construction goldens pin the 1740-node matrix and
# neighbour sets, and the streamed-scale tests build the sampled
# neighbour path above 2048 nodes (3,000 and, optimised only, 50,000).
cargo test --release -q -p ices-netsim -p ices-core -p ices-stats -p ices-vivaldi
cargo test --release -q -p ices-sim --test golden_construction --test streamed_scale

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

# Pool protocol model: under `--cfg loom` crates/par/src/pool.rs takes
# its handoff primitives from loom, and its `model` tests drive the real
# `broadcast` across many seeded schedules. One test at a time: a
# concurrent dispatch on the global pool runs inline. A name filter
# that matches nothing passes silently, so the match count is checked
# first. Separate RUSTFLAGS value, so this build does not share the
# default cache.
pool_model=(-q -p ices-par --lib -- pool::model --test-threads=1)
test "$(RUSTFLAGS="--cfg loom" cargo test "${pool_model[@]}" --list | grep -c ': test$')" -gt 0
RUSTFLAGS="--cfg loom" cargo test "${pool_model[@]}"

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

# Benchmark smoke: every perfbench workload at its seconds-long smoke
# size, traced and untraced; exits nonzero unless every metric of
# BENCHMARK.json is emitted with its unit, the output checks pass and
# the span files are well formed. For the daemon over loopback UDP the
# output checks fail on a reply that does not decode or carries an
# unknown nonce, a liar accepted or an honest client rejected.
python3 perfbench/smoke_test.py

# The two in-run overhead budgets, each a ratio between twin runs on
# the same host: the journaled run against its unjournaled twin (5%)
# and the Sybil swarm against its honest-world twin (10%), for both
# drivers. An overrun prints a PERF WARNING but never fails the gate.
cargo run -q --release -p ices-bench --bin overhead_budgets -- "$@"
