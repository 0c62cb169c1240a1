#!/usr/bin/env bash
# Tier-1 verification gate for the DTDBD workspace (see ROADMAP.md).
#
# Runs, in order:
#   1. release build of every crate, binary, bench and example target
#   2. the full test suite (dtdbd-integration is a workspace member, so the
#      cross-crate scenarios and the HTTP wire battery run here; the sharded
#      serving parity matrix, builder misconfiguration battery, checkpoint
#      corruption + side-state fuzz battery (checkpoint_corruption.rs), the
#      committed v1/v2 byte-fixture compat pins (compat_fixtures.rs) and the
#      zoo-wide train->save->load->serve bit-parity test (zoo_roundtrip.rs)
#      live in crates/serve/tests), followed by a named re-run of the chaos
#      battery (seeded fault plan kills three prediction workers mid-storm;
#      supervision must heal the server with zero wrong predictions —
#      tests/integration/tests/chaos.rs) and the int8 determinism matrix
#      (quantized predictions bit-identical to themselves across {1,4}
#      intra-op threads x {1,4} shard counts, with routing + cache composed
#      on top — crates/serve/tests/int8_parity.rs), then the hot-swap
#      parity + multi-tenant zoo battery (20 mid-traffic reloads with
#      bit-exact answers and reconciled counters, plus shard-pool dedup
#      across tenants — tests/integration/tests/hotswap.rs)
#   3. kernel-parity smoke: the blocked/parallel GEMM must stay bit-identical
#      to the naive reference on a fixed seed (threads 1/2/4), and the int8
#      quantized GEMM bit-identical to itself across thread counts
#   4. bench regression gate (scripts/check_bench.sh): re-runs the quick
#      kernels/serving benches in a throwaway dir and FAILS if throughput
#      dropped more than BENCH_GATE_TOLERANCE percent (default 25) below the
#      committed BENCH_kernels.json / BENCH_serving.json baselines, or if the
#      serving p99 rose more than the tolerance above its baseline; also runs
#      the sharding bench for its parity assertions and replica-vs-sharded
#      log, the fp32-vs-int8 agreement report with absolute gates
#      (agreement >= 99.5%, macro-F1 delta <= 0.005, >=3x int8 memory win),
#      and the two-model zoo routing gate (multi-tenant throughput >= 0.9x
#      single-tenant at equal total workers)
#   5. the http_roundtrip end-to-end example (real TCP serving; also scrapes
#      GET /metrics mid-run, holds the page to the strict exposition lint,
#      and walks the /readyz drain sequence before shutdown)
#   6. formatting check
#   7. clippy with warnings promoted to errors
#
# Modes / knobs:
#   CI_QUICK=1             skip every release-profile stage (1, 3-5: the
#                          release build, parity smoke, bench gate and
#                          example) for a sub-minute inner-loop gate on a
#                          warm build cache — tests + fmt + clippy still run,
#                          and the dev-profile test suite includes the GEMM
#                          bit-parity battery (crates/tensor/tests) plus the
#                          checkpoint corruption/compat-fixture/zoo-parity
#                          batteries (crates/serve/tests)
#   BENCH_GATE_TOLERANCE   allowed bench throughput drop in percent
#                          (default 25; negative forces the gate to trip —
#                          the knob to demonstrate stage 4 failing)
#
# A per-stage wall-clock summary is printed at the end (also on failure).
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_NAMES=()
STAGE_SECS=()
stage() {
  local name="$1"
  shift
  echo "==> $name"
  local t0=$SECONDS
  "$@"
  STAGE_NAMES+=("$name")
  STAGE_SECS+=("$((SECONDS - t0))")
}
summary() {
  echo
  echo "==> stage timing (wall clock)"
  local i total=0
  for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ds  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    total=$((total + STAGE_SECS[i]))
  done
  printf '    %4ds  total\n' "$total"
}
trap summary EXIT

quick=${CI_QUICK:-0}

if [ "$quick" = "1" ]; then
  echo "==> CI_QUICK=1: skipping release build, parity smoke, bench gate and example"
else
  stage "cargo build --release" \
    cargo build --release --workspace --all-targets
fi

stage "cargo test (cross-crate scenarios, wire + checkpoint batteries, compat fixtures, zoo + sharding parity)" \
  cargo test -q --workspace

# Chaos battery: the 64-client wire workload with a seeded fault plan
# killing three of four prediction workers mid-storm
# (tests/integration/tests/chaos.rs). The plan and its kill schedule are
# fixed in the test source, so every CI run injects the same crashes.
# The workspace run above already executed it once at full scale; this
# dedicated stage re-runs it with CI_QUICK shrinking the client count so the
# supervision + fault-injection layer keeps a fast, named gate of its own.
stage "chaos battery (seeded worker kills, supervision + recovery)" \
  env CI_QUICK="$quick" cargo test -q -p dtdbd-integration --test chaos

# Int8 determinism matrix: quantized predictions must be bit-identical to
# themselves at every deployment shape — {1,4} intra-op threads x {1,4}
# shard counts (plus replica mode), and again with domain routing and the
# precision-tagged prediction cache composed on top. Int8 may differ from
# fp32 (the bench gate bounds that drift); it may never differ from itself.
# The workspace run above already executed the battery once; this dedicated
# stage re-runs it with CI_QUICK trimming the matrix corners so the
# quantized path keeps a fast, named gate of its own.
stage "int8 determinism matrix (threads x shards x routing x cache, bit-exact)" \
  env CI_QUICK="$quick" cargo test -q -p dtdbd-serve --test int8_parity

# Hot-swap + multi-tenant battery: a file-backed tenant is reloaded 20 times
# (CI_QUICK shrinks the count) while keep-alive clients stream traffic —
# every wire answer must be bit-identical to one of the two checkpoints
# that ever lived on disk, with zero non-200 responses
# and reconciled served/reload counters — plus the shard-pool dedup contract:
# tenants with byte-identical frozen tables share exactly one resident pool
# (tests/integration/tests/hotswap.rs). The workspace run above already
# executed it once; this named stage keeps the zoo serving layer its own
# fast gate.
stage "hot-swap parity + multi-tenant zoo battery (mid-traffic reloads, pool dedup)" \
  env CI_QUICK="$quick" cargo test -q -p dtdbd-integration --test hotswap

if [ "$quick" != "1" ]; then
  stage "kernel parity smoke (blocked/parallel GEMM vs naive reference)" \
    cargo run --release -q -p dtdbd-bench --bin kernels -- --parity-smoke

  stage "bench regression gate (kernels/serving vs committed baselines + sharding)" \
    scripts/check_bench.sh

  stage "http_roundtrip example (train -> checkpoint -> serve over TCP, /metrics lint, /readyz drain)" \
    cargo run --release -q -p dtdbd-bench --example http_roundtrip
fi

stage "cargo fmt --check" \
  cargo fmt --all --check

stage "cargo clippy -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1 gate passed"
