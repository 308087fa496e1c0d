#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, lints, the tier-1
# build+test pass, the full workspace test suite, and the soak smoke.
#
# Opt-ins and replay hints (none run by default):
#   CHAOS_SEED=<seed from a failure message> cargo test --test chaos_ingestd
#       replays one fault-injection schedule in isolation.
#   ALERTOPS_TEST_FULL=1 scripts/ci.sh
#       restores the deep property-test sweeps (128/64/48 cases).
#   ALERTOPS_SOAK_FULL=1 scripts/ci.sh
#       runs the hours-long production soak instead of the smoke slice.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# --all-targets also compiles the criterion benches and every bin.
echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

# Seeded production-shaped traffic over real TCP into a live 4-shard
# ingestd. The binary writes BENCH_soak.json, then asserts its own
# gates (sampled-prefix byte-identity vs 1- and 4-shard batch oracles,
# conservation, zero drops, RSS ceiling, >= 1M alerts/hour), so under
# `set -e` its exit code is the gate.
echo "==> soak smoke: TCP load harness + BENCH_soak.json regeneration"
cargo run --release -q -p alertops-bench --bin soak_bench

# The counts half of the bench ledger, as a ratchet. A traced 2-second
# slice of `cluster-journal` (N = 40; every node's shards close through
# ingestd::worker, the cluster journals and runs both channels) and of
# `governed-close` (N = 120; two shards, graph attached, both channels)
# takes a few seconds each, and on them the per-alert counts repeat to
# the last digit (`proc.alloc_bytes_per_alert` on `governed-close` to
# 0.02 %), so a ceiling of "highest of five runs at the commit that last
# moved it + 0.1 %" only trips on a real regression. Lower a ceiling
# when a PR lowers the count.
check_counts() {
    local workload=$1 counts name ceiling value
    echo "==> pipeline-bench counts: $workload --seconds 2, traced"
    counts=$(cargo run --release -q -p pipeline-bench -- \
        --workload "$workload" --seed 2022 --seconds 2 --trace 1 </dev/null | tail -n 1)
    if [[ "$counts" != *'"correct": true'* ]]; then
        echo "pipeline-bench: the run did not verify: $counts" >&2
        exit 1
    fi
    while read -r name ceiling; do
        value=$(grep -oE "\"$name\": \{\"value\": [0-9.eE+-]+" <<<"$counts" | awk '{print $NF}' || true)
        if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v + 0 <= c + 0) }'; then
            echo "pipeline-bench: $workload $name = ${value:-missing} is above its ceiling $ceiling" >&2
            exit 1
        fi
        echo "    $name $value <= $ceiling"
    done
}
check_counts cluster-journal <<'CEILINGS'
proc.allocs_per_alert 14.2117
proc.alloc_bytes_per_alert 1882.04
proc.write_syscalls_per_kalert 1006.85
CEILINGS
check_counts governed-close <<'CEILINGS'
proc.allocs_per_alert 26.8471
proc.alloc_bytes_per_alert 3526.78
CEILINGS

# The window-close path has one owner (alertops_core::WindowCloser)
# and the ingress protocol one dispatcher, one client and one writable
# journal format; the options and forks that used to sit beside them
# must not come back.
echo "==> removed options stay removed"
if grep -rnE 'defer_emerging|defer_qoa|set_emerging_mode|set_qoa_mode|V1Json|handle_wire_frame|serve_ingress_ndjson|encode_flush_ack|ALERTOPS_SOAK_WIRE' \
    --include='*.rs' --include='*.md' --include='*.sh' --include='*.toml' \
    --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build \
    --exclude=CHANGES.md --exclude=ROADMAP.md --exclude=ISSUE.md --exclude=ci.sh .; then
    echo "a removed option reappeared (see matches above)" >&2
    exit 1
fi

# A governor only governs its partition: the sequential passes live in
# WindowCloser::close, a WindowDelta carries inputs only, and recovery
# state is (seq, window) pairs. Node logs hold node state: the QoA
# checkpoint is one coordinator file and a handoff is a function call,
# not a frame. One merge point per process: a cluster node is a shard
# pool and a log, not a daemon in a node role. Each raise time is held
# once, in its window's digest: no per-strategy time multiset and no
# map-of-Vecs digest. Scoped to *.rs so the docs may name what was
# removed.
if grep -rnE 'Mode::Local|StreamingCheckpoint|ingest_labeled|if_local|shard_role|window_seqs|HandoffFrame|HandoffShipment|TAG_HANDOFF|tail_qoa|qoa_states|spawn_node|flush_window\(\)|TimeMultiset|multiset_add|multiset_sub|StrategyWindowDigest' \
    --include='*.rs' --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build .; then
    echo "a governor-local pass, a second recovery spelling, a node-log copy of coordinator state, the node-role daemon or a second copy of the engine's raise times reappeared (see matches above)" >&2
    exit 1
fi
if grep -rn IngestdHandle crates/cluster/src; then
    echo "the cluster holds a daemon again; a node is a ShardPool (see matches above)" >&2
    exit 1
fi

# The codec crate builds from the data model alone.
echo "==> alertops-wire depends on alertops-model only"
wire_deps=$(cargo tree --offline -p alertops-wire -e normal --prefix none)
if grep -vE '^(alertops-(wire|model)|serde[a-z_]*) ' <<<"$wire_deps"; then
    echo "alertops-wire grew a dependency beyond alertops-model and serde (see above)" >&2
    exit 1
fi

# A shard recovers by rollback (StreamingGovernor::commit/rollback); a
# stored copy of the governor must not come back beside it.
if grep -rnE 'checkpoint: StreamingGovernor|governor\.clone\(\)' \
    --include='*.rs' crates/ingestd/src crates/cluster/src; then
    echo "a per-window governor clone reappeared (see matches above)" >&2
    exit 1
fi

# The streaming governor's engine tracks no cascade (A6) state: the
# dependency graph is read inside AlertGovernor::react and must not be
# handed to the engine from the streaming path again.
if grep -nE '\.dependency_graph\(\)' crates/core/src/streaming.rs; then
    echo "the streaming path reads the dependency graph again (see matches above)" >&2
    exit 1
fi

echo "CI green."
