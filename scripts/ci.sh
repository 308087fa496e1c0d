#!/usr/bin/env bash
# The repo's CI gate, runnable locally: formatting, lints, the tier-1
# build+test pass, the full workspace test suite, and a verified,
# count-ratcheted pipeline-bench slice of all four workloads.
#
# Opt-ins and replay hints (none run by default):
#   CHAOS_SEED=<seed from a failure message> cargo test --test chaos_ingestd
#       replays one fault-injection schedule in isolation.
#   ALERTOPS_TEST_FULL=1 scripts/ci.sh
#       restores the deep property-test sweeps (128/64/48 cases).
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

# Every workload's verdict, plus the counts half of the bench ledger as
# a ratchet. A traced 2-second slice takes a few seconds per workload
# and fails unless it prints `"correct": true`: the first published
# snapshots byte-identical to an in-process 1-shard oracle, the
# conservation law, contiguous window indices. That is the shaped
# traffic check: `steady-wire` (N = 45) streams the `soak` world
# (diurnal load, deploy waves, gray cascades) as binary frames over TCP
# into a live 2-shard daemon, and `storm-paced` (N = 80) a stormy smoke
# world as paced NDJSON lines. `cluster-journal` (N = 40) closes every
# node's shards through ingestd::worker, journals and runs both
# channels; `governed-close` (N = 400) has two shards, the graph and
# both channels. On all four the per-alert counts repeat within 0.1 %
# (to the last digit on `cluster-journal`), so a ceiling of "highest of
# five runs at the commit that last moved it + 0.1 %" only trips on a
# real regression. Lower a ceiling when a PR lowers the count.
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
check_counts steady-wire <<'CEILINGS'
proc.allocs_per_alert 6.3666
proc.alloc_bytes_per_alert 1380.24
CEILINGS
check_counts storm-paced <<'CEILINGS'
proc.allocs_per_alert 41.8329
proc.alloc_bytes_per_alert 4605.57
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

# One harness per question: pipeline-bench measures and verifies the
# binary-TCP path, so the soak driver, its bin, its report and its
# opt-in must not come back beside it. Scoped so the docs may name what
# was removed.
if grep -rnE 'run_soak|SoakConfig|SoakReport|soak_bench|BENCH_soak|ALERTOPS_SOAK_FULL' \
    --include='*.rs' --include='*.sh' --include='*.toml' \
    --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build \
    --exclude=ci.sh .; then
    echo "a second harness for the steady-wire path reappeared (see matches above)" >&2
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

# The exposition parser is a leaf: what is left of alertops-load
# reads text, not the stack it scrapes.
echo "==> alertops-load depends on alertops-obs only"
load_deps=$(cargo tree --offline -p alertops-load -e normal --prefix none)
if grep -vE '^alertops-(load|obs) ' <<<"$load_deps"; then
    echo "alertops-load grew a dependency beyond alertops-obs (see above)" >&2
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
