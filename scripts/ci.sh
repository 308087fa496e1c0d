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

# Every public doc link resolves to a public item, in every crate.
echo "==> cargo doc --workspace (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --keep-going

# Every script runs as its docs say, `scripts/NAME.sh`.
echo "==> every scripts/*.sh is executable"
for script in scripts/*.sh; do
    if [[ ! -x "$script" || "$(git ls-files -s "$script" | cut -c1-6)" == 100644 ]]; then
        echo "$script is not executable (chmod +x it and git update-index --chmod=+x it)" >&2
        exit 1
    fi
done

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

# The paper's tables and figures as a byte gate: experiments/<bin>.txt
# holds each bin's section of scripts/run_experiments.sh's output (its
# `### <bin>` header dropped), so a change that moves a paper number
# fails here until the file is regenerated and the move is explained.
echo "==> scripts/run_experiments.sh prints the committed experiments/"
exp_dir=$(mktemp -d)
mkdir "$exp_dir/out"
scripts/run_experiments.sh "$exp_dir/all.txt" >/dev/null
awk -v dir="$exp_dir/out" '/^### / { file = dir "/" $2 ".txt"; next } { print > file }' "$exp_dir/all.txt"
if ! diff -r experiments "$exp_dir/out"; then
    echo "a paper artifact moved; regenerate experiments/ and say why in CHANGES.md (diff above)" >&2
    rm -rf "$exp_dir"
    exit 1
fi
rm -rf "$exp_dir"

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
# `governed-close` flushes from the bench's main thread, whose
# allocations are not counted, and a daemon close runs on its caller,
# so that workload's counts leave the close out (ROADMAP 1(a)). The
# generator thread is not counted either, so `storm-paced`'s counts
# are the daemon's — NDJSON decode, routing, and the close a connection
# thread runs for each flush — not the client's encode.
# `proc.ctx_switches_per_kalert` on `cluster-journal` is a scheduler
# count, not a repeatable one (five runs read 4.1 – 6.9 since the
# shards stopped building emerging documents), so its ceiling is five
# times the highest of five runs: a worker woken per routed alert
# reads over 500 and still trips it.
# The R1-R3 ceilings fell when R2 stopped keeping a member list on the
# pipeline path and R3 stopped allocating a list per cluster, and moved
# out of the shards to the merge point. `governed-close` and
# `cluster-journal` close on the bench's main thread, which is not
# counted, so part of their fall is R3's allocations leaving the
# counted shard workers rather than going away.
# The bytes ceilings fell again when a string handle became one word
# (an alert carries five) and a shard kept one window buffer instead of
# two. A distinct string now costs two allocations, the `Arc` and its
# boxed bytes, so `steady-wire`'s allocations per alert rose 1.1843 →
# 1.1851, inside its ceiling; the other three did not move.
#
# check_run WORKLOAD TRACE reads `name ceiling` lines on stdin and
# fails unless the run verifies and every named metric is at or below
# its ceiling.
check_run() {
    local workload=$1 trace=$2 line name ceiling value
    echo "==> pipeline-bench: $workload --seconds 2, trace $trace"
    line=$(cargo run --release -q -p pipeline-bench -- \
        --workload "$workload" --seed 2022 --seconds 2 --trace "$trace" </dev/null | tail -n 1)
    if [[ "$line" != *'"correct": true'* ]]; then
        echo "pipeline-bench: the run did not verify: $line" >&2
        exit 1
    fi
    while read -r name ceiling; do
        value=$(grep -oE "\"$name\": \{\"value\": [0-9.eE+-]+" <<<"$line" | awk '{print $NF}' || true)
        if ! awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v != "" && v + 0 <= c + 0) }'; then
            echo "pipeline-bench: $workload $name = ${value:-missing} is above its ceiling $ceiling" >&2
            exit 1
        fi
        echo "    $name $value <= $ceiling"
    done
}
check_counts() { check_run "$1" 1; }
check_counts cluster-journal <<'CEILINGS'
proc.allocs_per_alert 1.1911
proc.alloc_bytes_per_alert 321.23
proc.write_syscalls_per_kalert 1006.85
proc.ctx_switches_per_kalert 34.29
CEILINGS
check_counts governed-close <<'CEILINGS'
proc.allocs_per_alert 1.4738
proc.alloc_bytes_per_alert 367.40
CEILINGS
check_counts steady-wire <<'CEILINGS'
proc.allocs_per_alert 1.1855
proc.alloc_bytes_per_alert 356.02
CEILINGS
check_counts storm-paced <<'CEILINGS'
proc.allocs_per_alert 2.2694
proc.alloc_bytes_per_alert 544.43
CEILINGS

# Peak RSS, ratcheted: reference data (SOPs, strategy rows) is held once
# per process, so a deep copy per holder coming back shows here first;
# AO-LDA keeps no table beyond its largest window's scratch, so a
# long-lived one coming back shows on `governed-close`, where that
# scratch is most of the heap. An untraced 2-second run repeats
# `rss_peak_mb` within 2–5 % (five runs read 18.19 – 18.79 MB on
# `steady-wire`, 10.43 – 10.75 MB on `cluster-journal`, 6.83 –
# 6.98 MB on `governed-close` and 8.83 – 8.98 MB on `storm-paced`),
# so the ceiling is the highest of five runs at the commit that last
# moved it + 2 %. A shard close that copies every alert R1 passes
# before grouping them costs ≈ 0.28 MB on `storm-paced`. A SOP's lines are interned, so a deep copy of one
# costs its body and two line vectors, ≈ 0.26 kB (≈ 2 MB for
# `steady-wire`'s 8 000); a SOP owning its lines again ≈ 5 MB more;
# the old ψ memo's table ≈ 2.2 MB, a shard's old 8192-slot channel
# ring ≈ 0.46 MB; the detection engine holding its findings rendered
# instead of as flags ≈ 2.8 MB on `steady-wire` (A2–A5's ≈ 2.6 MB,
# A1's ≈ 0.18 MB); a row vector copied by value (112 B a row) instead
# of as pointers to shared rows (8 B a row) ≈ 0.9 MB per 8 000-row
# holder on `steady-wire` (the stream, the bench's world copy, the two
# shard governors' halves together); a fat two-word string handle
# instead of a one-word one ≈ 1.3 MB on `steady-wire`, and a shard
# holding a second window-sized alert buffer ≈ 0.5–0.7 MB. Lower a
# ceiling when a PR lowers the peak.
check_rss() { check_run "$1" 0; }
check_rss steady-wire <<'CEILINGS'
rss_peak_mb 19.17
CEILINGS
check_rss cluster-journal <<'CEILINGS'
rss_peak_mb 10.97
CEILINGS
check_rss governed-close <<'CEILINGS'
rss_peak_mb 7.13
CEILINGS
check_rss storm-paced <<'CEILINGS'
rss_peak_mb 9.17
CEILINGS

# The window-close path has one owner (alertops_ingestd::MergePoint)
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
# MergePoint::close, a WindowDelta carries inputs only, and recovery
# state is (seq, window) pairs. Node logs hold node state: the QoA
# checkpoint is one coordinator file and a handoff is a function call,
# not a frame. One merge point per process: a cluster node is a shard
# pool and a log, not a daemon in a node role. Each raise time is held
# once, in its window's digest: no per-strategy time multiset and no
# map-of-Vecs digest. A log replays in the one layout Wal writes: no
# second segment reader. A standalone daemon journals and restarts
# through Ingestd::spawn_with_wal, the cluster's protocol: no journal
# hook trait, no adapter for it, no recovery written in the CLI.
# AO-LDA evaluates ψ directly and indexes a batch's documents once per
# call: no ψ memo, no per-pass hash memo of outcomes or mixtures.
# Alerts reach a shard in runs on its ShardQueue: no boxed alert per
# message, no channel per shard, no packed queue-depth gauge. The
# daemon's accounting lives on its pool's metrics registry: no second
# Prometheus encoder for the conservation families and no per-shard
# depth mirrored beside the queue that holds the count. A daemon close
# runs on its caller; no coordinator thread. The daemon and the cluster
# close, checkpoint, seal and restart through one MergePoint: no
# daemon-only coordinator or journal, no pool-level multi-pool close,
# no separate QoA resume step. Both start, journal, route and re-ingest
# history through one ingestd::Node: no cluster-only node slot, pool
# spawner, history replay or counted replay beside it. A close is one
# push per shard: the QoA verdicts ride with Close{seq}, in no message
# of their own, and the AO-LDA pass's wall time is one observation
# over its halves, not a span around a single call. The close runs in
# MergePoint::close itself: no closer type beside it, no pass handle,
# and no QoA start, restore or merge-timer step of its own. The
# engine holds A1 as a bit in its flag table like A2-A5: no rendered A1
# list beside it and no diff of its own. R4 has one driver, the online
# one, which the offline run calls: no fitted, frozen vocabulary and no
# out-of-vocabulary policy beside it. A dependency graph holds its own
# closures, computed once when it is collected: no closure memo beside
# it that a holder fills and threads through, and no upstream query
# nothing calls. R1-R3 run one way: one pipeline entry and one governor
# react over a borrowed blocker, no R2 setting on the governor path,
# and no per-rule credit beside the audit's. Triage means one thing: a
# snapshot is built from a merged delta and triaged once, so there is no
# snapshot merge beside the delta monoid, and the differential harness
# models no partition and keeps no batch side per partition. QoA
# learns one way: the online model over the oracle's labels, with no
# batch model, second noise draw, unused metric set or ranking beside
# it, and the daemon keeps no shutdown request nothing calls.
# Scoped to *.rs so the docs may name what was removed.
if grep -rnE 'struct Coordinator\b|struct Journal\b|pub fn resume_qoa|pub fn close_window\(\s*pools|pub fn close_window\($|ShardPool::close_window|mod coordinator;|COORDINATOR_DIR|Mode::Local|StreamingCheckpoint|ingest_labeled|if_local|shard_role|window_seqs|HandoffFrame|HandoffShipment|TAG_HANDOFF|tail_qoa|qoa_states|spawn_node|flush_window\(\)|TimeMultiset|multiset_add|multiset_sub|StrategyWindowDigest|wal_v1|WalRecord|replay_v1_segment|WindowJournal|WalJournal|spawn_with_journal|DigammaCache|digamma_stats|train_memo|infer_memo|WorkerMsg::Alert\(|QUEUE_ENQUEUED|sync_channel::<WorkerMsg>|render_counter_snapshot|push_family|fn enqueued|fn dequeued|queue_depths: Vec<AtomicI64>|CoordMsg|coord_tx|ingestd-coordinator|RecvTimeoutError|struct NodeSlot|fn spawn_pool|fn restore_node|fn replay_counted|WorkerMsg::Qoa|push_qoa_verdicts|fn window_timer|WindowCloser|EmergingPass|start_qoa|restore_qoa|with_merge_timer|mod closer|a1_cache|flip_a1|OovPolicy|encode_frozen|is_fitted|fit must be called|\bClosures\b|affected_by|run_with_blocker|react_with|rule_hits|with_aggregation|with_blocker|GovernanceSnapshot::merge\(|Partition::(Moved|Grid)|BatchRuns|BatchSides|\bQoaModel\b|flip_labels|BinaryMetrics|rank_worst_first|request_shutdown' \
    --include='*.rs' --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build .; then
    echo "a governor-local pass, a second recovery spelling, a node-log copy of coordinator state, the node-role daemon, a second copy of the engine's raise times, a second journal reader, a second daemon restart path, an AO-LDA hash memo, a per-alert shard message, a second exposition encoder, a mirrored queue depth, a coordinator thread, a second merge point, a second node type, a second push per shard per close, a closer beside the merge point, a rendered A1 list beside the flag table, a second, frozen-vocabulary R4 driver, a closure memo beside the dependency graph, a second reaction entry, R2 knob or rule-credit list, a snapshot merge, a partitioned batch side, a batch QoA model, a second label-noise draw, the unused binary metrics, the worst-first ranking or the uncalled shutdown request reappeared (see matches above)" >&2
    exit 1
fi
# AO-LDA runs speculatively at a merge point, over the documents the
# shard queues hand over with each Close, and a pass the barrier shows
# was over the wrong documents is discarded by truncating the
# detector's vocabulary and model width, not by restoring a copy: no
# detector, and no merge point holding one, is cloned on the close path.
# Scoped to the code above each file's first test module.
for file in crates/ingestd/src/*.rs; do
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -E '(emerging|detector)[A-Za-z_]*(\(\))?(\.as_(ref|mut)\(\))?\.(clone|to_owned)\(\)|(EmergingAlertDetector|MergePoint)::clone|Clone::clone\('; then
        echo "the emerging detector is cloned on the close path (see matches above)" >&2
        exit 1
    fi
done
if grep -B4 '^pub struct MergePoint' crates/ingestd/src/merge.rs | grep -E 'derive\(.*\bClone\b'; then
    echo "MergePoint is Clone again: a per-close copy of its detector can come back (see above)" >&2
    exit 1
fi
# The QoA checkpoint has one writer and one reader, the merge point:
# neither the cluster nor the daemon's assembly touches the file. Scoped
# to the code above each file's first test module.
for file in crates/cluster/src/*.rs crates/ingestd/src/daemon.rs; do
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -E 'write_qoa_checkpoint|read_qoa_checkpoint'; then
        echo "the QoA checkpoint is written or read outside MergePoint (see matches above)" >&2
        exit 1
    fi
done
# A log is wiped, opened and appended to in one place, Node::start and
# Node::route, so the start sequence and the journal-then-route order
# with its failed-append policy are written once. Scoped to the code
# above each file's first test module; `.append(&mut` is Vec::append.
for file in crates/ingestd/src/*.rs crates/cluster/src/*.rs; do
    [[ "$file" == crates/ingestd/src/node.rs ]] && continue
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -E 'Wal::wipe\(|Wal::open\(|\.append\(&' | grep -v '\.append(&mut '; then
        echo "a log is wiped, opened or appended to outside ingestd::Node (see matches above)" >&2
        exit 1
    fi
done
# A log record reaches the OS in one write of its own: a user-space
# buffer keeps the unwritten part of a failed write and lands it ahead
# of the next record.
if grep -n BufWriter crates/wire/src/wal.rs; then
    echo "the write-ahead log writes through a BufWriter again (see matches above)" >&2
    exit 1
fi
# The registry is the only exposition encoder, so its sample formatter
# stays private to alertops-obs.
if grep -n render_sample crates/obs/src/lib.rs; then
    echo "alertops-obs re-exports render_sample again: a hand-written exposition can come back (see matches above)" >&2
    exit 1
fi
# An NDJSON alert line is written and scanned by the typed codec;
# serde is the reference its tests compare against, not the live path.
# Scoped to the code, not the comments, above the codec's first test
# module.
if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' crates/ingestd/src/codec.rs |
    grep -E 'from_str::<Alert>|serde_json::to_string'; then
    echo "the NDJSON alert line goes through serde's Value tree again (see matches above)" >&2
    exit 1
fi
if grep -rn IngestdHandle crates/cluster/src; then
    echo "the cluster holds a daemon again; a node is a ShardPool (see matches above)" >&2
    exit 1
fi
# A title is scored by one stateless function, alertops_text::title_report,
# over fixed word lists: no scorer type, no field holding one, no custom
# lexicon and none of the removed tokenizer knobs. Scoped to *.rs so the docs may name what was removed.
if grep -rnE 'TitleScorer|VagueLexicon|FeatureExtractor|title_scorer|with_lexicon|tokenize_unique|without_stopwords|min_token_len|with_stopword' \
    --include='*.rs' --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build .; then
    echo "a title scorer type, a field holding one or a removed tokenizer knob reappeared (see matches above)" >&2
    exit 1
fi
# R4's topic model has one entry point, the window fit: no batch update,
# inference, scoring or top-words call beside it, no second E-step and
# no unused log-gamma. The settings with one live value are constants
# (the corpus size is the window's length), and alertops-text keeps no
# TF-IDF or string-similarity measure nothing calls. Scoped to *.rs so
# the docs may name what was removed.
if grep -rnE 'update_batch|infer_batch_with|infer_with|score_with|e_step_gamma|top_words|ln_gamma|TfIdf|cosine_sparse|levenshtein|corpus_size|max_e_steps|e_step_tol|tau0|min_baseline_weight|docs_seen' \
    --include='*.rs' --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build .; then
    echo "a removed LDA entry point, text measure or fixed LDA / AO-LDA setting reappeared (see matches above)" >&2
    exit 1
fi
# Each paper threshold is one constant in the module that owns the
# decision: no detector, audit, escalation or remediation setting with
# one live value is settable again, the engine takes no detector
# configuration, and it counts A2's transients and incident
# co-occurrences once, not under names of A2's or A3's own. Scoped to
# *.rs so the docs may name what was removed.
if grep -rnE 'EngineConfig|AuditConfig|RemediationConfig|EscalationConfig|incident_lookahead|a2_transient|a2_with_incident|a3_with_incident|min_sustained_total|sustained_span_hours|min_active_hours|min_repeat_hours|oscillation_threshold|min_transient_share|max_incident_rate|target_debounce|target_cooldown|stale_after_days|min_cluster_size|severity_floor' \
    --include='*.rs' --exclude-dir=target --exclude-dir=.git --exclude-dir=.bench_build .; then
    echo "a removed threshold setting, the engine's detector configuration or a second A2 count reappeared (see matches above)" >&2
    exit 1
fi
# An alert indicates an incident by one predicate,
# alertops_model::indicates_incident, over one lookahead: only the model
# (which defines it) and the blocking-rule audit (whose overlap check is
# service-blind on purpose) call `covers_or_follows` directly. Scoped to
# the program code above each file's first test module; test files may
# call it.
for file in $(find crates/*/src src examples -name '*.rs'); do
    [[ "$file" == crates/model/src/incident.rs || "$file" == crates/react/src/audit.rs ]] && continue
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -F 'covers_or_follows('; then
        echo "an indicativeness check bypasses indicates_incident (see matches above)" >&2
        exit 1
    fi
done
# A QoA label is built by one rule, FeedbackOracle::label_window
# (crates/sim/src/feedback.rs): the online loop, the qoa_eval harness
# and the examples all label through it, so no other program code, paper
# bin or example builds a `QoaLabel`. Scoped to the code above each
# file's first test module; tests may build labels.
echo "==> QoA labels are built by FeedbackOracle::label_window only"
for file in $(find crates/*/src src examples -name '*.rs'); do
    [[ "$file" == crates/sim/src/feedback.rs ]] && continue
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -F 'QoaLabel::new('; then
        echo "a QoA label is built outside FeedbackOracle::label_window (see matches above)" >&2
        exit 1
    fi
done
# A6's cascade edge and R3's topology link are one derivation relation,
# alertops_model::DependencyGraph::derives, over the closures a graph
# computes once when it is collected. Reading a graph's edges is the
# only way to rebuild a closure outside it, so no program code outside
# the model's graph module calls `DependencyGraph::edges`. Scoped to the
# program code above each file's first test module; tests may read the
# edges.
for file in $(find crates/*/src src examples -name '*.rs'); do
    [[ "$file" == crates/model/src/graph.rs ]] && continue
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -E '\.edges\(\)|DependencyGraph::edges'; then
        echo "a dependency graph's edges are read outside alertops_model::DependencyGraph (see matches above)" >&2
        exit 1
    fi
done
# R3 links alerts across strategies, so it runs where a window is
# whole: in the batch pipeline (crates/react/src/pipeline.rs) and once
# per window in the merge stage, GovernanceSnapshot::fill_triage
# (crates/core/src/streaming.rs). No other program code correlates: a
# shard that did would publish triage that depends on the partition.
# correlation.rs defines R3. Scoped to the program code above each
# file's first test module, both bench crates left out.
echo "==> R3 runs in the batch pipeline and the merge stage only"
for file in $(find crates/*/src src -name '*.rs' -not -path 'crates/bench/*' -not -path 'crates/pipeline-bench/*'); do
    case "$file" in
        crates/react/src/correlation.rs | crates/react/src/pipeline.rs | crates/core/src/streaming.rs) continue ;;
    esac
    if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' "$file" |
        grep -E '\bcorrelate(_by_topology)?(::<[^>]*>)?\('; then
        echo "R3 runs outside the batch pipeline and the merge stage (see matches above)" >&2
        exit 1
    fi
done

# The public surface is what the program uses: every `pub fn` in the
# program code (above each file's first test module in crates/*/src and
# src/, comment lines and both bench crates left out) is named on some
# line besides its own definition, or is on this list. The list is the
# set kept on purpose: chaos hooks, test seams, what a paper bin, an
# example or the frozen bench alone calls, and what ROADMAP item 14
# still has to decide. Take a name off when it gains a caller or goes.
echo "==> every pub fn has a caller in the program code, or is listed"
uncalled_allowed='adjudicate_batch collective_candidates current_findings
dependencies_of doc_mixture edge_count encode_and_update evaluation_scratch events_at
finding_count fit_window flush_labeled flush_window_labeled from_strategies
held_raise_times histogram_quantile history_len identity individual_candidates
injected_ids is_clean is_poisoned js_divergence kept_digests log_loss open_with_format
process_window qoa_model_digest quantile ranges_of remaining_after
resume_shard retained_bytes run_default share_where
silence_panics_containing soak_smoke stall_shard storm_fatigued tokenize
truncate_wal_tail vocabulary with_alerts with_graph with_incidents with_min_evidence
with_strategy_dependencies with_title_template'
program=$(for file in $(find crates/*/src src -name '*.rs' -not -path 'crates/bench/*' -not -path 'crates/pipeline-bench/*' | sort); do
    awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print }' "$file"
done)
uncalled=$(grep -oE '\bpub fn [A-Za-z_][A-Za-z0-9_]*' <<<"$program" | awk '{ print $3 }' | sort -u |
    while read -r name; do
        if [[ $(grep -cw -- "$name" <<<"$program") -eq 1 ]]; then echo "$name"; fi
    done)
if ! diff <(tr -s ' \n' '\n' <<<"$uncalled_allowed" | sed '/^$/d' | sort) <(echo "$uncalled"); then
    echo "a pub fn with no caller in the program code appeared (>) or a listed one gained a caller or went (<); see the diff above" >&2
    exit 1
fi

# A shard close reads each title's score from its IndexedCatalog, which
# scored every row once: the per-close path does not tokenize titles.
# Scoped to the code above the file's first test module.
if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' crates/core/src/streaming.rs |
    grep -F 'title_report('; then
    echo "the streaming close scores titles again instead of reading the catalog's cache (see matches above)" >&2
    exit 1
fi
# Building an alert interns nothing: the builder keeps the handles it
# is given and fills an unset string from IStr::empty(), the thread's
# cached handle, so no placeholder is looked up only to be overwritten.
# Scoped to the code above the file's first test module.
if awk '/#\[cfg\(test\)\]/ { exit } !/^ *\/\// { print FILENAME ":" FNR ": " $0 }' crates/model/src/alert.rs |
    grep -E 'IStr::default\(\)|Location::default\(\)|intern\('; then
    echo "alert.rs looks up a string while building an alert; an alert is built without an interner lookup (see matches above)" >&2
    exit 1
fi

# The differential scaffolding lives once, in tests/common: the batch
# oracle, the cases, the topology runners and the one comparison, the
# only code that may leave `degraded` (faulted runs) out of a snapshot;
# triage is exact on every topology and no code may leave it out. A test file that grows its own copy
# of a helper or of a snapshot strip fails here. `tests/*.rs` does not
# reach into tests/common.
echo "==> the differential scaffolding stays in tests/common"
if grep -nE 'fn (comparable|repeater_strategy|shard_governor|windowed_trace|full_catalog)\b' tests/*.rs ||
    awk '/GovernanceSnapshot \{ *(triage|degraded): Vec::new\(\)/ ||
         (FNR == open + 1 && /^ *(triage|degraded): Vec::new\(\)/) { print FILENAME ":" FNR ": " $0; found = 1 }
         { open = /GovernanceSnapshot \{ *$/ ? FNR : -1 }
         END { exit !found }' tests/*.rs; then
    echo "a test outside tests/common defines its own differential helper or snapshot strip (see matches above)" >&2
    exit 1
fi

# The codec crate builds from the data model alone (the model scores
# each catalog row's title with alertops-text, a leaf crate).
echo "==> alertops-wire depends on alertops-model only"
wire_deps=$(cargo tree --offline -p alertops-wire -e normal --prefix none)
if grep -vE '^(alertops-(wire|model|text)|serde[a-z_]*) ' <<<"$wire_deps"; then
    echo "alertops-wire grew a dependency beyond alertops-model (and its alertops-text) and serde (see above)" >&2
    exit 1
fi

# The journal is binary only: with the text reader gone, the cluster
# crate parses no JSON. Direct dependencies only: serde_json still
# reaches it through alertops-ingestd's NDJSON ingress adapter.
echo "==> alertops-cluster does not depend on serde_json"
cluster_deps=$(cargo tree --offline -p alertops-cluster -e normal --prefix none --depth 1)
if grep -E '^serde_json ' <<<"$cluster_deps"; then
    echo "alertops-cluster depends on serde_json again (see above)" >&2
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

# The streaming governor's engine tracks no cascade (A6) state, and a
# shard runs no R3: into_shard hands the dependency graph to the merge
# point, and the streaming path must not read it again.
if grep -nE '\.dependency_graph\(\)' crates/core/src/streaming.rs; then
    echo "the streaming path reads the dependency graph again (see matches above)" >&2
    exit 1
fi

# A window close is O(change): the streaming path reads the engine's
# flag transitions and moves one persistent R1 rule set by them, so it
# must not ask for a whole report, re-derive the blocker, or diff a
# rebuilt flag set again.
if grep -nE 'current_findings\(|derive_blocker\(|previous_flags' crates/core/src/streaming.rs; then
    echo "the streaming close rebuilds the whole flag picture again (see matches above)" >&2
    exit 1
fi

echo "CI green."
