#!/usr/bin/env bash
# Commit-path microbench driver: runs the `commit_path` bench and captures
# its one-line summary into BENCH_commit_path.json at the repo root, then
# runs the `txstat` profiling bin and captures its per-phase JSON lines
# into BENCH_txstat.json.
#
# Entirely offline and dependency-free (the workspace has zero registry
# dependencies; the bench uses its own harness, not criterion). Honors
# SPECPMT_BENCH_SMOKE=1 for a fast smoke run and SPECPMT_COMMIT_BASELINE
# to point the speedup comparison at a different baseline file.
#
# BENCH_commit_path.json keys: commit_ns_seq / commit_ns_shared
# (per-commit wall-clock), commit_sim_ns_seq / commit_sim_ns_shared
# (deterministic simulated commit cost over a fixed transaction count —
# what scripts/perf_gate.sh holds to a tight regression tolerance),
# allocs_per_tx_* (heap allocations per steady-state transaction, via the
# bench's counting global allocator), reclaim_idle_ns / reclaim_churn_ns
# (one reclamation cycle over idle vs churning chains), and
# baseline_commit_ns_seq / speedup_seq against
# results/commit_path_baseline.json.
#
# BENCH_kv.json is JSON-lines from the `kv` bin: one deterministic
# single-worker point (per-op-class simulated means, kv_sim_ns_*, which
# the perf gate holds to the tight tolerance), the shards x workers x
# zipfian-theta sweep, and the undersized-quota admission demo.
#
# BENCH_recovery.json is JSON-lines from the `recovery` bench: one
# summary line with deterministic recovery_sim_ns_t{1,8,32}_{full,ckpt}
# keys (parse-thread sweep with and without checkpoint-bounded replay,
# gated by scripts/perf_gate.sh against results/recovery_baseline.json),
# then one recovery/sweep line per log size showing checkpointed replay
# cost flat while full replay grows.
#
# BENCH_txstat.json is JSON-lines: one per-phase breakdown object per
# runtime/thread-count point (seq once, one chain; shared at 1/8/16 threads
# with the per-commit path and the group-commit path side by side, the
# group lines carrying fences_per_commit, batch occupancy, and the
# amortized simulated commit cost), the 16-thread media-channel / WPQ
# sweep, and a final summary line with the telemetry-off vs -on
# sequential commit cost. scripts/verify.sh checks the schema, gates the
# commit-path capture against results/commit_path_baseline.json via
# scripts/perf_gate.sh, and asserts the group-commit acceptance budget
# (16-thread amortized sim cost within 1.5x sequential, < 1 fence per
# commit).
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_commit_path.json
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

cargo bench --offline -q -p specpmt-bench --bench commit_path -- "$@" | tee "$tmp"

# The summary is the line whose bench name is exactly "commit_path" (the
# per-section lines are "commit_path/seq" etc.).
grep '"bench":"commit_path",' "$tmp" | tail -n 1 > "$out"
[ -s "$out" ] || { echo "error: no commit_path summary line captured" >&2; exit 1; }
echo "wrote $out"

txout=BENCH_txstat.json
cargo run --release --offline -q -p specpmt-bench --bin txstat | tee "$tmp"
grep '"bench":"txstat"' "$tmp" > "$txout"
[ -s "$txout" ] || { echo "error: no txstat lines captured" >&2; exit 1; }
echo "wrote $txout"

# KV front-end bench: JSON-lines — the deterministic single-worker point
# first (kv_sim_ns_* keys, gated by scripts/perf_gate.sh against
# results/kv_baseline.json), then the shards x workers x zipfian-theta
# sweep with per-op-class p50/p99/p999 and admission counters, then the
# undersized-quota shed demo.
kvout=BENCH_kv.json
cargo run --release --offline -q -p specpmt-bench --bin kv | tee "$tmp"
grep '"bench":"kv"' "$tmp" > "$kvout"
[ -s "$kvout" ] || { echo "error: no kv lines captured" >&2; exit 1; }
echo "wrote $kvout"

# Recovery bench: the 1/8/32 parse-thread sweep over one deterministic
# 32-chain crash image (summary line, gated keys) plus the log-size sweep
# (checkpoint-bound lines).
recout=BENCH_recovery.json
cargo bench --offline -q -p specpmt-bench --bench recovery -- --threads 1,8,32 | tee "$tmp"
grep '"bench":"recovery' "$tmp" > "$recout"
grep -q '"bench":"recovery",' "$recout" ||
    { echo "error: no recovery summary line captured" >&2; exit 1; }
echo "wrote $recout"
