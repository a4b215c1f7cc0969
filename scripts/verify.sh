#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline, proving the workspace
# has zero registry dependencies. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo fmt --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

# Deprecation gate: in-tree code never calls a #[deprecated] shim (the
# legacy crash-injection surface keeps shims for one release, but every
# caller in the workspace has migrated to the CrashControl/CrashPlan API).
run env RUSTFLAGS="-D deprecated" cargo check --offline --workspace --all-targets

# Config hygiene: every SPECPMT_* environment variable is parsed exactly
# once, in specpmt_telemetry::knobs — raw env reads elsewhere bypass the
# documented defaults and the once-per-process parse.
if grep -rn 'env::var' crates src examples tests benches 2>/dev/null \
    --include='*.rs' | grep SPECPMT | grep -v 'knobs\.rs'; then
    echo "raw SPECPMT_* env read outside specpmt_telemetry::knobs" >&2
    exit 1
fi

# Construction hygiene: ConcurrentConfig is built through its builder (or
# Default) everywhere — in-tree struct literals outside the defining
# module bypass the builder's defaults and invariants.
if grep -rn 'ConcurrentConfig {' crates src examples tests benches 2>/dev/null \
    --include='*.rs' | grep -v 'crates/core/src/concurrent.rs'; then
    echo "ConcurrentConfig struct literal outside crates/core/src/concurrent.rs" >&2
    echo "(use ConcurrentConfig::builder() / ::default())" >&2
    exit 1
fi

# One multithreading model: N chains are N TxHandles of one SpecSpmtShared.
# The logical-thread mode of SpecSpmt and the scheduler only it needed are
# gone and must stay gone.
if grep -rnE 'MultiThreaded|select_thread|set_thread\(|LockedRun|run_interleaved' \
    crates src tests examples --include='*.rs'; then
    echo "the logical-thread scheduler is back (drive TxHandles in a loop instead)" >&2
    exit 1
fi

# Re-fork guard: the SpecPMT record protocol, the WPQ timing model and the
# crash gate are each written once. Outside #[cfg(test)], the header seal
# and the fence telemetry block live in one file of crates/core/src
# (record.rs only defines the encoder), the WPQ service-time arithmetic is
# read in one file of crates/pmem/src (config.rs only defines the field),
# and the crash-plan ticks and the what-survives policy walk are called in
# one file of crates/pmem/src (crash.rs, which also defines them). A second
# hit means a runtime or a device grew its own copy again.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }
nontest_files_with() { # <fixed string> <dir> <file that only defines it>
    for f in "$2"/*.rs; do
        [ "$(basename "$f")" = "$3" ] && continue
        if nontest "$f" | grep -qF -- "$1"; then
            echo "$f"
        fi
    done
}
for probe in 'encode_header_parts(|crates/core/src|record.rs' \
    'Metric::WpqDrains|crates/core/src|-' \
    'cfg.line_write_seq_ns|crates/pmem/src|config.rs' \
    'fuel_tick(|crates/pmem/src|-' \
    'site_tick(|crates/pmem/src|-' \
    'policy.survives(|crates/pmem/src|-'; do
    IFS='|' read -r pat dir defs <<<"$probe"
    hits=$(nontest_files_with "$pat" "$dir" "$defs")
    if [ "$(printf '%s\n' "$hits" | grep -c .)" -ne 1 ]; then
        echo "re-fork guard: '$pat' must appear in exactly one file of $dir, found:" >&2
        printf '%s\n' "${hits:-(none)}" >&2
        exit 1
    fi
done

# Re-fork guard, record parsing and the freshness index: every reader of a
# log chain goes through record.rs's one streaming reader. Outside
# #[cfg(test)], a stored checksum is compared in one line of one function
# (`StreamReader::read_payload`), an entry's `u32` length is decoded in one
# function (`decode_entry`; the other two `u32` reads of record.rs are the
# record and checkpoint headers' lengths, and layout.rs parses pool
# descriptors, not log bytes) — a second parse loop anywhere in
# crates/core/src would have to add one of either. And the per-byte
# `HashMap<usize, u64>` index survives only as the oracle in
# tests/properties.rs.
verifies=0
for f in crates/core/src/*.rs; do
    n=$(nontest "$f" | grep -cE 'record_checksum\(.*\) *[!=]= |[!=]= *record_checksum\(' || true)
    verifies=$((verifies + n))
    [ "$n" -eq 0 ] || [ "$(basename "$f")" = record.rs ] ||
        { echo "re-fork guard: $f verifies a record checksum itself" >&2; exit 1; }
    want=0
    case "$(basename "$f")" in record.rs) want=3 ;; layout.rs) continue ;; esac
    got=$(nontest "$f" | grep -c 'u32::from_le_bytes' || true)
    [ "$got" -eq "$want" ] ||
        { echo "re-fork guard: $f decodes $got u32 length fields, expected $want" \
            "(entries are decoded by record::decode_entry only)" >&2; exit 1; }
done
[ "$verifies" -eq 1 ] ||
    { echo "re-fork guard: $verifies checksum comparisons in crates/core/src, expected 1" >&2; exit 1; }
if grep -nF 'HashMap<usize, u64>' crates/core/src/reclaim.rs; then
    echo "re-fork guard: the per-byte freshness map is back in reclaim.rs" >&2
    exit 1
fi

# Re-fork guard, sharing cost: per-owner state is written through the one
# single-writer primitive (specpmt_telemetry::owned) and the global
# atomics and lists it replaced stay gone. The primitive is defined in one
# file; the shared device has no device-global clock, pending list or
# flush owner tag, and no atomic read-modify-write at all outside its
# tests (a handle's bookkeeping is loads and stores on its own cell); a kv
# worker records latencies into its own cell and nowhere else.
owned_defs=$(grep -rlE 'struct Owned(Counter|Histogram)' crates --include='*.rs')
[ "$owned_defs" = crates/telemetry/src/owned.rs ] ||
    { echo "re-fork guard: the single-writer cell is defined in: $owned_defs" >&2; exit 1; }
if grep -rnE 'clock_ns\.fetch_max|pending: Mutex<Vec<PendingFlush>>|owner:' crates/pmem/src; then
    echo "re-fork guard: the shared device grew a global clock, pending list or owner tag" >&2
    exit 1
fi
if nontest crates/pmem/src/shared.rs | grep -nE 'fetch_(add|max|sub)\('; then
    echo "re-fork guard: an atomic read-modify-write on the shared device's op path" >&2
    exit 1
fi
if nontest crates/kv/src/service.rs | grep -E 'stats\.(host|sim|completed)\[' |
    grep -v 'self\.stats\.'; then
    echo "re-fork guard: kv latencies recorded outside the worker's own cell" >&2
    exit 1
fi

# The judged benchmark is a package of its own (own workspace and lock
# file), so nothing above builds it: smoke-run every workload and check the
# emitted names against BENCHMARK.json, so a specpmt-core API change that
# breaks its build fails here and not at judging time.
run benchmark/check.sh

# Crash-point enumeration smoke: the FIRST-style harness enumerates every
# labeled crash site the smoke workloads reach (sequential + 4-thread
# shared, group commit off and on), crashes at each deterministically, and
# verifies recovery. The run must visit the ENTIRE site inventory — an
# unvisited label means dead instrumentation or a lost code path.
enum_out=$(mktemp)
run cargo run --release --offline -q -p specpmt-bench --bin crashenum -- --cap 2 \
    | tee "$enum_out"
for key in '"bench":"crashenum"' '"passed":true' '"unvisited":[]'; do
    grep -qF "$key" "$enum_out" ||
        { echo "crashenum output missing key: $key" >&2; exit 1; }
done
if grep -q '"sites_visited":' "$enum_out"; then
    total=$(sed 's/.*"sites_total":\([0-9]*\).*/\1/' "$enum_out")
    visited=$(sed 's/.*"sites_visited":\([0-9]*\).*/\1/' "$enum_out")
    [ "$total" = "$visited" ] ||
        { echo "crashenum visited $visited of $total labeled sites" >&2; exit 1; }
fi
rm -f "$enum_out"

# Enumerator self-test: a deliberately reordered receipt (persisted before
# the group-commit batch fence) must be caught and the violated fence site
# named — a crash harness that cannot catch the bug class it exists for is
# not a harness.
selftest_out=$(mktemp)
echo "==> crashenum --selftest-reorder (injected ordering bug must be caught)"
cargo run --release --offline -q -p specpmt-bench --bin crashenum -- --selftest-reorder \
    | tee "$selftest_out" ||
    { echo "crashenum self-test: injected ordering bug was NOT caught" >&2; exit 1; }
for key in '"bug_caught":true' '"fence_site_named":true' 'SPECPMT_CRASH_TARGET='; do
    grep -qF "$key" "$selftest_out" ||
        { echo "crashenum self-test output missing key: $key" >&2; exit 1; }
done
rm -f "$selftest_out"

# Forensics self-test: the flight-recorder decode must tell a correct
# group-commit runtime (clean report) from one with PR 7's
# receipt-before-fence bug re-injected (violation naming
# mt/group/pre_fence). A black box that cannot implicate the bug class it
# records for is decoration.
forensics_out=$(mktemp)
echo "==> crashenum --selftest-forensics (re-injected receipt bug must be named)"
cargo run --release --offline -q -p specpmt-bench --bin crashenum -- --selftest-forensics \
    | tee "$forensics_out" ||
    { echo "crashenum forensics self-test failed" >&2; exit 1; }
for key in '"clean_ok":true' '"bug_caught":true' '"site_named":true'; do
    grep -qF "$key" "$forensics_out" ||
        { echo "forensics self-test output missing key: $key" >&2; exit 1; }
done
rm -f "$forensics_out"

# Multi-threaded STAMP smoke: every workload once at small scale on two real
# OS threads over LockedTxHandle fleets (one JSON line per app).
run cargo run --release --offline -p specpmt-bench --bin fig12_software_speedup -- --threads 2

# Dynamic-layout smoke: one workload on a 16-thread fleet — past the legacy
# 8-slot cap, over a pool formatted with the persisted layout descriptor.
run env SPECPMT_BENCH_SMOKE=1 cargo bench --offline -p specpmt-bench --bench scaling -- \
    --threads 16 --app intruder

# Stripe-sweep smoke: two stripe sizes, one workload, fixed thread count;
# each line must carry the lock table's acquire/conflict counters.
run env SPECPMT_BENCH_SMOKE=1 cargo bench --offline -p specpmt-bench --bench scaling -- \
    --stripe-bytes 64,256 --threads 4 --app intruder

# Media-provisioning sweep smoke: per-commit vs group-commit at two DIMM
# counts; the group-commit lines must attribute fences to the combiner
# daemon and carry the batch-occupancy histogram.
media_out=$(mktemp)
run env SPECPMT_BENCH_SMOKE=1 cargo bench --offline -p specpmt-bench --bench scaling -- \
    --media-channels 1,12 --threads 4 --app kmeans-low | tee "$media_out"
for key in '"mode":"media"' '"group_commit":true' '"group_batches"' '"group_batch"'; do
    grep -q "$key" "$media_out" ||
        { echo "media sweep output missing key: $key" >&2; exit 1; }
done
rm -f "$media_out"

# Group-commit smoke: the shared runtime with the epoch/group-commit path
# and its combiner daemon forced on, at smoke scale. The line must show
# batched fences actually happening (fences_per_commit, batch occupancy).
group_out=$(mktemp)
run env SPECPMT_BENCH_SMOKE=1 cargo run --release --offline -q -p specpmt-bench \
    --bin txstat -- --group-only | tee "$group_out"
for key in '"group_commit":true' '"fences_per_commit"' '"batch_txs_mean"' \
    '"commit_sim_amortized_ns_avg"'; do
    grep -q "$key" "$group_out" ||
        { echo "txstat --group-only output missing key: $key" >&2; exit 1; }
done
rm -f "$group_out"

# Commit-path bench: scripts/bench.sh runs at FULL scale here (it takes a
# few seconds) so the captured numbers are directly comparable to the
# checked-in full-scale baseline the perf gate reads.
run scripts/bench.sh
for key in commit_ns_seq commit_ns_shared commit_sim_ns_seq commit_sim_ns_shared \
    allocs_per_tx_seq allocs_per_tx_shared reclaim_idle_ns reclaim_churn_ns \
    churn_over_idle baseline_commit_ns_seq speedup_seq; do
    grep -q "\"$key\":" BENCH_commit_path.json ||
        { echo "BENCH_commit_path.json missing key: $key" >&2; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
    run python3 -c 'import json; json.load(open("BENCH_commit_path.json"))'
fi

# Perf guardrail: the fresh capture must be within budget of the checked-in
# baseline (deterministic simulated keys tight, host wall-clock keys loose;
# see scripts/perf_gate.sh for the tolerances).
run scripts/perf_gate.sh

# Flight-recorder budget: every bench runs with the recorder off (the
# default), so the deterministic simulated commit costs just captured ARE
# the recorder-off numbers. Hold them to the 3% telemetry budget against
# the checked-in baseline — tighter than the perf gate's general 5% sim
# tolerance — so recorder plumbing on the commit path stays free when
# disabled.
for key in commit_sim_ns_seq commit_sim_ns_shared; do
    cur=$(grep -o "\"$key\":[0-9.]*" BENCH_commit_path.json | head -n 1 | cut -d: -f2)
    ref=$(grep -o "\"$key\":[0-9.]*" results/commit_path_baseline.json | head -n 1 | cut -d: -f2)
    awk -v c="$cur" -v r="$ref" -v k="$key" 'BEGIN {
        if (c > r * 1.03) {
            printf "recorder-off budget: %s %.1f ns exceeds 3%% of baseline %.1f ns\n", k, c, r
            exit 1
        }
        printf "recorder-off budget: %s %.1f ns within 3%% of baseline %.1f ns\n", k, c, r
    }' || exit 1
done

# Guardrail self-test: a synthetic commit-path regression (2x the
# deterministic simulated commit cost) must make the gate fail — a gate
# that cannot fail is not a gate.
inj=$(mktemp)
awk '{
    if (match($0, /"commit_sim_ns_seq":[0-9.]+/)) {
        v = substr($0, RSTART + 20, RLENGTH - 20) + 0
        sub(/"commit_sim_ns_seq":[0-9.]+/, sprintf("\"commit_sim_ns_seq\":%.1f", v * 2))
    }
    print
}' BENCH_commit_path.json > "$inj"
echo "==> perf gate self-test (injected 2x commit_sim_ns_seq regression must fail)"
if scripts/perf_gate.sh "$inj" >/dev/null 2>&1; then
    echo "perf gate self-test: injected regression was NOT caught" >&2
    rm -f "$inj"
    exit 1
fi
echo "perf gate self-test: injected regression caught, OK"
rm -f "$inj"

# Recovery smoke: bench.sh captured the recovery bench's 1/8/32
# parse-thread sweep. The summary line must carry every gated key, the
# sweep lines must show checkpoint-bounded replay actually bounding —
# at the largest log size, checkpointed recovery must beat full replay
# and its replay portion must match the smallest size's (flat in total
# log size, the time-to-recover SLO mechanism).
for key in '"bench":"recovery"' '"recovery_sim_ns_t1_full"' '"recovery_sim_ns_t1_ckpt"' \
    '"recovery_sim_ns_t8_full"' '"recovery_sim_ns_t8_ckpt"' \
    '"recovery_sim_ns_t32_full"' '"recovery_sim_ns_t32_ckpt"' \
    '"recovery_sim_ns_serial"' '"bench":"recovery/sweep"' '"ckpt_replay_sim_ns"'; do
    grep -q "$key" BENCH_recovery.json ||
        { echo "BENCH_recovery.json missing key: $key" >&2; exit 1; }
done
grep '"bench":"recovery/sweep"' BENCH_recovery.json | awk '
    {
        match($0, /"full_sim_ns":[0-9]+/); full = substr($0, RSTART + 14, RLENGTH - 14) + 0
        match($0, /"ckpt_sim_ns":[0-9]+/); ckpt = substr($0, RSTART + 14, RLENGTH - 14) + 0
        match($0, /"ckpt_replay_sim_ns":[0-9]+/)
        replay = substr($0, RSTART + 21, RLENGTH - 21) + 0
        if (NR == 1) first_replay = replay
        last_full = full; last_ckpt = ckpt; last_replay = replay
    }
    END {
        if (NR < 2) { print "recovery sweep has fewer than 2 points" > "/dev/stderr"; exit 1 }
        if (last_ckpt >= last_full) {
            printf "recovery: checkpointed %d ns does not beat full %d ns at the large point\n",
                last_ckpt, last_full > "/dev/stderr"
            exit 1
        }
        if (last_replay > first_replay * 1.05) {
            printf "recovery: checkpointed replay grew with log size (%d -> %d ns)\n",
                first_replay, last_replay > "/dev/stderr"
            exit 1
        }
        printf "recovery smoke: ckpt %d ns < full %d ns at the large point, replay flat (%d ns), OK\n",
            last_ckpt, last_full, last_replay
    }' || exit 1
if command -v python3 >/dev/null 2>&1; then
    run python3 -c 'import json
[json.loads(l) for l in open("BENCH_recovery.json") if l.strip()]'
fi

# Guardrail self-test for the recovery keys: a synthetic 2x regression in
# the 32-thread checkpointed time-to-recover must make the gate fail.
inj=$(mktemp)
awk '{
    if (match($0, /"recovery_sim_ns_t32_ckpt":[0-9]+/)) {
        v = substr($0, RSTART + 27, RLENGTH - 27) + 0
        sub(/"recovery_sim_ns_t32_ckpt":[0-9]+/,
            sprintf("\"recovery_sim_ns_t32_ckpt\":%d", v * 2))
    }
    print
}' BENCH_recovery.json > "$inj"
echo "==> perf gate self-test (injected 2x recovery_sim_ns_t32_ckpt regression must fail)"
if scripts/perf_gate.sh BENCH_commit_path.json results/commit_path_baseline.json \
    BENCH_kv.json results/kv_baseline.json "$inj" results/recovery_baseline.json \
    >/dev/null 2>&1; then
    echo "perf gate self-test: injected recovery regression was NOT caught" >&2
    rm -f "$inj"
    exit 1
fi
echo "perf gate self-test: injected recovery regression caught, OK"
rm -f "$inj"

# KV front-end smoke: bench.sh captured the kv bin's JSON lines. The file
# must carry the deterministic per-op-class simulated keys (gated above by
# scripts/perf_gate.sh), the headline 4-shard / 16-worker / theta-0.99
# sweep point with per-op-class p50/p99/p999 and per-shard tails, and the
# undersized-quota demo showing admission control actually shedding while
# accepted ops survive a crash capture.
for key in '"mode":"deterministic"' '"kv_sim_ns_get"' '"kv_sim_ns_put"' \
    '"kv_sim_ns_delete"' '"kv_sim_ns_cas"' '"kv_sim_ns_scan"' \
    '"mode":"sweep"' '"shards":4,"workers":16,"theta":0.99' \
    '"get_host_p50_ns"' '"get_host_p99_ns"' '"get_host_p999_ns"' \
    '"cas_sim_p999_ns"' '"shard_drain_p99_ns"' '"shard_lock_p99_ns"' \
    '"rejected_slo"' '"shed_permille"' '"series_shard":0' '"points_len"' \
    '"mode":"quota_demo"' '"accepted_survive_crash":true'; do
    grep -q "$key" BENCH_kv.json ||
        { echo "BENCH_kv.json missing key: $key" >&2; exit 1; }
done
quota_rejected=$(grep '"mode":"quota_demo"' BENCH_kv.json |
    sed 's/.*"rejected_quota":\([0-9]*\).*/\1/')
[ "${quota_rejected:-0}" -gt 0 ] ||
    { echo "kv quota demo shed nothing (rejected_quota=$quota_rejected)" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    run python3 -c 'import json
[json.loads(l) for l in open("BENCH_kv.json") if l.strip()]'
fi

# KV crash smoke: crash a shard mid-CAS at a labeled commit-fence site,
# recover the image, and require exactly-once for every definitely-acked
# op (plus rejection of stale CAS retries after recovery).
run cargo test -q --offline -p specpmt-kv --test crash

# txstat: bench.sh also captured the per-phase profiler's JSON lines. Both
# runtimes must report their phase breakdowns with the full telemetry block,
# and the shared points must appear with the per-commit path and the
# group-commit path (batch telemetry included) side by side.
for key in '"bench":"txstat"' '"runtime":"seq"' '"runtime":"shared"' \
    '"commit_ns_avg"' '"commit_sim_ns_avg"' '"commit_sim_amortized_ns_avg"' \
    '"group_commit":true' '"fences_per_commit"' '"batch_txs_mean"' \
    '"mode":"sweep"' '"telemetry"' '"phases"' '"lock_wait"' '"wpq_drain"' \
    '"commit_ns_seq"' '"telemetry_overhead_pct"' '"series"' '"points_len"' \
    '"flight_recorder"' '"trace"'; do
    grep -q "$key" BENCH_txstat.json ||
        { echo "BENCH_txstat.json missing key: $key" >&2; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
    run python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open("BENCH_txstat.json") if l.strip()]
summary = [l for l in lines if "commit_ns_seq" in l][-1]
cp = json.load(open("BENCH_commit_path.json"))

# Deterministic cross-harness consistency: txstat's 1-thread sequential
# simulated commit cost and the commit_path bench's commit_sim_ns_seq
# measure the same transaction shape on the same device model, so they
# must agree within 3% — if they drift apart, one of the harnesses has
# silently changed its workload.
tx_sim = [l for l in lines if l.get("runtime") == "seq" and l.get("threads") == 1][-1]
sim_a, sim_b = tx_sim["commit_sim_ns_avg"], cp["commit_sim_ns_seq"]
assert abs(sim_a - sim_b) <= 0.03 * sim_b, (
    f"txstat seq commit_sim {sim_a:.1f} ns diverged from commit_path "
    f"commit_sim_ns_seq {sim_b:.1f} ns (3% consistency budget)")
print(f"txstat: sim cross-check {sim_a:.1f} ns ~ {sim_b:.1f} ns, OK")

# Inert-telemetry backstop: the telemetry-off sequential commit cost must
# stay in the same ballpark as the telemetry-free commit_path bench
# measured moments earlier in this same run (host wall-clock, so the
# bound is loose — it only catches telemetry-off work becoming expensive).
off, ref = summary["commit_ns_seq"], cp["commit_ns_seq"]
assert off <= 1.75 * ref, (
    f"telemetry-off commit cost {off:.1f} ns is >1.75x the commit_path "
    f"bench's {ref:.1f} ns from the same run")
print(f"txstat: telemetry-off {off:.1f} ns <= 1.75x commit_path {ref:.1f} ns, OK")

# Group-commit acceptance: at 16 threads with group commit on, the
# amortized simulated commit cost (committer staging + the combiner
# daemon's drain stalls, per commit) must be within 1.5x the sequential
# runtime's (its one row: one chain, one thread), with under one fence per
# commit.
g16 = [l for l in lines if l.get("runtime") == "shared" and l.get("threads") == 16
       and l.get("group_commit") and l.get("mode") == "point"][-1]
amort, seq_sim = g16["commit_sim_amortized_ns_avg"], tx_sim["commit_sim_ns_avg"]
assert amort <= 1.5 * seq_sim, (
    f"16-thread group-commit amortized sim cost {amort:.1f} ns exceeds "
    f"1.5x sequential {seq_sim:.1f} ns")
assert g16["fences_per_commit"] < 1.0, (
    f"group commit at 16 threads still fences per commit "
    f"({g16['fences_per_commit']:.3f})")
print(f"txstat: group commit 16t amortized {amort:.1f} ns <= 1.5x seq "
      f"{seq_sim:.1f} ns, {g16['fences_per_commit']:.3f} fences/commit, OK")

# Live-export schema: every point line carrying a series block must obey
# the fixed SeriesPoint schema (at_ns + the full counter-delta set + the
# five phase pairs), and the summed commit deltas must reconcile exactly
# with the cumulative commit count the same line reports — a lossless
# sampler neither drops nor double-counts an interval.
PHASES = ("commit", "commit_sim", "wpq_drain", "lock_wait", "batch_wait")
with_series = [l for l in lines if "series" in l]
assert with_series, "no txstat line carries a series block"
for l in with_series:
    s = l["series"]
    assert s["points_len"] == len(s["points"]) >= 1, s["points_len"]
    for p in s["points"]:
        assert "at_ns" in p and "commits" in p and "fences" in p, sorted(p)
        for ph in PHASES:
            assert f"{ph}_count" in p and f"{ph}_sum_ns" in p, (ph, sorted(p))
    at = [p["at_ns"] for p in s["points"]]
    assert at == sorted(at), "series timestamps must be monotone"
    if "commits" in l:
        delta_sum = sum(p["commits"] for p in s["points"])
        assert delta_sum == l["commits"], (delta_sum, l["commits"])
shared_series = [l for l in with_series if l.get("runtime") == "shared"]
assert shared_series, "the shared runtime points must carry a live series"
assert all("flight_recorder" in l for l in shared_series)
# Trace accounting: `capacity` is the per-thread ring size, `events` the
# merged total across every ring (tx threads plus the combiner daemon's),
# so events is bounded by capacity x (threads + 1); anything the rings
# evicted beyond that is what `dropped` counts exactly.
last = shared_series[-1]
tr = last["telemetry"]["trace"]
assert tr["capacity"] >= 1, tr
assert tr["events"] <= tr["capacity"] * (last.get("threads", 1) + 1), tr
print(f"txstat: {len(with_series)} series blocks OK "
      f"(last shared point: {shared_series[-1]['series']['points_len']} points, "
      f"trace {tr['events']}/{tr['capacity']} dropped {tr['dropped']})")
EOF
fi

echo "verify: OK"
