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

# Deprecation gate: the workspace keeps no #[deprecated] shim of its own (an
# API is replaced in the PR that retires it, callers included), so this
# only ever fires on a std item the toolchain has deprecated.
run env RUSTFLAGS="-D deprecated" cargo check --offline --workspace --all-targets

# No hidden inputs: the library, its bins, examples and tests read no
# environment variable (bins take flags; benchmark/ is its own package).
if grep -rn 'env::var' crates/*/src crates/*/benches crates/*/tests src examples tests \
    --include='*.rs'; then
    echo "an environment read is back (take an argument or a flag)" >&2
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

# Re-fork guard, hardware write path: what a transaction touches is kept
# in the one reused, sorted line set (hwtx::common::LineSet) — no tree of
# addresses anywhere in the crate — and epoch, page, eviction and redo
# records are encoded in place through record.rs's entry and header
# encoders, so the owned record types and their encoder do not appear
# outside the tests of the two runtimes that write chains; a retired epoch
# and an inspected image go through RecordReader. No pattern matches itself.
if grep -rn 'BTree[S]et' crates/hwtx/src; then
    echo "re-fork guard: a BTreeSet is back in crates/hwtx/src (use common::LineSet)" >&2
    exit 1
fi
for f in crates/hwtx/src/spec.rs crates/hwtx/src/hoop.rs crates/core/src/inspect.rs; do
    if nontest "$f" | grep -nE 'Log[R]ecord|Log[E]ntry|encode_[r]ecord|parse_[c]hain'; then
        echo "re-fork guard: $f handles owned records (use common::RecordBuf / RecordReader)" >&2
        exit 1
    fi
done

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
for key in '"bug_caught":true' '"fence_site_named":true' ' --target '; do
    grep -qF "$key" "$selftest_out" ||
        { echo "crashenum self-test output missing key: $key" >&2; exit 1; }
done
rm -f "$selftest_out"

# The repro command itself: one crash, replayed on the workload that
# reaches the site (non-zero exit on a bad target or a broken recovery).
run cargo run --release --offline -q -p specpmt-bench --bin crashenum -- \
    --target mt/group/pre_fence:1

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
run cargo bench --offline -p specpmt-bench --bench scaling -- \
    --smoke --threads 16 --app intruder

# Stripe-sweep smoke: two stripe sizes, one workload, fixed thread count;
# each line must carry the lock table's acquire/conflict counters.
run cargo bench --offline -p specpmt-bench --bench scaling -- \
    --smoke --stripe-bytes 64,256 --threads 4 --app intruder

# Media-provisioning sweep smoke: per-commit vs group-commit at two DIMM
# counts; the group-commit lines must attribute fences to the combiner
# daemon and carry the batch-occupancy histogram.
media_out=$(mktemp)
run cargo bench --offline -p specpmt-bench --bench scaling -- \
    --smoke --media-channels 1,12 --threads 4 --app kmeans-low | tee "$media_out"
for key in '"mode":"media"' '"group_commit":true' '"group_batches"' '"group_batch"'; do
    grep -q "$key" "$media_out" ||
        { echo "media sweep output missing key: $key" >&2; exit 1; }
done
rm -f "$media_out"

# Group-commit smoke: the shared runtime with the epoch/group-commit path
# and its combiner daemon forced on, at smoke scale. The line must show
# batched fences actually happening (fences_per_commit, batch occupancy).
group_out=$(mktemp)
run cargo run --release --offline -q -p specpmt-bench \
    --bin txstat -- --smoke --group-only | tee "$group_out"
for key in '"group_commit":true' '"fences_per_commit"' '"batch_txs_mean"' \
    '"commit_sim_amortized_ns_avg"'; do
    grep -q "$key" "$group_out" ||
        { echo "txstat --group-only output missing key: $key" >&2; exit 1; }
done
rm -f "$group_out"

# KV crash smoke: crash a shard mid-CAS at a labeled commit-fence site,
# recover the image, and require exactly-once for every definitely-acked
# op (plus rejection of stale CAS retries after recovery).
run cargo test -q --offline -p specpmt-kv --test crash

# Simulated-cost contract: the deterministic commit, recovery and kv costs
# are exact goldens inside the test run above (tests/telemetry_accounting.rs,
# tests/recovery.rs, crates/kv/tests/sim_golden.rs); host-time numbers come
# from benchmark/'s per-layer metrics and nowhere else. What is left to run
# here is the profiler's own acceptance check at full scale: 16-thread group
# commit within 1.5x the sequential amortized sim cost at < 1 fence per
# commit, and every live series reconciling exactly with its line's commit
# count (crates/bench/src/bin/txstat.rs).
echo "==> txstat --check"
cargo run --release --offline -q -p specpmt-bench --bin txstat -- --check >/dev/null

# The paper's figures and tables: every bin below is deterministic
# (simulated time and traffic only), and results/ holds its output, which
# README.md and EXPERIMENTS.md quote. Re-run them and compare, so a change
# that moves a figure has to regenerate the file (and correct the prose)
# in the same PR instead of leaving it to go stale.
results_out=$(mktemp -d)
for bin in fig01_sota_overheads fig12_software_speedup fig13_hardware_speedup \
    fig14_write_traffic fig15_memory_sensitivity micro_hashlog table1_config \
    table2_workload_stats table3_related_work; do
    echo "==> $bin vs results/$bin.txt"
    cargo run --release --offline -q -p specpmt-bench --bin "$bin" >"$results_out/$bin.txt"
    diff -u "results/$bin.txt" "$results_out/$bin.txt" ||
        { echo "results/$bin.txt is stale: regenerate it from the bin" >&2; exit 1; }
done
rm -rf "$results_out"

# One measurement system: the capture-and-gate pipeline that benchmark/
# superseded stays gone — no checked-in capture or baseline, no script
# that needs an interpreter beyond this shell, and none of the environment
# knobs that pipeline read (CHANGES.md keeps the history; ISSUE.md is the
# request that retired them). Both patterns are written so that they do
# not match their own line.
if git ls-files | grep -E '(^|/)BENCH_.*\.json$|^results/.*_baseline\.json$'; then
    echo "a bench capture or baseline is checked in again (judge with benchmark/)" >&2
    exit 1
fi
if grep -rnE 'python[3]' scripts; then
    echo "a script needs an interpreter (keep checks in cargo test or in the bins)" >&2
    exit 1
fi
if git grep -nE 'SPECPMT_(COMMIT_BASELINE|GATE_)' -- . ':!CHANGES.md' ':!ISSUE.md'; then
    echo "a knob of the retired capture-and-gate pipeline is back" >&2
    exit 1
fi

# One event stream: the volatile lifecycle ring, its event vocabulary and
# its two environment knobs are deleted — the runtime's events are the
# flight recorder's, reached through SpecSpmtShared's own sink and no
# second copy on the device — and the inspection example exists once. The
# history files (CHANGES / ROADMAP / EXPERIMENTS / ISSUE) are not searched;
# the patterns are written so that they do not match their own line.
if grep -rnE 'Trace[r]|Trace[E]vent|Event[K]ind|set_[t]racing|SPECPMT_[T]RACE' \
    crates src tests examples scripts README.md DESIGN.md .claude; then
    echo "the volatile event ring is back (record through the flight recorder)" >&2
    exit 1
fi
if grep -rnE 'attach_[b]lackbox|BlackBoxSink::[o]pen' crates; then
    echo "the flight recorder grew a second route or a reopen path again" >&2
    exit 1
fi
inspectors=$(find . -name log_inspect.rs -not -path '*/target/*')
[ "$(wc -l <<<"$inspectors")" -le 1 ] ||
    { echo "more than one log_inspect example:" $inspectors >&2; exit 1; }

# The paths that lost stay deleted: chains are registered once, at format
# time; recovery parses on the calling thread (`parse_threads` is the cost
# model's width); the checkpoint has no owned form and is folded by
# recovery's own last-writer-wins walk, not through a per-byte map; and
# the forward stable-sort replay is the reference that tests, crashsmoke
# and benchmark/ compare the engine with — nothing in production calls it
# (`kv::Shard::recover_image` is a method, not this function). History
# files are not searched; the patterns do not match their own line.
if grep -rnE 'register_[t]hread|grow_[s]hared|registered_[t]hreads|fn [d]etach' \
    crates src tests examples README.md DESIGN.md; then
    echo "dynamic thread registration is back (format the runtime with its thread count)" >&2
    exit 1
fi
if grep -nE 'thread::(s[c]ope|s[p]awn)' crates/core/src/recovery.rs; then
    echo "recovery spawns a thread again (the measured parse never paid for one)" >&2
    exit 1
fi
if grep -rnE 'Checkpoint[R]ecord|parse_[c]heckpoint' crates src tests examples; then
    echo "the owned checkpoint form is back (read_checkpoint + Entries decode it)" >&2
    exit 1
fi
if nontest crates/core/src/concurrent.rs | grep -nE 'BTree[M]ap|Rw[L]ock'; then
    echo "concurrent.rs folds through a map or locks its slot list again" >&2
    exit 1
fi
for f in $(find crates -path '*/src/*' -name '*.rs' ! -path 'crates/core/src/crashsmoke.rs'); do
    hits=$(nontest "$f" | grep -nE 'recovery::recover_[i]mage\(' || true)
    [ -z "$hits" ] ||
        { echo "$f calls the reference replay from production code:" >&2
          echo "$hits (call recover_image_opts)" >&2; exit 1; }
done

# One pool layout: every runtime that roots a log chain formats the
# descriptor and publishes heads through it; the fixed-root-slot format,
# its constants and the "descriptor or not" accessors stay deleted, and
# the hardware models and SPHT touch no root slot of their own (the undo
# region's two, in hwtx/src/common.rs, are not chain heads). The §5.1.2
# sampling controller was measured on Fig. 15 and deleted; the CSR bit
# stays. The four environment knobs that only pre-loaded builder fields
# are gone: CHANGES.md keeps the history and ISSUE.md is the request that
# retired them. The patterns do not match their own line.
if grep -rnE 'LEGACY_CHAIN_[S]LOTS|LOG_HEAD_SLOT_[B]ASE|BLOCK_BYTES_[S]LOT|is_[d]ynamic|dynamic_[l]ayout|desc_base [=]= 0' \
    crates src tests examples; then
    echo "the legacy fixed-slot pool layout is back (format a PoolLayout)" >&2
    exit 1
fi
for f in crates/hwtx/src/spec.rs crates/hwtx/src/hoop.rs crates/baselines/src/spht.rs; do
    if nontest "$f" | grep -nF 'root_off('; then
        echo "$f addresses a root slot itself (publish heads through PoolLayout)" >&2
        exit 1
    fi
done
if grep -rn 'adaptiv[e]' crates/hwtx/src; then
    echo "the unmeasured §5.1.2 controller is back (EXPERIMENTS.md, Figure 15)" >&2
    exit 1
fi
if git grep -nE 'SPECPMT_(GROUP_[C]OMMIT|GROUP_[L]INGER_NS|FLIGHT_[R]ECORDER|BBOX_[C]AP)' \
    -- . ':!CHANGES.md' ':!ISSUE.md'; then
    echo "an env knob that only pre-loads a builder field is back (set the builder)" >&2
    exit 1
fi

# No hidden inputs, resurrection guard: the env-knob table and its three
# variables, the selftest-only receipt reordering in `seal` and the second
# per-thread transaction trait stay deleted (history files not searched).
if grep -rnE 'Kno[b]s(::| \{)|Knob[E]rror|SPECPMT_(TELE[M]ETRY|BENCH_[S]MOKE|CRASH_[T]ARGET)|bbox_[e]ager|Tx[T]hread' \
    crates src tests examples scripts README.md DESIGN.md .claude; then
    echo "an env knob or a harness-only hook is back in the library (flags and public API only)" >&2
    exit 1
fi

echo "verify: OK"
