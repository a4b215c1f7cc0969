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

# Doc gate: every intra-doc link resolves, and no public doc links a
# private item.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Deprecation gate: the workspace keeps no #[deprecated] shim of its own (an
# API is replaced in the PR that retires it, callers included), so this
# only ever fires on a std item the toolchain has deprecated.
run env RUSTFLAGS="-D deprecated" cargo check --offline --workspace --all-targets

# No hidden inputs: the library, its bins, examples and tests read no
# environment variable (bins take flags; benchmark/ is its own package).
if grep -rn 'env::var' crates/*/src crates/*/tests src examples tests --include='*.rs'; then
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
# and the WPQ-drain telemetry live in one file of crates/core/src
# (record.rs only defines the encoder), the WPQ service-time arithmetic is
# read in one file of crates/pmem/src (config.rs only defines the field),
# and the crash-plan ticks and the what-survives policy walk are called in
# one file of crates/pmem/src (crash.rs, which also defines them). A second
# hit means a runtime or a device grew its own copy again.
nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }
nontest_files_with() { # <fixed string> <dir> <file that only defines it>
    for f in "$2"/*.rs; do
        [ "$(basename "$f")" = "$3" ] && continue
        # Not `grep -q`: its early exit SIGPIPEs awk, which pipefail reads as a miss.
        if nontest "$f" | grep -F -- "$1" >/dev/null; then
            echo "$f"
        fi
    done
}
for probe in 'RecordHeader {|crates/core/src|record.rs' \
    'Phase::WpqDrain|crates/core/src|-' \
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

# Re-fork guard, one frame codec: every checksummed on-PM format (log
# record, checkpoint, layout descriptor, undo entry, hash-log generation,
# black-box slot and region header) is sealed and verified through
# crates/pmem/src/frame.rs and decodes its fields through the frame's one
# bounded reader. Outside #[cfg(test)], across crates/*/src, a stored
# checksum is compared in one line (`frame::verify`) and a field is
# decoded in one line (the `Wire` impl of frame.rs, `<$t>::from_le_bytes`)
# — a second parse loop anywhere would have to add one of either; txn's
# access.rs keeps the typed `read_u32` of application data, which is no
# frame. The pool header's magic is checked in one line
# (`PoolHeader::read`). And the per-byte
# `HashMap<usize, u64>` index survives only as the oracle in
# tests/properties.rs.
production_sources() { find crates -path '*/src/*' -name '*.rs' | sort; }
count_in_sources() { # <extended regex>: "file:count" for every source that matches
    for f in $(production_sources); do
        n=$(nontest "$f" | grep -cE -- "$1" || true)
        [ "$n" -eq 0 ] || echo "$f:$n"
    done
}
for probe in \
    'crates/pmem/src/frame.rs:1|(word_hash|seal|record_checksum|fnv1a64|checksum)\(.*\) *[!=]= |[!=]= *(word_hash|seal|record_checksum|fnv1a64|checksum)\(|\b(sum|cksum|checksum|stored) *[!=]= |[!=]= *(sum|cksum|checksum|stored)\b' \
    'crates/pmem/src/frame.rs:1 crates/txn/src/access.rs:1|u(8|16|32)::from_le_[b]ytes|>::from_le_[b]ytes' \
    'crates/pmem/src/pool.rs:1|[!=]= *([a-z_]+::)*POOL_MAGIC\b|POOL_MAGIC *[!=]='; do
    IFS='|' read -r want pat <<<"$probe"
    got=$(count_in_sources "$pat" | tr '\n' ' ' | sed 's/ $//')
    [ "$got" = "$want" ] ||
        { echo "re-fork guard: '$pat' must match only $want, found: ${got:-(none)}" >&2; exit 1; }
done
if grep -nF 'HashMap<usize, u64>' crates/core/src/reclaim.rs; then
    echo "re-fork guard: the per-byte freshness map is back in reclaim.rs" >&2
    exit 1
fi

# Re-fork guard, one frame schema: each on-PM format is declared once,
# with `frame!`, in the module that owns it (record.rs: record, entry and
# block headers, checkpoint header, anchor; layout.rs, undo.rs, hashlog.rs,
# pool.rs: one each; blackbox.rs: slot and region header), and its
# encoder, decoder and offsets come from that declaration. So outside
# #[cfg(test)] and comment lines, no source of crates/core/src or
# crates/pmem/src codes a little-endian field by hand: `to_le_bytes` /
# `from_le_bytes` appear only in frame.rs (the `Wire` impls, the word
# hash's word loop) and in the listed exceptions — the devices' and the
# crash image's u64 word accessors and core's checksum word loop. No
# pattern matches its own line.
got=$(for f in $(production_sources); do
    n=$(nontest "$f" | awk '/^[a-z_:]*frame! *[{]/ { inside = 1 }
        inside && /^ *(pub(\([a-z]+\))? )?struct / { n++ } /^[}]/ { inside = 0 } END { print n + 0 }')
    [ "$n" -eq 0 ] || echo "$f:$n"
done | tr '\n' ' ' | sed 's/ $//')
want="crates/core/src/hashlog.rs:1 crates/core/src/layout.rs:1 crates/core/src/record.rs:5"
want="$want crates/core/src/undo.rs:1 crates/pmem/src/blackbox.rs:2 crates/pmem/src/pool.rs:1"
[ "$got" = "$want" ] ||
    { echo "re-fork guard: frame! declarations must be $want, found: ${got:-(none)}" >&2; exit 1; }
got=$(for f in crates/core/src/*.rs crates/pmem/src/*.rs; do
    [ "$f" = crates/pmem/src/frame.rs ] && continue
    n=$(nontest "$f" | grep -vE '^ *//' | grep -oE '(to|from)_le_[b]ytes' | wc -l)
    [ "$n" -eq 0 ] || echo "$f:$n"
done | tr '\n' ' ' | sed 's/ $//')
want="crates/core/src/checksum.rs:1 crates/pmem/src/crash.rs:2 crates/pmem/src/device.rs:3"
want="$want crates/pmem/src/shared.rs:5"
[ "$got" = "$want" ] ||
    { echo "re-fork guard: little-endian field coding outside frame.rs must be only $want, found: ${got:-(none)}" >&2; exit 1; }

# Re-fork guard, one fold. A byte is fresh when no younger record wrote
# it, and that comparison is made in one place, FreshnessIndex::fresh_mask:
# fresh_runs (the fold's per-byte runs) and is_fresh ("has a fresh byte")
# are its only callers, the fold is fresh_runs' only caller, and nothing
# outside reclaim.rs probes the index byte by byte (newest_ts). The fold is
# the one compaction: rewrite_chain and forensics' ChainSummary both call
# it, and the record-by-record compact_encoded stays deleted. rewrite_chain
# streams the folded chain into the new one with one append, never record
# by record. And the fold takes freshness from the resident index and
# allocates in proportion to the chain: reclaim.rs neither calls recovery's
# pool-sized fold_last_writer_wins nor reads a pool's size.
fns_matching() { # <file> <awk regex>: the functions whose bodies match
    nontest "$1" | awk -v pat="$2" '
        /^ *(pub(\(crate\))? )?fn / {
            name = $0; sub(/^ *(pub(\(crate\))? )?fn /, "", name); sub(/[<(].*/, "", name)
        }
        $0 ~ pat { print name }' | sort -u | tr '\n' ' ' | sed 's/ $//'
}
got=$(fns_matching crates/core/src/reclaim.rs '<= ts([^a-z_.]|$)')
[ "$got" = fresh_mask ] ||
    { echo "re-fork guard: freshness is compared outside fresh_mask: ${got:-(none)}" >&2; exit 1; }
got=$(fns_matching crates/core/src/reclaim.rs 'self[.]fresh_mask[(]')
[ "$got" = "fresh_runs is_fresh" ] ||
    { echo "re-fork guard: fresh_mask callers are '$got', want fresh_runs and is_fresh" >&2; exit 1; }
got=$(fns_matching crates/core/src/reclaim.rs 'self[.]fresh_runs[(]')
[ "$got" = fold ] ||
    { echo "re-fork guard: fresh_runs callers are '$got', want the fold" >&2; exit 1; }
got=$(count_in_sources 'newest_ts[(]' | tr '\n' ' ' | sed 's/ $//')
[ "$got" = crates/core/src/reclaim.rs:1 ] ||
    { echo "re-fork guard: the index is probed byte by byte (newest_ts) in: $got" >&2; exit 1; }
got=$(count_in_sources '\bindex[.]fold[(]' | tr '\n' ' ' | sed 's/ $//')
[ "$got" = "crates/core/src/inspect.rs:1 crates/core/src/reclaim.rs:1" ] ||
    { echo "re-fork guard: the fold's callers are '$got', want rewrite_chain and forensics" >&2; exit 1; }
if grep -rn 'compact_encoded' crates src tests examples --include='*.rs'; then
    echo "re-fork guard: the record-by-record compaction is back (fold the chain)" >&2
    exit 1
fi
rewrite=$(nontest crates/core/src/reclaim.rs |
    awk '/fn rewrite_chain/ { on = 1 } on { print } on && /^    }$/ { exit }')
appends=$(printf '%s\n' "$rewrite" | grep -c '[.]append(' || true)
if [ "$appends" -ne 1 ] || printf '%s\n' "$rewrite" | grep -E '\b(for|while|loop)\b|encoded_records' >/dev/null; then
    echo "re-fork guard: rewrite_chain appends record by record again (one append of the fold)" >&2
    exit 1
fi
if nontest crates/core/src/reclaim.rs | grep -nE 'fold_last_writer_wins|source_len[(]|[.]size[(][)]'; then
    echo "re-fork guard: reclamation sizes work to the pool (fold the chain against the index)" >&2
    exit 1
fi

# One checksum, hashed once: a record is hashed whole at seal and at read
# (frame::word_hash), so the streaming hasher, its finishing step and the
# write set's dirty-stream flag stay deleted. And recovery copies only the
# records that replay: outside #[cfg(test)], whole chains are copied out of
# an image only by the reference replay, `recover_image`. Neither pattern
# matches its own line.
if grep -rnE 'Fnv1[a]\b|record_checksum_[f]inish|hash_[d]irty' crates src tests examples; then
    echo "the streaming record hasher is back (hash the sealed payload with record_checksum)" >&2
    exit 1
fi

copiers=$(nontest crates/core/src/recovery.rs | awk '
    /^(pub(\(crate\))? )?fn / { name = $0; sub(/^(pub(\(crate\))? )?fn /, "", name); sub(/[<(].*/, "", name) }
    /read_chain_encode[d]\(/ { print name }' | sort -u)
[ "$copiers" = recover_image ] ||
    { echo "recovery copies whole chains outside recover_image: ${copiers:-(none)}" >&2; exit 1; }

# Re-fork guard, the checkpoint seek. A checkpoint's anchor table is encoded
# and decoded in record.rs alone: outside #[cfg(test)], no other
# crates/*/src file names the checkpoint magic, the checkpoint header, or
# the anchor frame's stride, table or decoder. And the
# seek that walks a live chain's forward pointers to an anchor is written
# once, as recovery.rs's `seek`: no other function there follows a forward
# pointer, bounds a walk by the reader's cycle guard or resumes a reader at
# an anchor, and no file but record.rs (which defines the cycle guard) and
# recovery.rs does either. Comment lines are not searched.
codecs=$(for f in $(production_sources); do
    if nontest "$f" | grep -vE '^ *//' |
        grep -E 'ANCHOR_BYTES|CKPT_MAGIC|CheckpointHeader|Anchor::(LEN|FIELDS|decode)' >/dev/null; then
        echo "$f"
    fi
done | tr '\n' ' ' | sed 's/ $//')
[ "$codecs" = crates/core/src/record.rs ] ||
    { echo "re-fork guard: the checkpoint frame is coded outside record.rs: $codecs" >&2; exit 1; }
seekers=$(nontest crates/core/src/recovery.rs | grep -vE '^ *//' | awk '
    /^(pub(\(crate\))? )?fn / { name = $0; sub(/^(pub(\(crate\))? )?fn /, "", name); sub(/[<(].*/, "", name) }
    /read_u64\(|max_hops\(|anchor\.at/ { print name }' | sort -u)
[ "$seekers" = seek ] ||
    { echo "re-fork guard: recovery.rs walks to an anchor outside seek: ${seekers:-(none)}" >&2; exit 1; }
for f in $(production_sources); do
    case "$f" in crates/core/src/record.rs | crates/core/src/recovery.rs) continue ;; esac
    if nontest "$f" | grep -vE '^ *//' | grep -nE 'max_hops\(|\.at\.block'; then
        echo "re-fork guard: $f walks a chain to an anchor (recovery.rs's seek does)" >&2
        exit 1
    fi
done

# One undo codec and one checksum. The undo entry that PMDK's snapshots and
# the hardware models' cold lines share is encoded, checksummed and
# scanned in core/src/undo.rs alone, which also declares its two root
# slots: pmdk.rs and hwtx's common.rs name neither a header size nor a
# checksum of their own. Outside #[cfg(test)], no crates/*/src file but
# checksum.rs calls FNV-1a: the flight recorder's format is sealed with
# word_hash like every other frame. No pattern matches its own line.
for f in crates/baselines/src/pmdk.rs crates/hwtx/src/common.rs; do
    if grep -nE 'ENTRY_[H]DR|entry_[c]hecksum' "$f"; then
        echo "re-fork guard: $f encodes or verifies undo entries itself (use core::undo)" >&2
        exit 1
    fi
done
for f in $(find crates -path '*/src/*' -name '*.rs' ! -path crates/core/src/undo.rs); do
    if nontest "$f" | grep -nE 'UNDO_(BASE|SIZE)_[S]LOT'; then
        echo "re-fork guard: $f addresses the undo root slots (use core::undo)" >&2
        exit 1
    fi
done
for f in $(find crates -path '*/src/*' -name '*.rs' ! -path crates/core/src/checksum.rs); do
    if nontest "$f" | grep -nF 'fnv1a64('; then
        echo "re-fork guard: $f checksums with FNV-1a (on-PM formats use word_hash)" >&2
        exit 1
    fi
done

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

# A shared-device load takes no lock and builds nothing: the volatile image
# is atomic words, so outside #[cfg(test)] the five bodies of `read`,
# `peek_into` and `peek_u64` in shared.rs, and the two helpers every load
# goes through (`for_pieces`, `load_words`), take no shard lock and never
# build a segment (an unbuilt one reads as zeros), and the byte-vector image
# stays gone. The freshness index keeps one timestamp per word; only its
# side map holds eight. No pattern matches its own line.
loads=$(nontest crates/pmem/src/shared.rs | awk '
    /^ *(pub )?fn (read|peek_into|peek_u64|for_pieces|load_words)[(<]/ {
        body = 1; indent = $0; sub(/[^ ].*/, "", indent); print "@fn" }
    body { print }
    body && $0 == indent "}" { body = 0 }')
[ "$(grep -c '^@fn' <<<"$loads")" -eq 7 ] ||
    { echo "load guard: did not find the seven load bodies in shared.rs" >&2; exit 1; }
if grep -nE 'shar[d]\(|\.loc[k]\(' <<<"$loads"; then
    echo "a shared-device load takes a lock again (load the atomic words)" >&2
    exit 1
fi
if grep -nE '\.segmen[t]\(|\.buil[d]\(|get_or_ini[t]' <<<"$loads"; then
    echo "a shared-device load builds a segment (an unbuilt one reads as zeros)" >&2
    exit 1
fi

# The shared device builds its images lazily, one SEGMENT_BYTES segment on
# the first store or line flush that reaches it. Outside the body of the
# segment builder (`Segment::build`), nothing in shared.rs makes atomic
# words or a shard's persisted bytes, and `SharedPmemDevice::new` builds
# no segment. No pattern matches its own line.
eager=$(nontest crates/pmem/src/shared.rs | awk '
    /^ *fn build\(len: usize\)/ { skip = 1; indent = $0; sub(/[^ ].*/, "", indent) }
    !skip { print }
    skip && $0 == indent "}" { skip = 0 }')
if grep -nE 'AtomicU64::ne[w]|Mutex::new\((vec!\[|\[)0' <<<"$eager"; then
    echo "the shared device's images are allocated outside the segment builder" >&2
    exit 1
fi
new_body=$(nontest crates/pmem/src/shared.rs | awk '
    /^    pub fn new\(cfg: PmemConfig\)/ { body = 1; print "@fn" }
    body { print }
    body && $0 == "    }" { body = 0 }')
[ "$(grep -c '^@fn' <<<"$new_body")" -eq 1 ] ||
    { echo "eager-image guard: did not find SharedPmemDevice::new in shared.rs" >&2; exit 1; }
if grep -nE 'Segment::buil[d]|\.segmen[t]\(|\.buil[d]\(|get_or_ini[t]' <<<"$new_body"; then
    echo "SharedPmemDevice::new builds a segment (build one on its first store)" >&2
    exit 1
fi
if grep -nE 'volatile: Vec<u[8]>' crates/pmem/src/shared.rs; then
    echo "the shared device's byte-vector volatile image is back" >&2
    exit 1
fi
if grep -nE 'ts: \[u64; WOR[D]\]' crates/core/src/reclaim.rs; then
    echo "the freshness index keeps eight timestamps per word again" >&2
    exit 1
fi

# Re-fork guard, hardware write path: what a transaction touches is kept
# in the one reused, sorted line set (hwtx::common::LineSet) — no tree of
# addresses anywhere in the crate — and epoch, page, eviction and redo
# records are encoded in place through record.rs's entry and header
# encoders, so the owned record types and their encoder do not appear
# outside the tests of the two runtimes that write chains; a retired epoch
# and an image read by the one crash-image reader (`forensics`, in
# inspect.rs) go through RecordReader. No pattern matches itself.
if grep -rn 'BTree[S]et' crates/hwtx/src; then
    echo "re-fork guard: a BTreeSet is back in crates/hwtx/src (use common::LineSet)" >&2
    exit 1
fi
grep -q '^pub fn forensics(' crates/core/src/inspect.rs ||
    { echo "re-fork guard: the crash-image reader left inspect.rs (retarget this guard)" >&2; exit 1; }
for f in crates/hwtx/src/spec.rs crates/hwtx/src/hoop.rs crates/core/src/inspect.rs; do
    if nontest "$f" | grep -nE 'Log[R]ecord|Log[E]ntry|encode_[r]ecord|parse_[c]hain'; then
        echo "re-fork guard: $f handles owned records (use common::RecordBuf / RecordReader)" >&2
        exit 1
    fi
done

# Re-fork guard, the comparators' logs. SPHT writes its records through
# core's record protocol (TxLog) and HOOP through hwtx::common::RecordBuf,
# its write set coalesced in write order by core::WriteSet. So outside
# #[cfg(test)], no crates/baselines/src file and not hoop.rs seals a record
# header (encode_header, or a RecordHeader of its own), reserves one by hand
# (a zeroed REC_HDR buffer) or spells an entry header inline (by hand or as
# an EntryHeader); and hoop.rs sorts nothing (replaying a
# write set in address order loses write order). No pattern matches itself.
for f in crates/baselines/src/*.rs crates/hwtx/src/hoop.rs; do
    if nontest "$f" | grep -nE 'encode_[h]eader\(|(Record|Entry)[H]eader|\[0u8; (REC|ENTRY)_[H]DR\]|as u(64|32)\)\.to_le_[b]ytes'; then
        echo "re-fork guard: $f encodes a log record by hand (use TxLog / RecordBuf)" >&2
        exit 1
    fi
done
if nontest crates/hwtx/src/hoop.rs | grep -nE '\.sor[t]'; then
    echo "re-fork guard: HOOP sorts its write intents again (core::WriteSet keeps write order)" >&2
    exit 1
fi

# One entry header per contiguous run, written by the commit path alone.
# Outside #[cfg(test)], the write set's tail extension is called only from
# TxLog::stage, in `stage_piece`, its body for each piece of at most
# MAX_ENTRY_LEN bytes (HOOP's coalesce keeps its patch-or-stage rule), and the
# log bytes a write staged are measured where they are staged: TxLog::stage
# returns the record's growth, so no source computes an entry's size for
# TxStats::log_bytes. No pattern matches its own line.
got=$(count_in_sources 'extend_tai[l][(]' | tr '\n' ' ' | sed 's/ $//')
[ "$got" = "crates/core/src/engine.rs:1 crates/core/src/writeset.rs:1" ] &&
    [ "$(fns_matching crates/core/src/engine.rs 'extend_tai[l][(]')" = stage_piece ] ||
    { echo "re-fork guard: the tail entry is extended outside TxLog::stage: $got" >&2; exit 1; }
got=$(count_in_sources 'ENTRY_HD[R] [+] data[.]len[(]|log_bytes.*ENTRY_HD[R]' | tr '\n' ' ' | sed 's/ $//')
[ -z "$got" ] ||
    { echo "re-fork guard: log bytes recomputed outside TxLog::stage: $got" >&2; exit 1; }

# A record is stored into its chain once, at the seal. Outside
# #[cfg(test)], TxLog::reserve only reads the tail of a chain it borrows
# shared, and TxLog's stage_piece edits the write set and touches no store
# and no chain: neither body names a store or a `&mut LogArea`, nor calls a
# chain method but `tail`. The per-write chain edits stay deleted: no
# production source names `tail_len`, `behind_tail`, `value_cursor` or a
# `write_at`. No pattern matches its own line.
for fn in reserve stage_piece; do
    body=$(nontest crates/core/src/engine.rs |
        awk -v f="$fn" '$0 ~ "fn " f "[<(]" { on = 1 } on { print } on && /^    }$/ { exit }')
    [ -n "$body" ] || { echo "re-fork guard: TxLog::$fn is gone from engine.rs (retarget this guard)" >&2; exit 1; }
    if grep -nE '[Ss]tor[e]|&mut LogAre[a]' <<<"$body" ||
        grep -oE 'area[.][a-z_]+' <<<"$body" | grep -vx 'area[.]tai[l]'; then
        echo "re-fork guard: TxLog::$fn stores into the log (the seal appends the record)" >&2
        exit 1
    fi
done
got=$(count_in_sources '\b(tail_le[n]|behind_tai[l]|value_curso[r]|write_a[t])\b' | tr '\n' ' ' | sed 's/ $//')
[ -z "$got" ] ||
    { echo "re-fork guard: a per-write chain edit is back: $got" >&2; exit 1; }

# One entry-header constructor: `EntryHeader::new` in record.rs builds
# every log entry header, and is where an offset past 48 bits or a length
# past 16 is refused. Outside #[cfg(test)], no production source spells an
# `EntryHeader { .. }` literal — in record.rs the frame declaration and the
# impl block are the two lines that put a brace after the name — and in
# record.rs only `new` sets the address fields. No pattern matches its own
# line.
got=$(count_in_sources 'EntryHeade[r] *[{]' | tr '\n' ' ' | sed 's/ $//')
[ "$got" = crates/core/src/record.rs:2 ] &&
    [ "$(fns_matching crates/core/src/record.rs 'addr_(l[o]|h[i]): *[(]?addr')" = new ] ||
    { echo "re-fork guard: an entry header is built outside EntryHeader::new: $got" >&2; exit 1; }

# One cache-line planner: which lines a set of byte ranges touches, each
# once, ascending, is decided by crates/pmem/src/geometry.rs alone
# (`lines_touching`, `coalesce_lines`). Flushes plan through `clwb_ranges`
# and background writes through `background_ranges`; the per-range
# background write stays deleted, no other file defines a line iterator,
# and outside #[cfg(test)] no production source spells a range-to-line
# loop (`addr / CACHE_LINE..=` or `line_of(a)..=line_of(b)`). No pattern
# matches its own line.
if grep -rnE 'background_range_[w]rite' crates src tests examples README.md DESIGN.md; then
    echo "the per-range background write is back (use PmemDevice::background_ranges)" >&2
    exit 1
fi
for f in $(production_sources); do
    [ "$f" = crates/pmem/src/geometry.rs ] && continue
    if grep -nE 'fn lines_[t]ouching' "$f" ||
        nontest "$f" | grep -nE '/ *CACHE_LIN[E] *[.][.]=|line_o[f][(][^)]*[)] *[.][.]= *line_of[(]'; then
        echo "$f plans cache lines itself (use specpmt_pmem's lines_touching / coalesce_lines)" >&2
        exit 1
    fi
done

# One SplitMix64 mixer, in crates/pmem/src/rng.rs: STAMP's generator, the
# 2PL backoff jitter, kv's zipf scramble and the tests' streams draw from
# it. Its finalizer constants, in any case and with or without `_`, appear
# nowhere else under crates, src, tests or examples (benchmark/ is its own
# package).
spelled() { printf '0x%s' "$(echo "$1" | sed 's/./_*&/g')"; }
mixer_constants="$(spelled BF58476D1CE4E5B9)|$(spelled 94D049BB133111EB)"
if grep -rniE --include='*.rs' "$mixer_constants" crates src tests examples |
    grep -v '^crates/pmem/src/rng\.rs:'; then
    echo "re-fork guard: a copy of the SplitMix64 mixer (use specpmt_pmem::SplitMix64)" >&2
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
run cargo run --release --offline -q -p specpmt-check --bin crashenum -- --cap 2 \
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
cargo run --release --offline -q -p specpmt-check --bin crashenum -- --selftest-reorder \
    | tee "$selftest_out" ||
    { echo "crashenum self-test: injected ordering bug was NOT caught" >&2; exit 1; }
for key in '"bug_caught":true' '"fence_site_named":true' ' --target '; do
    grep -qF "$key" "$selftest_out" ||
        { echo "crashenum self-test output missing key: $key" >&2; exit 1; }
done
rm -f "$selftest_out"

# The repro command itself: one crash, replayed on the workload that
# reaches the site (non-zero exit on a bad target or a broken recovery).
run cargo run --release --offline -q -p specpmt-check --bin crashenum -- \
    --target mt/group/pre_fence:1

# Forensics self-test: the flight-recorder decode must tell a correct
# group-commit runtime (clean report) from one with PR 7's
# receipt-before-fence bug re-injected (violation naming
# mt/group/pre_fence). A black box that cannot implicate the bug class it
# records for is decoration.
forensics_out=$(mktemp)
echo "==> crashenum --selftest-forensics (re-injected receipt bug must be named)"
cargo run --release --offline -q -p specpmt-check --bin crashenum -- --selftest-forensics \
    | tee "$forensics_out" ||
    { echo "crashenum forensics self-test failed" >&2; exit 1; }
for key in '"clean_ok":true' '"bug_caught":true' '"site_named":true'; do
    grep -qF "$key" "$forensics_out" ||
        { echo "forensics self-test output missing key: $key" >&2; exit 1; }
done
rm -f "$forensics_out"

# KV crash smoke: crash a shard mid-CAS at a labeled commit-fence site,
# recover the image, and require exactly-once for every definitely-acked
# op (plus rejection of stale CAS retries after recovery).
run cargo test -q --offline -p specpmt-kv --test crash

# Simulated-cost contract: the deterministic commit, recovery and kv costs
# are exact goldens inside the test run above (tests/telemetry_accounting.rs,
# tests/recovery.rs, crates/kv/tests/sim_golden.rs); host-time numbers come
# from benchmark/'s per-layer metrics and nowhere else. What is left to run
# here is the profiler's own acceptance check at full scale: 16-thread group
# commit within 1.5x the sequential amortized sim cost at < 1 device fence
# per sealed record (crates/bench/src/bin/txstat.rs). Its 8- and 16-thread
# group-commit points must also show the batching: fences, occupancy,
# amortized sim cost.
txstat_out=$(mktemp)
echo "==> txstat --check"
cargo run --release --offline -q -p specpmt-bench --bin txstat -- --check >"$txstat_out"
for threads in 8 16; do
    line=$(grep -F "\"mode\":\"point\",\"threads\":$threads,\"group_commit\":true" "$txstat_out" || true)
    for key in '"fences_per_commit"' '"batch_txs_mean"' '"commit_sim_amortized_ns_avg"'; do
        grep -qF "$key" <<<"$line" ||
            { echo "txstat $threads-thread group-commit point missing key: $key" >&2; exit 1; }
    done
done
rm -f "$txstat_out"

# A misspelt flag is an error, not a default run: both bins print their
# usage and exit 2 on an argument they do not know.
echo "==> txstat --chek and crashenum --chek (unknown arguments must fail)"
for pkg_bin in specpmt-bench:txstat specpmt-check:crashenum; do
    status=0
    cargo run --release --offline -q -p "${pkg_bin%:*}" --bin "${pkg_bin#*:}" -- --chek \
        >/dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] ||
        { echo "${pkg_bin#*:} ran with an unknown argument (exit $status, want 2)" >&2; exit 1; }
done

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

# One crash-image reader: `forensics` reports an image's chains and its
# flight recorder in one ForensicReport, and the recorder's vocabulary
# lives beside its format in specpmt_pmem::blackbox. The second reader,
# its report, the export trait both implemented, the telemetry copy of the
# vocabulary and the example's flag that chose between the two reports
# stay deleted (history not searched; no self-match).
if grep -rnE 'inspect_[i]mage|Inspect[R]eport|Stat[E]xport|telemetry::[b]lackbox|--[f]orensics' \
    crates src tests examples README.md DESIGN.md .claude ||
    [ -e crates/telemetry/src/blackbox.rs ]; then
    echo "a second crash-image reader or its export trait is back (use forensics)" >&2
    exit 1
fi
echo "==> log_inspect (report tables; JSON at a chosen crash; a bad site exits 2)"
li_out=$(cargo run --release --offline -q --example log_inspect)
[ "$(tail -n 1 <<<"$li_out")" = "log_inspect OK" ] ||
    { echo "log_inspect did not end with 'log_inspect OK'" >&2; exit 1; }
li_out=$(cargo run --release --offline -q --example log_inspect -- --json --crash mt/commit/fence:2) ||
    { echo "log_inspect --json --crash mt/commit/fence:2 failed" >&2; exit 1; }
for key in '"chains":[' '"recorder_present":true'; do
    grep -qF "$key" <<<"$li_out" ||
        { echo "log_inspect --json output missing key: $key" >&2; exit 1; }
done
li_rc=0
cargo run --release --offline -q --example log_inspect -- --crash no/such_site:1 \
    >/dev/null 2>&1 || li_rc=$?
[ "$li_rc" = 2 ] || { echo "log_inspect took a bad crash site (exit $li_rc, want 2)" >&2; exit 1; }

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
for f in $(find crates -path '*/src/*' -name '*.rs' ! -path 'crates/check/src/crashsmoke.rs'); do
    hits=$(nontest "$f" | grep -nE 'recovery::recover_[i]mage\(' || true)
    [ -z "$hits" ] ||
        { echo "$f calls the reference replay from production code:" >&2
          echo "$hits (call recover_image_opts)" >&2; exit 1; }
done

# One pool layout: every runtime that roots a log chain formats the
# descriptor and publishes heads through it; the fixed-root-slot format,
# its constants and the "descriptor or not" accessors stay deleted, and
# the hardware models and SPHT touch no root slot of their own (the undo
# region's two are core/src/undo.rs's, and are not chain heads). The §5.1.2
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
# variables, the selftest-only receipt reordering in `seal`, the second
# per-thread transaction trait and HwSpecPmt's test-bound accessors stay
# deleted (history files not searched).
if grep -rnE 'Kno[b]s(::| \{)|Knob[E]rror|SPECPMT_(TELE[M]ETRY|BENCH_[S]MOKE|CRASH_[T]ARGET)|bbox_[e]ager|Tx[T]hread|config_epoch_[o]verhead|undo_[u]sed' \
    crates src tests examples scripts README.md DESIGN.md .claude; then
    echo "an env knob or a harness-only hook is back in the library (flags and public API only)" >&2
    exit 1
fi

# One drain policy: a combiner drains once elected. The batch window, its urgent
# close and the 2PL slam stay deleted (history not searched; no self-match).
if grep -rnE 'group_linger_[n]s|with_[l]inger|commit_[u]rgent|close_[n]ow|MAX_LINGER_[R]OUNDS|CONTENDED_[S]LAM' \
    crates src tests examples README.md DESIGN.md .claude; then
    echo "the group-commit batch window is back (combiners drain at once)" >&2
    exit 1
fi

# One combiner: under group commit the runtime starts and owns the drain
# thread. Self-elected flat combining, the opt-in daemon spawn and its
# handle stay deleted (history not searched; no self-match), and outside
# #[cfg(test)] one production call site drains a batch. crates/check is not
# production: its reorder self-test drives a bare committer of its own.
if grep -rnE 'spawn_group_[c]ombiner|GroupCombiner[D]aemon|set_daemon_[c]ombining' \
    crates src tests examples README.md DESIGN.md; then
    echo "a second way to elect the group-commit combiner is back" >&2
    exit 1
fi
drainers=$(count_in_sources '\.drain_next\(' | { grep -v '^crates/check/' || true; } | tr '\n' ' ' | sed 's/ $//')
[ "$drainers" = crates/core/src/concurrent.rs:1 ] ||
    { echo "drain_next must have one production caller, found: ${drainers:-(none)}" >&2; exit 1; }

# One measurement system, finished: crates/bench keeps the figures and txstat
# (crashenum is crates/check's). The wall-clock harness, bench targets, sweeps and retired
# options stay deleted (history not searched; no self-match).
if [ -d crates/bench/benches ] || grep -n '^\[\[[b]ench\]\]' crates/bench/Cargo.toml; then
    echo "a bench target is back in crates/bench (host time is benchmark/'s)" >&2
    exit 1
fi
if grep -rnE 'bench_with_[s]etup|Bench[R]eport|print_(mt_[s]caling|stripe_[s]weep|media_[s]weep)|MtRun[C]onfig|--stripe-[b]ytes|--group-[o]nly|ReclaimMode::[D]isabled|NoLog[C]onfig' \
    crates src tests examples README.md DESIGN.md .claude; then
    echo "a deleted sweep, bench harness or option is back" >&2
    exit 1
fi

# Variants no figure, bin or benchmark ran stay deleted: the sequential
# runtime reclaims on its background core only (no reclaim mode),
# SpecSPMT-DP is the sequential runtime's (no shared-runtime DP, so group
# commit drains log lines only) and SpecHPMT has no speculative-logging
# switch (history not searched; no self-match).
if grep -rnE 'Reclaim[M]ode|reclaim_[m]ode|spec_[e]nabled|set_speculative_[l]ogging' \
    crates src tests examples README.md DESIGN.md .claude ||
    grep -rnE 'data_[l]ines|data_[p]lan' crates/core/src crates/txn/src ||
    grep -nE 'fn data_[p]ersistence' crates/core/src/concurrent.rs; then
    echo "a deleted runtime variant is back (inline reclaim, shared DP or the CSR switch)" >&2
    exit 1
fi

# What no gate, figure or benchmark read stays deleted: the fused group
# drain (the drain thread calls clwb_lines, then sfence), the WPQ
# queue-depth high-water, the WPQ-depth builder, txstat's media-channel
# sweep flag and its second host clock (host time is benchmark/'s; history
# not searched; no self-match).
if grep -rnE 'drain_[l]ines|depth_[h]igh_water|with_wpq_[e]ntries|--media-[c]hannels' \
    crates src tests examples README.md DESIGN.md .claude ||
    grep -nE 'Instan[t]|seq_commit_[n]s' crates/bench/src/bin/txstat.rs; then
    echo "a deleted drain, WPQ telemetry, builder, txstat flag or clock is back" >&2
    exit 1
fi

# Count each event once: the registry keeps phase histograms only. Its
# counters, delta snapshots and live series, the unused export names and
# the crash-epoch alias stay deleted — a fence is the device's sfence_count,
# a commit the runtime's own counter (history not searched; no self-match).
if grep -rnE 'Metri[c]::|METRIC_[N]AMES|snapshot_[d]elta|Delta[S]napshot|\bSer[i]es\b|export_[n]ame|crash_[e]poch' \
    crates src tests examples README.md DESIGN.md .claude; then
    echo "a second counting system is back (read the count where it is exact)" >&2
    exit 1
fi

# One correctness crate: the oracle, the stream and real-thread drivers, the
# smoke workloads, the enumerator and its bin live in crates/check, and no
# production crate depends on it; the root package takes it for tests/ only.
# The retired module paths and the bench copy of the bin stay gone.
for f in crates/*/Cargo.toml; do
    [ "$f" = crates/check/Cargo.toml ] && continue
    if grep -nF specpmt-check "$f"; then
        echo "$f depends on the correctness harness (only tests may)" >&2
        exit 1
    fi
done
sections=$(awk '/^\[/ { s = $0 } /specpmt-check/ { print s }' Cargo.toml | sort -u | tr '\n' ' ')
[ "$sections" = "[dev-dependencies] [workspace.dependencies] " ] ||
    { echo "root Cargo.toml names specpmt-check outside its dev-dependencies: $sections" >&2; exit 1; }
if grep -rnE '^ *(pub )?mod (crashsmoke|driver|mt|oracle|crashenum)\b' crates/core/src crates/txn/src ||
    [ -e crates/bench/src/bin/crashenum.rs ]; then
    echo "crash-harness code is back in a production crate (it lives in crates/check)" >&2
    exit 1
fi

# One crash-site vocabulary: each site is declared once, in
# crates/pmem/src/sites.rs, and everything else names it as a `Site`.
# Outside #[cfg(test)] and comment lines, no production crates/*/src file
# but sites.rs quotes a site name (crates/check is the harness, not
# production: its self-tests spell `--target` strings). The name lookups
# and the parallel string and count tables stay deleted.
for f in $(production_sources); do
    case "$f" in crates/pmem/src/sites.rs | crates/check/*) continue ;; esac
    if nontest "$f" | grep -vE '^ *//' | grep -E '"(seq|mt|layout|ckpt|bbox)/'; then
        echo "$f quotes a crash-site name (name it as a specpmt_pmem::Site)" >&2
        exit 1
    fi
done
if grep -rnE 'sites::(lookup|index_of|name_of)\b|BB_KIND_(NAMES|COUNT)|PHASE_(NAMES|COUNT)|BBOX_(WRITE|PERSIST)' \
    crates src tests examples; then
    echo "a crash-site name lookup or a parallel name table is back (use Site, BbKind, Phase)" >&2
    exit 1
fi

# One driver per STAMP application: each app's public `run` on one handle.
# The paper's STAMP figures are single-threaded and isolation is left to
# software 2PL, so no STAMP source starts a thread, and the multi-threaded
# fleet seam (`run_app_mt` over `Fleet` / `Solo`, each app's private
# `execute`, the per-app `run_mt`s) stays gone.
if grep -rnE 'thread::scope|\.spawn\(' crates/stamp/src; then
    echo "a STAMP app starts threads (its one driver is run, on one handle)" >&2
    exit 1
fi
if grep -rnE '\b(run_app_[m]t|Fleet|Solo|MtAppRun|MtRunReport)\b|fn e[x]ecute\b|pub fn run_[m]t\b' \
    crates/stamp/src; then
    echo "the STAMP fleet seam is back (each app's run is its one driver)" >&2
    exit 1
fi

# Labyrinth routes through one reusable padded-grid Router per run: outside
# #[cfg(test)] (where the reference router keeps both), no route queues in
# a VecDeque or allocates a fresh `usize::MAX` predecessor map.
if nontest crates/stamp/src/labyrinth.rs | grep -nE 'VecDeque|vec!\[usize::MAX'; then
    echo "labyrinth routes with a per-route map or VecDeque again (use its Router)" >&2
    exit 1
fi

# Panic ceiling: the non-test panic sites of the crates a crash image is
# read through may not rise silently. Counted per line before a file's
# first #[cfg(test)], `debug_assert*` included; a change that adds one
# raises the ceiling in the same change and says why.
PANIC_CEILING=121
panics=0
for f in $(find crates/core/src crates/pmem/src crates/txn/src crates/kv/src \
    crates/telemetry/src -name '*.rs'); do
    n=$(nontest "$f" | grep -cE 'assert!|assert_eq!|assert_ne!|\.expect\(|\.unwrap\(\)|panic!|unreachable!' || true)
    panics=$((panics + n))
done
[ "$panics" -le "$PANIC_CEILING" ] ||
    { echo "panic guard: $panics non-test panic sites, ceiling $PANIC_CEILING" >&2; exit 1; }

echo "verify: OK"
