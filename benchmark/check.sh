#!/usr/bin/env bash
# Smoke-runs every workload, untraced and traced, and checks that the
# workload and metric names the binary emits are exactly those of
# BENCHMARK.json: none extra, none missing, all of the legal alphabet.
#
#   benchmark/check.sh          (from anywhere; builds into <repo>/target
#                                unless CARGO_TARGET_DIR is set)
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
manifest="$root/BENCHMARK.json"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/benchmark"

fail() { echo "check.sh: $*" >&2; exit 1; }

# Names of one section of BENCHMARK.json, sorted.
section() {
    sed -n "/\"$1\": \[/,/^  \]/p" "$manifest" | grep -o '"name": "[^"]*"' | cut -d'"' -f4 | sort
}

# Metric names of a result line, sorted.
emitted() {
    grep -o '"[^"]*": {"value"' <<<"$1" | cut -d'"' -f2 | sort
}

# The file is what the catalogue in the binary generates.
diff <("$bin" manifest) "$manifest" >/dev/null \
    || fail "BENCHMARK.json differs from 'benchmark manifest'"

# What the binary says it has is what the file says it has.
for kind in workload end_to_end per_layer; do
    key=$kind; [ "$kind" = workload ] && key=workloads
    diff <("$bin" names | sed -n "s/^$kind //p" | sort) <(section "$key") >/dev/null \
        || fail "'benchmark names' and BENCHMARK.json disagree on $key"
done

bad="$( (section workloads; section end_to_end; section per_layer) | grep -Evx '[A-Za-z0-9][A-Za-z0-9_.-]{0,63}' || true)"
[ -z "$bad" ] || fail "illegal names: $bad"

for workload in $(section workloads); do
    for trace in 0 1; do
        out="$("$bin" --workload "$workload" --seed 1 --seconds 10 --trace "$trace" --smoke)" \
            || fail "$workload --trace $trace exited non-zero"
        line="$(tail -n 1 <<<"$out")"
        grep -q '^{"correct": true, "attempted": [1-9][0-9]*, "failed": 0, "metrics": {' <<<"$line" \
            || fail "$workload --trace $trace: bad result line: ${line:0:120}"
        want=end_to_end; [ "$trace" = 1 ] && want=per_layer
        diff <(emitted "$line") <(section "$want") >/dev/null \
            || fail "$workload --trace $trace does not emit exactly the $want names"
        echo "ok $workload trace=$trace ($(emitted "$line" | wc -l) metrics)"
    done
done
echo "check.sh: names and smoke runs agree with BENCHMARK.json"
