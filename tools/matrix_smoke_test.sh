#!/usr/bin/env bash
# matrix_smoke_test.sh <cgct_sim> <cgct_sweep> <report|seed-chain>
#
#   report      `cgct_sweep --matrix all` prints all 12 matrices, each with
#               one row per benchmark and its summary rows, and --matrix
#               refuses the flags that define cells some other way.
#   seed-chain  `cgct_sim --seeds 3 --json` runs the same seeds, with the
#               same cycles, as the matching `cgct_sweep` rows.
#
# Wired into ctest as `matrix_smoke` and `seed_chain_cli` (docs/SWEEP.md).

set -u
sim="${1:?usage: matrix_smoke_test.sh <cgct_sim> <cgct_sweep> <mode>}"
sweep="${2:?usage: matrix_smoke_test.sh <cgct_sim> <cgct_sweep> <mode>}"
mode="${3:?usage: matrix_smoke_test.sh <cgct_sim> <cgct_sweep> <mode>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail() { echo "matrix_smoke_test: $*" >&2; exit 1; }

if [ "$mode" = report ]; then
    "$sweep" --matrix all --ops 2000 --jobs 2 --no-progress \
        > "$tmp/out" 2> "$tmp/err" || fail "--matrix all: $(cat "$tmp/err")"
    # One line per table: name, rows between the rules, summary labels.
    awk '/^\[[a-z0-9]+\] / { name = substr($1, 2, length($1) - 2)
                             rules = 0; rows = 0; sums = "-"; next }
         /^---/ { if (++rules == 2) open = 1; next }
         /^$/ { if (open) print name, rows, sums; open = 0; next }
         rules == 1 { rows++ }
         open { sums = (sums == "-" ? "" : sums ",") $1 }' \
        "$tmp/out" > "$tmp/tables"
    n=$("$sim" --list | wc -l)
    cat > "$tmp/want" <<EOF
fig2 $n mean
fig7 $n mean
fig8 $n mean,commercial
fig9 $n mean,commercial
fig10 $n max,mean
sec32 $n mean
selfinval $n mean
replacement $n -
threestate $n mean
geometry $n -
prefetch $n mean
dma $n -
EOF
    diff "$tmp/want" "$tmp/tables" > "$tmp/diff" ||
        fail "tables (name rows summaries) differ: $(cat "$tmp/diff")"
    for extra in "--regions 512" "--sample 2" "--nodes 16" \
                 "--topology hier" "--resume $tmp/j" "--format json"; do
        # shellcheck disable=SC2086
        "$sweep" --matrix fig2 --ops 2000 $extra > /dev/null 2> "$tmp/err" &&
            fail "--matrix accepted $extra"
        grep -q -F -e "${extra%% *} does not combine with --matrix" \
            "$tmp/err" || fail "$extra: $(cat "$tmp/err")"
    done
    "$sweep" --matrix fig99 > /dev/null 2> "$tmp/err" &&
        fail "--matrix accepted an unknown name"
    grep -q "unknown experiment matrix 'fig99'" "$tmp/err" ||
        fail "unknown name not reported: $(cat "$tmp/err")"
    echo "matrix_smoke_test: 12 reports with every benchmark and their" \
         "summary rows; conflicting flags refused"
elif [ "$mode" = seed-chain ]; then
    "$sim" ocean --seeds 3 --ops 4000 --json > "$tmp/sim.json" ||
        fail "cgct_sim failed"
    "$sweep" --benchmarks ocean --regions 512 --seeds 3 --ops 4000 \
        --no-progress > "$tmp/sweep.csv" || fail "cgct_sweep failed"
    # Top-level "seed"/"cycles" of each run, in run order.
    grep -oE '^    "(seed|cycles)": [0-9]+' "$tmp/sim.json" |
        awk '{ printf "%s%s", $2, (NR % 2 ? "," : "\n") }' > "$tmp/sim"
    tail -n +2 "$tmp/sweep.csv" | cut -d, -f3,4 > "$tmp/sweep"
    [ "$(wc -l < "$tmp/sim")" -eq 3 ] || fail "want 3 runs: $(cat "$tmp/sim")"
    diff "$tmp/sim" "$tmp/sweep" > "$tmp/diff" ||
        fail "cgct_sim --seeds and cgct_sweep disagree (seed,cycles):" \
             "$(cat "$tmp/diff")"
    echo "matrix_smoke_test: cgct_sim --seeds 3 and cgct_sweep run the" \
         "same seeds with the same cycles"
else
    echo "matrix_smoke_test: unknown mode '$mode'" >&2
    exit 2
fi
