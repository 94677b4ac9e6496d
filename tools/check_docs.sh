#!/usr/bin/env bash
# check_docs.sh — fail when the code and the documentation disagree.
#
# Guards, in order:
#   1. Every option registered through ArgParser::addFlag/addU64/
#      addDouble/addString must appear in docs/SWEEP.md as `--name`, and
#      every positional registered through addPositional as `<name>`.
#      Conversely, every flag-table row (| `--name ...` |) in
#      docs/SWEEP.md must be registered by some tools/*.cpp, so a
#      removed option cannot leave a stale row behind.
#      Every experiment matrix registered in src/sim/experiments.cpp
#      (`cgct_sweep --matrix NAME`) must have a row | `NAME` | in
#      docs/SWEEP.md.
#   2. docs/PERF.md must cover the perf bench targets and build knobs.
#   3. Every trace event type in the CGCT_TRACE_EVENT_TYPES X-macro
#      (src/common/trace_sink.hpp) must be documented in docs/TRACING.md.
#   4. Every histogram/distribution stat registered through
#      addHistogram/addDistribution must be documented in docs/TRACING.md.
#   5. docs/ARCHITECTURE.md must exist and be cross-linked from
#      README.md, DESIGN.md, docs/PERF.md, and docs/SWEEP.md.
#   6. docs/SNAPSHOT.md must cover the checkpoint/journal formats, the
#      checkpoint flags, and the crash/resume semantics, and be
#      cross-linked from README.md, docs/SWEEP.md, and
#      docs/ARCHITECTURE.md.
#   7. docs/TRACE_FORMAT.md must document every v2 record type in the
#      CGCT_TRACE_V2_RECORD_TYPES X-macro (src/workload/trace_format.hpp),
#      every cgct_trace CLI flag and subcommand, and the format
#      invariants, and be cross-linked from README.md, docs/SWEEP.md,
#      and docs/ARCHITECTURE.md.
#   8. docs/SAMPLING.md must cover the sampling flags (including the
#      adaptive --ci-target / --max-windows loop), both warming modes,
#      the CI math and its stat names, the validation/bench gates, and
#      the "when not to trust" caveats, and be cross-linked from
#      README.md, docs/SWEEP.md, and docs/ARCHITECTURE.md.
#   9. docs/TOPOLOGY.md must cover the scalable interconnects: the
#      --nodes/--topology flags and all three topology names, the
#      presence-filter escape rule and its trace events, the directory
#      protocol, the invariant-checker extension, the fallback-warning
#      contract, and the bench/baseline gating, and be cross-linked
#      from README.md, docs/SWEEP.md, docs/ARCHITECTURE.md, and
#      docs/TRACING.md.
#
# Run from anywhere:
#
#   tools/check_docs.sh [repo-root]
#
# Wired into ctest as the `docs_check` test (see tests/CMakeLists.txt);
# tools/check_docs_selftest.sh checks that guard 1 fails on injected
# drift in both directions and on an undocumented matrix.

set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
doc="$root/docs/SWEEP.md"
fail=0

if [ ! -f "$doc" ]; then
    echo "check_docs: $doc is missing" >&2
    exit 1
fi

all_flags=""
for src in "$root"/tools/*.cpp; do
    tool="$(basename "$src" .cpp)"

    flags=$(grep -oE \
        'add(Flag|U64|Double|String)\("[A-Za-z0-9-]+"' "$src" |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)
    all_flags="$all_flags
$flags"
    for flag in $flags; do
        if ! grep -q -- "--$flag" "$doc"; then
            echo "check_docs: $tool flag --$flag is not documented" \
                 "in docs/SWEEP.md" >&2
            fail=1
        fi
    done

    positionals=$(grep -oE 'addPositional\("[A-Za-z0-9-]+"' "$src" |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)
    for pos in $positionals; do
        if ! grep -q -- "<$pos>" "$doc"; then
            echo "check_docs: $tool positional <$pos> is not documented" \
                 "in docs/SWEEP.md" >&2
            fail=1
        fi
    done
done

# The reverse direction: a documented flag row must name a live option.
doc_flags=$(grep -oE '^\| `--[A-Za-z0-9-]+' "$doc" |
    sed -E 's/^\| `--//' | sort -u)
for flag in $doc_flags; do
    if ! printf '%s\n' "$all_flags" | grep -qxF -- "$flag"; then
        echo "check_docs: docs/SWEEP.md documents --$flag, but no" \
             "tools/*.cpp registers it" >&2
        fail=1
    fi
done

# Every named experiment matrix needs its row in the matrix table.
matrices=$(grep -oE 'push_back\(\{"[a-z0-9]+",$' \
    "$root/src/sim/experiments.cpp" | sed -E 's/.*"([a-z0-9]+)".*/\1/')
[ -n "$matrices" ] || { echo "check_docs: no matrices found in" \
    "src/sim/experiments.cpp (registry moved?)" >&2; fail=1; }
for name in $matrices; do
    grep -q -- "^| \`$name\` |" "$doc" || { fail=1
        echo "check_docs: experiment matrix $name is not documented" \
             "in docs/SWEEP.md" >&2; }
done

# Performance documentation: docs/PERF.md must exist and cover the perf
# bench targets, tooling entry points, and build knobs, so the recorded
# kernel baseline stays discoverable and reproducible.
perf_doc="$root/docs/PERF.md"
if [ ! -f "$perf_doc" ]; then
    echo "check_docs: $perf_doc is missing" >&2
    fail=1
else
    for token in bench_event_queue bench_sweep_scaling bench_smoke \
                 CGCT_SANITIZE BENCH_kernel.json cgct_sweep --events \
                 bench_memory_system BENCH_sweep.json \
                 CGCT_BENCH_MIN_FRAC sanitize_hotpath \
                 test_hotpath_differential test_sweep_identity; do
        if ! grep -q -- "$token" "$perf_doc"; then
            echo "check_docs: docs/PERF.md does not mention $token" >&2
            fail=1
        fi
    done
fi

# Tracing documentation: every event type in the X-macro and every
# registered histogram/distribution stat must appear in docs/TRACING.md,
# so the trace schema can't drift from its documentation.
trace_doc="$root/docs/TRACING.md"
if [ ! -f "$trace_doc" ]; then
    echo "check_docs: $trace_doc is missing" >&2
    fail=1
else
    event_types=$(grep -oE '^[[:space:]]+X\([a-z_]+\)' \
        "$root/src/common/trace_sink.hpp" |
        sed -E 's/.*X\(([a-z_]+)\)/\1/' | sort -u)
    if [ -z "$event_types" ]; then
        echo "check_docs: found no trace event types in" \
             "src/common/trace_sink.hpp (X-macro moved?)" >&2
        fail=1
    fi
    for ev in $event_types; do
        if ! grep -q -- "\`$ev\`" "$trace_doc"; then
            echo "check_docs: trace event type $ev is not documented" \
                 "in docs/TRACING.md" >&2
            fail=1
        fi
    done

    stat_names=$(grep -rhoE \
        'add(Histogram|Distribution)\("[A-Za-z0-9_.]+"' "$root/src" |
        sed -E 's/.*\("([A-Za-z0-9_.]+)"/\1/' | sort -u)
    for stat in $stat_names; do
        if ! grep -q -- "$stat" "$trace_doc"; then
            echo "check_docs: histogram/distribution stat $stat is not" \
                 "documented in docs/TRACING.md" >&2
            fail=1
        fi
    done
fi

# Architecture documentation: docs/ARCHITECTURE.md must exist and be
# reachable from the entry-point docs.
arch_doc="$root/docs/ARCHITECTURE.md"
if [ ! -f "$arch_doc" ]; then
    echo "check_docs: $arch_doc is missing" >&2
    fail=1
else
    for ref in README.md DESIGN.md docs/PERF.md docs/SWEEP.md; do
        if ! grep -q "ARCHITECTURE.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/ARCHITECTURE.md" \
                 >&2
            fail=1
        fi
    done
fi

# Snapshot documentation: docs/SNAPSHOT.md must cover the on-disk
# formats, the checkpoint/restore flags, and the resume/crash semantics,
# and be reachable from the entry-point docs.
snap_doc="$root/docs/SNAPSHOT.md"
if [ ! -f "$snap_doc" ]; then
    echo "check_docs: $snap_doc is missing" >&2
    fail=1
else
    for token in CGCTSNAP CGCTJRNL xxhash64 fingerprint \
                 --checkpoint-every --checkpoint --restore --resume \
                 CGCT_TEST_CRASH_AFTER_CELLS snapshot_resume_test.sh \
                 BENCH_sweep.json setPauseAt resumePhase \
                 simulateCheckpointed; do
        if ! grep -q -- "$token" "$snap_doc"; then
            echo "check_docs: docs/SNAPSHOT.md does not mention $token" >&2
            fail=1
        fi
    done
    # Exit code 75 (resumable interruption) must be documented.
    if ! grep -qE '\b75\b' "$snap_doc"; then
        echo "check_docs: docs/SNAPSHOT.md does not document exit" \
             "code 75" >&2
        fail=1
    fi
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "SNAPSHOT.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/SNAPSHOT.md" >&2
            fail=1
        fi
    done
fi

# Trace on-disk format documentation: docs/TRACE_FORMAT.md is the
# byte-level contract for the record/replay files. Every record type in
# the CGCT_TRACE_V2_RECORD_TYPES X-macro and every cgct_trace CLI flag
# must appear there, so the spec cannot drift from the codec.
fmt_doc="$root/docs/TRACE_FORMAT.md"
fmt_hdr="$root/src/workload/trace_format.hpp"
if [ ! -f "$fmt_doc" ]; then
    echo "check_docs: $fmt_doc is missing" >&2
    fail=1
else
    rec_types=$(grep -oE '^[[:space:]]*X\([a-z_]+, 0x[0-9A-Fa-f]+\)' \
        "$fmt_hdr" | sed -E 's/.*X\(([a-z_]+),.*/\1/' | sort -u)
    if [ -z "$rec_types" ]; then
        echo "check_docs: found no v2 record types in" \
             "src/workload/trace_format.hpp (X-macro moved?)" >&2
        fail=1
    fi
    for rec in $rec_types; do
        if ! grep -q -- "\`$rec\`" "$fmt_doc"; then
            echo "check_docs: v2 record type $rec is not documented" \
                 "in docs/TRACE_FORMAT.md" >&2
            fail=1
        fi
    done

    trace_flags=$(grep -oE \
        'add(Flag|U64|Double|String)\("[A-Za-z0-9-]+"' \
        "$root/tools/cgct_trace.cpp" |
        sed -E 's/.*\("([A-Za-z0-9-]+)"/\1/' | sort -u)
    for flag in $trace_flags; do
        if ! grep -q -- "--$flag" "$fmt_doc"; then
            echo "check_docs: cgct_trace flag --$flag is not documented" \
                 "in docs/TRACE_FORMAT.md" >&2
            fail=1
        fi
    done

    for token in record convert upgrade info verify xxhash64 trace_id \
                 payload_hash directory_offset little-endian \
                 text-format ops_declared num_lanes TraceWriter \
                 BENCH_trace.json; do
        if ! grep -q -- "$token" "$fmt_doc"; then
            echo "check_docs: docs/TRACE_FORMAT.md does not mention" \
                 "$token" >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "TRACE_FORMAT.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to" \
                 "docs/TRACE_FORMAT.md" >&2
            fail=1
        fi
    done
fi

# Sampling methodology documentation: docs/SAMPLING.md is the
# measurement handbook for sampled runs. It must cover the flags, both
# warming modes, the CI statistics surfaced in JSON/CSV, the math they
# come from, the validation and bench gates, and the caveats that bound
# when a sampled number can be trusted.
sampling_doc="$root/docs/SAMPLING.md"
if [ ! -f "$sampling_doc" ]; then
    echo "check_docs: $sampling_doc is missing" >&2
    fail=1
else
    for token in --sample --window-ops --warm-mode functional detailed \
                 SMARTS Student-t tCritical95 ci95_half stddev \
                 window_cycles avoided_fraction l2_miss_ratio \
                 avg_miss_latency avg_broadcasts_per_100k warm_mode \
                 span_ops sampled_ops CGCTSNAP Cold-start \
                 peak_bcast_per_100k test_sampling test_confidence \
                 bench_sampling BENCH_sampling.json \
                 CGCT_BENCH_SAMPLING_MIN_FRAC --ci-target \
                 --max-windows; do
        if ! grep -q -- "$token" "$sampling_doc"; then
            echo "check_docs: docs/SAMPLING.md does not mention $token" \
                 >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md; do
        if ! grep -q "SAMPLING.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/SAMPLING.md" >&2
            fail=1
        fi
    done
fi

# Scalable-interconnect documentation: docs/TOPOLOGY.md is the design
# contract for --nodes/--topology. It must cover the three topologies,
# the presence-filter escape rule, the directory protocol, the
# distance classes, the invariant and fallback-warning machinery, and
# the CI gates that enforce the traffic baseline.
topo_doc="$root/docs/TOPOLOGY.md"
if [ ! -f "$topo_doc" ]; then
    echo "check_docs: $topo_doc is missing" >&2
    fail=1
else
    for token in --nodes --topology hier dir bus hier_escape \
                 dir_lookup presence sharer resolveRequest \
                 localSnoopLatency dirLookupLatency controllerOf \
                 OwnChip SameSwitch SameBoard Remote check-invariants \
                 corruptPresenceForTest corruptSharersForTest \
                 test_topology topology_warn bench_topology \
                 BENCH_topology.json CGCT_BENCH_TOPO_MIN_FRAC \
                 local_resolves interchip_broadcasts; do
        if ! grep -q -- "$token" "$topo_doc"; then
            echo "check_docs: docs/TOPOLOGY.md does not mention $token" >&2
            fail=1
        fi
    done
    for ref in README.md docs/SWEEP.md docs/ARCHITECTURE.md \
               docs/TRACING.md; do
        if ! grep -q "TOPOLOGY.md" "$root/$ref"; then
            echo "check_docs: $ref does not link to docs/TOPOLOGY.md" >&2
            fail=1
        fi
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED — update docs/SWEEP.md / docs/PERF.md /" \
         "docs/TRACING.md / docs/ARCHITECTURE.md / docs/SNAPSHOT.md /" \
         "docs/TRACE_FORMAT.md / docs/SAMPLING.md / docs/TOPOLOGY.md" >&2
    exit 1
fi
echo "check_docs: flags, perf targets, trace event and record types," \
     "stat names, sampling methodology, topology contract, and" \
     "architecture cross-links are all documented"
