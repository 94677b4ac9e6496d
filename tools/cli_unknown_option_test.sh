#!/usr/bin/env bash
# cli_unknown_option_test.sh — a CLI must reject an option it does not
# register: exit status 1, one "unknown option --<name>" line on stderr,
# and nothing on stdout (no partial run, no CSV header), so a stale
# script that passes a removed option fails loudly instead of running
# something else.
#
#   tools/cli_unknown_option_test.sh <binary> <--option> [leading args...]
#
# The leading args (e.g. a benchmark name) are passed before the option.
# Wired into ctest as `cli_unknown_option_<tool>` (see
# tests/CMakeLists.txt).

set -u

bin="${1:?usage: cli_unknown_option_test.sh <binary> <--option> [args...]}"
opt="${2:?usage: cli_unknown_option_test.sh <binary> <--option> [args...]}"
shift 2

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bin" "$@" "$opt" 4 > "$tmp/out" 2> "$tmp/err"
status=$?
fail=0

if [ "$status" -ne 1 ]; then
    echo "FAIL: $(basename "$bin") $opt exited $status, want 1" >&2
    fail=1
fi
if ! grep -q -F -e "unknown option $opt" "$tmp/err"; then
    echo "FAIL: stderr does not name the unknown option $opt:" >&2
    cat "$tmp/err" >&2
    fail=1
fi
if [ -s "$tmp/out" ]; then
    echo "FAIL: stdout is not empty:" >&2
    head -5 "$tmp/out" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "cli_unknown_option_test: $(basename "$bin") OK"
exit "$fail"
