#!/usr/bin/env bash
# check_docs_selftest.sh — prove that tools/check_docs.sh catches the
# drift it exists to catch. Copies the documentation inputs (docs/,
# src/, tools/, top-level *.md) to a scratch tree, checks that the
# unmodified copy passes, then injects one defect and requires
# check_docs.sh to fail and name it:
#
#   stale-row          a `| `--zz-removed` |` row in docs/SWEEP.md that no
#                      tools/*.cpp registers (a removed option)
#   undocumented-flag  an addFlag("...") call in a tools/*.cpp with no
#                      docs/SWEEP.md entry
#   undocumented-matrix  an experiment matrix registered in
#                      src/sim/experiments.cpp with no docs/SWEEP.md row
#
#   tools/check_docs_selftest.sh <repo-root> <stale-row|undocumented-flag|
#                                             undocumented-matrix>
#
# Wired into ctest as `docs_check_<mode>` (see tests/CMakeLists.txt).

set -u

root="${1:?usage: check_docs_selftest.sh <repo-root> <mode>}"
mode="${2:?usage: check_docs_selftest.sh <repo-root> <mode>}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cp -R "$root/docs" "$root/src" "$root/tools" "$tmp/"
cp "$root"/*.md "$tmp/"

if ! "$root/tools/check_docs.sh" "$tmp" > /dev/null 2> "$tmp/clean.err"
then
    echo "FAIL: check_docs rejects the unmodified copy:" >&2
    cat "$tmp/clean.err" >&2
    exit 1
fi

case "$mode" in
stale-row)
    printf '| `--zz-removed N` | 1 | Removed option. |\n' \
        >> "$tmp/docs/SWEEP.md"
    want='docs/SWEEP.md documents --zz-removed'
    ;;
undocumented-flag)
    printf '// p.addFlag("zz-undocumented", &x, "");\n' \
        >> "$tmp/tools/cgct_sim.cpp"
    want='flag --zz-undocumented is not documented'
    ;;
undocumented-matrix)
    printf '    ms.push_back({"zzundocumented",\n' \
        >> "$tmp/src/sim/experiments.cpp"
    want='experiment matrix zzundocumented is not documented'
    ;;
*)
    echo "check_docs_selftest: unknown mode '$mode'" >&2
    exit 2
    ;;
esac

if "$root/tools/check_docs.sh" "$tmp" > /dev/null 2> "$tmp/bad.err"; then
    echo "FAIL: check_docs accepted the $mode defect" >&2
    exit 1
fi
if ! grep -q -F -e "$want" "$tmp/bad.err"; then
    echo "FAIL: check_docs failed without naming the $mode defect:" >&2
    cat "$tmp/bad.err" >&2
    exit 1
fi
echo "check_docs_selftest: $mode OK"
