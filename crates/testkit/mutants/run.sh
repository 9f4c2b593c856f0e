#!/bin/sh
# The mutant register: every patch in this directory puts back a bug the
# test suite must catch. For each patch this script applies it to the
# working tree of the repository it is run in, builds and runs the test its
# `Killed-by:` line names, requires that run to fail, and reverts the patch.
#
#   crates/testkit/mutants/run.sh [patch...]
#
# With no patch named it runs them all. A mutant that does not apply or does
# not build counts as a failure of the register, as does one that survives.
# Exits with the number of such failures.
set -u
here=$(cd "$(dirname "$0")" && pwd)
cd "$(git rev-parse --show-toplevel)" || exit 1
[ $# -gt 0 ] || set -- "$here"/*.patch
failures=0
for patch in "$@"; do
    name=$(basename "$patch" .patch)
    test=$(sed -n 's/^Killed-by: //p' "$patch")
    if ! git apply "$patch"; then
        echo "NOT APPLIED  $name"
        failures=$((failures + 1))
        continue
    fi
    # shellcheck disable=SC2086 # the test selector is a list of arguments
    if ! cargo test --release --offline -q $test --no-run >/dev/null 2>&1; then
        echo "NOT BUILT    $name"
        failures=$((failures + 1))
    elif cargo test --release --offline -q $test >/dev/null 2>&1; then
        echo "SURVIVED     $name ($test)"
        failures=$((failures + 1))
    else
        echo "killed       $name ($test)"
    fi
    git apply -R "$patch"
done
echo "$failures of $# mutants not killed"
exit "$failures"
