#!/usr/bin/env bash
# Mutation check: each test/mutants/*.patch breaks the program in one
# known way, and must make one named test fail.  The tree is copied to a
# temporary directory once; each patch is applied there, the suite built
# and the named test run, and the patch reverted.  A mutant whose test
# passes, or a patch that no longer applies or builds, fails the run.
#
#   test/mutants/run.sh [PATCH...]     (default: every test/mutants/*.patch)
#
# A patch names its test in a header before the diff:
#
#   Suite: compiler                    the suite test/test_compiler.exe
#   Test: trace/pinned stage spans     its group "trace", test "pinned stage spans"
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
if [ $# -eq 0 ]; then set -- "$root"/test/mutants/*.patch; fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$root" --exclude=./_build --exclude=./.git -cf - . | tar -C "$work" -xf -

# The unmutated suites must pass: a test that fails anyway kills
# nothing.  Running them also copies their data into the build tree.
suites=$(sed -n 's/^Suite: *//p' "$@" | sort -u)
for suite in $suites; do
  if ! dune build --root "$work" --profile release "@test/runtest-test_$suite" \
       > "$work/suite.log" 2>&1; then
    echo "FAIL: the unmutated $suite suite does not pass"
    cat "$work/suite.log"
    exit 1
  fi
done

status=0
for patch in "$@"; do
  name=$(basename "$patch" .patch)
  suite=$(sed -n 's/^Suite: *//p' "$patch" | head -n 1)
  test=$(sed -n 's/^Test: *//p' "$patch" | head -n 1)
  group=${test%%/*}
  case_name=${test#*/}
  exe=test/test_$suite.exe
  if [ -z "$suite" ] || [ -z "$test" ] || [ "$group" = "$test" ]; then
    echo "FAIL $name: no 'Suite:' and 'Test: GROUP/NAME' header"
    status=1
    continue
  fi
  if ! patch -s -p1 -d "$work" -i "$patch"; then
    echo "FAIL $name: the patch does not apply"
    status=1
    continue
  fi
  # The release profile: a mutant that leaves a variable unused still
  # builds.
  if ! dune build --root "$work" --profile release "$exe" bin/qsc.exe \
       2> "$work/build.log"; then
    echo "FAIL $name: the mutant does not build"
    cat "$work/build.log"
    status=1
  else
    # The suites run from the test directory, as under dune runtest.
    cd "$work/_build/default/test"
    line=$(./"${exe#test/}" list | grep -F "   $case_name." | grep -F "$group " || true)
    index=$(sed -E 's/^.* ([0-9]+)   .*$/\1/' <<< "$line")
    if [ -z "$line" ] || [ "$(wc -l <<< "$line")" -ne 1 ]; then
      echo "FAIL $name: no single test $group/$case_name in $exe"
      status=1
    elif ./"${exe#test/}" test "^$group\$" "$index" > "$work/test.log" 2>&1; then
      echo "FAIL $name: survived, $suite $group/$case_name passes"
      status=1
    else
      echo "ok $name: killed by $suite $group/$case_name"
    fi
    cd "$root"
  fi
  patch -s -R -p1 -d "$work" -i "$patch"
done
exit "$status"
