#!/bin/sh
# require-tests.sh PATTERN PACKAGE...
#
# Fails unless `go test -list PATTERN` finds at least one test, fuzz test,
# example or benchmark in every PACKAGE. A CI step that selects tests or
# benchmarks by name runs this first, so one renamed away from the step's
# pattern fails the step instead of silently dropping out of it (`go test
# -bench X` exits 0 when X matches nothing).
set -eu
pattern=$1
shift
for pkg in "$@"; do
	if ! go test -list "$pattern" "$pkg" | grep -Eq '^(Test|Fuzz|Example|Benchmark)'; then
		echo "go test -list '$pattern' matches nothing in $pkg" >&2
		exit 1
	fi
done
