#!/bin/sh
# require-tests.sh PATTERN PACKAGE...
#
# Fails unless `go test -run PATTERN` finds at least one test in every
# PACKAGE. A CI step that selects tests by name runs this first, so a test
# renamed away from the step's pattern fails the step instead of silently
# dropping out of it.
set -eu
pattern=$1
shift
for pkg in "$@"; do
	if ! go test -list "$pattern" "$pkg" | grep -Eq '^(Test|Fuzz|Example)'; then
		echo "go test -run '$pattern' matches no test in $pkg" >&2
		exit 1
	fi
done
