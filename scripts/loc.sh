#!/bin/sh
# Non-test source lines per package directory and in total: the line count
# that ROADMAP's aim 2 ("count concepts and lines; both should fall") tracks.
# Go files and the package's assembly (*.s) count; so do cmd/ and examples/;
# benchmark/ (measured separately, BENCHMARK.json) and testdata/ (linter and
# fuzz fixtures) do not.
#
#	./scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

find . \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) \
	! -path './.git/*' ! -path './benchmark/*' ! -path '*/testdata/*' |
	while read -r f; do
		echo "$(dirname "${f#./}") $(wc -l <"$f")"
	done |
	awk '{ n[$1] += $2 } END { for (d in n) print d, n[d] }' |
	LC_ALL=C sort |
	awk '{ printf "%7d  %s\n", $2, $1; t += $2 } END { printf "%7d  total\n", t }'
