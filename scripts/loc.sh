#!/bin/sh
# loc.sh — count the repository's Go code the way its simplicity changes
# report it: non-blank, non-comment lines of non-test .go files outside
# bench/ (its own module) and every testdata/ directory, per package
# directory and in total.
#
#	./scripts/loc.sh
#
# A comment line is one whose first non-blank characters are // or that lies
# inside a /* … */ block. Run it in two checkouts to get a change's before
# and after. It takes no flags.
set -eu
cd "$(dirname "$0")/.."
# shellcheck disable=SC2046 # Go file paths in this tree carry no spaces
awk '
FNR == 1 { block = 0; dir = FILENAME; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir) }
{
	line = $0
	sub(/^[ \t]+/, "", line)
	if (block) { if (index(line, "*/")) block = 0; next }
	if (line == "" || substr(line, 1, 2) == "//") next
	if (substr(line, 1, 2) == "/*") { if (!index(line, "*/")) block = 1; next }
	n[dir]++
	total++
}
END {
	sort = "LC_ALL=C sort -k2"
	for (d in n) printf "%7d  %s\n", n[d], d | sort
	close(sort)
	printf "%7d  total\n", total
}' $(find . \( -path ./bench -o -path ./.git -o -name testdata \) -prune -o -name '*.go' ! -name '*_test.go' -print)
