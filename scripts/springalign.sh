#!/usr/bin/env bash
# Prints the address of every sdtw/internal/dtw.(*Spring) method in the
# benchmark binary, and that address mod 64. hub-live's op_p50_ms follows
# the code alignment of these methods (ROADMAP 2b), so a change that
# reshapes code linked beside internal/dtw quotes this output at the
# parent and at the change. The binary is built as benchmark/run.sh
# builds it, into a temporary directory that is removed on exit. Run from
# anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd benchmark && GOTOOLCHAIN=local go build -o "$tmp/benchmark" .)
go tool nm "$tmp/benchmark" |
	awk '$2 == "T" && index($3, "sdtw/internal/dtw.(*Spring).") == 1 { print $1, $3 }' |
	sort |
	while read -r addr name; do
		printf '%-46s 0x%s  mod 64 = %2d\n' "$name" "$addr" $((16#$addr % 64))
	done
