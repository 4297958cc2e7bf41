#!/usr/bin/env bash
# Prints the size counters ROADMAP item 5 records, so CHANGES.md quotes a
# script and not a hand count. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=$(go doc -all .)

# Non-test Go outside the nested benchmark module (testdata included).
lines=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' | xargs cat | wc -l)

# Exported root symbols: functions and methods, types, and every name of
# a const or var declaration, as go doc lists them.
symbols=$(awk '
	/^func / || /^type / || /^(const|var) [A-Z]/ { n++ }
	/^(const|var) \($/ { block = 1; next }
	block && /^\)/ { block = 0 }
	block && /^\t[A-Z][A-Za-z0-9_]*( |$)/ { n++ }
	END { print n }' <<<"$doc")

# Fields of the Options struct ("A, B int" declares two).
fields=$(awk '
	/^type Options struct/ { in_struct = 1; next }
	in_struct && /^}/ { exit }
	in_struct && match($0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) {
		n += split(substr($0, RSTART, RLENGTH), names, ",")
	}
	END { print n }' sdtw.go)

options=$(grep -cE '^func With(out)?[A-Z]' <<<"$doc")

# Root index constructors, New*Index and Open*Index (ROADMAP 6c's target
# is one New and one Open).
constructors=$(grep -cE '^func (New|Open)[A-Za-z]*Index\(' <<<"$doc")

# Non-comment lines of non-test Go outside benchmark/ that name the point
# cost type: its declaration and the ignored parameters the benchmark's
# calls pin (ROADMAP 2c's benchmark edit takes them to 0).
pointcost=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' |
	xargs grep -hwE 'PointDistance' | grep -cvE '^[[:space:]]*//' || true)
# Methods of the retrieve.Backend interface, the seam every distance
# family implements (ROADMAP item 7 reduces it).
backend=$(awk '
	/^type Backend interface/ { in_iface = 1; next }
	in_iface && /^}/ { exit }
	in_iface && /^\t[A-Z][A-Za-z0-9]*\(/ { n++ }
	END { print n }' internal/retrieve/backend.go)
# Exported methods of the public Engine, as go doc lists them.
engine=$(grep -cE '^func \([a-z]+ \*Engine\) [A-Z]' <<<"$doc")
internal=$(find internal -mindepth 1 -maxdepth 1 -type d | wc -l)
examples=$(find examples -mindepth 1 -maxdepth 1 -type d | wc -l)

printf 'non-test Go lines outside benchmark/: %d\n' "$lines"
printf 'root exported symbols:                %d\n' "$symbols"
printf 'Options fields:                       %d\n' "$fields"
printf 'root With*/Without* options:          %d\n' "$options"
printf 'internal/ packages:                   %d\n' "$internal"
printf 'examples:                             %d\n' "$examples"
printf 'root index constructors:              %d\n' "$constructors"
printf 'PointDistance code lines:             %d\n' "$pointcost"
printf 'retrieve.Backend methods:             %d\n' "$backend"
printf 'public Engine methods:                %d\n' "$engine"
