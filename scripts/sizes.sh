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

# Fields of the Options struct, one name a line ("A, B int" declares two).
field_names=$(awk '
	/^type Options struct/ { in_struct = 1; next }
	in_struct && /^}/ { exit }
	in_struct && match($0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) {
		n = split(substr($0, RSTART, RLENGTH), names, ",")
		for (i = 1; i <= n; i++) { gsub(/[ \t]/, "", names[i]); print names[i] }
	}' sdtw.go)
fields=$(wc -l <<<"$field_names")

# Options fields that no non-test Go file under cmd/, examples/ or
# benchmark/ names: knobs no program sets (ROADMAP item 3f makes them
# constants).
program_files=$(git ls-files 'cmd/*.go' 'examples/*.go' 'benchmark/*.go' | grep -v '_test\.go$')
unset_fields=0
for name in $field_names; do
	# shellcheck disable=SC2086 # one path a word
	grep -qw -- "$name" $program_files || unset_fields=$((unset_fields + 1))
done

options=$(grep -cE '^func With(out)?[A-Z]' <<<"$doc")

# Settable fields of the five feature-pipeline configs: match.Config,
# sift.Config, scalespace.Config, band.Config and core.Options, one
# "package name" a line. A field holding another of these configs nests
# them and is not counted.
pipeline_fields=$(for src in internal/match/match.go:Config internal/sift/sift.go:Config \
	internal/scalespace/scalespace.go:Config internal/band/band.go:Config internal/core/engine.go:Options; do
	awk -v type="${src#*:}" -v pkg="$(dirname "${src%:*}")" '
		$0 ~ "^type " type " struct\\{\\}" { exit }
		$0 ~ "^type " type " struct" { in_struct = 1; next }
		in_struct && /^}/ { exit }
		in_struct && match($0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) {
			if ($NF ~ /^(band|sift|match|scalespace)\.Config$/) next
			n = split(substr($0, RSTART, RLENGTH), names, ",")
			for (i = 1; i <= n; i++) { gsub(/[ \t]/, "", names[i]); print pkg, names[i] }
		}' "${src%:*}"
done)
pipeline=$(grep -c . <<<"$pipeline_fields" || true)

# Of those, the fields no non-test Go file outside the field's own
# package sets, by assignment or as a composite-literal key (commands,
# examples, benchmark workloads, internal/experiments and the root
# package's Options lowering all count as programs).
unset_pipeline=0
while read -r pkg name; do
	[ -n "$name" ] || continue
	setters=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v "^$pkg/")
	# shellcheck disable=SC2086 # one path a word
	grep -qE "(\.$name[[:space:]]*=[^=]|[{,[:space:]]$name:[^=])" $setters ||
		unset_pipeline=$((unset_pipeline + 1))
done <<<"$pipeline_fields"

# Fields of retrieve.Params, the knobs one search resolves to.
params=$(awk '
	/^type Params struct/ { in_struct = 1; next }
	in_struct && /^}/ { exit }
	in_struct && match($0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) {
		n += split(substr($0, RSTART, RLENGTH), names, ",")
	}
	END { print n + 0 }' internal/retrieve/retrieve.go)

# Root index constructors, New*Index and Open*Index (ROADMAP 6c's target
# is one New and one Open).
constructors=$(grep -cE '^func (New|Open)[A-Za-z]*Index\(' <<<"$doc")

# Non-comment lines of non-test Go outside benchmark/ that name the point
# cost type: its declaration and the ignored parameters the benchmark's
# calls pin (ROADMAP 2c's benchmark edit takes them to 0).
pointcost=$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' |
	xargs grep -hwE 'PointDistance' | grep -cvE '^[[:space:]]*//' || true)
# Interface types declared in internal/retrieve outside tests: a seam a
# second distance family would plug into the cascade through. Every
# constraint is a band strategy of the one concrete Backend, so the
# count stays 0.
ifaces=$(git ls-files 'internal/retrieve/*.go' | grep -v '_test\.go$' |
	xargs awk '/^type [A-Za-z_][A-Za-z0-9_]* interface/ { n++ } END { print n + 0 }')
# Exported methods of the public Engine, as go doc lists them.
engine=$(grep -cE '^func \([a-z]+ \*Engine\) [A-Z]' <<<"$doc")
internal=$(find internal -mindepth 1 -maxdepth 1 -type d | wc -l)
examples=$(find examples -mindepth 1 -maxdepth 1 -type d | wc -l)

printf 'non-test Go lines outside benchmark/: %d\n' "$lines"
printf 'root exported symbols:                %d\n' "$symbols"
printf 'Options fields:                       %d\n' "$fields"
printf 'Options fields no command, example or benchmark names: %d\n' "$unset_fields"
printf 'root With*/Without* options:          %d\n' "$options"
printf 'settable pipeline-config fields:      %d\n' "$pipeline"
printf 'pipeline-config fields no program sets: %d\n' "$unset_pipeline"
printf 'retrieve.Params fields:               %d\n' "$params"
printf 'internal/ packages:                   %d\n' "$internal"
printf 'examples:                             %d\n' "$examples"
printf 'root index constructors:              %d\n' "$constructors"
printf 'PointDistance code lines:             %d\n' "$pointcost"
printf 'interface types in internal/retrieve: %d\n' "$ifaces"
printf 'public Engine methods:                %d\n' "$engine"
