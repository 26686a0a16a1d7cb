#!/usr/bin/env bash
# Runs every example program through the vada CLI on both engines, over
# the facts in facts/<program>/<pred>.csv, and requires the same printed
# answer (sorted, labelled nulls compared up to their ids). -phases and
# -explain ride along so PhaseStats and Explain are driven on both engines
# from the outermost caller. Usage: engines_agree.sh [vada-binary]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
vada=${1:-}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
if [ -z "$vada" ]; then
	vada=$work/vada
	(cd "$here/../.." && go build -o "$vada" ./cmd/vada)
fi
for prog in "$here"/*.vada; do
	name=$(basename "$prog" .vada)
	flags=()
	for csv in "$here/facts/$name"/*.csv; do
		flags+=(-facts "$(basename "$csv" .csv)=$csv")
	done
	for engine in pipeline chase; do
		# Run from a scratch copy of the facts so programs that @bind
		# relative CSV paths read and write there.
		mkdir -p "$work/$name.$engine"
		cp "$here/facts/$name"/*.csv "$work/$name.$engine/"
		(cd "$work/$name.$engine" && "$vada" run -engine "$engine" -phases -explain "${flags[@]}" "$prog" 2>stderr.txt) |
			sed 's/_:n[0-9]*/_:n/g' | sort >"$work/$name.$engine.out" ||
			{ cat "$work/$name.$engine/stderr.txt" >&2; exit 1; }
		grep -q '^vada: phases: ' "$work/$name.$engine/stderr.txt"
		grep -q 'reasoning access plan' "$work/$name.$engine/stderr.txt"
	done
	if [ ! -s "$work/$name.pipeline.out" ]; then
		echo "$name: empty answer (vacuous comparison)" >&2
		exit 1
	fi
	diff "$work/$name.pipeline.out" "$work/$name.chase.out"
	echo "$name: engines agree on $(wc -l <"$work/$name.pipeline.out") facts"
done
