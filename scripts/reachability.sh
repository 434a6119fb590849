#!/usr/bin/env bash
# reachability lists every func declared in a non-test file under internal/
# that no binary links: it builds the nine binaries (the five commands, the
# three examples and bench/) with inlining off and subtracts their symbols
# from the declared funcs. Such a func is dead code unless something outside
# the binaries needs it (a test oracle, a helper several tests share, a
# facade entry point); those are recorded, one output line each, in
# scripts/reachability.keep.
#
#	scripts/reachability.sh   # exit 1 when the list differs from the keep file
#
# A difference is either a newly unlinked func (delete it, or add it to the
# keep file and say why in the commit) or a keep entry that is now linked or
# gone (drop it from the keep file).
set -euo pipefail
export LC_ALL=C # one sort order for the keep file on every machine

root=$(cd "$(dirname "$0")/.." && pwd)
keep=$root/scripts/reachability.keep
A=$(mktemp -d)
trap 'rm -rf "$A"' EXIT
cd "$root"

for p in cmd/layoutlab cmd/oltpbench cmd/spike cmd/pixie cmd/oltpgen examples/quickstart examples/customopt examples/customworkload; do
	go build -gcflags=all=-l -o "$A/$(basename $p)" ./$p
done
go -C bench build -gcflags=all=-l -o "$A/bench" .
for b in "$A"/*; do [ -x "$b" ] && go tool nm "$b"; done | awk '$2=="T"||$2=="t"{print $3}' |
	grep '^codelayout/internal/' | sed 's/\[[^]]*\]//g' | sort -u >"$A/linked.txt"
# Every func declared outside tests, spelled as nm spells it (a value method
# may be linked as T.M or as its (*T).M wrapper), minus the linked ones.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	sed -nE "s#^func (\(([A-Za-z_0-9]+ )?(\*?)([A-Za-z_0-9]+)(\[[^]]*\])?\) )?([A-Za-z_0-9]+).*#codelayout/${f%/*}|\3|\4|\6|$f#p" "$f"
done | awk -F'|' -v L="$A/linked.txt" 'BEGIN{while((getline s<L)>0) ok[s]=1}
  $4=="init"{next}
  {v=$1"."($3==""?"":$3".")$4; p=$1".(*"$3")."$4}
  !(v in ok) && !($3!="" && p in ok) {print ($2=="*"?p:v) "\t" $5}' >"$A/unlinked.txt"

if ! diff -u "$keep" "$A/unlinked.txt"; then
	echo "reachability: unlinked funcs differ from scripts/reachability.keep (- keep, + now)" >&2
	exit 1
fi
echo "reachability: $(wc -l <"$keep") unlinked funcs, all on the keep list"
