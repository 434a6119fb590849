#!/usr/bin/env bash
# cliparity records, or checks against the record, what the four commands
# that share one flag surface (oltpgen, pixie, oltpbench, layoutlab) print:
# the stdout of one invocation per oltpbench mode and layoutlab extension
# table (CI runs this script as its end-to-end smoke of them), the
# offline/in-process parity pairs and the hash of a layout file they write, a
# no-flag run of each, and each command's flag-name set. It also records the
# stdout of the three examples, the programs that use the library only
# through its public facade (customworkload registers a workload there). A
# refactor must leave all of it byte-identical (store-hit ages, which depend
# on wall time, are masked).
#
#	scripts/cliparity.sh record   # rewrite testdata/cliparity/
#	scripts/cliparity.sh check    # diff a fresh run against it (exit 1 on drift)
set -euo pipefail

mode=${1:-check}
root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/testdata/cliparity
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
go -C "$root" build -o "$bin/" ./cmd/oltpgen ./cmd/pixie ./cmd/spike ./cmd/oltpbench ./cmd/layoutlab \
	./examples/quickstart ./examples/customopt ./examples/customworkload

out=$work/out
mkdir -p "$out" "$work/run"
cd "$work/run"

# run NAME CMD ARGS...: stdout of one invocation, ages masked.
run() {
	local name=$1
	shift
	"$bin/$@" | sed -E 's/trained [0-9a-z.]+ ago/trained AGE ago/; s/last-hit-age=[^ ]+/last-hit-age=AGE/' >"$out/$name.out"
}

run oneshard oltpbench -workload ordere -quick -shards 1 -txns 120 -warmup 20 -percentiles
run sharded-gcauto oltpbench -workload ordere -quick -shards 4 -txns 120 -warmup 20 -gc flushcount
run gcwindow oltpbench -workload ordere -quick -shards 4 -txns 120 -warmup 20 -gc window:60000
run percommit oltpbench -workload tpcb -quick -shards 2 -txns 120 -warmup 30 -gc percommit
run robustness layoutlab -table robustness -matrix tpcb,ycsb -shardlist 1,2 -txns 50
run latency layoutlab -table latency -quick -matrix tpcb,ycsb -shardlist 1,2 -txns 50
run gcp99 oltpbench -workload tpcb -quick -shards 2 -txns 120 -warmup 30 -gc p99 -percentiles
run shardsweep layoutlab -table shardsweep -shards 1,4,16 -quick -txns 50 -layout base
run latency-fusion layoutlab -table latency -quick -matrix tpcb,ordere -shardlist 1 -layout fusion -stall 40 -txns 50
run fuse-oltpgen oltpgen -out fimg -workload tpcb -libscale 0.3 -cold 400000
run fuse-pixie pixie -workload tpcb -libscale 0.3 -cold 400000 -txns 200 -warmup 20 -cpus 2 -out fuse.prof -kout fuse.kprof
run list-passes spike -list-passes
run fuse-spike spike -prog fimg/app.prog -profile fuse.prof -passes chain,split:none,txfuse,porder:ph,materialize
run fastpath oltpbench -workload tpcb -quick -shards 4 -txns 150 -warmup 40 -fastpath -percentiles
run store-cold layoutlab -run fig04 -txns 50 -profile-store pgostore
run store-warm layoutlab -run fig04 -txns 50 -profile-store pgostore
run search layoutlab -table search -matrix tpcb -population 5 -generations 2 -search-seed 7 -txns 50 -memostats
run blend layoutlab -table blend -ratios 0,1 -txns 50
run datalayout layoutlab -table datalayout -quick -txns 50
run readpct0 oltpbench -workload ycsb -quick -txns 100 -warmup 20 -readpct 0
reopt=(-workload ycsb -quick -txns 200 -warmup 20 -cpus 1 -procs 4 -train-txns 200 -opt all -reopt 50 -stall 40 -profile-store pgostore-ob)
run reopt-cold oltpbench "${reopt[@]}"
run reopt-warm oltpbench "${reopt[@]}"
# The store keys a run by the whole workload spec: after a 50% read share,
# the default mix over the same directory trains its own profile.
mix=(-workload ycsb -quick -txns 200 -warmup 40 -opt all -profile-store pgostore-mix)
run store-mix-50 oltpbench "${mix[@]}" -readpct 50
run store-mix-95 oltpbench "${mix[@]}"

# Offline/in-process parity: the four-command pipeline and oltpbench -opt
# are one computation (pair diffs the two reports).
img=(-quick -libscale 0.3 -cold 400000)
run parity-oltpgen oltpgen -out pimg -libscale 0.3 -cold 400000
run parity-pixie pixie "${img[@]}" -runseed 2008 -txns 300 -cpus 2 -out par.prof -kout par.kprof

# pair TAG OPT SPIKE-ARGS...: the layout file spike writes, replayed by
# oltpbench -layout, must print what oltpbench -opt OPT prints in-process,
# bar the two lines that say where the layout came from.
pair() {
	local tag=$1 opt=$2
	shift 2
	run "parity$tag-spike" spike -prog pimg/app.prog -profile par.prof "$@" -out "par$tag.layout"
	run "parity$tag-offline" oltpbench "${img[@]}" -cpus 2 -stall 40 -layout "par$tag.layout"
	run "parity$tag-inprocess" oltpbench "${img[@]}" -cpus 2 -stall 40 -opt "$opt" -train-txns 300
	diff "$out/parity$tag-offline.out" <(grep -v -e '^trained on:' -e '^optimized with:' "$out/parity$tag-inprocess.out")
}
# "all" keeps most conditionals next to an arm; "porder" (whole procedures,
# source block order) leaves many branch pairs whose cheap arm the profile
# picked, and align:8 is a layout not materialized at the default alignment:
# the file carries both. "base" is the original binary on both paths, no
# pipeline and no say for the profile.
align8=chain,split:fine,porder:ph,align:8,materialize
pair "" all -combo all
pair -base base -combo base
pair -porder porder -combo porder
pair -align8 "$align8" -passes "$align8"
# The layouts spike wrote are a digest of the profiles pixie wrote: equal
# block and edge counts give equal layouts, and equal layouts equal files.
sha256sum par.layout >"$out/parity-layout.sha256"

# A two-CPU run: its icache line is the per-CPU 64KB/128B/4-way battery cache.
run twocpu oltpbench -quick -txns 100 -warmup 20 -cpus 2

# The examples (deterministic; about half a second together).
run example-quickstart quickstart
run example-customopt customopt
run example-customworkload customworkload

# No-flag runs.
run noflag-oltpgen oltpgen
run noflag-pixie pixie
run noflag-oltpbench oltpbench
run noflag-layoutlab layoutlab

# Flag-name sets (flag.PrintDefaults walks flag.VisitAll).
for cmd in oltpgen pixie oltpbench layoutlab; do
	"$bin/$cmd" -h 2>&1 | sed -nE 's/^  -([a-z0-9-]+).*/\1/p' >"$out/flags-$cmd.txt"
done

if [ "$mode" = record ]; then
	rm -rf "$golden"
	mkdir -p "$golden"
	cp "$out"/* "$golden/"
	echo "recorded $(ls "$golden" | wc -l) files in $golden"
else
	diff -r "$golden" "$out" && echo "cliparity: all outputs identical"
fi
