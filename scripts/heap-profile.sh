#!/usr/bin/env bash
# Where the heap goes at the moment dagbench reads heap_mb_end, without
# editing bench/: generates a scratch module under .bench_build/heapprof whose
# main runs bench.Run for one workload and then writes the heap profile, runs
# it under GOGC=off (the collection before the reading is then the last one,
# which is what the profile shows; heap_mb_end so is within 2 % of a normal
# run's) with a fine sampling rate, and prints heap_mb_end and the profile's
# top in-use sites.
#
# Run from the repository root: scripts/heap-profile.sh [workload] [seconds],
# or make heap-profile WORKLOAD=sparse SECONDS=20.
set -euo pipefail

workload=${1:-sparse}
seconds=${2:-20}
root=$PWD
dir=$root/.bench_build/heapprof
mkdir -p "$dir"

cat > "$dir/go.mod" <<EOF
module heapprof

go 1.24

require (
	blockdag v0.0.0
	blockdag/bench v0.0.0
)

replace blockdag => $root

replace blockdag/bench => $root/bench
EOF

cat > "$dir/main.go" <<'EOF'
// Command heapprof runs one dagbench workload and writes the heap profile as
// of the collection before heap_mb_end was read.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"blockdag/bench"
)

func main() {
	workload := flag.String("workload", "sparse", "named workload")
	seconds := flag.Int("seconds", 20, "measured seconds, after the warm-up")
	out := flag.String("out", "heap.pprof", "heap profile to write")
	runs := flag.String("runs", "out", "directory for the run's stores")
	flag.Parse()
	wl, err := bench.WorkloadByName(*workload)
	if err != nil {
		log.Fatal(err)
	}
	res, err := bench.Run(bench.Options{
		Workload: wl, Seed: 1, Window: time.Duration(*seconds) * time.Second, OutDir: *runs, RepoRoot: ".",
	})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: heap_mb_end %.3f MB (%d requests, %d failed)\n",
		res.Workload, res.EndToEnd["heap_mb_end"].Value, res.Attempted, res.Failed)
}
EOF

(cd "$dir" && GOWORK=off go build -o heapprof .)
GOGC=off GODEBUG=memprofilerate=256 "$dir/heapprof" -workload "$workload" -seconds "$seconds" \
	-out "$dir/heap.pprof" -runs "$dir/out"
go tool pprof -top -nodecount=30 -sample_index=inuse_space "$dir/heapprof" "$dir/heap.pprof"
