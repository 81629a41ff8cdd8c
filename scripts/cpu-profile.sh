#!/usr/bin/env bash
# Where a dagbench run's CPU goes, without editing bench/: generates a scratch
# module under .bench_build/cpuprof whose main runs bench.Run for one workload
# under pprof.StartCPUProfile — setup, warm-up and the measured window, the
# whole process — and prints the profile's top sites by cumulative time. The
# profile stays in .bench_build/cpuprof/cpu.pprof for -list and -peek.
#
# Run from the repository root: scripts/cpu-profile.sh [workload] [seconds],
# or make cpu-profile WORKLOAD=dense SECONDS=20.
set -euo pipefail

workload=${1:-sparse}
seconds=${2:-20}
root=$PWD
dir=$root/.bench_build/cpuprof
mkdir -p "$dir"

cat > "$dir/go.mod" <<EOF
module cpuprof

go 1.24

require (
	blockdag v0.0.0
	blockdag/bench v0.0.0
)

replace blockdag => $root

replace blockdag/bench => $root/bench
EOF

cat > "$dir/main.go" <<'EOF'
// Command cpuprof runs one dagbench workload under the CPU profiler.
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
	out := flag.String("out", "cpu.pprof", "CPU profile to write")
	runs := flag.String("runs", "out", "directory for the run's stores")
	flag.Parse()
	wl, err := bench.WorkloadByName(*workload)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		log.Fatal(err)
	}
	res, err := bench.Run(bench.Options{
		Workload: wl, Seed: 1, Window: time.Duration(*seconds) * time.Second, OutDir: *runs, RepoRoot: ".",
	})
	pprof.StopCPUProfile()
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: cpu_user_ms_per_req %.3f, latency_p50_ms %.1f (%d requests, %d failed)\n",
		res.Workload, res.EndToEnd["cpu_user_ms_per_req"].Value, res.EndToEnd["latency_p50_ms"].Value,
		res.Attempted, res.Failed)
}
EOF

(cd "$dir" && GOWORK=off go build -o cpuprof .)
"$dir/cpuprof" -workload "$workload" -seconds "$seconds" -out "$dir/cpu.pprof" -runs "$dir/out"
go tool pprof -top -cum -nodecount=30 "$dir/cpuprof" "$dir/cpu.pprof"
