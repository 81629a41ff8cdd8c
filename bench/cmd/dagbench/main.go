// Command dagbench is the request-path benchmark: it stands the
// production wiring up in one process (n × core.Server + node.Node +
// tcpnet on loopback + store + syncsvc, mempool and gateway on node 0),
// drives it through HTTP with an open-loop generator, and reports
// submit→indication latency, cost per request and the per-layer budget.
//
//	dagbench                              every workload, untraced then traced
//	dagbench -repeat 2                    the same twice; exit 1 if the two disagree beyond a bound
//	dagbench -workload steady -trace 1    one run (the form BENCHMARK.json's driver uses)
//	dagbench -compare old.json new.json   compare two summaries from one host
//	dagbench -workload steady -rate 150 -disseminate-every 10ms    an ad-hoc sweep point
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blockdag/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "named workload to run (default: all of them, untraced then traced)")
		seed     = flag.Int64("seed", 1, "workload seed: the arrival schedule, labels and values are a pure function of it")
		seconds  = flag.Int("seconds", 20, "measured seconds per run, after the 3 s warm-up")
		trace    = flag.Int("trace", 0, "with -workload: 0 runs untraced and reports the end-to-end metrics, 1 runs traced and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 1, "without -workload: run everything this many times and fail if two rounds disagree beyond a metric's bound")
		compare  = flag.Bool("compare", false, "compare two summary files given as arguments instead of running")
		outDir   = flag.String("out", "bench/out", "directory for store files during a run, span files and summary.json")
		repoRoot = flag.String("repo", ".", "repository root (for the loc.* metrics)")
		// Sweep overrides. The named workloads never use them.
		n           = flag.Int("n", 0, "sweep: cluster size")
		rate        = flag.Float64("rate", 0, "sweep: arrival rate in requests per second")
		payload     = flag.Int("payload", 0, "sweep: request value size in bytes")
		disseminate = flag.Duration("disseminate-every", 0, "sweep: block production period")
		compress    = flag.Bool("compress", false, "sweep: enable core.Config.CompressReferences")
	)
	flag.Parse()
	if *compare {
		return compareFiles(flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}

	doc := &bench.Document{Host: bench.HostFingerprint(), Calib: bench.Calibrate(150 * time.Millisecond)}
	fmt.Printf("host: %v\n", doc.Host)
	fmt.Printf("calib.sha256_mb_s %.1f MB/s\ncalib.ed25519_verify_us %.2f us\n", doc.Calib.SHA256MBs, doc.Calib.Ed25519VerifyUs)
	opts := bench.Options{
		Seed:     *seed,
		Window:   time.Duration(*seconds) * time.Second,
		OutDir:   *outDir,
		RepoRoot: *repoRoot,
		Calib:    doc.Calib,
	}
	sweep := func(wl bench.Workload) bench.Workload {
		if *n > 0 {
			wl.N = *n
		}
		if *rate > 0 {
			wl.Rate = *rate
		}
		if *payload > 0 {
			wl.Payload = *payload
		}
		if *disseminate > 0 {
			wl.DisseminateEvery = *disseminate
		}
		wl.Compress = wl.Compress || *compress
		return wl
	}

	if *workload != "" {
		wl, err := bench.WorkloadByName(*workload)
		if err != nil {
			return err
		}
		opts.Workload, opts.Trace = sweep(wl), *trace == 1
		res, err := bench.Run(opts)
		if err != nil {
			return err
		}
		printResult(res)
		// The driver's line: the last line of standard output.
		metrics := res.EndToEnd
		if opts.Trace {
			metrics = res.PerLayer
		}
		line, err := json.Marshal(map[string]any{
			"correct": true, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	var rounds []*bench.Document
	for r := 0; r < *repeat; r++ {
		round := &bench.Document{Host: doc.Host, Calib: doc.Calib}
		for _, wl := range bench.Workloads {
			for _, traced := range []bool{false, true} {
				opts.Workload, opts.Trace = sweep(wl), traced
				res, err := bench.Run(opts)
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				printResult(res)
				round.Results = append(round.Results, res)
			}
		}
		rounds = append(rounds, round)
		doc.Results = append(doc.Results, round.Results...)
	}
	summary := filepath.Join(*outDir, "summary.json")
	if err := doc.WriteFile(summary); err != nil {
		return err
	}
	fmt.Println("summary:", summary)
	disagree := false
	for r := 1; r < len(rounds); r++ {
		deltas, err := bench.Compare(rounds[0], rounds[r])
		if err != nil {
			return err
		}
		fmt.Printf("\nround 1 vs round %d\n", r+1)
		disagree = printDeltas(deltas) || disagree
	}
	if disagree {
		return errors.New("two rounds of the same code disagree beyond a metric's bound")
	}
	return nil
}

func printResult(res *bench.Result) {
	kind := "untraced"
	if res.PerLayer != nil {
		kind = "traced"
	}
	fmt.Printf("\n== %s (%s, seed %d, %.0f s): attempted %d, failed %d, latency samples %d, highest supported tail p%v = %.1f ms, host stole %.1f%% of the CPU\n",
		res.Workload, kind, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Samples, res.Tail, res.TailMs, 100*res.StealRatio)
	for _, set := range []bench.Metrics{res.EndToEnd, res.PerLayer} {
		for _, name := range set.Names() {
			fmt.Printf("%-36s %14.4f %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	for _, f := range res.Findings {
		fmt.Println("finding:", f)
	}
}

// printDeltas prints one line per workload and metric and reports whether
// any exceeded its bound.
func printDeltas(deltas []bench.Delta) (exceeded bool) {
	for _, d := range deltas {
		verdict := "ok"
		if d.Exceeds {
			verdict, exceeded = "EXCEEDS", true
		}
		fmt.Printf("%-14s %-20s %12.4f -> %12.4f %-3s %+7.2f%% (bound %.0f%%) %s\n",
			d.Workload, d.Spec.Name, d.A, d.B, d.Spec.Unit, 100*d.Change, 100*d.Spec.Bound, verdict)
	}
	return exceeded
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two summary files")
	}
	a, err := bench.ReadDocument(paths[0])
	if err != nil {
		return err
	}
	b, err := bench.ReadDocument(paths[1])
	if err != nil {
		return err
	}
	deltas, err := bench.Compare(a, b)
	if err != nil {
		return err
	}
	if printDeltas(deltas) {
		return errors.New("a metric moved beyond its bound")
	}
	return nil
}
