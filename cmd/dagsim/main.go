// Command dagsim runs a complete block DAG cluster on the deterministic
// network simulator and reports what the embedding did: blocks and bytes
// on the wire, protocol messages materialized without being sent,
// signature amortization, deliveries, and per-server metrics.
//
// Usage:
//
//	dagsim -n 4 -protocol brb -instances 8 -rounds 20
//	dagsim -n 7 -protocol pbft -instances 16 -drop 0.2 -seed 3
//	dagsim -n 4 -instances 4 -store-dir run   # then: dagstore render -dir run/s0
//	dagsim -chaos partition-equivocators -seed 7   # seeded fault scenario
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"blockdag/internal/chaos"
	"blockdag/internal/cluster"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/roster"
	"blockdag/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 4, "number of servers (3f+1)")
		protoName = flag.String("protocol", "brb", "embedded protocol: brb | pbft | courier")
		instances = flag.Int("instances", 8, "parallel protocol instances to request")
		rounds    = flag.Int("rounds", 30, "maximum dissemination rounds")
		latency   = flag.Duration("latency", 10*time.Millisecond, "link latency base")
		jitter    = flag.Duration("jitter", 5*time.Millisecond, "link latency jitter")
		drop      = flag.Float64("drop", 0, "unicast drop probability [0,1)")
		seed      = flag.Int64("seed", 1, "simulation seed (runs are reproducible)")
		rosterF   = flag.String("roster", "", "roster file: simulate a deployment's real identities (requires -keys)")
		keysDir   = flag.String("keys", "", "directory holding every member's s<i>.key (with -roster)")
		storeDir  = flag.String("store-dir", "", "journal every server's blocks to a durable store under this directory (inspect with dagstore); a durable server also serves the sync channel and runs the live follower, which pulls from a rotating peer when gossip shows lag")
		mpoolCap  = flag.Int("mempool-cap", 0, "capacity of every server's ingestion mempool: dedup, validation, backpressure (0 = the pool's default)")
		loadRound = flag.Int("load-per-round", 0, "submit this many synthetic client requests per server before every round (deterministic labels load/s<i>/<seq>)")
		chaosName = flag.String("chaos", "", "run a named chaos scenario instead of the workload simulation (see -chaos list); honors -seed, -protocol, -store-dir, -v")
		verbose   = flag.Bool("v", false, "print per-server metrics")
	)
	flag.Parse()

	proto, err := protocols.ByName(*protoName)
	if err != nil {
		return err
	}
	if *chaosName != "" {
		return runChaos(*chaosName, proto, *seed, *storeDir, *verbose)
	}
	// With -roster/-keys the simulation runs a deployment's actual
	// identities — same file-format code path as the real servers; the
	// roster's size wins over -n. Without, the dev fixture applies.
	var fixture *roster.Fixture
	if (*rosterF == "") != (*keysDir == "") {
		return fmt.Errorf("-roster and -keys go together")
	}
	if *rosterF != "" {
		if fixture, err = roster.LoadFixture(*rosterF, *keysDir); err != nil {
			return err
		}
		*n = fixture.File.N()
	}
	c, err := cluster.New(cluster.Options{
		N:        *n,
		Fixture:  fixture,
		Protocol: proto,
		Seed:     *seed,
		Latency:  *latency,
		Jitter:   *jitter,
		Drop:     *drop,
		StoreDir: *storeDir,

		MempoolCapacity: *mpoolCap,
		LoadPerRound:    *loadRound,
	})
	if err != nil {
		return err
	}

	// Submit the workload: one instance per label, round-robin across
	// servers. For pbft the request goes to the instance's leader; for
	// courier the payload routes to the next server.
	labels := make([]types.Label, *instances)
	for i := 0; i < *instances; i++ {
		labels[i] = types.Label(fmt.Sprintf("inst/%d", i))
		payload := []byte(fmt.Sprintf("value-%d", i))
		target := i % *n
		switch *protoName {
		case "pbft":
			target = int(pbft.Leader(labels[i], *n))
		case "courier":
			payload = courier.EncodeRequest(types.ServerID((i+1)%*n), payload)
		}
		c.Request(target, labels[i], payload)
	}

	// Run until every correct server has delivered every instance (or
	// the round budget runs out). Matching the workload's labels exactly
	// keeps the condition honest when -load-per-round adds synthetic
	// traffic with its own labels.
	done := func() bool {
		for _, srv := range c.CorrectServers() {
			seen := make(map[types.Label]bool)
			for _, ind := range c.Indications(srv) {
				seen[ind.Label] = true
			}
			for _, l := range labels {
				if !seen[l] {
					return false
				}
			}
		}
		return true
	}
	start := time.Now()
	ok, err := c.RunUntil(*rounds, done)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Printf("cluster: n=%d f=%d protocol=%s instances=%d seed=%d\n",
		*n, (*n-1)/3, *protoName, *instances, *seed)
	fmt.Printf("network: latency=%v±%v drop=%.0f%%\n", *latency, *jitter, *drop*100)
	fmt.Printf("result : complete=%v virtual=%v wall=%v\n\n",
		ok, c.Net.Now().Round(time.Millisecond), wall.Round(time.Millisecond))

	var agg struct {
		blocks, wireMsgs, wireBytes, sim, inds, fwd int64
	}
	for i, m := range c.Metrics {
		if m == nil {
			continue
		}
		agg.blocks += m.Get(metrics.BlocksBuilt)
		agg.wireMsgs += m.Get(metrics.WireMessages)
		agg.wireBytes += m.Get(metrics.WireBytes)
		agg.sim += m.Get(metrics.MsgsMaterialized)
		agg.inds += m.Get(metrics.Indications)
		agg.fwd += m.Get(metrics.FwdRequestsSent)
		if *verbose {
			reg := metrics.NewRegistry()
			reg.Register(metrics.Families.Collector(m))
			fmt.Printf("s%d:\n", i)
			if _, err := reg.WriteTo(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	fmt.Printf("blocks built           %d\n", agg.blocks)
	fmt.Printf("wire sends             %d (%d bytes, incl. %d FWD requests)\n", agg.wireMsgs, agg.wireBytes, agg.fwd)
	fmt.Printf("messages materialized  %d (never sent: compression %0.1f msgs per wire send)\n",
		agg.sim, safeDiv(agg.sim, agg.wireMsgs))
	fmt.Printf("signatures             %d signed / %d verified (vs %d messages had each been signed)\n",
		c.Sigs.Get(crypto.Signed), c.Sigs.Get(crypto.Verified), agg.sim)
	fmt.Printf("indications            %d across all servers\n", agg.inds)
	if stats := c.Net.Stats(); stats.Dropped > 0 {
		fmt.Printf("network drops          %d (recovered via FWD)\n", stats.Dropped)
	}
	if !ok {
		fmt.Println("\nWARNING: round budget exhausted before all instances delivered")
	}
	if proofs := c.Servers[c.CorrectServers()[0]].Scores().Proofs(); len(proofs) > 0 {
		fmt.Printf("equivocators convicted %d\n", len(proofs))
	}
	var magg struct {
		submitted, accepted, dups, invalid, overflow, drained int64
	}
	for _, i := range c.CorrectServers() {
		ms := c.Servers[i].Mempool().Stats()
		magg.submitted += ms.Submitted
		magg.accepted += ms.Accepted
		magg.dups += ms.Duplicates
		magg.invalid += ms.Invalid
		magg.overflow += ms.Overflow
		magg.drained += ms.Drained
	}
	fmt.Printf("mempool                %d submitted / %d accepted / %d drained into blocks (%d dup, %d invalid, %d overflow)\n",
		magg.submitted, magg.accepted, magg.drained, magg.dups, magg.invalid, magg.overflow)
	if *storeDir != "" {
		var fagg node.FollowReport
		for _, i := range c.CorrectServers() {
			fs := c.Nodes[i].FollowReport()
			fagg.Polls += fs.Polls
			fagg.Deltas += fs.Deltas
			fagg.Blocks += fs.Blocks
			fagg.Throttled += fs.Throttled
			fagg.Errors += fs.Errors
		}
		fmt.Printf("live follow            %d polls, %d deltas, %d blocks pulled, %d throttled, %d errors\n",
			fagg.Polls, fagg.Deltas, fagg.Blocks, fagg.Throttled, fagg.Errors)
	}

	if *storeDir != "" {
		var total int64
		var blocks int
		for _, st := range c.Stores {
			if st == nil {
				continue
			}
			if err := st.Sync(); err != nil {
				return err
			}
			size, err := st.DiskSize()
			if err != nil {
				return err
			}
			total += size
			blocks += st.Len()
		}
		hint := fmt.Sprintf("-n %d", *n)
		if *rosterF != "" {
			hint = "-roster " + *rosterF
		}
		fmt.Printf("\ndurable stores         %d blocks, %d bytes under %s (dagstore inspect %s -dir %s/s0)\n",
			blocks, total, *storeDir, hint, *storeDir)
	}
	return nil
}

// runChaos executes a named chaos scenario: the seeded fault harness
// with accountability on, reporting the invariant verdict. A failed
// invariant is a non-zero exit — `make chaos-smoke` and CI rely on that.
func runChaos(name string, proto protocol.Protocol, seed int64, storeDir string, verbose bool) error {
	if name == "list" {
		for _, s := range chaos.Scenarios() {
			fmt.Printf("%-24s %s\n", s.Name, s.Description)
		}
		return nil
	}
	sc, ok := chaos.Lookup(name)
	if !ok {
		names := make([]string, 0, 2)
		for _, s := range chaos.Scenarios() {
			names = append(names, s.Name)
		}
		return fmt.Errorf("unknown chaos scenario %q (have: %s)", name, strings.Join(names, ", "))
	}
	// Crash recovery and ban persistence need durable stores; without an
	// explicit -store-dir the run uses a throwaway one.
	if storeDir == "" {
		dir, err := os.MkdirTemp("", "dagsim-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	cfg := chaos.Config{Scenario: sc, Seed: seed, StoreDir: storeDir, Protocol: proto}
	if verbose {
		cfg.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	}
	start := time.Now()
	res, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Summary())
	fmt.Printf("wall %v\n", time.Since(start).Round(time.Millisecond))
	if !res.OK() {
		return fmt.Errorf("chaos scenario %s failed %d invariant(s)", name, len(res.Violations))
	}
	return nil
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
