// Package experiments regenerates every figure and quantitative claim of
// the paper as a table (Registry is the experiment index). Each experiment
// is a pure function returning a Table; cmd/experiments prints them and the
// root benchmarks drive the same code under testing.B.
//
// The paper reports no absolute numbers of its own (it is a PODC theory
// paper), so the tables record the *shape* of each claim — who wins, how
// costs scale — with the direct-messaging baseline as comparator where the
// paper's argument is comparative.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"blockdag/internal/cluster"
	"blockdag/internal/crypto"
	"blockdag/internal/direct"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&sb, "  %-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	total := 2 * len(t.Columns)
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// Registry maps experiment IDs to their functions, in presentation order.
func Registry() []struct {
	ID  string
	Run func() (*Table, error)
} {
	return []struct {
		ID  string
		Run func() (*Table, error)
	}{
		{"E5", E5GossipConvergence},
		{"E9", E9MessageCompression},
		{"E10", E10SignatureBatching},
		{"E11", E11ParallelInstances},
		{"E13", E13ReferenceOverhead},
		{"E16", E16ReferencesPerBlock},
	}
}

// broadcastWorkload runs `broadcasts` BRB instances on a DAG cluster of n
// servers until every correct server delivered every instance, returning
// the cluster for inspection (its signature operations: Cluster.Sigs). It
// steps the network event by event and stops at the delivering one, so its
// counts are what delivery cost, not a whole round's traffic.
func broadcastWorkload(n, broadcasts int) (*cluster.Cluster, error) {
	const rounds = 60
	c, err := cluster.New(cluster.Options{
		N:        n,
		Protocol: brb.Protocol{},
		Seed:     42,
	})
	if err != nil {
		return nil, err
	}
	labels := make([]types.Label, broadcasts)
	for i := range labels {
		labels[i] = types.Label(fmt.Sprintf("bc/%d", i))
		c.Request(i%n, labels[i], []byte(fmt.Sprintf("value-%d", i)))
	}
	done := func() bool {
		for _, srv := range c.CorrectServers() {
			if c.Metrics[srv].Get(metrics.Indications) < int64(broadcasts) {
				return false // cheap: checked after every event
			}
			seen := make(map[types.Label]bool)
			for _, ind := range c.Indications(srv) {
				seen[ind.Label] = true
			}
			if len(seen) < broadcasts {
				return false
			}
		}
		return true
	}
	c.ScheduleRounds(rounds)
	for !done() {
		if !c.Net.Step() {
			return nil, fmt.Errorf("experiments: %d broadcasts on n=%d not delivered in %d rounds", broadcasts, n, rounds)
		}
	}
	return c, c.Health()
}

// directWorkload runs the identical broadcast workload on the
// direct-messaging baseline.
func directWorkload(n, broadcasts int, counters *crypto.Counters) (*direct.Cluster, *simnet.Network, error) {
	net := simnet.New(simnet.WithSeed(42))
	c, err := direct.NewCluster(brb.Protocol{}, n,
		func(id types.ServerID) transport.Transport { return net.Transport(id) },
		func(id types.ServerID, ep transport.Endpoint) { net.Register(id, transport.ChanGossip, ep) },
		counters,
	)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < broadcasts; i++ {
		c.Servers[i%n].Request(types.Label(fmt.Sprintf("bc/%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	net.Run()
	for i := 0; i < broadcasts; i++ {
		label := types.Label(fmt.Sprintf("bc/%d", i))
		for srv := 0; srv < n; srv++ {
			if len(c.Delivered(srv, label)) != 1 {
				return nil, nil, fmt.Errorf("experiments: direct baseline failed to deliver %s at s%d", label, srv)
			}
		}
	}
	return c, net, nil
}

// E9MessageCompression compares wire traffic between the block DAG
// embedding and the direct baseline for the same BRB workload
// (paper Sections 1, 4, 5: "compression of messages — up to their
// omission").
func E9MessageCompression() (*Table, error) {
	const broadcasts = 16
	t := &Table{
		ID:    "E9",
		Title: fmt.Sprintf("message compression, %d BRB broadcasts (DAG vs direct)", broadcasts),
		Columns: []string{
			"n", "dag wire msgs", "dag KiB", "dag simulated msgs",
			"direct wire msgs", "direct KiB", "compression (wire msgs)",
		},
		Notes: []string{
			"simulated msgs are deduced locally and never sent (Algorithm 2)",
			"dag wire msgs are blocks + FWD traffic until all broadcasts delivered",
		},
	}
	for _, n := range []int{4, 7, 10, 13} {
		dagC, err := broadcastWorkload(n, broadcasts)
		if err != nil {
			return nil, err
		}
		var dagMsgs, dagBytes, dagSim int64
		for _, m := range dagC.Metrics {
			if m == nil {
				continue
			}
			dagMsgs += m.Get(metrics.WireMessages)
			dagBytes += m.Get(metrics.WireBytes)
			dagSim += m.Get(metrics.MsgsMaterialized)
		}
		dirC, _, err := directWorkload(n, broadcasts, nil)
		if err != nil {
			return nil, err
		}
		var dirMsgs, dirBytes int64
		for _, m := range dirC.Metrics {
			dirMsgs += m.Get(metrics.WireMessages)
			dirBytes += m.Get(metrics.WireBytes)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", dagMsgs),
			fmt.Sprintf("%.1f", float64(dagBytes)/1024),
			fmt.Sprintf("%d", dagSim),
			fmt.Sprintf("%d", dirMsgs),
			fmt.Sprintf("%.1f", float64(dirBytes)/1024),
			fmt.Sprintf("%.1fx", float64(dirMsgs)/float64(dagMsgs)),
		})
	}
	return t, nil
}

// E10SignatureBatching compares signature operations: the DAG signs one
// block covering many messages; the baseline signs every message
// (paper Section 4: "batch signature").
func E10SignatureBatching() (*Table, error) {
	const broadcasts = 16
	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("signature batching, %d BRB broadcasts (DAG vs direct)", broadcasts),
		Columns: []string{
			"n", "dag sign", "dag verify", "direct sign", "direct verify",
			"verify ratio (direct/dag)",
		},
		Notes: []string{
			"dag: one signature per block, one verification per block per receiver, until the event that completes delivery",
			"direct: one signature per remote message, one verification per receipt, run to quiescence (READYs that arrive after delivery count too)",
		},
	}
	for _, n := range []int{4, 7, 10, 13} {
		dagC, err := broadcastWorkload(n, broadcasts)
		if err != nil {
			return nil, err
		}
		dagSigs := &dagC.Sigs
		var dirSigs crypto.Counters
		if _, _, err := directWorkload(n, broadcasts, &dirSigs); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", dagSigs.Get(crypto.Signed)),
			fmt.Sprintf("%d", dagSigs.Get(crypto.Verified)),
			fmt.Sprintf("%d", dirSigs.Get(crypto.Signed)),
			fmt.Sprintf("%d", dirSigs.Get(crypto.Verified)),
			fmt.Sprintf("%.1fx", float64(dirSigs.Get(crypto.Verified))/float64(max(dagSigs.Get(crypto.Verified), 1))),
		})
	}
	return t, nil
}

// E11ParallelInstances sweeps the number of parallel BRB instances riding
// the same blocks (paper: "running many instances of protocols in
// parallel 'for free'"): the wire cost per instance collapses as
// instances share blocks.
func E11ParallelInstances() (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "parallel instances 'for free' (n=4, BRB)",
		Columns: []string{
			"instances", "wire msgs", "wire KiB", "KiB/instance",
			"simulated msgs", "sim msgs/instance",
		},
		Notes: []string{
			"all instances requested up front; run until every server delivered every instance",
		},
	}
	for _, instances := range []int{1, 4, 16, 64, 256} {
		c, err := broadcastWorkload(4, instances)
		if err != nil {
			return nil, err
		}
		var wireMsgs, wireBytes, sim int64
		for _, m := range c.Metrics {
			wireMsgs += m.Get(metrics.WireMessages)
			wireBytes += m.Get(metrics.WireBytes)
			sim += m.Get(metrics.MsgsMaterialized)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", instances),
			fmt.Sprintf("%d", wireMsgs),
			fmt.Sprintf("%.1f", float64(wireBytes)/1024),
			fmt.Sprintf("%.2f", float64(wireBytes)/1024/float64(instances)),
			fmt.Sprintf("%d", sim),
			fmt.Sprintf("%.0f", float64(sim)/float64(instances)),
		})
	}
	return t, nil
}

// E13ReferenceOverhead measures the cost the paper concedes in Section 7:
// in lock-step rounds every other server's latest block is a tip, so every
// block references all of them — an O(n²) per-round reference overhead
// (with a small constant: one hash each). It is the tip rule's worst case;
// E16 has the cases where blocks chain up.
func E13ReferenceOverhead() (*Table, error) {
	const rounds = 6
	t := &Table{
		ID:      "E13",
		Title:   "O(n²) reference overhead (Section 7), empty blocks",
		Columns: []string{"n", "refs/block", "bytes/block", "ref bytes/round (n blocks)"},
		Notes: []string{
			"refs/block ≤ n: parent + the DAG's tips, one per other server unless a round's blocks already reach each other",
		},
	}
	for _, n := range []int{4, 7, 10, 13, 16} {
		c, err := cluster.New(cluster.Options{N: n, Protocol: brb.Protocol{}, Seed: 9})
		if err != nil {
			return nil, err
		}
		if err := c.RunRounds(rounds); err != nil {
			return nil, err
		}
		var refs, bytes, blocks int64
		for b := range c.Servers[0].DAG().All() {
			if b.Seq == 0 {
				continue // genesis blocks reference fewer
			}
			refs += int64(len(b.Preds))
			bytes += int64(len(b.Encode()))
			blocks++
		}
		if blocks == 0 {
			return nil, fmt.Errorf("experiments: no blocks after %d rounds", rounds)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", float64(refs)/float64(blocks)),
			fmt.Sprintf("%.0f", float64(bytes)/float64(blocks)),
			fmt.Sprintf("%.0f", float64(refs)/float64(blocks)*float64(n)*32),
		})
	}
	return t, nil
}

// E5GossipConvergence measures how many extra empty rounds the cluster
// needs after a lossy content phase until every correct server holds every
// content block — Lemma 3.7's joint DAG under increasing loss.
func E5GossipConvergence() (*Table, error) {
	const (
		n             = 4
		contentRounds = 5
	)
	t := &Table{
		ID:      "E5",
		Title:   "gossip convergence to the joint DAG (Lemma 3.7) under loss (n=4)",
		Columns: []string{"drop", "extra rounds to joint DAG", "fwd requests", "virtual time"},
		Notes: []string{
			"content blocks: 5 rounds; recovery needs continued dissemination + FWD pulls",
		},
	}
	for _, drop := range []float64{0, 0.1, 0.3, 0.5} {
		c, err := cluster.New(cluster.Options{
			N: n, Protocol: brb.Protocol{}, Seed: 77, Drop: drop,
		})
		if err != nil {
			return nil, err
		}
		if err := c.RunRounds(contentRounds); err != nil {
			return nil, err
		}
		// Heal the network (losses stay confined to the content phase)
		// and keep disseminating empty blocks until the joint DAG
		// contains all content blocks everywhere.
		c.Net.SetDrop(0)
		haveAllContent := func() bool {
			for _, i := range c.CorrectServers() {
				for _, j := range c.CorrectServers() {
					di, dj := c.Servers[i].DAG(), c.Servers[j].DAG()
					for b := range di.All() {
						if b.Seq < contentRounds && !dj.Contains(b.Ref()) {
							return false
						}
					}
				}
			}
			return true
		}
		extra := 0
		for !haveAllContent() {
			if extra > 50 {
				return nil, fmt.Errorf("experiments: no convergence after 50 extra rounds at drop %.1f", drop)
			}
			if err := c.RunRounds(1); err != nil {
				return nil, err
			}
			extra++
		}
		var fwds int64
		for _, m := range c.Metrics {
			fwds += m.Get(metrics.FwdRequestsSent)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f%%", drop*100),
			fmt.Sprintf("%d", extra),
			fmt.Sprintf("%d", fwds),
			c.Net.Now().Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// E16ReferencesPerBlock measures what "a reference includes its ancestry"
// (paper Section 7, implicit block inclusion) buys: a block cites its
// parent and the DAG's tips, where Algorithm 1 as written cites every block
// inserted since the last own block. The two differ when peers' blocks
// chain up between one's own dissemination points, so the sweep is over n
// and rate skew: every server on one period, or server i disseminating
// every 20·(i+1) ms — a slow server then cites the tips of the fast
// servers' chains instead of every block individually. The explicit count
// is computed from the same DAG, not run: the blocks new to the chain's
// ancestry at each own block, which telescopes to the last own block's
// ancestry divided by the chain's length.
func E16ReferencesPerBlock() (*Table, error) {
	const (
		broadcasts = 8
		period     = 20 * time.Millisecond // server 0's, and every server's without skew
	)
	t := &Table{
		ID:      "E16",
		Title:   "references per block vs n and rate skew (server i disseminates every 20·(1 + skew·i) ms)",
		Columns: []string{"n", "skew", "refs/block", "blocks seen/block", "saving", "delivered"},
		Notes: []string{
			"counted over the slowest server's own blocks; blocks seen = what citing every inserted block once would cost",
		},
	}
	run := func(n, skew int) (refs, seen float64, delivered int, err error) {
		c, err := cluster.New(cluster.Options{
			N:        n,
			Protocol: brb.Protocol{},
			Seed:     16,
			Latency:  5 * time.Millisecond,
			Jitter:   5 * time.Millisecond,
			Interval: period,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < broadcasts; i++ {
			c.Request(i%n, types.Label(fmt.Sprintf("bc/%d", i)), []byte("v"))
		}
		const horizon = 3 * time.Second
		for i, nd := range c.Nodes {
			every := time.Duration(1+skew*i) * period
			var loop func()
			loop = func() {
				if c.Net.Now() >= horizon {
					return
				}
				nd.Tick()
				nd.Disseminate()
				c.Net.After(every, loop)
			}
			// Offset the starts, as deployed servers' timers are.
			c.Net.After(every+time.Duration(i)*time.Millisecond, loop)
		}
		c.Net.Run()
		if err := c.Health(); err != nil {
			return 0, 0, 0, err
		}
		d := c.Servers[0].DAG()
		chain := d.ByBuilder(types.ServerID(n - 1))
		if len(chain) == 0 {
			return 0, 0, 0, fmt.Errorf("experiments: E16 slowest server built no blocks")
		}
		var cited int
		for _, b := range chain {
			cited += len(b.Preds)
		}
		for _, srv := range c.CorrectServers() {
			labels := make(map[types.Label]bool)
			for _, ind := range c.Indications(srv) {
				labels[ind.Label] = true
			}
			delivered += len(labels)
		}
		blocks := float64(len(chain))
		return float64(cited) / blocks, float64(len(d.Ancestry(chain[len(chain)-1].Ref()))-1) / blocks, delivered, nil
	}
	for _, n := range []int{4, 7, 10} {
		for _, skew := range []int{0, 1} {
			refs, seen, delivered, err := run(n, skew)
			if err != nil {
				return nil, err
			}
			if delivered != n*broadcasts {
				return nil, fmt.Errorf("experiments: E16 incomplete deliveries: %d, want %d", delivered, n*broadcasts)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", skew),
				fmt.Sprintf("%.1f", refs),
				fmt.Sprintf("%.1f", seen),
				fmt.Sprintf("%.0f%%", 100*(1-refs/seen)),
				fmt.Sprintf("%d/%d", delivered, n*broadcasts),
			})
		}
	}
	return t, nil
}
