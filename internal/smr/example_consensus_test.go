package smr_test

import (
	"fmt"

	"blockdag/internal/cluster"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/smr"
)

// Example_consensus builds a replicated log — state machine replication —
// on the block DAG: the smr library runs one deterministic PBFT instance
// (the Blockmania use case) per log slot, all multiplexed over the same
// block stream, and commits decided commands in slot order.
//
// The block DAG is the entire transport: pre-prepare, prepare, and commit
// messages for every slot are deduced from block structure; only blocks
// cross the network.
func Example_consensus() {
	const n, slots = 4, 6
	c, err := cluster.New(cluster.Options{N: n, Protocol: pbft.Protocol{}, Seed: 5})
	if err != nil {
		fmt.Println(err)
		return
	}

	// One log replica per server; commits recorded per replica.
	commits := make([][]string, n)
	logs := make([]*smr.Log, n)
	for i := 0; i < n; i++ {
		idx := i
		logs[i] = smr.New("log", n, c.Servers[i], func(slot uint64, cmd []byte) {
			commits[idx] = append(commits[idx], fmt.Sprintf("slot %d = %q", slot, cmd))
		})
	}

	// Propose one command per slot at the slot's leader.
	for s := uint64(0); s < slots; s++ {
		leader := logs[0].Leader(s)
		cmd := fmt.Sprintf("cmd-%d", s)
		logs[leader].Propose(s, []byte(cmd))
		fmt.Printf("slot %d: leader s%d proposes %q\n", s, leader, cmd)
	}

	// Drive the cluster, routing indications into each replica's log.
	seen := make([]int, n)
	pump := func() {
		for i := 0; i < n; i++ {
			inds := c.Indications(i)
			for _, ind := range inds[seen[i]:] {
				logs[i].HandleIndication(ind.Label, ind.Value)
			}
			seen[i] = len(inds)
		}
	}
	for round := 0; round < 40; round++ {
		pump()
		done := true
		for i := 0; i < n; i++ {
			if logs[i].CommitIndex() < slots {
				done = false
			}
		}
		if done {
			break
		}
		if err := c.RunRounds(1); err != nil {
			fmt.Println(err)
			return
		}
	}
	pump()

	fmt.Println("\ncommitted logs (in commit order):")
	for i := 0; i < n; i++ {
		if logs[i].CommitIndex() < slots {
			fmt.Printf("server %d committed only %d/%d slots\n", i, logs[i].CommitIndex(), slots)
			return
		}
		fmt.Printf("  s%d: %v\n", i, commits[i])
	}
	for i := 1; i < n; i++ {
		for s := range commits[0] {
			if commits[i][s] != commits[0][s] {
				fmt.Printf("logs diverge at entry %d\n", s)
				return
			}
		}
	}
	fmt.Println("\nagreement: every replica committed the identical log, in order")

	var wireMsgs, simulated int64
	for _, m := range c.Metrics {
		wireMsgs += m.Get(metrics.WireMessages)
		simulated += m.Get(metrics.MsgsMaterialized)
	}
	fmt.Printf("%d slots of three-phase PBFT: %d simulated protocol messages, %d wire sends (blocks + FWD only)\n",
		slots, simulated, wireMsgs)
	// Output:
	// slot 0: leader s1 proposes "cmd-0"
	// slot 1: leader s3 proposes "cmd-1"
	// slot 2: leader s2 proposes "cmd-2"
	// slot 3: leader s1 proposes "cmd-3"
	// slot 4: leader s2 proposes "cmd-4"
	// slot 5: leader s2 proposes "cmd-5"
	//
	// committed logs (in commit order):
	//   s0: [slot 0 = "cmd-0" slot 1 = "cmd-1" slot 2 = "cmd-2" slot 3 = "cmd-3" slot 4 = "cmd-4" slot 5 = "cmd-5"]
	//   s1: [slot 0 = "cmd-0" slot 1 = "cmd-1" slot 2 = "cmd-2" slot 3 = "cmd-3" slot 4 = "cmd-4" slot 5 = "cmd-5"]
	//   s2: [slot 0 = "cmd-0" slot 1 = "cmd-1" slot 2 = "cmd-2" slot 3 = "cmd-3" slot 4 = "cmd-4" slot 5 = "cmd-5"]
	//   s3: [slot 0 = "cmd-0" slot 1 = "cmd-1" slot 2 = "cmd-2" slot 3 = "cmd-3" slot 4 = "cmd-4" slot 5 = "cmd-5"]
	//
	// agreement: every replica committed the identical log, in order
	// 6 slots of three-phase PBFT: 864 simulated protocol messages, 54 wire sends (blocks + FWD only)
}
