package syncsvc_test

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/gossip"
	"blockdag/internal/mempool"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// gossipNode adapts a raw gossip instance to a transport.Endpoint.
type gossipNode struct{ g *gossip.Gossip }

func (n gossipNode) Deliver(from types.ServerID, payload []byte) {
	n.g.HandleMessage(from, payload)
}

// BenchmarkCatchUp compares the two ways a replica that lost its disk can
// rebuild a 2000-block backlog from one peer:
//
//   - bulk: one syncsvc stream over the sync channel (chunked frames,
//     signatures checked on the stream; the absorbing DAG's structural
//     checks are BenchmarkPullValidate's to price)
//   - fwd: the gossip layer's per-block FWD path — receive the tip,
//     discover one missing predecessor per round trip
//
// Wall time (ns/op) is dominated by Ed25519 verification of the 2000
// blocks in both variants; the structural difference shows in the
// reported metrics: virtual-ms is simulated network time at 10ms±5ms link
// latency (what a real recovery would wait) and net-msgs is messages on
// the wire. FWD pays one sequential round trip per block; bulk pays a
// handful of streamed frames — the acceptance criterion's ≥10× gap.
func BenchmarkCatchUp(b *testing.B) {
	const backlog = 2000
	roster, blocks := buildChain(b, backlog)

	b.Run("bulk", func(b *testing.B) {
		st := restoredPeer(b, roster, blocks)
		var virtual time.Duration
		var msgs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net := simnet.New(simnet.WithSeed(1))
			net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st})
			pull := syncsvc.NewPull(roster, nil, 0, nil)
			net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
			if !runUntil(net, pull.Done) {
				b.Fatal("stream did not finish")
			}
			got, err := pull.Result()
			if err != nil || len(got) != backlog {
				b.Fatalf("bulk sync got %d blocks, err=%v", len(got), err)
			}
			s := net.Stats()
			virtual, msgs = net.Now(), s.Calls+s.CallFrames
		}
		b.ReportMetric(float64(virtual.Milliseconds()), "virtual-ms")
		b.ReportMetric(float64(msgs), "net-msgs")
		b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
	})

	b.Run("fwd", func(b *testing.B) {
		// The serving peer: a gossip instance over the full DAG,
		// answering FWD requests. Built once — FWD service only reads.
		servedDAG := dag.New(roster)
		for _, blk := range blocks {
			if err := servedDAG.InsertVerified(blk); err != nil {
				b.Fatal(err)
			}
		}
		_, signers, err := crypto.LocalRoster(2)
		if err != nil {
			b.Fatal(err)
		}
		tip := gossip.EncodeBlockMsg(blocks[backlog-1])
		var virtual time.Duration
		var msgs int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net := simnet.New(simnet.WithSeed(1))
			server, err := gossip.New(gossip.Config{
				Signer:     signers[0],
				Roster:     roster,
				DAG:        servedDAG,
				Requests:   mempool.New(mempool.Options{}),
				Transport:  net.Transport(0),
				OnInsert:   func(*block.Block) error { return nil },
				Clock:      net.Now,
				OnEvidence: func(*evidence.Proof) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			recoveringDAG := dag.New(roster)
			client, err := gossip.New(gossip.Config{
				Signer:     signers[1],
				Roster:     roster,
				DAG:        recoveringDAG,
				Requests:   mempool.New(mempool.Options{}),
				Transport:  net.Transport(1),
				OnInsert:   func(*block.Block) error { return nil },
				Clock:      net.Now,
				OnEvidence: func(*evidence.Proof) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			net.Register(0, transport.ChanGossip, gossipNode{server})
			net.Register(1, transport.ChanGossip, gossipNode{client})
			// The recovering node learns of the tip; everything below
			// it arrives one FWD round trip at a time.
			client.HandleMessage(0, tip)
			net.Run()
			if recoveringDAG.Len() != backlog {
				b.Fatalf("fwd recovery ended with %d blocks", recoveringDAG.Len())
			}
			virtual, msgs = net.Now(), net.Stats().Sends
		}
		b.ReportMetric(float64(virtual.Milliseconds()), "virtual-ms")
		b.ReportMetric(float64(msgs), "net-msgs")
		b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
	})
}

// BenchmarkPullValidate isolates the client-side cost of validating a
// streamed backlog (decode + Ed25519 + parent rule), the bulk path's
// dominant term.
func BenchmarkPullValidate(b *testing.B) {
	const backlog = 1000
	roster, blocks := buildChain(b, backlog)
	encs := make([][]byte, len(blocks))
	for i, blk := range blocks {
		encs[i] = blk.Encode()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dag.New(roster)
		for _, enc := range encs {
			blk, err := block.Decode(enc)
			if err != nil {
				b.Fatal(err)
			}
			if err := d.Insert(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(backlog)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSnapshotSync measures the snapshot tier end to end over the
// simulator: one meta query, then the chunk stream, every chunk verified
// structurally on arrival and the whole content hashed against the
// certified root (Builder.Finish). This is the fixed-cost floor a wiped
// replica pays before its delta pull — O(state), independent of how much
// history was pruned, which is the point of the tier.
func BenchmarkSnapshotSync(b *testing.B) {
	const entries = 5000
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	tr := state.NewTree()
	for i := 0; i < entries; i++ {
		key := []byte(fmt.Sprintf("account/%06d", i))
		tr.Put(key, []byte{byte(i), byte(i >> 8), byte(i >> 16), 0x42})
	}
	root := tr.Root()
	st := onStore(b, fixed(nil))
	if err := st.InstallSnapshot(&store.Head{State: &store.StateCheckpoint{Commit: state.Commit{Slot: 1000, Root: root}, Chunks: state.Export(tr, 32<<10)}}); err != nil {
		b.Fatal(err)
	}
	var virtual time.Duration
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := simnet.New(simnet.WithSeed(1))
		net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st, Signer: signers[0]})
		q := syncsvc.NewSnapMetaQuery()
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeSnapMetaRequest(), q)
		if !runUntil(net, q.Done) {
			b.Fatal("meta query did not finish")
		}
		meta, err := q.Result()
		if err != nil {
			b.Fatal(err)
		}
		builder := state.NewBuilder(meta.Signed.Commit.Root)
		pull := syncsvc.NewSnapChunkPull(builder)
		net.Transport(1).Call(0, transport.ChanSync, pull.Request(meta.Signed.Commit.Root), pull)
		if !runUntil(net, pull.Done) {
			b.Fatal("chunk stream did not finish")
		}
		if _, err := pull.Result(); err != nil {
			b.Fatal(err)
		}
		tree, err := builder.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if tree.Root() != root {
			b.Fatal("rebuilt root mismatch")
		}
		s := net.Stats()
		virtual, msgs = net.Now(), s.Calls+s.CallFrames
	}
	b.ReportMetric(float64(virtual.Milliseconds()), "virtual-ms")
	b.ReportMetric(float64(msgs), "net-msgs")
	b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds(), "entries/s")
}
