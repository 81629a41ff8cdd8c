package gossip

import (
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
)

// benchBlocks pre-seals a 4-server all-to-all block schedule as wire
// payloads, in a valid arrival order.
func benchBlocks(b *testing.B, rounds int) ([][]byte, *crypto.Roster) {
	b.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	tips := make(map[int]block.Ref)
	var payloads [][]byte
	for r := 0; r < rounds; r++ {
		prev := make(map[int]block.Ref, len(tips))
		for k, v := range tips {
			prev[k] = v
		}
		for i := 0; i < 4; i++ {
			var preds []block.Ref
			if tip, ok := prev[i]; ok {
				preds = append(preds, tip)
			}
			for j := 0; j < 4; j++ {
				if j != i {
					if tip, ok := prev[j]; ok {
						preds = append(preds, tip)
					}
				}
			}
			blk := block.New(types.ServerID(i), uint64(r), preds, nil)
			if err := blk.Seal(signers[i]); err != nil {
				b.Fatal(err)
			}
			tips[i] = blk.Ref()
			payloads = append(payloads, EncodeBlockMsg(blk))
		}
	}
	return payloads, roster
}

// BenchmarkHandleBlockIngest measures the receive path: decode, verify,
// validate, insert — the per-block cost of building the DAG.
func BenchmarkHandleBlockIngest(b *testing.B) {
	payloads, roster := benchBlocks(b, 32)
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	net := simnet.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dag.New(roster)
		g := newGossip(b, Config{
			Signer:     signers[0],
			Roster:     roster,
			DAG:        d,
			Transport:  net.Transport(0),
			Clock:      net.Now,
			OnEvidence: discardEvidence,
		})
		for _, p := range payloads {
			g.HandleMessage(1, p)
		}
		if d.Len() != len(payloads) {
			b.Fatalf("inserted %d of %d", d.Len(), len(payloads))
		}
	}
	b.ReportMetric(float64(len(payloads)), "blocks/op")
}

// benchMessages wraps benchBlocks-style schedules as Message values with
// reqs requests riding in every block, for the batched ingest path.
func benchMessages(b *testing.B, rounds, reqs int) ([]Message, *crypto.Roster) {
	b.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	tips := make(map[int]block.Ref)
	var msgs []Message
	for r := 0; r < rounds; r++ {
		prev := make(map[int]block.Ref, len(tips))
		for k, v := range tips {
			prev[k] = v
		}
		for i := 0; i < 4; i++ {
			var preds []block.Ref
			for j := 0; j < 4; j++ {
				if tip, ok := prev[j]; ok {
					preds = append(preds, tip)
				}
			}
			rqs := make([]block.Request, reqs)
			for q := range rqs {
				rqs[q] = block.Request{
					Label: types.Label(fmt.Sprintf("inst/%d-%d-%d", i, r, q)),
					Data:  payload,
				}
			}
			blk := block.New(types.ServerID(i), uint64(r), preds, rqs)
			if err := blk.Seal(signers[i]); err != nil {
				b.Fatal(err)
			}
			tips[i] = blk.Ref()
			msgs = append(msgs, Message{From: types.ServerID(i), Payload: EncodeBlockMsg(blk)})
		}
	}
	return msgs, roster
}

// BenchmarkIngest measures the full batched receive path — decode, batch
// signature verification, serial apply — in requests per second, across
// burst sizes: batch=1 verifies inline, one block at a time; larger bursts
// spread the signature checks over the cores (crypto.BenchmarkVerifyBatch
// times that pass alone, serial against parallel).
func BenchmarkIngest(b *testing.B) {
	const reqsPerBlock = 8
	msgs, roster := benchMessages(b, 16, reqsPerBlock)
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	totalReqs := len(msgs) * reqsPerBlock
	for _, batch := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			net := simnet.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := dag.New(roster)
				g := newGossip(b, Config{
					Signer:     signers[0],
					Roster:     roster,
					DAG:        d,
					Transport:  net.Transport(0),
					Clock:      net.Now,
					OnEvidence: discardEvidence,
				})
				if batch <= 1 {
					for _, m := range msgs {
						g.HandleMessage(m.From, m.Payload)
					}
				} else {
					for off := 0; off < len(msgs); off += batch {
						end := off + batch
						if end > len(msgs) {
							end = len(msgs)
						}
						g.HandleMessages(msgs[off:end])
					}
				}
				if d.Len() != len(msgs) {
					b.Fatalf("inserted %d of %d", d.Len(), len(msgs))
				}
			}
			b.ReportMetric(float64(totalReqs)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkTipRetirement measures ingest across DAG depths: every insert
// retires the tips it reaches via DAG reachability, an O(1) watermark
// compare, so per-block cost must stay flat in depth.
func BenchmarkTipRetirement(b *testing.B) {
	for _, rounds := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			payloads, roster := benchBlocks(b, rounds)
			_, signers, err := crypto.LocalRoster(4)
			if err != nil {
				b.Fatal(err)
			}
			net := simnet.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := dag.New(roster)
				g := newGossip(b, Config{
					Signer:     signers[0],
					Roster:     roster,
					DAG:        d,
					Transport:  net.Transport(0),
					Clock:      net.Now,
					OnEvidence: discardEvidence,
				})
				for _, p := range payloads {
					g.HandleMessage(1, p)
				}
				if d.Len() != len(payloads) {
					b.Fatalf("inserted %d of %d", d.Len(), len(payloads))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(payloads)), "ns/block")
		})
	}
}
