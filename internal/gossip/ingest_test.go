package gossip

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// TestDisseminateWithholdRequeueNoDuplicates is the bounded-requeue
// regression: when the persistence hook fails repeatedly, every failed
// Disseminate drains the pool and requeues the batch — and however many
// times that loop spins, the eventually-broadcast block must embed each
// request exactly once.
func TestDisseminateWithholdRequeueNoDuplicates(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.WithSeed(7))
	pool := mempool.New(mempool.Options{Capacity: 64})
	persistFails := 3
	persistErr := errors.New("disk on fire")
	g := newGossip(t, Config{
		Signer:     signers[0],
		Roster:     roster,
		DAG:        dag.New(roster),
		Requests:   pool,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
		Metrics:    &metrics.Metrics{},
		OnInsert: func(*block.Block) error {
			if persistFails > 0 {
				persistFails--
				return persistErr
			}
			return nil
		},
	})

	const n = 5
	for i := 0; i < n; i++ {
		if err := pool.Submit(types.Label(fmt.Sprintf("inst/%d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Three Disseminates hit the failing persist hook: drain, withhold,
	// requeue — the same batch every time.
	for round := 0; round < 3; round++ {
		if _, err := g.Disseminate(); !errors.Is(err, persistErr) {
			t.Fatalf("withheld disseminate %d: err = %v, want wrapped %v", round, err, persistErr)
		}
		if got := pool.Len(); got != n {
			t.Fatalf("after withheld disseminate %d: pool holds %d requests, want %d", round, got, n)
		}
	}

	// Persistence recovers: the next block carries each request once.
	b, err := g.Disseminate()
	if err != nil {
		t.Fatalf("recovered disseminate: %v", err)
	}
	if len(b.Requests) != n {
		t.Fatalf("broadcast block embeds %d requests, want %d", len(b.Requests), n)
	}
	counts := make(map[types.Label]int)
	for _, rq := range b.Requests {
		counts[rq.Label]++
	}
	for l, c := range counts {
		if c != 1 {
			t.Fatalf("request %s embedded %d times, want exactly once", l, c)
		}
	}
	if got := pool.Len(); got != 0 {
		t.Fatalf("pool holds %d requests after successful broadcast, want 0", got)
	}
	if s := pool.Stats(); s.Requeued != 3*n {
		t.Fatalf("Requeued = %d, want %d (one full batch per withheld round)", s.Requeued, 3*n)
	}
}

// ingestFixture seals a mixed message schedule: valid all-to-all blocks
// plus adversarial traffic — a tampered signature, a non-member builder,
// a duplicate, and a malformed frame.
func ingestFixture(t testing.TB, rounds int) (msgs []Message, roster *crypto.Roster, wantBlocks int) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	tips := make(map[int]block.Ref)
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
			blk := block.New(types.ServerID(i), uint64(r), preds, []block.Request{
				{Label: types.Label(fmt.Sprintf("inst/%d", i)), Data: []byte{byte(r)}},
			})
			if err := blk.Seal(signers[i]); err != nil {
				t.Fatal(err)
			}
			tips[i] = blk.Ref()
			msgs = append(msgs, Message{From: types.ServerID(i), Payload: EncodeBlockMsg(blk)})
			wantBlocks++
		}
	}
	// Tampered signature: decodes fine, fails verification.
	bad := block.New(3, uint64(rounds), nil, nil)
	if err := bad.Seal(signers[3]); err != nil {
		t.Fatal(err)
	}
	badEnc := EncodeBlockMsg(bad)
	badEnc[len(badEnc)-1] ^= 0xff
	msgs = append(msgs, Message{From: 3, Payload: badEnc})
	// Non-member builder: valid signature, unknown identity.
	_, outsiders, err := crypto.LocalRoster(5)
	if err != nil {
		t.Fatal(err)
	}
	foreign := block.New(4, 0, nil, nil)
	if err := foreign.Seal(outsiders[4]); err != nil {
		t.Fatal(err)
	}
	msgs = append(msgs, Message{From: 2, Payload: EncodeBlockMsg(foreign)})
	// Duplicate of the first valid block, and a malformed frame.
	msgs = append(msgs, Message{From: 1, Payload: msgs[0].Payload})
	msgs = append(msgs, Message{From: 2, Payload: []byte{kindBlock, 0x03, 0x01, 0x02}})
	return msgs, roster, wantBlocks
}

// ingestInto replays the schedule into a fresh gossip node, batched or
// one message at a time, and returns the DAG and metrics.
func ingestInto(t testing.TB, msgs []Message, roster *crypto.Roster, batch int) (*dag.DAG, *metrics.Metrics) {
	t.Helper()
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	m := &metrics.Metrics{}
	g := newGossip(t, Config{
		Signer:     signers[0],
		Roster:     roster,
		DAG:        d,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
		Metrics:    m,
	})
	if batch <= 1 {
		for _, msg := range msgs {
			g.HandleMessage(msg.From, msg.Payload)
		}
		return d, m
	}
	for i := 0; i < len(msgs); i += batch {
		end := i + batch
		if end > len(msgs) {
			end = len(msgs)
		}
		g.HandleMessages(msgs[i:end])
	}
	return d, m
}

// TestHandleMessagesMatchesSerial: batched ingest with parallel
// verification must produce exactly the DAG and rejection counts of the
// serial one-message-at-a-time path, for any batch size — determinism is
// the whole point of the two-pass design — and the batch verdicts it rests
// on must not depend on how many goroutines computed them.
func TestHandleMessagesMatchesSerial(t *testing.T) {
	msgs, roster, wantBlocks := ingestFixture(t, 4)
	refD, refM := ingestInto(t, msgs, roster, 1)
	if refD.Len() != wantBlocks {
		t.Fatalf("serial path inserted %d blocks, want %d", refD.Len(), wantBlocks)
	}
	if refM.Get(metrics.BlocksRejected) != 3 { // tampered sig + non-member + malformed
		t.Fatalf("serial path rejected %d blocks, want 3", refM.Get(metrics.BlocksRejected))
	}
	for _, batch := range []int{len(msgs), 7, 2} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			d, m := ingestInto(t, msgs, roster, batch)
			if d.Len() != refD.Len() || !d.Leq(refD) || !refD.Leq(d) {
				t.Fatalf("batched DAG differs from serial: %d vs %d blocks", d.Len(), refD.Len())
			}
			if m.Get(metrics.BlocksRejected) != refM.Get(metrics.BlocksRejected) {
				t.Fatalf("rejected %d, serial path rejected %d", m.Get(metrics.BlocksRejected), refM.Get(metrics.BlocksRejected))
			}
			if m.Get(metrics.BlocksReceived) != refM.Get(metrics.BlocksReceived) {
				t.Fatalf("received %d, serial path received %d", m.Get(metrics.BlocksReceived), refM.Get(metrics.BlocksReceived))
			}
		})
	}
	var blocks []*block.Block
	for _, m := range msgs {
		r := wire.NewReader(m.Payload)
		r.Byte()
		if b, err := block.Decode(r.VarBytes()); err == nil {
			blocks = append(blocks, b)
		}
	}
	serial := block.VerifyBatch(roster, blocks, 1)
	for _, workers := range []int{0, 3} {
		if got := block.VerifyBatch(roster, blocks, workers); !slices.Equal(got, serial) {
			t.Fatalf("VerifyBatch with %d workers = %v, serial says %v", workers, got, serial)
		}
	}
}
