package gossip

import (
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/simnet"
)

// FuzzHandleMessage feeds arbitrary bytes into the network-facing message
// handler: it must never panic and never corrupt the DAG (everything in
// the DAG stays valid by construction; here we assert no insertions
// happen from garbage that isn't a correctly signed block).
func FuzzHandleMessage(f *testing.F) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		f.Fatal(err)
	}
	b := block.New(1, 0, nil, []block.Request{{Label: "ℓ", Data: []byte("x")}})
	if err := b.Seal(signers[1]); err != nil {
		f.Fatal(err)
	}
	fork := block.New(1, 0, nil, []block.Request{{Label: "ℓ", Data: []byte("y")}})
	if err := fork.Seal(signers[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeBlockMsg(b))
	// The two blocks no correct builder sends, which Decode refuses.
	for _, bad := range []*block.Block{
		block.New(1, 0, nil, dagtest.Wide(block.MaxRequests+1)),
		block.New(1, 1, []block.Ref{b.Ref(), b.Ref()}, nil),
	} {
		if err := bad.Seal(signers[1]); err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeBlockMsg(bad))
	}
	f.Add(EncodeFwdMsg(b.Ref()))
	f.Add(EncodeEvidenceMsg(evidence.New(b, fork)))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		net := simnet.New()
		d := dag.New(roster)
		g := newGossip(t, Config{
			Signer:    signers[0],
			Roster:    roster,
			DAG:       d,
			Transport: net.Transport(0),
			Clock:     net.Now,

			OnEvidence: discardEvidence,
		})
		g.HandleMessage(1, data)
		// Whatever was inserted must be fully valid: revalidate.
		check := dag.New(roster)
		for _, blk := range d.Blocks() {
			if err := check.Insert(blk); err != nil {
				t.Fatalf("garbage input led to invalid DAG content: %v", err)
			}
		}
	})
}
