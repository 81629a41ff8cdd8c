package core_test

import (
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// payloadTransport keeps what is handed to the network.
type payloadTransport struct {
	recordingTransport
	payloads [][]byte
}

func (p *payloadTransport) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	p.payloads = append(p.payloads, payload)
}

// dagCount reads one of the DAG's counters by family name.
func dagCount(srv *core.Server, name string) int64 {
	for id, f := range dag.Families {
		if f.Name == name {
			return srv.DAG().Counts().Get(metrics.ID(id))
		}
	}
	panic("no DAG family " + name)
}

// TestFwdServesAReleasedBlock: a block every chain has read has left the
// DAG's RAM, and a FWD request for it — what only a recovering or byzantine
// peer sends — is still answered with the block, read back from the store.
func TestFwdServesAReleasedBlock(t *testing.T) {
	h := dagtest.NewHarness(4)
	st, err := store.Open(t.TempDir(), store.Options{Roster: h.Roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := &payloadTransport{recordingTransport: recordingTransport{self: 0}}
	srv, err := core.NewServer(core.Config{
		Roster: h.Roster, Signer: h.Signers[0], Protocol: brb.Protocol{},
		Transport: tr, Clock: func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(st); err != nil {
		t.Fatal(err)
	}
	for _, b := range h.Round(map[int][]block.Request{1: {{Label: "fwd", Data: []byte("released")}}}) {
		if err := srv.AbsorbVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	first := h.DAG.Blocks()[1] // builder 1's genesis, carrying the request
	for range 4 {
		for _, b := range h.Round(nil) {
			if err := srv.AbsorbVerified(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	held, reads := dagCount(srv, "dag_blocks_held"), dagCount(srv, "journal_block_reads_total")
	if held >= int64(srv.DAG().Len()) || reads != 0 {
		t.Fatalf("%d of %d blocks held, %d read back: want some released, none read yet", held, srv.DAG().Len(), reads)
	}

	srv.Deliver(2, gossip.EncodeFwdMsg(first.Ref()))
	if len(tr.payloads) != 1 {
		t.Fatalf("a FWD for a released block was answered with %d payloads", len(tr.payloads))
	}
	r := wire.NewReader(tr.payloads[0][1:])
	got, err := block.Decode(r.VarBytes())
	if err != nil || got.Ref() != first.Ref() || string(got.Requests[0].Data) != "released" {
		t.Fatalf("the answer is not the block asked for: %v (%v)", got, err)
	}
	if reads := dagCount(srv, "journal_block_reads_total"); reads != 1 {
		t.Fatalf("%d blocks read back to answer one FWD", reads)
	}
}
