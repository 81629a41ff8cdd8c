package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// recordingTransport counts payloads handed to the network, so tests can
// observe whether a block was externalized.
type recordingTransport struct {
	self  types.ServerID
	sends int
}

func (r *recordingTransport) Self() types.ServerID { return r.self }

func (r *recordingTransport) Send(types.ServerID, transport.Channel, []byte) { r.sends++ }

func (r *recordingTransport) Call(_ types.ServerID, _ transport.Channel, _ []byte, sink transport.CallSink) func() {
	sink.OnDone(transport.ErrUnreachable)
	return func() {}
}

// flakyJournal is a core.Journal whose block sink, and evidence log, fail
// on demand.
type flakyJournal struct{ fail, evidence error }

func (j *flakyJournal) PersistSink(types.ServerID) func(*block.Block) error {
	return func(*block.Block) error { return j.fail }
}
func (*flakyJournal) Block(int, []block.Ref) (*block.Block, error) {
	return nil, errors.New("the flaky journal reads nothing back")
}
func (*flakyJournal) BeginBatch()                            {}
func (*flakyJournal) FlushBatch() error                      { return nil }
func (*flakyJournal) Evidence() []*evidence.Proof            { return nil }
func (j *flakyJournal) AppendEvidence(*evidence.Proof) error { return j.evidence }

// TestPersistFailureWithholdsBroadcast: once the persistence sink fails,
// the own block it failed on must not reach the network — a non-durable
// own block that peers have seen is a post-crash self-equivocation waiting
// to happen — and the unhealthy server must refuse to build further
// blocks while continuing to serve the rest of the protocol.
func TestPersistFailureWithholdsBroadcast(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTransport{self: 0}
	diskFull := errors.New("disk full")
	disk := &flakyJournal{}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: tr,
		Clock:     func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(disk); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Disseminate(); err != nil {
		t.Fatal(err)
	}
	sentWhileHealthy := tr.sends
	if sentWhileHealthy == 0 {
		t.Fatal("healthy disseminate sent nothing")
	}

	disk.fail = diskFull
	srv.Request("lost?", []byte("payload"))
	if _, err := srv.Disseminate(); !errors.Is(err, diskFull) {
		t.Fatalf("disseminate over a failing sink returned %v, want the persist error", err)
	}
	if tr.sends != sentWhileHealthy {
		t.Fatal("non-durable own block was broadcast")
	}
	// The requests drained into the withheld block are requeued, not
	// silently lost with it.
	if got := srv.Mempool().Len(); got != 1 {
		t.Fatalf("withheld block's request not requeued: %d pending", got)
	}
	if srv.Health() == nil {
		t.Fatal("persist failure did not mark the server unhealthy")
	}
	// The withheld block advanced the local chain: it is in the DAG, and
	// its sequence number is burned even though nobody saw it.
	if got := len(srv.DAG().ByBuilder(0)); got != 2 {
		t.Fatalf("own chain has %d blocks, want 2 (one broadcast, one withheld)", got)
	}

	// Further dissemination refuses outright, even if the disk recovers:
	// the operator must restart over a working store.
	disk.fail = nil
	_, err = srv.Disseminate()
	if err == nil || !strings.Contains(err.Error(), "unhealthy") {
		t.Fatalf("unhealthy server disseminated: %v", err)
	}
	if tr.sends != sentWhileHealthy {
		t.Fatal("unhealthy server sent to the network")
	}
}

// TestEvidenceJournalFailureKeepsTheProof: a proof the journal fails to
// append is latched in Health and stays accepted — its equivocator banned,
// the proof relayed — and the server goes on delivering and interpreting
// the blocks that follow.
func TestEvidenceJournalFailureKeepsTheProof(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	disk, m := &flakyJournal{evidence: errors.New("evidence log full")}, &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: &recordingTransport{self: 0}, Clock: func() time.Duration { return 0 }, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(disk); err != nil {
		t.Fatal(err)
	}
	deliver := func(builder types.ServerID, preds []block.Ref, reqs ...block.Request) *block.Block {
		t.Helper()
		b := block.New(builder, 0, preds, reqs)
		if err := b.Seal(signers[builder]); err != nil {
			t.Fatal(err)
		}
		srv.DeliverBatch([]gossip.Message{{From: builder, Payload: gossip.EncodeBlockMsg(b)}})
		return b
	}
	for _, data := range []string{"a", "b"} {
		deliver(3, nil, block.Request{Label: "fork", Data: []byte(data)})
	}
	if err := srv.Health(); !errors.Is(err, disk.evidence) {
		t.Fatalf("Health() = %v, want the evidence journal's error", err)
	}
	if !srv.Scores().Banned(3) {
		t.Fatal("the fork's builder is not banned")
	}
	// Relayed to everyone but this server and the equivocator it came from.
	if got := m.Get(metrics.EvidenceRelayed); got != 2 {
		t.Fatalf("proof relayed %d times, want 2", got)
	}
	// s1 broadcasts and s2's block reads it: both are inserted and
	// interpreted, and s1's broadcast materializes messages.
	b1 := deliver(1, nil, block.Request{Label: "after", Data: []byte("v")})
	b2 := deliver(2, []block.Ref{b1.Ref()})
	for _, b := range []*block.Block{b1, b2} {
		if !srv.DAG().Contains(b.Ref()) || !srv.Interpreter().Interpreted(b.Ref()) {
			t.Fatalf("block of s%d after the failed append: inserted %v, interpreted %v",
				b.Builder, srv.DAG().Contains(b.Ref()), srv.Interpreter().Interpreted(b.Ref()))
		}
	}
	if m.Get(metrics.MsgsMaterialized) == 0 {
		t.Fatal("no message materialized after the failed append")
	}
}

// TestWithheldBlockDrainsWithoutEmbedding: mempool_drained_total and
// dag_requests_embedded_total count two events. A block the persistence sink
// fails on drains its requests from the pool and embeds none: it never
// leaves the server, and they are requeued. After one healthy block and one
// withheld, each of one request, the pool has drained two and the server
// embedded one.
func TestWithheldBlockDrainsWithoutEmbedding(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	disk, m := &flakyJournal{}, &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: &recordingTransport{self: 0}, Clock: func() time.Duration { return 0 }, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(disk); err != nil {
		t.Fatal(err)
	}
	srv.Request("sent", []byte("v"))
	if _, err := srv.Disseminate(); err != nil {
		t.Fatal(err)
	}
	disk.fail = errors.New("disk full")
	srv.Request("withheld", []byte("w"))
	if _, err := srv.Disseminate(); err == nil {
		t.Fatal("a failing sink did not withhold the block")
	}
	pool := srv.Mempool().Stats()
	embedded := m.Get(metrics.RequestsEmbedded)
	if pool.Drained != 2 || pool.Requeued != 1 || embedded != 1 {
		t.Fatalf("drained %d, requeued %d, embedded %d: want 2, 1 and 1", pool.Drained, pool.Requeued, embedded)
	}
}

// TestRestoreStopsAtFirstRefusal: Restore is an absorb into the live DAG,
// not a validation pass ahead of one. The first refused block is the
// error, the blocks before it stay in, and the server is no longer fresh —
// a retry needs a new one.
func TestRestoreStopsAtFirstRefusal(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]*block.Block, 2)
	var preds []block.Ref
	for k := range good {
		b := block.New(0, uint64(k), preds, nil)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		good[k] = b
		preds = []block.Ref{b.Ref()}
	}
	// Tamper with the second block only: the first replays fine.
	enc := bytes.Clone(good[1].Encode()) // a copy: Encode's bytes are the good block
	enc[len(enc)-1] ^= 0xff
	bad, err := block.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: &recordingTransport{self: 0},
		Clock:     func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Restore([]*block.Block{good[0], bad}); !errors.Is(err, dag.ErrBadSignature) {
		t.Fatalf("Restore(tampered block) = %v, want dag.ErrBadSignature", err)
	}
	if !srv.DAG().Contains(good[0].Ref()) || srv.DAG().Len() != 1 {
		t.Fatalf("failed restore left %d blocks in the DAG, want the one before the refusal", srv.DAG().Len())
	}
	if err := srv.Restore(good); err == nil {
		t.Fatal("a second Restore on the same server was accepted")
	}
	if err := srv.SetJournal(&flakyJournal{}); err == nil {
		t.Fatal("SetJournal accepted after blocks were inserted")
	}
}

// TestRestoreBuilderUnknownSentinel: the batched restore path must keep
// the serial insert path's error identity — a block whose builder is not
// in the roster fails with dag.ErrBuilderUnknown (wrong-roster restore),
// not dag.ErrBadSignature (corrupted log), so callers can distinguish
// the two failures with errors.Is.
func TestRestoreBuilderUnknownSentinel(t *testing.T) {
	// Seal a valid chain under a two-server roster, then restore it into
	// a server whose roster only knows server 0: builder 1's signature
	// is genuine, only the membership is wrong.
	_, bigSigners, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	foreign := block.New(1, 0, nil, nil)
	if err := foreign.Seal(bigSigners[1]); err != nil {
		t.Fatal(err)
	}

	smallRoster, smallSigners, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster:    smallRoster,
		Signer:    smallSigners[0],
		Protocol:  brb.Protocol{},
		Transport: &recordingTransport{self: 0},
		Clock:     func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.Restore([]*block.Block{foreign})
	if !errors.Is(err, dag.ErrBuilderUnknown) {
		t.Fatalf("Restore(foreign builder) = %v, want dag.ErrBuilderUnknown", err)
	}
	if errors.Is(err, dag.ErrBadSignature) {
		t.Fatalf("Restore(foreign builder) misreported a bad signature: %v", err)
	}
}
