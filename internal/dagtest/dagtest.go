// Package dagtest provides a harness for constructing block DAGs by hand:
// tests and benchmarks use it to build exact scenarios (the paper's
// Figures 2–4, equivocation forks, adversarial structures) without running
// gossip. It wraps a roster, per-server signers, chain bookkeeping, and a
// target DAG. Beside the harness it holds the readings tests share and no
// node needs (LiveHeap, Equivocators, Forked, Proof, Signals, Sample); only
// tests import it.
package dagtest

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/peerscore"
	"blockdag/internal/types"
)

// Harness builds blocks for a fixed roster and inserts them into a DAG.
// Methods panic on error: the harness is test infrastructure, and a
// failure means the test scenario itself is malformed.
type Harness struct {
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	DAG     *dag.DAG

	tips map[types.ServerID]block.Ref
	seqs map[types.ServerID]uint64
}

// NewHarness creates a harness with n deterministic servers and an empty
// DAG.
func NewHarness(n int) *Harness {
	roster, signers, err := crypto.LocalRoster(n)
	if err != nil {
		panic(fmt.Sprintf("dagtest: %v", err))
	}
	return &Harness{
		Roster:  roster,
		Signers: signers,
		DAG:     dag.New(roster),
		tips:    make(map[types.ServerID]block.Ref),
		seqs:    make(map[types.ServerID]uint64),
	}
}

// Seal builds and signs a block with explicit fields, without inserting it
// or touching chain bookkeeping. Byzantine scenarios (equivocation, forks)
// are assembled from Seal.
func (h *Harness) Seal(server int, seq uint64, preds []block.Ref, reqs ...block.Request) *block.Block {
	b := block.New(types.ServerID(server), seq, preds, reqs)
	if err := b.Seal(h.Signers[server]); err != nil {
		panic(fmt.Sprintf("dagtest: seal: %v", err))
	}
	return b
}

// Insert inserts a block into the harness DAG.
func (h *Harness) Insert(b *block.Block) {
	if err := h.DAG.Insert(b); err != nil {
		panic(fmt.Sprintf("dagtest: insert: %v", err))
	}
}

// Genesis builds, inserts, and tracks server's genesis block (seq 0, no
// parent) referencing extraPreds.
func (h *Harness) Genesis(server int, reqs ...block.Request) *block.Block {
	return h.GenesisWithPreds(server, nil, reqs...)
}

// GenesisWithPreds is Genesis with explicit additional predecessors.
func (h *Harness) GenesisWithPreds(server int, extraPreds []block.Ref, reqs ...block.Request) *block.Block {
	id := types.ServerID(server)
	if _, exists := h.tips[id]; exists {
		panic(fmt.Sprintf("dagtest: server %d already has a chain", server))
	}
	b := h.Seal(server, 0, extraPreds, reqs...)
	h.Insert(b)
	h.tips[id] = b.Ref()
	h.seqs[id] = 0
	return b
}

// Next builds, inserts, and tracks the next block on server's chain: the
// parent (previous chain block) first, then extraPreds, mirroring
// Algorithm 1 line 18.
func (h *Harness) Next(server int, extraPreds []block.Ref, reqs ...block.Request) *block.Block {
	id := types.ServerID(server)
	tip, ok := h.tips[id]
	if !ok {
		panic(fmt.Sprintf("dagtest: server %d has no genesis yet", server))
	}
	preds := append([]block.Ref{tip}, extraPreds...)
	b := h.Seal(server, h.seqs[id]+1, preds, reqs...)
	h.Insert(b)
	h.tips[id] = b.Ref()
	h.seqs[id]++
	return b
}

// Tip returns the current chain tip of the server.
func (h *Harness) Tip(server int) block.Ref {
	tip, ok := h.tips[types.ServerID(server)]
	if !ok {
		panic(fmt.Sprintf("dagtest: server %d has no chain", server))
	}
	return tip
}

// Refs collects the references of the given blocks.
func Refs(blocks ...*block.Block) []block.Ref {
	out := make([]block.Ref, len(blocks))
	for i, b := range blocks {
		out[i] = b.Ref()
	}
	return out
}

// Wide is k requests of one byte each, labelled wide/0, wide/1, …: at
// k = block.MaxRequests+1 a request list no correct builder packs, and
// block.Decode refuses.
func Wide(k int) []block.Request {
	reqs := make([]block.Request, k)
	for i := range reqs {
		reqs[i] = block.Request{Label: types.Label("wide/" + strconv.Itoa(i)), Data: []byte{byte(i)}}
	}
	return reqs
}

// Forge returns b with the last byte of its signature flipped — what a
// compromised server injecting into a stream looks like. The flip happens
// in the wire frame (its last byte is the signature's last byte) and the
// forgery is rebuilt via Decode, because a sealed block streams its cached
// canonical frame: tampering with struct fields would never reach the wire.
// The reference covers the body only, so the forgery claims the genuine
// block's reference.
func Forge(b *block.Block) *block.Block {
	enc := append([]byte(nil), b.Encode()...)
	enc[len(enc)-1] ^= 0x01
	forged, err := block.Decode(enc)
	if err != nil {
		panic(fmt.Sprintf("dagtest: forged block does not decode: %v", err))
	}
	return forged
}

// Round has every server produce its next block referencing every other
// server's previous tip — the all-to-all communication round that gossip
// converges to under prompt delivery. Servers without a chain get a
// genesis block. reqs, if non-nil, maps server index to the requests for
// its block this round. It returns the blocks in server order.
func (h *Harness) Round(reqs map[int][]block.Request) []*block.Block {
	n := h.Roster.N()
	// Snapshot the previous round's tips before building anything.
	prevTip := make(map[int]block.Ref, n)
	for i := 0; i < n; i++ {
		if tip, ok := h.tips[types.ServerID(i)]; ok {
			prevTip[i] = tip
		}
	}
	out := make([]*block.Block, 0, n)
	for i := 0; i < n; i++ {
		var rs []block.Request
		if reqs != nil {
			rs = reqs[i]
		}
		var extras []block.Ref
		for j := 0; j < n; j++ {
			if j == i {
				continue // own tip is the parent, added by Next
			}
			if tip, ok := prevTip[j]; ok {
				extras = append(extras, tip)
			}
		}
		if _, ok := prevTip[i]; ok {
			out = append(out, h.Next(i, extras, rs...))
		} else {
			out = append(out, h.GenesisWithPreds(i, extras, rs...))
		}
	}
	return out
}

// LiveHeap returns the bytes of reachable heap objects, for tests that pin
// what a structure retains. Two collections: a sync.Pool gives up what it
// holds over two, and what an earlier step pooled would otherwise be freed
// between two readings and count as a saving.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Equivocators returns the servers s holds an equivocation proof against,
// in ascending ID order.
func Equivocators(s *peerscore.Scorer) []types.ServerID {
	var out []types.ServerID
	for _, p := range s.Proofs() {
		out = append(out, p.Equivocator())
	}
	return out
}

// Forked returns the builders whose chain d holds forked (dag.Head), in
// ascending ID order: what a test reads where the DAG once listed its forks.
func Forked(d *dag.DAG) []types.ServerID {
	var out []types.ServerID
	for id, h := range d.Heads() {
		if h.Forked {
			out = append(out, types.ServerID(id))
		}
	}
	return out
}

// Proof returns a genuine equivocation proof against server id of the dev
// fixture (crypto.LocalRoster): two genesis blocks it signed, differing in
// one request. It verifies against any fixture roster that holds id.
func Proof(id types.ServerID) *evidence.Proof {
	h := NewHarness(int(id) + 1)
	return evidence.New(
		h.Seal(int(id), 0, nil, block.Request{Label: "fork", Data: []byte("a")}),
		h.Seal(int(id), 0, nil, block.Request{Label: "fork", Data: []byte("b")}))
}

// Signals returns the number of signals s has counted against peer id, of
// every kind, as Snapshot reports them: 0 for a peer without one.
func Signals(s *peerscore.Scorer, id types.ServerID) int64 {
	var total int64
	for _, st := range s.Snapshot() {
		if st.Peer == id {
			for _, n := range st.Signals {
				total += n
			}
		}
	}
	return total
}

// Sample reads one sample of a /metrics scrape (the Prometheus text
// exposition): sample is the line's name with its labels, as rendered —
// `dag_tips` or `interpret_chain_unread_blocks{builder="3"}`. It reports
// false when the scrape has no such line or its value does not parse.
func Sample(scrape, sample string) (float64, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && name == sample {
			v, err := strconv.ParseFloat(value, 64)
			return v, err == nil
		}
	}
	return 0, false
}
