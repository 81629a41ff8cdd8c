package bench

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/types"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share its label as ID; block-level spans use "s<builder>/<seq>".
// Times are offsets from the run's epoch.
type Span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// SelfTime is a span's duration minus the part of its interval that its
// child spans cover: overlapping children count once, and the parts of a
// child outside the parent's interval count for nothing.
func SelfTime(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := time.Duration(0), parent.Start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return parent.Duration() - covered
}

// blockKey names a block without hashing it: a correct builder signs one
// block per sequence number, and the benchmark injects no equivocation.
type blockKey struct {
	builder types.ServerID
	seq     uint64
}

// hopKey is one block at (or on its way to) one node.
type hopKey struct {
	blockKey
	node types.ServerID
}

// mark is one event of a request's life on node 0 — embedded in an own
// block, or indicated — and how many own blocks node 0 had sent by then,
// so the difference between two marks is a number of DAG rounds.
type mark struct {
	at        time.Duration
	ownBlocks int
}

// tracer turns the taps' observations into spans and counts. Everything
// it records comes from the benchmark's own decorators around public
// entry points; nothing inside the program is instrumented. One mutex
// guards it all: a few hundred events per second do not contend.
type tracer struct {
	// epoch is the load generator's: set before tracing is switched on.
	epoch time.Time

	mu sync.Mutex
	// sent and delivered hold the open ends of hop and ref-delay spans.
	sent      map[hopKey]time.Duration
	delivered map[hopKey]time.Duration
	// byRef resolves a predecessor reference to the block it names; it is
	// filled when the builder first sends the block, which always
	// precedes any block that references it.
	byRef map[block.Ref]blockKey

	spans []Span
	// Request marks, by label, on node 0.
	embedded  map[string]mark
	published map[string]mark

	ownBlocks0             int // node 0's own blocks sent so far
	ownBlocks, ownPreds    int // all nodes' own blocks sent, and their predecessor references
	ownReqs0               int // requests carried by node 0's own blocks
	blockFrames, fwdFrames int
	tracedFor              time.Duration
	tracedSince            time.Duration
}

func newTracer() *tracer {
	return &tracer{
		sent:      make(map[hopKey]time.Duration),
		delivered: make(map[hopKey]time.Duration),
		byRef:     make(map[block.Ref]blockKey),
		embedded:  make(map[string]mark),
		published: make(map[string]mark),
	}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (k blockKey) String() string {
	return "s" + strconv.Itoa(int(k.builder)) + "/" + strconv.FormatUint(k.seq, 10)
}

// blockSent records node self handing block b to the transport for peer
// to. first is true for the first of the back-to-back sends of one frame.
func (t *tracer) blockSent(self, to types.ServerID, b *block.Block, first bool) {
	now := t.now()
	key := blockKey{b.Builder, b.Seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.blockFrames++
	t.sent[hopKey{key, to}] = now
	if !first || b.Builder != self {
		return // a repeat of the same frame, or a FWD answer relaying someone else's block
	}
	t.byRef[b.Ref()] = key
	t.ownBlocks++
	t.ownPreds += len(b.Preds)
	for _, p := range b.Preds {
		pk, ok := t.byRef[p]
		if !ok {
			continue
		}
		hk := hopKey{pk, self}
		if at, ok := t.delivered[hk]; ok {
			t.spans = append(t.spans, Span{Name: "gossip.ref_delay", ID: pk.String(), Start: at, End: now})
			delete(t.delivered, hk)
		}
	}
	if self != 0 {
		return
	}
	t.ownBlocks0++
	t.ownReqs0 += len(b.Requests)
	for _, rq := range b.Requests {
		t.embedded[string(rq.Label)] = mark{at: now, ownBlocks: t.ownBlocks0}
	}
}

// fwdSent counts a FWD request on the wire.
func (t *tracer) fwdSent() {
	t.mu.Lock()
	t.fwdFrames++
	t.mu.Unlock()
}

// blockDelivered records the transport handing block key to node self.
func (t *tracer) blockDelivered(self types.ServerID, key blockKey) {
	now := t.now()
	hk := hopKey{key, self}
	t.mu.Lock()
	defer t.mu.Unlock()
	if at, ok := t.sent[hk]; ok {
		t.spans = append(t.spans, Span{Name: "tcpnet.hop", ID: key.String(), Start: at, End: now})
		delete(t.sent, hk)
		t.delivered[hk] = now
	}
}

// indicationPublished records node 0's broker publishing label.
func (t *tracer) indicationPublished(label string) {
	now := t.now()
	t.mu.Lock()
	t.published[label] = mark{at: now, ownBlocks: t.ownBlocks0}
	t.mu.Unlock()
}

// window accounts the time tracing was on.
func (t *tracer) window(on bool) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if on {
		t.tracedSince = now
	} else {
		t.tracedFor += now - t.tracedSince
	}
}

// requestSpans builds the span tree of one completed request from the
// generator's record and the tracer's marks; ok is false when a mark is
// missing (the request crossed a tracing boundary).
func (t *tracer) requestSpans(r *record) (spans []Span, rounds int, ok bool) {
	t.mu.Lock()
	emb, okE := t.embedded[r.req.Label]
	pub, okP := t.published[r.req.Label]
	t.mu.Unlock()
	if !okE || !okP || !r.indicated() {
		return nil, 0, false
	}
	id := r.req.Label
	root := Span{Name: "request", ID: id, Start: r.req.Due, End: r.read}
	child := func(name string, a, b time.Duration) Span {
		return Span{Name: name, ID: id, Parent: "request", Start: a, End: b}
	}
	return []Span{
		root,
		child("loadgen.late", r.req.Due, r.sent),
		child("gateway.submit", r.sent, r.acked),
		// The loop may seal the block before the client has read the 202.
		child("node.embed_wait", r.acked, max(r.acked, emb.at)),
		child("dag.rounds", emb.at, pub.at),
		child("gateway.stream", pub.at, r.read),
	}, pub.ownBlocks - emb.ownBlocks, true
}

// durations returns the lengths of every span called name, in the unit
// given (time.Microsecond, time.Millisecond).
func durations(spans []Span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Duration())/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
