package node

import (
	"sync"

	"blockdag/internal/keyset"
	"blockdag/internal/types"
)

// Indication is one interpreted indication as seen by broker subscribers:
// the (label, value) pair of core.Config.OnIndication plus a broker-local
// sequence number (Seq counts publications in order, so a subscriber can
// detect gaps its own bounded buffer dropped).
type Indication struct {
	Label types.Label
	Value []byte
	Seq   uint64
}

// DefaultRecentLabels bounds the broker's replay index: how many distinct
// labels keep their most recent indication available to Lookup (and hence
// to a gateway's /v1/await of a label that was interpreted before the
// client asked). Oldest labels are evicted first.
const DefaultRecentLabels = 4096

// recentBytes bounds the replay index by bytes too: the oldest labels are
// evicted while their labels and values hold more than this, so 4 096
// large values cannot hold 4 096 times one.
const recentBytes = 1 << 20

// IndicationBroker fans one server's indication stream out to any number
// of concurrent observers — the subscription seam a client gateway needs
// to serve await and streaming endpoints without racing the loop
// goroutine. Publish is called from exactly one goroutine (the node loop,
// or the replay inside New); everything else is safe for concurrent use.
//
// Two guarantees shape the design:
//
//   - Publish never blocks: a slow subscriber loses the overflowing
//     indications (counted in Dropped) instead of stalling consensus.
//   - Once a gateway claims it (ClaimIndex), a bounded index of the most
//     recent indication per label survives for late readers: Lookup
//     answers for labels interpreted before the reader arrived, which
//     makes await race-free (subscribe first, then Lookup, then drain the
//     subscription). Unclaimed, with no subscriber, the broker keeps
//     nothing: Algorithm 3 hands each indication to the user and is done.
//
// New's restore indexes provisionally, and the node's first publication
// after New drops the index unless it was claimed by then: a gateway opened
// before the node starts answers an await for a label indicated before a
// crash. A broker built by NewIndicationBroker is born claimed.
//
// Close tears every subscription down with a closed channel — the clean
// terminal signal gateway handlers turn into a proper response instead of
// a connection reset. Publish after Close is a silent no-op, so the loop
// may keep interpreting while the front door drains.
type IndicationBroker struct {
	mu      sync.Mutex
	nextSeq uint64
	closed  bool

	// The replay index: the labels in order of first publication, and by
	// entry each one's latest value and seq.
	index      indexState
	labels     keyset.Set
	latest     keyset.Column[indexed]
	maxLabel   int
	indexBytes int64 // label and value bytes the index holds

	subs map[*IndicationSub]struct{}
}

// indexed is what the replay index keeps of a label's latest indication.
type indexed struct {
	value []byte
	seq   uint64
}

// indexState is where a broker's replay index stands.
type indexState uint8

const (
	indexOff     indexState = iota // unclaimed, window closed: nothing kept
	indexReplay                    // New is restoring: kept provisionally
	indexWindow                    // New has returned: the next Publish drops it unless claimed
	indexClaimed                   // a gateway claimed it: kept for the broker's life
)

// NewIndicationBroker builds a broker whose replay index keeps the most
// recent indication for up to maxLabels distinct labels (0 uses
// DefaultRecentLabels) and recentBytes of labels and values, claimed from
// the start. Wire Publish as (or into)
// the server's OnIndication callback — node.New does this, with a broker
// of its own in the replay state, via core.Server.AddIndicationObserver.
func NewIndicationBroker(maxLabels int) *IndicationBroker {
	if maxLabels <= 0 {
		maxLabels = DefaultRecentLabels
	}
	return &IndicationBroker{
		index:    indexClaimed,
		maxLabel: maxLabels,
		subs:     make(map[*IndicationSub]struct{}),
	}
}

// endReplay is New's last act: what the restore indexed stays until the
// next publication, for a gateway to claim.
func (b *IndicationBroker) endReplay() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.index == indexReplay {
		b.index = indexWindow
	}
}

// ClaimIndex keeps the replay index for the broker's life: every later
// publication is indexed, and a claim before the node's first publication
// after New keeps what its restore indexed. Idempotent.
func (b *IndicationBroker) ClaimIndex() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.index = indexClaimed
}

// IndexBytes reports the label and value bytes the replay index holds.
func (b *IndicationBroker) IndexBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.indexBytes
}

// Publish records one indication and fans it out to every subscriber.
// Every publication takes a sequence number; with no subscriber and no
// index, that is all it does. Otherwise the value is copied once, and
// subscribers must treat the copy as read-only. The value views a READY
// payload the interpreter releases: keeping the view would hold that
// payload in the copy's place, and what outlives a block, as the index
// does, must not view its frame. Never blocks; a no-op after Close.
func (b *IndicationBroker) Publish(label types.Label, value []byte) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	seq := b.nextSeq
	b.nextSeq++
	if b.index == indexWindow {
		b.index = indexOff
		b.labels, b.latest, b.indexBytes = keyset.Set{}, keyset.Column[indexed]{}, 0
	}
	if b.index == indexOff && len(b.subs) == 0 {
		return
	}
	ind := Indication{Label: label, Value: append([]byte(nil), value...), Seq: seq}
	if b.index != indexOff {
		b.remember(ind)
	}
	for s := range b.subs {
		select {
		case s.ch <- ind:
		default:
			s.dropped++
		}
	}
}

// remember indexes ind as its label's most recent indication, in place if
// the label is indexed, then evicts the oldest labels while the index holds
// more than maxLabel labels or recentBytes.
func (b *IndicationBroker) remember(ind Indication) {
	if e, added := b.labels.Add(string(ind.Label)); added {
		b.latest.Push(indexed{ind.Value, ind.Seq})
		b.indexBytes += int64(len(ind.Label))
	} else {
		at := b.latest.At(e)
		b.indexBytes -= int64(len(at.value))
		*at = indexed{ind.Value, ind.Seq}
	}
	b.indexBytes += int64(len(ind.Value))
	for b.labels.Len() > b.maxLabel || b.indexBytes > recentBytes {
		e := b.labels.Oldest()
		b.indexBytes -= int64(len(b.labels.Key(e)) + len(b.latest.At(e).value))
		b.labels.Pop()
		b.latest.Pop()
	}
}

// Lookup returns the most recent indication published for label, if the
// bounded replay index still holds it.
func (b *IndicationBroker) Lookup(label types.Label) (Indication, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.labels.Index(string(label))
	if !ok {
		return Indication{}, false
	}
	at := b.latest.At(e)
	return Indication{Label: label, Value: at.value, Seq: at.seq}, true
}

// Subscribe registers a new observer with the given channel buffer
// (minimum 1). The subscription sees every indication published after the
// call that fits its buffer; overflow is dropped, not blocked on. Close
// the subscription when done, or the broker holds it forever.
func (b *IndicationBroker) Subscribe(buffer int) *IndicationSub {
	if buffer < 1 {
		buffer = 1
	}
	s := &IndicationSub{b: b, ch: make(chan Indication, buffer)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Close tears down the broker: every subscription's channel is closed
// (after draining whatever it already buffered) and future Publish and
// Subscribe calls are inert. Idempotent.
func (b *IndicationBroker) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		close(s.ch)
	}
	b.subs = make(map[*IndicationSub]struct{})
}

// IndicationSub is one live subscription to a broker's indication stream.
type IndicationSub struct {
	b  *IndicationBroker
	ch chan Indication

	// dropped is guarded by the broker's mutex.
	dropped int64
}

// C is the subscription's delivery channel. It is closed when the broker
// closes (node shutdown) or when the subscription itself is closed.
func (s *IndicationSub) C() <-chan Indication { return s.ch }

// Dropped reports how many indications overflowed this subscription's
// buffer so far — the gap detector for streaming clients.
func (s *IndicationSub) Dropped() int64 {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.dropped
}

// Close deregisters the subscription and closes its channel. Idempotent,
// and safe concurrently with the broker's own Close.
func (s *IndicationSub) Close() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if _, live := s.b.subs[s]; !live {
		return
	}
	delete(s.b.subs, s)
	close(s.ch)
}
