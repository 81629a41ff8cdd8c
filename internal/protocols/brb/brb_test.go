package brb

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// cluster builds one BRB process per server for a single label and wires
// them through an in-memory perfect point-to-point link: messages emitted
// are delivered immediately, breadth first. This tests the protocol in
// isolation, exactly the setting its properties are stated in.
type cluster struct {
	t     *testing.T
	procs []protocol.Process
	queue []protocol.Message
	drops func(m protocol.Message) bool
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{t: t}
	f := (n - 1) / 3
	for i := 0; i < n; i++ {
		cfg := protocol.Config{Self: types.ServerID(i), Label: "ℓ1", N: n, F: f}
		c.procs = append(c.procs, Protocol{}.NewProcess(cfg))
	}
	return c
}

func (c *cluster) request(server int, data []byte) {
	c.enqueue(c.procs[server].Request(data))
	c.drain()
}

func (c *cluster) enqueue(msgs []protocol.Message) {
	for _, m := range protocol.Expand(msgs, len(c.procs)) {
		if c.drops != nil && c.drops(m) {
			continue
		}
		c.queue = append(c.queue, m)
	}
}

func (c *cluster) drain() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		out := c.procs[m.Receiver].Receive(m)
		c.enqueue(out)
	}
}

func (c *cluster) delivered(server int) [][]byte {
	return c.procs[server].Indications()
}

func TestBroadcastDeliversEverywhere(t *testing.T) {
	// n = 100 needs quorums of 67: sender sets beyond one machine word.
	for _, n := range []int{1, 4, 7, 10, 100} {
		c := newCluster(t, n)
		c.request(0, []byte("42"))
		for i := 0; i < n; i++ {
			inds := c.delivered(i)
			if len(inds) != 1 || !bytes.Equal(inds[0], []byte("42")) {
				t.Fatalf("n=%d: server %d delivered %q", n, i, inds)
			}
		}
	}
}

func TestNoDuplication(t *testing.T) {
	c := newCluster(t, 4)
	c.request(0, []byte("v"))
	// Drain indications once, then re-inject a duplicate READY storm.
	for i := range c.procs {
		c.delivered(i)
	}
	for s := 0; s < 4; s++ {
		for r := 0; r < 4; r++ {
			c.enqueue([]protocol.Message{{
				Label: "ℓ1", Sender: types.ServerID(s), Receiver: types.ServerID(r),
				Payload: encodePayload(msgReady, []byte("v")),
			}})
		}
	}
	c.drain()
	for i := range c.procs {
		if inds := c.delivered(i); len(inds) != 0 {
			t.Fatalf("server %d delivered twice: %q", i, inds)
		}
	}
}

func TestRepeatedRequestIgnored(t *testing.T) {
	c := newCluster(t, 4)
	c.request(0, []byte("a"))
	c.request(0, []byte("b")) // second broadcast on same instance: ignored
	for i := range c.procs {
		inds := c.delivered(i)
		if len(inds) != 1 || !bytes.Equal(inds[0], []byte("a")) {
			t.Fatalf("server %d delivered %q, want only %q", i, inds, "a")
		}
	}
}

// TestConsistencyUnderEquivocation: a byzantine broadcaster sends ECHO a to
// half the servers and ECHO b to the other half. No correct server may
// deliver a value different from another correct server.
func TestConsistencyUnderEquivocation(t *testing.T) {
	n := 4
	c := newCluster(t, n)
	// Byzantine server 3 crafts conflicting echoes directly.
	for r := 0; r < n; r++ {
		v := []byte("a")
		if r >= 2 {
			v = []byte("b")
		}
		c.enqueue([]protocol.Message{{
			Label: "ℓ1", Sender: 3, Receiver: types.ServerID(r),
			Payload: encodePayload(msgEcho, v),
		}})
	}
	c.drain()
	var deliveredValues [][]byte
	for i := 0; i < 3; i++ { // correct servers only
		for _, v := range c.delivered(i) {
			deliveredValues = append(deliveredValues, v)
		}
	}
	for i := 1; i < len(deliveredValues); i++ {
		if !bytes.Equal(deliveredValues[0], deliveredValues[i]) {
			t.Fatalf("correct servers delivered conflicting values: %q", deliveredValues)
		}
	}
}

// TestAmplificationFromReadies: f+1 READY messages suffice for a server
// that saw no echoes to become ready, and 2f+1 to deliver (totality
// mechanism).
func TestAmplificationFromReadies(t *testing.T) {
	n, f := 4, 1
	c := newCluster(t, n)
	// Server 0 receives READY v from f+1 = 2 distinct servers.
	for s := 1; s <= 2*f+1; s++ {
		c.enqueue([]protocol.Message{{
			Label: "ℓ1", Sender: types.ServerID(s), Receiver: 0,
			Payload: encodePayload(msgReady, []byte("v")),
		}})
	}
	// Do not drain into other servers: isolate server 0.
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		if m.Receiver == 0 {
			c.procs[0].Receive(m)
		}
	}
	inds := c.delivered(0)
	if len(inds) != 1 || !bytes.Equal(inds[0], []byte("v")) {
		t.Fatalf("server 0 delivered %q, want v", inds)
	}
}

// TestEchoQuorumNotReachedWithoutQuorum: 2f echoes must not trigger READY.
func TestEchoQuorumNotReachedWithoutQuorum(t *testing.T) {
	n := 4
	c := newCluster(t, n)
	p := c.procs[0].(*process)
	for s := 0; s < 2; s++ { // 2f = 2 echoes only
		p.Receive(protocol.Message{
			Label: "ℓ1", Sender: types.ServerID(s), Receiver: 0,
			Payload: encodePayload(msgEcho, []byte("v")),
		})
	}
	if p.readied {
		t.Fatal("readied with only 2f echoes")
	}
}

// TestDuplicateSendersDoNotInflateQuorum: the same sender echoing five
// times counts once.
func TestDuplicateSendersDoNotInflateQuorum(t *testing.T) {
	c := newCluster(t, 4)
	p := c.procs[0].(*process)
	for i := 0; i < 5; i++ {
		p.Receive(protocol.Message{
			Label: "ℓ1", Sender: 1, Receiver: 0,
			Payload: encodePayload(msgEcho, []byte("v")),
		})
	}
	if p.readied {
		t.Fatal("duplicate echoes from one sender reached quorum")
	}
}

func TestMalformedPayloadDropped(t *testing.T) {
	c := newCluster(t, 4)
	out := c.procs[0].Receive(protocol.Message{
		Label: "ℓ1", Sender: 1, Receiver: 0, Payload: []byte{0xff, 0x00},
	})
	if out != nil {
		t.Fatalf("malformed payload produced output %v", out)
	}
}

// TestDeterminism: two processes fed the identical message sequence end in
// identical states and emit identical messages.
func TestDeterminism(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1}
	p1 := Protocol{}.NewProcess(cfg)
	p2 := Protocol{}.NewProcess(cfg)
	seq := []protocol.Message{
		{Label: "ℓ", Sender: 1, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 2, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 3, Receiver: 0, Payload: encodePayload(msgEcho, []byte("v"))},
		{Label: "ℓ", Sender: 1, Receiver: 0, Payload: encodePayload(msgReady, []byte("v"))},
	}
	for _, m := range seq {
		o1 := p1.Receive(m)
		o2 := p2.Receive(m)
		if len(o1) != len(o2) {
			t.Fatal("output lengths differ")
		}
		for i := range o1 {
			if protocol.Compare(o1[i], o2[i]) != 0 {
				t.Fatal("outputs differ")
			}
		}
	}
	if !bytes.Equal(p1.StateDigest(), p2.StateDigest()) {
		t.Fatal("digests differ after identical input")
	}
}

func TestDoneAfterDeliver(t *testing.T) {
	c := newCluster(t, 4)
	if c.procs[0].Done() {
		t.Fatal("fresh process Done")
	}
	c.request(0, []byte("v"))
	for i := range c.procs {
		if !c.procs[i].Done() {
			t.Fatalf("server %d not Done after delivery", i)
		}
	}
}

// TestF0SingleServer: the degenerate n=1 system must deliver to itself
// (quorum 1).
func TestF0SingleServer(t *testing.T) {
	c := newCluster(t, 1)
	c.request(0, []byte("solo"))
	inds := c.delivered(0)
	if len(inds) != 1 || !bytes.Equal(inds[0], []byte("solo")) {
		t.Fatalf("delivered %q", inds)
	}
}

// TestQuorumsBeyondOneWord: with n = 100 (f = 33) quorums are counted over
// senders the first bitset word cannot hold. Distinct high senders each
// count once, repeats do not, and the thresholds trip exactly at 2f+1.
func TestQuorumsBeyondOneWord(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 100, F: 33}
	p := Protocol{}.NewProcess(cfg).(*process)
	ready := func(sender int) {
		p.Receive(protocol.Message{Label: "ℓ", Sender: types.ServerID(sender), Receiver: 0,
			Payload: encodePayload(msgReady, []byte("v"))})
	}
	for sender := 99; sender > 99-66; sender-- { // 66 distinct senders, 34…99
		ready(sender)
		ready(sender)
	}
	if !p.readied {
		t.Fatal("f+1 readies from senders ≥ 64 did not amplify")
	}
	if p.delivered {
		t.Fatal("delivered on 66 readies, quorum is 67")
	}
	ready(70) // a repeat, not a 67th sender
	if p.delivered {
		t.Fatal("a repeated high sender inflated the quorum")
	}
	ready(3)
	if !p.delivered {
		t.Fatal("67 distinct readies did not deliver")
	}
}

// mapProcess is the map-of-sets state this package used before the bitset
// tallies, kept as the reference for StateDigest: the digest bytes are a
// cross-version contract (Lemma 4.2 tests and audits compare them), so the
// compact state must serialize exactly as the maps did.
type mapProcess struct {
	cfg                        protocol.Config
	echoed, readied, delivered bool
	echoes, readies            map[string]map[types.ServerID]struct{}
	pending                    [][]byte
}

func (p *mapProcess) receive(m protocol.Message) {
	kind, value, err := decodePayload(m.Payload)
	if err != nil {
		return
	}
	record := func(sets map[string]map[types.ServerID]struct{}) int {
		if sets[string(value)] == nil {
			sets[string(value)] = make(map[types.ServerID]struct{})
		}
		sets[string(value)][m.Sender] = struct{}{}
		return len(sets[string(value)])
	}
	switch kind {
	case msgEcho:
		n := record(p.echoes)
		p.echoed = true
		if n >= p.cfg.Quorum() {
			p.readied = true
		}
	case msgReady:
		n := record(p.readies)
		if n >= p.cfg.F+1 {
			p.readied = true
		}
		if n >= p.cfg.Quorum() && !p.delivered {
			p.delivered = true
			p.pending = append(p.pending, value)
		}
	}
}

func (p *mapProcess) stateDigest() []byte {
	w := wire.NewWriter(64)
	w.Bool(p.echoed)
	w.Bool(p.readied)
	w.Bool(p.delivered)
	for _, sets := range []map[string]map[types.ServerID]struct{}{p.echoes, p.readies} {
		keys := make([]string, 0, len(sets))
		for k := range sets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
			ids := make([]int, 0, len(sets[k]))
			for id := range sets[k] {
				ids = append(ids, int(id))
			}
			sort.Ints(ids)
			w.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				w.Uint16(uint16(id))
			}
		}
	}
	w.Uvarint(uint64(len(p.pending)))
	for _, v := range p.pending {
		w.VarBytes(v)
	}
	sum := crypto.Hash(w.Bytes())
	return sum[:]
}

// TestStateDigestMatchesMapState replays seeded message schedules — several
// values, echoes and readies interleaved, repeats, senders on both sides of
// the word boundary, values seen only as READY — into the bitset process
// and the map reference, comparing digests after every step.
func TestStateDigestMatchesMapState(t *testing.T) {
	for _, n := range []int{4, 7, 100} {
		rng := rand.New(rand.NewSource(int64(n)))
		cfg := protocol.Config{Self: 0, Label: "ℓ", N: n, F: (n - 1) / 3}
		p := Protocol{}.NewProcess(cfg)
		ref := &mapProcess{
			cfg:     cfg,
			echoes:  make(map[string]map[types.ServerID]struct{}),
			readies: make(map[string]map[types.ServerID]struct{}),
		}
		values := [][]byte{[]byte("v"), []byte("w"), {}, []byte("a longer value")}
		for step := 0; step < 40*n; step++ {
			kind := msgEcho
			if rng.Intn(2) == 0 {
				kind = msgReady
			}
			value := values[0]
			if rng.Intn(4) == 0 {
				value = values[rng.Intn(len(values))]
			}
			m := protocol.Message{Label: "ℓ", Sender: types.ServerID(rng.Intn(n)), Receiver: 0,
				Payload: encodePayload(kind, value)}
			p.Receive(m)
			ref.receive(m)
			if step == 10*n {
				// Leave the delivery undrained on neither side or both:
				// pending is part of the digest.
				p.Indications()
				ref.pending = nil
			}
			if !bytes.Equal(p.StateDigest(), ref.stateDigest()) {
				t.Fatalf("n=%d step %d: digest diverges from the map-state reference", n, step)
			}
		}
		if !ref.delivered {
			t.Fatalf("n=%d: schedule never delivered", n)
		}
	}
}

// TestEncodePayloadSizedExactly: the writer is sized for the kind byte, the
// uvarint length and the value, so the payload is not grown (and, for a
// 259-byte ECHO, doubled) on the way out.
func TestEncodePayloadSizedExactly(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 256, 16383, 16384, 1 << 16} {
		payload := encodePayload(msgEcho, make([]byte, n))
		if cap(payload) != len(payload) {
			t.Fatalf("|v|=%d: payload of %d bytes sits in %d", n, len(payload), cap(payload))
		}
	}
}

// valueOf reports whether view is the value inside payload — the same
// memory, not a copy: a payload ends with its value.
func valueOf(view, payload []byte) bool {
	return len(view) > 0 && &view[len(view)-1] == &payload[len(payload)-1]
}

// TestValueHeldAsViews: payloads are immutable, so an instance copies the
// value only where it must build a message nobody handed it — its READY
// after the echo quorum. Its own ECHO answers an ECHO with the payload it
// received, and the tally and the delivered value are views of received
// payloads.
func TestValueHeldAsViews(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1}
	p := Protocol{}.NewProcess(cfg).(*process)
	value := bytes.Repeat([]byte("v"), 300)
	echo, ready := encodePayload(msgEcho, value), encodePayload(msgReady, value)
	from := func(s int, payload []byte) protocol.Message {
		return protocol.Message{Label: "ℓ", Sender: types.ServerID(s), Receiver: 0, Payload: payload}
	}

	out := p.Receive(from(1, echo))
	if len(out) != 1 || out[0].Receiver != protocol.Everyone || &out[0].Payload[0] != &echo[0] {
		t.Fatalf("first ECHO answered with %+v, want the received payload to Everyone", out)
	}
	if !valueOf(p.tallies[0].value, echo) {
		t.Fatal("tally holds a copy of the value")
	}
	p.Receive(from(2, echo))
	out = p.Receive(from(3, echo))
	if len(out) != 1 || !bytes.Equal(out[0].Payload, ready) {
		t.Fatalf("echo quorum answered with %+v, want READY", out)
	}
	for s := 1; s <= 3; s++ {
		p.Receive(from(s, ready))
	}
	inds := p.Indications()
	if len(inds) != 1 || !bytes.Equal(inds[0], value) || !valueOf(inds[0], ready) {
		t.Fatal("delivered value is not a view of the READY that completed the quorum")
	}

	// Amplification answers a READY in kind. A sender that pads the length
	// prefix gets nothing across: a payload has one encoding (wire).
	q := Protocol{}.NewProcess(cfg)
	q.Receive(from(1, ready))
	if out = q.Receive(from(2, ready)); len(out) != 1 || &out[0].Payload[0] != &ready[0] {
		t.Fatalf("f+1 READYs answered with %+v, want the received payload", out)
	}
	padded := append([]byte{msgEcho, 0x80 | 3, 0}, "abc"...)
	if out = (Protocol{}).NewProcess(cfg).Receive(from(1, padded)); len(out) != 0 {
		t.Fatalf("padded ECHO answered with %+v, want it dropped as malformed", out)
	}
}

// TestReceiveAllocations bounds what one Receive allocates, whatever the
// size of the value: nothing to count a vote for a known value; the tally
// and the emitted slice for a first ECHO; payload and emitted slice for the
// READY it must encode; the pending slot for a delivery. A copy of the
// value anywhere on the way shows up as one more.
func TestReceiveAllocations(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "ℓ", N: 4, F: 1}
	for _, size := range []int{16, 64 << 10} {
		value := make([]byte, size)
		echo, ready := encodePayload(msgEcho, value), encodePayload(msgReady, value)
		from := func(s int, payload []byte) protocol.Message {
			return protocol.Message{Label: "ℓ", Sender: types.ServerID(s), Receiver: 0, Payload: payload}
		}
		steps := []struct {
			name string
			m    protocol.Message
			want float64
		}{
			{"first ECHO", from(1, echo), 2},
			{"second ECHO", from(2, echo), 0},
			{"quorum ECHO", from(3, echo), 2},
			{"first READY", from(1, ready), 0},
			{"second READY", from(2, ready), 0},
			{"quorum READY", from(3, ready), 1},
		}
		for i, step := range steps {
			// Each run replays the prefix into a fresh instance, so the
			// measured step is always taken from the same state.
			prefix := testing.AllocsPerRun(20, func() {
				p := Protocol{}.NewProcess(cfg)
				for _, prior := range steps[:i] {
					p.Receive(prior.m)
				}
			})
			with := testing.AllocsPerRun(20, func() {
				p := Protocol{}.NewProcess(cfg)
				for _, prior := range steps[:i+1] {
					p.Receive(prior.m)
				}
			})
			if got := with - prefix; got != step.want {
				t.Errorf("|v|=%d: %s allocates %v times, want %v", size, step.name, got, step.want)
			}
		}
	}
}
