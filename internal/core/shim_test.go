package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/gossip"
	"blockdag/internal/mempool"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
)

// delivered gathers, per correct server, the values indicated for a label.
func delivered(c *cluster.Cluster, label types.Label) map[int][][]byte {
	out := make(map[int][][]byte)
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			if ind.Label == label {
				out[i] = append(out[i], ind.Value)
			}
		}
	}
	return out
}

// allDelivered reports whether every correct server delivered at least one
// value for every given label.
func allDelivered(c *cluster.Cluster, labels ...types.Label) bool {
	for _, label := range labels {
		got := delivered(c, label)
		for _, i := range c.CorrectServers() {
			if len(got[i]) == 0 {
				return false
			}
		}
	}
	return true
}

func TestShimQuickstartBRB(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "ℓ1", []byte("42"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "ℓ1") })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("broadcast not delivered within 20 rounds")
	}
	for i, values := range delivered(c, "ℓ1") {
		if len(values) != 1 || !bytes.Equal(values[0], []byte("42")) {
			t.Fatalf("server %d delivered %q", i, values)
		}
	}
}

// TestTheorem51BRBProperties checks the five BRB properties through
// shim(P) under a byzantine equivocating broadcaster — the paper's
// headline claim (Theorem 5.1) instantiated for its worked example.
func TestTheorem51BRBProperties(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N:         4,
		Protocol:  brb.Protocol{},
		Byzantine: []int{3},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Correct broadcaster: server 0 broadcasts on ℓ-good.
	c.Request(0, "ℓ-good", []byte("genuine"))

	// Byzantine broadcaster: server 3 equivocates on ℓ-evil with two
	// genesis forks carrying conflicting broadcasts, partitioned across
	// the correct servers.
	forkA, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ-evil", Data: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	forkB, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ-evil", Data: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(3, forkA, 0, 1)
	c.Send(3, forkB, 2)

	ok, err := c.RunUntil(30, func() bool { return allDelivered(c, "ℓ-good", "ℓ-evil") })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("deliveries incomplete after 30 rounds")
	}

	// Validity + integrity (correct sender): every correct server
	// delivered exactly the value server 0 broadcast.
	for i, values := range delivered(c, "ℓ-good") {
		if len(values) != 1 || !bytes.Equal(values[0], []byte("genuine")) {
			t.Fatalf("validity/integrity: server %d delivered %q on ℓ-good", i, values)
		}
	}

	// No duplication + consistency (byzantine sender): every correct
	// server delivered exactly one value on ℓ-evil, and all agree.
	evil := delivered(c, "ℓ-evil")
	var first []byte
	for _, i := range c.CorrectServers() {
		values := evil[i]
		if len(values) != 1 {
			t.Fatalf("no-duplication: server %d delivered %d values on ℓ-evil", i, len(values))
		}
		if first == nil {
			first = values[0]
		} else if !bytes.Equal(first, values[0]) {
			t.Fatalf("consistency: servers delivered %q and %q on ℓ-evil", first, values[0])
		}
	}
	// Totality already checked by allDelivered: one delivered ⇒ all did.

	// The equivocation is visible in every correct server's DAG.
	for _, i := range c.CorrectServers() {
		eqv := dagtest.Equivocators(c.Servers[i].Scores())
		if len(eqv) != 1 || eqv[0] != 3 {
			t.Fatalf("server %d detected equivocators %v, want [s3]", i, eqv)
		}
	}
}

// TestTheorem51Totality: deliveries keep flowing to a server that was
// partitioned while the quorum formed, once the partition heals —
// totality via the joint block DAG (Lemma 3.7: "gossip some more").
func TestTheorem51Totality(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	// Cut server 3 off entirely.
	c.Net.SetPartition(func(from, to types.ServerID) bool {
		return from == 3 || to == 3
	})
	c.Request(1, "ℓ", []byte("while you were out"))
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	if got := delivered(c, "ℓ"); len(got[3]) != 0 {
		t.Fatal("partitioned server delivered through a partition")
	}
	if len(delivered(c, "ℓ")[0]) != 1 {
		t.Fatal("quorum side did not deliver")
	}
	// Heal and continue gossiping.
	c.Net.SetPartition(nil)
	ok, err := c.RunUntil(20, func() bool { return len(delivered(c, "ℓ")[3]) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("healed server never caught up (totality violated)")
	}
	if !c.Converged() {
		t.Fatal("DAGs did not converge after healing")
	}
}

// TestShimPBFT embeds the deterministic PBFT core and checks agreement
// across several consensus instances.
func TestShimPBFT(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: pbft.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	labels := []types.Label{"slot/0", "slot/1", "slot/2"}
	for s, label := range labels {
		leader := pbft.Leader(label, 4)
		c.Request(int(leader), label, []byte(fmt.Sprintf("decision-%d", s)))
	}
	ok, err := c.RunUntil(30, func() bool { return allDelivered(c, labels...) })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("consensus incomplete after 30 rounds")
	}
	for s, label := range labels {
		want := []byte(fmt.Sprintf("decision-%d", s))
		for i, values := range delivered(c, label) {
			if len(values) != 1 || !bytes.Equal(values[0], want) {
				t.Fatalf("server %d decided %q on %s, want %q", i, values, label, want)
			}
		}
	}
}

// TestShimManyParallelInstances: dozens of instances ride the same blocks.
func TestShimManyParallelInstances(t *testing.T) {
	const instances = 32
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	var labels []types.Label
	for i := 0; i < instances; i++ {
		label := types.Label(fmt.Sprintf("inst/%d", i))
		labels = append(labels, label)
		c.Request(i%4, label, []byte(fmt.Sprintf("v%d", i)))
	}
	ok, err := c.RunUntil(30, func() bool { return allDelivered(c, labels...) })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("parallel instances incomplete after 30 rounds")
	}
	for i, label := range labels {
		want := []byte(fmt.Sprintf("v%d", i))
		for srv, values := range delivered(c, label) {
			if len(values) != 1 || !bytes.Equal(values[0], want) {
				t.Fatalf("server %d delivered %q on %s", srv, values, label)
			}
		}
	}
}

// TestShimLossyNetwork: the stack stays safe and live with 20% loss.
func TestShimLossyNetwork(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N: 4, Protocol: brb.Protocol{}, Drop: 0.2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(2, "ℓ", []byte("through the storm"))
	ok, err := c.RunUntil(60, func() bool { return allDelivered(c, "ℓ") })
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no delivery under 20% loss within 60 rounds")
	}
	for i, values := range delivered(c, "ℓ") {
		if len(values) != 1 {
			t.Fatalf("server %d delivered %d times", i, len(values))
		}
	}
}

// TestOfflineInterpretationMatchesOnline: persist one server's DAG (via
// encode/decode round trips) and reinterpret it offline with a fresh
// interpreter; the offline indications must contain exactly the online
// ones — the paper's off-line interpretation claim.
func TestOfflineInterpretationMatchesOnline(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "x", []byte("1"))
	c.Request(1, "y", []byte("2"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "x", "y") })
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v", ok, err)
	}

	// "Persist" server 2's DAG through the wire encoding.
	onlineDag := c.Servers[2].DAG()
	stored := make([][]byte, 0, onlineDag.Len())
	for _, b := range onlineDag.Blocks() {
		stored = append(stored, b.Encode())
	}

	// Offline replay on a fresh stack.
	roster, _, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := replayOffline(roster, stored)
	if err != nil {
		t.Fatal(err)
	}

	online := c.Indications(2)
	if len(offline) < len(online) {
		t.Fatalf("offline replay lost indications: %d < %d", len(offline), len(online))
	}
	seen := make(map[string]int)
	for _, ind := range offline {
		seen[fmt.Sprintf("%v|%s|%s", ind.Server, ind.Label, ind.Value)]++
	}
	for _, ind := range online {
		key := fmt.Sprintf("%v|%s|%s", ind.Server, ind.Label, ind.Value)
		if seen[key] == 0 {
			t.Fatalf("online indication %s missing from offline replay", key)
		}
	}
}

// replayOffline decodes stored blocks and interprets them with a fresh
// interpreter, returning all indications for all simulated servers.
func replayOffline(roster *crypto.Roster, stored [][]byte) ([]cluster.Indication, error) {
	var out []cluster.Indication
	interp, d, err := core.OfflineInterpreter(roster, brb.Protocol{}, func(server types.ServerID, label types.Label, value []byte) {
		out = append(out, cluster.Indication{Server: server, Label: label, Value: value})
	})
	if err != nil {
		return nil, err
	}
	for _, enc := range stored {
		b, err := block.Decode(enc)
		if err != nil {
			return nil, err
		}
		if err := d.Insert(b); err != nil {
			return nil, err
		}
	}
	if err := interp.InterpretDAG(d); err != nil {
		return nil, err
	}
	return out, nil
}

// TestLemma42AcrossServers: at quiescence, any two correct servers'
// interpreters agree on the state digest of every block and label.
func TestLemma42AcrossServers(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "a", []byte("1"))
	c.Request(3, "b", []byte("2"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "a", "b") })
	if err != nil || !ok {
		t.Fatalf("run: ok=%v err=%v", ok, err)
	}
	if !c.Converged() {
		// Run a few extra rounds to quiesce fully.
		if err := c.RunRounds(3); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b []protocol.Message) bool {
		return slices.EqualFunc(a, b, func(x, y protocol.Message) bool { return protocol.Compare(x, y) == 0 })
	}
	base := c.Servers[0].Interpreter()
	for _, b := range c.Servers[0].DAG().Blocks() {
		for _, label := range []types.Label{"a", "b"} {
			for _, i := range []int{1, 2, 3} {
				it := c.Servers[i].Interpreter()
				if !same(base.InMessages(b.Ref(), label), it.InMessages(b.Ref(), label)) ||
					!same(base.OutMessages(b.Ref(), label), it.OutMessages(b.Ref(), label)) {
					t.Fatalf("Lemma 4.2 violated: block %v label %s differs between s0 and s%d", b.Ref(), label, i)
				}
			}
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	good := core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: net.Transport(0), Clock: net.Now,
	}
	if _, err := core.NewServer(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*core.Config){
		"roster":    func(c *core.Config) { c.Roster = nil },
		"signer":    func(c *core.Config) { c.Signer = nil },
		"protocol":  func(c *core.Config) { c.Protocol = nil },
		"transport": func(c *core.Config) { c.Transport = nil },
		"clock":     func(c *core.Config) { c.Clock = nil },
	} {
		bad := good
		mutate(&bad)
		if _, err := core.NewServer(bad); err == nil {
			t.Errorf("config without %s accepted", name)
		}
	}
}

// TestMinimalConfigIsTheWholeServer: there is one server shape. A config
// with only the required fields yields a server with a mempool (a repeated
// request is refused as a duplicate, not buffered twice) and a scorer that
// holds its convictions (a fork shown to it bans its builder on the proof).
func TestMinimalConfigIsTheWholeServer(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: net.Transport(0), Clock: net.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Mempool() == nil || srv.Scores() == nil {
		t.Fatalf("minimal server lacks a part: mempool %v, scorer %v", srv.Mempool(), srv.Scores())
	}
	if err := srv.Submit("ℓ", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit("ℓ", []byte("r")); !errors.Is(err, mempool.ErrDuplicate) {
		t.Fatalf("repeated Submit = %v, want mempool.ErrDuplicate", err)
	}
	if got := srv.Mempool().Len(); got != 1 {
		t.Fatalf("%d requests pending, want 1", got)
	}
	for _, data := range []string{"a", "b"} {
		fork := block.New(3, 0, nil, []block.Request{{Label: "fork", Data: []byte(data)}})
		if err := fork.Seal(signers[3]); err != nil {
			t.Fatal(err)
		}
		srv.Deliver(3, gossip.EncodeBlockMsg(fork))
	}
	if p := srv.Scores().Proof(3); p == nil || p.Equivocator() != 3 {
		t.Fatalf("fork by s3: proof held %v; want s3 banned on it", p)
	}
}

// TestSingleServerCluster: the degenerate n=1 system self-delivers.
func TestSingleServerCluster(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 1, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "solo", []byte("echo"))
	ok, err := c.RunUntil(10, func() bool { return allDelivered(c, "solo") })
	if err != nil || !ok {
		t.Fatalf("single server never delivered: ok=%v err=%v", ok, err)
	}
}
