// Command payments builds a FastPay-style payment system on the block DAG
// framework — the application the paper's introduction motivates:
// byzantine reliable broadcast is sufficient for payments (no consensus
// needed), and the block DAG runs one BRB instance per payment "for free"
// on the same blocks.
//
// Each payment is one BRB instance labeled "pay/<payer>/<seq>". A payment
// settles at a server when that server's shim delivers the broadcast; the
// server then applies it to its replica of the balance table. Because BRB
// guarantees consistency and totality, every correct server converges to
// the same balances without any coordination beyond the DAG itself.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"blockdag/internal/cluster"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/state"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// payment is the value broadcast for one transfer.
type payment struct {
	From, To string
	Amount   uint64
}

func (p payment) encode() []byte {
	w := wire.NewWriter(32)
	w.String(p.From)
	w.String(p.To)
	w.Uint64(p.Amount)
	return w.Bytes()
}

func decodePayment(data []byte) (payment, error) {
	r := wire.NewReader(data)
	p := payment{From: r.String(), To: r.String(), Amount: r.Uint64()}
	if err := r.Close(); err != nil {
		return payment{}, fmt.Errorf("decode payment: %w", err)
	}
	return p, nil
}

// ledger is one server's replica of the balance table, mirrored into a
// Merkle tree (internal/state) so replicas can compare a single 32-byte
// root instead of the whole table — and hand out audit proofs for
// individual balances.
type ledger struct {
	balances map[string]int64
	settled  map[types.Label]bool
	tree     *state.Tree
}

func newLedger() *ledger {
	l := &ledger{
		balances: map[string]int64{"alice": 100, "bob": 100, "carol": 100, "dave": 100},
		settled:  make(map[types.Label]bool),
		tree:     state.NewTree(),
	}
	for name, bal := range l.balances {
		l.tree.Put(balanceKey(name), balanceValue(bal))
	}
	return l
}

// balanceKey/balanceValue fix the canonical encoding of one account's
// entry in the committed state: same key/value bytes on every replica,
// or the roots would diverge even when the balances agree.
func balanceKey(name string) []byte { return []byte("balance/" + name) }

func balanceValue(bal int64) []byte {
	v := make([]byte, 8)
	binary.BigEndian.PutUint64(v, uint64(bal))
	return v
}

// apply settles one delivered payment exactly once, updating both the
// plain table and its Merkle commitment.
func (l *ledger) apply(label types.Label, p payment) {
	if l.settled[label] {
		return
	}
	l.settled[label] = true
	l.balances[p.From] -= int64(p.Amount)
	l.balances[p.To] += int64(p.Amount)
	l.tree.Put(balanceKey(p.From), balanceValue(l.balances[p.From]))
	l.tree.Put(balanceKey(p.To), balanceValue(l.balances[p.To]))
}

func (l *ledger) String() string {
	names := make([]string, 0, len(l.balances))
	for name := range l.balances {
		names = append(names, name)
	}
	sort.Strings(names)
	s := ""
	for _, name := range names {
		s += fmt.Sprintf("%s=%d ", name, l.balances[name])
	}
	return s
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "payments:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 4
	c, err := cluster.New(cluster.Options{N: n, Protocol: brb.Protocol{}, Seed: 21})
	if err != nil {
		return err
	}

	// One ledger replica per server, fed by that server's indications.
	ledgers := make([]*ledger, n)
	for i := range ledgers {
		ledgers[i] = newLedger()
	}

	// Payments submitted at different servers; each is an independent
	// BRB instance riding the same block stream.
	transfers := []payment{
		{From: "alice", To: "bob", Amount: 10},
		{From: "bob", To: "carol", Amount: 5},
		{From: "carol", To: "dave", Amount: 7},
		{From: "dave", To: "alice", Amount: 3},
		{From: "alice", To: "carol", Amount: 2},
		{From: "bob", To: "dave", Amount: 8},
		{From: "carol", To: "alice", Amount: 1},
		{From: "dave", To: "bob", Amount: 4},
		{From: "alice", To: "dave", Amount: 6},
		{From: "bob", To: "alice", Amount: 9},
		{From: "carol", To: "bob", Amount: 2},
		{From: "dave", To: "carol", Amount: 5},
	}
	labels := make([]types.Label, len(transfers))
	for i, p := range transfers {
		labels[i] = types.Label(fmt.Sprintf("pay/%s/%d", p.From, i))
		c.Request(i%n, labels[i], p.encode())
	}
	fmt.Printf("submitted %d payments as %d parallel BRB instances\n", len(transfers), len(transfers))

	// Drain indications into the ledgers after every round.
	applied := make([]int, n)
	settleAll := func() error {
		for srv := 0; srv < n; srv++ {
			inds := c.Indications(srv)
			for _, ind := range inds[applied[srv]:] {
				p, err := decodePayment(ind.Value)
				if err != nil {
					return err
				}
				ledgers[srv].apply(ind.Label, p)
			}
			applied[srv] = len(inds)
		}
		return nil
	}
	allSettled := func() bool {
		for srv := 0; srv < n; srv++ {
			if len(ledgers[srv].settled) != len(transfers) {
				return false
			}
		}
		return true
	}
	for round := 0; round < 40 && !allSettled(); round++ {
		if err := c.RunRounds(1); err != nil {
			return err
		}
		if err := settleAll(); err != nil {
			return err
		}
	}
	if !allSettled() {
		return fmt.Errorf("payments did not all settle within 40 rounds")
	}

	fmt.Println("\nfinal balances per server replica:")
	for srv := 0; srv < n; srv++ {
		r := ledgers[srv].tree.Root()
		fmt.Printf("  s%d: %s root=%x\n", srv, ledgers[srv], r[:8])
	}
	root := ledgers[0].tree.Root()
	for srv := 1; srv < n; srv++ {
		if ledgers[srv].tree.Root() != root {
			return fmt.Errorf("replicas diverged: s0=%s s%d=%s", ledgers[0], srv, ledgers[srv])
		}
	}
	fmt.Println("all replicas commit the same Merkle root (BRB consistency + totality through the DAG)")

	// Audit proof: server 0 proves alice's balance against the shared
	// root; any client holding just the 32-byte root can check it.
	aliceBal := ledgers[0].balances["alice"]
	proof := ledgers[0].tree.Prove(balanceKey("alice"))
	if err := proof.VerifyValue(root, balanceKey("alice"), balanceValue(aliceBal)); err != nil {
		return fmt.Errorf("audit proof for alice rejected: %w", err)
	}
	fmt.Printf("audit proof: alice=%d verifies against root %x (%d sibling hashes)\n",
		aliceBal, root[:8], len(proof.Branches))

	// The punchline: message compression across parallel instances.
	var wireMsgs, wireBytes, simulated, blocks int64
	for _, m := range c.Metrics {
		wireMsgs += m.Get(metrics.WireMessages)
		wireBytes += m.Get(metrics.WireBytes)
		simulated += m.Get(metrics.MsgsMaterialized)
		blocks += m.Get(metrics.BlocksBuilt)
	}
	fmt.Printf("\n%d payments × BRB over %d blocks: %d wire sends (%d bytes) carried %d simulated protocol messages\n",
		len(transfers), blocks, wireMsgs, wireBytes, simulated)
	fmt.Printf("per payment: %.1f materialized messages, every one compressed away\n",
		float64(simulated)/float64(len(transfers)))
	return nil
}
