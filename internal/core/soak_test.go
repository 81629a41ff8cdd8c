package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestSoakTheorem51AtScale is the adversarial scale test of Theorem 5.1:
// n = 7 (f = 2) with one equivocating byzantine server, one silent
// byzantine server, 10% packet loss, and 24 parallel BRB instances. Every
// BRB property must hold at every correct server for every instance.
func TestSoakTheorem51AtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n         = 7
		instances = 24
	)
	c, err := cluster.New(cluster.Options{
		N:         n,
		Protocol:  brb.Protocol{},
		Byzantine: []int{5, 6}, // 5 equivocates, 6 stays silent
		Drop:      0.10,
		Seed:      101,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Correct-server workload.
	labels := make([]types.Label, instances)
	for i := 0; i < instances; i++ {
		labels[i] = types.Label(fmt.Sprintf("soak/%d", i))
		c.Request(i%5, labels[i], []byte(fmt.Sprintf("v%d", i)))
	}

	// Byzantine server 5: equivocating genesis forks with conflicting
	// broadcasts on a contested label. The split is 4-vs-1: evil-a
	// reaches an echo quorum (4 correct echoes + the equivocator's own),
	// and s4 — who echoed evil-b — is pulled to delivery by READY
	// amplification. (An even 3-vs-2 split starves both quorums forever,
	// which BRB permits: totality only binds once somebody delivers.)
	forkA, err := c.Seal(5, 0, nil, block.Request{Label: "contested", Data: []byte("evil-a")})
	if err != nil {
		t.Fatal(err)
	}
	forkB, err := c.Seal(5, 0, nil, block.Request{Label: "contested", Data: []byte("evil-b")})
	if err != nil {
		t.Fatal(err)
	}
	c.Send(5, forkA, 0, 1, 2, 3)
	c.Send(5, forkB, 4)

	all := append(append([]types.Label(nil), labels...), "contested")
	done := func() bool { return allDelivered(c, all...) }
	ok, err := c.RunUntil(120, done)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		for _, label := range all {
			got := delivered(c, label)
			for _, i := range c.CorrectServers() {
				if len(got[i]) == 0 {
					t.Logf("missing: %s at s%d", label, i)
				}
			}
		}
		t.Fatal("soak incomplete after 120 rounds")
	}

	// Validity + integrity for correct senders; no-dup + consistency +
	// totality for every instance including the contested one.
	for i, label := range labels {
		want := []byte(fmt.Sprintf("v%d", i))
		for srv, values := range delivered(c, label) {
			if len(values) != 1 || !bytes.Equal(values[0], want) {
				t.Fatalf("server %d delivered %q on %s, want %q", srv, values, label, want)
			}
		}
	}
	contested := delivered(c, "contested")
	var first []byte
	for _, i := range c.CorrectServers() {
		values := contested[i]
		if len(values) != 1 {
			t.Fatalf("server %d delivered %d values on contested label", i, len(values))
		}
		if first == nil {
			first = values[0]
		} else if !bytes.Equal(first, values[0]) {
			t.Fatalf("consistency violated on contested label: %q vs %q", first, values[0])
		}
	}
	// The equivocator is exposed in every correct DAG.
	for _, i := range c.CorrectServers() {
		eqv := dagtest.Equivocators(c.Servers[i].Scores())
		if len(eqv) != 1 || eqv[0] != 5 {
			t.Fatalf("server %d detected equivocators %v, want [s5]", i, eqv)
		}
	}
}
