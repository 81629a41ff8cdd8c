package core_test

import (
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
)

// TestEvenEquivocationSplitStarvesQuorum documents the negative space of
// BRB under an equivocating broadcaster: when the conflicting values split
// the correct servers so that neither can assemble 2f+1 echoes, nobody
// delivers — and that is spec-compliant, since BRB's totality property
// only binds once some correct server delivers. The embedding must
// preserve exactly this behaviour: safety without forced progress.
func TestEvenEquivocationSplitStarvesQuorum(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N:         7,
		Protocol:  brb.Protocol{},
		Byzantine: []int{5, 6},
		Seed:      41,
	})
	if err != nil {
		t.Fatal(err)
	}
	forkA, err := c.Seal(5, 0, nil, block.Request{Label: "split", Data: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	forkB, err := c.Seal(5, 0, nil, block.Request{Label: "split", Data: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	// 3-vs-2 split of the five correct servers: echoes top out at
	// 3+1 = 4 for "a" and 2+1 = 3 for "b", both below the quorum of 5.
	c.Send(5, forkA, 0, 1, 2)
	c.Send(5, forkB, 3, 4)

	if err := c.RunRounds(25); err != nil {
		t.Fatal(err)
	}
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			if ind.Label == "split" {
				t.Fatalf("server %d delivered %q despite starved quorums", i, ind.Value)
			}
		}
	}
	// Every correct server nevertheless has both forks and the proof.
	for _, i := range c.CorrectServers() {
		d := c.Servers[i].DAG()
		if !d.Contains(forkA.Ref()) || !d.Contains(forkB.Ref()) {
			t.Fatalf("server %d missing fork blocks", i)
		}
		if eqv := dagtest.Equivocators(c.Servers[i].Scores()); len(eqv) != 1 || eqv[0] != 5 {
			t.Fatalf("server %d equivocators = %v", i, eqv)
		}
	}
}
