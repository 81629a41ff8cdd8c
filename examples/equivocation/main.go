// Command equivocation demonstrates the paper's Figure 3 scenario at
// system scale: a byzantine server equivocates — builds two different
// blocks with the same sequence number, showing conflicting broadcast
// requests to different halves of the cluster.
//
// Four things are on display:
//
//  1. both forks are individually valid and enter every correct DAG
//     (Definition 3.3 does not forbid equivocation),
//  2. the fork is detected and attributable (the two signed blocks are a
//     cryptographic equivocation proof),
//  3. the embedded BRB absorbs the attack: no two correct servers deliver
//     different values (Theorem 5.1 preserves BRB consistency), and
//  4. the proof convicts: every correct server bans s3, so what s3 sends
//     next is refused by the ban, at the link — the last step's join block
//     never gets as far as the parent rule that would refuse it too.
package main

import (
	"bytes"
	"fmt"
	"os"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dag"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "equivocation:", err)
		os.Exit(1)
	}
}

func run() error {
	// Server 3 is byzantine: no correct server runs in its slot; this
	// program drives it by hand.
	c, err := cluster.New(cluster.Options{
		N:         4,
		Protocol:  brb.Protocol{},
		Byzantine: []int{3},
		Seed:      7,
	})
	if err != nil {
		return err
	}

	// The equivocation: two validly signed genesis blocks for slot
	// (s3, k=0), one broadcasting "a", the other "b" on the same
	// instance ℓ.
	forkA, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ", Data: []byte("a")})
	if err != nil {
		return err
	}
	forkB, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ", Data: []byte("b")})
	if err != nil {
		return err
	}
	fmt.Printf("byzantine s3 equivocates at k=0: %s (broadcast a) vs %s (broadcast b)\n",
		forkA.Ref(), forkB.Ref())

	// Fork A goes to s0 and s1; fork B goes to s2.
	c.Send(3, forkA, 0, 1)
	c.Send(3, forkB, 2)

	delivered := func() bool {
		for _, i := range c.CorrectServers() {
			if len(c.Indications(i)) == 0 {
				return false
			}
		}
		return true
	}
	ok, err := c.RunUntil(30, delivered)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no deliveries within 30 rounds")
	}

	fmt.Println("\ndeliveries at correct servers:")
	var first []byte
	agree := true
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			fmt.Printf("  s%d delivered %q on %s\n", i, ind.Value, ind.Label)
			if first == nil {
				first = ind.Value
			} else if !bytes.Equal(first, ind.Value) {
				agree = false
			}
		}
	}
	if !agree {
		return fmt.Errorf("CONSISTENCY VIOLATED: correct servers delivered different values")
	}
	fmt.Println("consistency holds: all correct servers delivered the same value")

	fmt.Println("\nequivocation proofs held by every correct server:")
	for _, i := range c.CorrectServers() {
		for _, p := range c.Servers[i].Scores().Proofs() {
			fmt.Printf("  s%d holds proof: s%d built %s and %s at k=%d\n",
				i, p.Equivocator(), p.First.Ref(), p.Second.Ref(), p.First.Seq)
		}
	}

	// The proof convicts: every correct server has banned s3.
	if !c.BannedEverywhere(3) {
		return fmt.Errorf("s3 equivocated and is not banned everywhere")
	}
	fmt.Println("\ns3 is banned at every correct server")

	// The forks remain split forever: no later s3 block can reference
	// both (it would have two parents and fail Definition 3.3). Sent now,
	// such a join block is refused earlier than that, by the ban: no
	// correct server takes anything from s3 any more.
	join, err := c.Seal(3, 1, []block.Ref{forkA.Ref(), forkB.Ref()})
	if err != nil {
		return err
	}
	c.Send(3, join, 0, 1, 2)
	if err := c.RunRounds(3); err != nil {
		return err
	}
	for _, i := range c.CorrectServers() {
		if c.Servers[i].DAG().Contains(join.Ref()) {
			return fmt.Errorf("join block was accepted; ban and parent rule both broken")
		}
	}
	fmt.Println("join block referencing both forks was refused everywhere by the ban")
	// The parent rule on its own, in a DAG that bans nobody.
	d := dag.New(c.Roster)
	for _, b := range []*block.Block{forkA, forkB} {
		if err := d.Insert(b); err != nil {
			return err
		}
	}
	fmt.Printf("the parent rule alone refuses it too: %v\n", d.Insert(join))

	fmt.Println("\ns0's DAG:")
	var forks [][2]*block.Block
	for _, p := range c.Servers[0].Scores().Proofs() {
		forks = append(forks, [2]*block.Block{p.First, p.Second})
	}
	fmt.Print(trace.ASCII(c.Servers[0].DAG(), forks))
	return nil
}
