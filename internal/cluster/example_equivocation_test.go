package cluster_test

import (
	"bytes"
	"fmt"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dag"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/trace"
)

// Example_equivocation demonstrates the paper's Figure 3 scenario at
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
func Example_equivocation() {
	// Server 3 is byzantine: no correct server runs in its slot; this
	// example drives it by hand.
	c, err := cluster.New(cluster.Options{
		N:         4,
		Protocol:  brb.Protocol{},
		Byzantine: []int{3},
		Seed:      7,
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	// The equivocation: two validly signed genesis blocks for slot
	// (s3, k=0), one broadcasting "a", the other "b" on the same
	// instance ℓ.
	forkA, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ", Data: []byte("a")})
	if err != nil {
		fmt.Println(err)
		return
	}
	forkB, err := c.Seal(3, 0, nil, block.Request{Label: "ℓ", Data: []byte("b")})
	if err != nil {
		fmt.Println(err)
		return
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
		fmt.Println(err)
		return
	}
	if !ok {
		fmt.Println("no deliveries within 30 rounds")
		return
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
		fmt.Println("CONSISTENCY VIOLATED: correct servers delivered different values")
		return
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
		fmt.Println("s3 equivocated and is not banned everywhere")
		return
	}
	fmt.Println("\ns3 is banned at every correct server")

	// The forks remain split forever: no later s3 block can reference
	// both (it would have two parents and fail Definition 3.3). Sent now,
	// such a join block is refused earlier than that, by the ban: no
	// correct server takes anything from s3 any more.
	join, err := c.Seal(3, 1, []block.Ref{forkA.Ref(), forkB.Ref()})
	if err != nil {
		fmt.Println(err)
		return
	}
	c.Send(3, join, 0, 1, 2)
	if err := c.RunRounds(3); err != nil {
		fmt.Println(err)
		return
	}
	for _, i := range c.CorrectServers() {
		if c.Servers[i].DAG().Contains(join.Ref()) {
			fmt.Println("join block was accepted; ban and parent rule both broken")
			return
		}
	}
	fmt.Println("join block referencing both forks was refused everywhere by the ban")
	// The parent rule on its own, in a DAG that bans nobody.
	d := dag.New(c.Roster)
	for _, b := range []*block.Block{forkA, forkB} {
		if err := d.Insert(b); err != nil {
			fmt.Println(err)
			return
		}
	}
	fmt.Printf("the parent rule alone refuses it too: %v\n", d.Insert(join))

	fmt.Println("\ns0's DAG:")
	var forks [][2]*block.Block
	for _, p := range c.Servers[0].Scores().Proofs() {
		forks = append(forks, [2]*block.Block{p.First, p.Second})
	}
	fmt.Print(trace.ASCII(c.Servers[0].DAG(), forks))
	// Output:
	// byzantine s3 equivocates at k=0: 14a57353 (broadcast a) vs fa97f821 (broadcast b)
	//
	// deliveries at correct servers:
	//   s0 delivered "a" on ℓ
	//   s1 delivered "a" on ℓ
	//   s2 delivered "a" on ℓ
	// consistency holds: all correct servers delivered the same value
	//
	// equivocation proofs held by every correct server:
	//   s0 holds proof: s3 built 14a57353 and fa97f821 at k=0
	//   s1 holds proof: s3 built 14a57353 and fa97f821 at k=0
	//   s2 holds proof: s3 built 14a57353 and fa97f821 at k=0
	//
	// s3 is banned at every correct server
	// join block referencing both forks was refused everywhere by the ban
	// the parent rule alone refuses it too: dag: block violates parent rule: block 777c39ec (builder s3, seq 1) has 2 parents, want 1
	//
	// s0's DAG:
	//   0  15ec7bf0  s0/k0   preds=[]
	//   1  14a57353  s3/k0   preds=[] rs=(ℓ,1B)
	//   2  028e2518  s1/k0   preds=[]
	//   3  f4602041  s0/k1   preds=[15ec7bf0 14a57353 028e2518]
	//   4  456b915a  s2/k0   preds=[]
	//   5  154683e7  s1/k1   preds=[028e2518 15ec7bf0 14a57353]
	//   6  65e3bc63  s0/k2   preds=[f4602041 456b915a 154683e7]
	//   7  0a48bee9  s1/k2   preds=[154683e7 456b915a f4602041]
	//   8  fa97f821  s3/k0   preds=[] rs=(ℓ,1B)
	//   9  46f15a4d  s2/k1   preds=[456b915a 15ec7bf0 fa97f821]
	//  10  4f22f947  s2/k2   preds=[46f15a4d 65e3bc63 0a48bee9]
	//  11  4a9d7b85  s0/k3   preds=[65e3bc63 4f22f947]
	//  12  b670d2bf  s2/k3   preds=[4f22f947]
	//  13  5bf3da2d  s1/k3   preds=[0a48bee9 4f22f947]
	//  14  fa354414  s0/k4   preds=[4a9d7b85 b670d2bf 5bf3da2d]
	//  15  4db797b6  s1/k4   preds=[5bf3da2d 4a9d7b85 b670d2bf]
	//  16  43b733a3  s2/k4   preds=[b670d2bf 4a9d7b85 5bf3da2d]
	//  17  309792b8  s0/k5   preds=[fa354414 4db797b6 43b733a3]
	//  18  4d607e2b  s1/k5   preds=[4db797b6 fa354414 43b733a3]
	//  19  003abf9a  s2/k5   preds=[43b733a3 fa354414 4db797b6]
	//  20  41a294c4  s0/k6   preds=[309792b8 4d607e2b 003abf9a]
	//  21  64d632d5  s1/k6   preds=[4d607e2b 309792b8 003abf9a]
	//  22  234b2fc8  s2/k6   preds=[003abf9a 309792b8 4d607e2b]
	// EQUIVOCATION s3 at k0: 14a57353 vs fa97f821
}
