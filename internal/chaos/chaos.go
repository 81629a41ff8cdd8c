// Package chaos is a declarative, seeded scenario harness over the
// cluster simulator: it composes the fault primitives the rest of the
// repo exposes piecemeal — partitions (simnet.SetPartition), message
// loss (SetDrop), crash/recover storms (cluster.Crash, Restart), and
// byzantine equivocation at the f boundary
// (cluster.Seal + selective Send) — into named scenarios with built-in
// invariant checks:
//
//   - honest interpretation agreement: no two correct servers deliver
//     different values for the same label (Theorem 5.1's consistency,
//     under whatever faults the scenario injected);
//   - post-heal convergence: once partitions heal and crashed servers
//     recover, all correct DAGs become identical (Lemma 3.7);
//   - accountability: every driven equivocator is convicted everywhere —
//     each correct server holds the same canonical equivocation proof,
//     has the equivocator in the terminal banned state, and (scenarios
//     that ask for it) the ban survives an honest server's crash/restart
//     by replay from the proofs in the store's head.
//
// Every random choice — partition halves, crash victims, the simulated
// network's latency jitter — derives from the run's single seed, so a
// scenario is reproducible end to end: same seed, same trace, same
// verdict. The `dagsim -chaos <scenario> -seed N` entry point and the
// `make chaos-smoke` CI target run these scenarios standalone.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// chaosRngSalt decorrelates the harness's own random choices (partition
// halves, crash victims) from the simulator's link model, which consumes
// the raw seed: injecting faults must not perturb the latency/drop
// sequence the same seed produces in a fault-free run.
const chaosRngSalt = 0x63686173 // "chas"

// convergeRounds bounds the final drive to convergence.
const convergeRounds = 60

// Phase is one step of a scenario. Fields compose: a single phase can
// install a partition, crash servers, and drive equivocations, then run
// its rounds with all of it in effect.
type Phase struct {
	// Name labels the phase in logs and the report.
	Name string

	// PartitionHalves splits the live correct servers into two random
	// halves (drawn from the seeded RNG) and blocks every link between
	// them. Byzantine slots belong to neither half: an equivocator talks
	// to both sides, which is exactly how it shows each side a different
	// fork without either side detecting the fork until the heal.
	PartitionHalves bool
	// Heal removes any installed partition.
	Heal bool

	// Drop sets the unicast loss probability for this phase onward.
	Drop float64

	// Crash power-cuts these slots (stores are abandoned mid-write, the
	// crash model). CrashRandom additionally crashes that many randomly
	// chosen live correct servers.
	Crash       []int
	CrashRandom int
	// Recover restarts every currently crashed server from its on-disk
	// store — the full WAL-replay recovery path, bans re-seeded from the
	// proofs in the store's head.
	Recover bool

	// Equivocate makes each listed byzantine slot fork its next sequence
	// number: two validly signed blocks, same (builder, seq), different
	// payloads, one shown to each partition half (or to the two halves
	// of the correct servers when no partition is installed).
	Equivocate []int

	// Rounds runs this many dissemination rounds with the phase's faults
	// in effect.
	Rounds int
}

// Scenario is a named, declarative chaos schedule.
type Scenario struct {
	Name        string
	Description string
	// N is the roster size; Byzantine lists the slots driven as
	// equivocators (no correct server runs there).
	N         int
	Byzantine []int
	// LoadPerRound submits that many synthetic client requests per
	// correct server each round, so agreement is checked over real
	// traffic, not just the equivocator's conflicting values.
	LoadPerRound int
	// Phases run in order; after the last, the harness heals everything,
	// recovers any crashed server, and drives the cluster to convergence
	// before checking invariants.
	Phases []Phase
	// CheckBanSurvival additionally crash/restarts one honest server at
	// the very end and verifies every conviction survived the restart —
	// the replay of the proofs in the store's head.
	CheckBanSurvival bool
}

// Scenarios returns the built-in scenarios.
func Scenarios() []Scenario {
	return []Scenario{partitionEquivocators(), crashStorm()}
}

// Lookup finds a built-in scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// partitionEquivocators is the acceptance scenario: n=7 (f=2) with f
// equivocators forking behind a partition of the honest servers, then a
// heal. During the partition each half holds one fork per equivocator
// and cannot detect; the heal makes every honest server learn both
// forks (FWD fills the cross-half references), convict, gossip the
// proof, and ban — and the ban must survive an honest crash/restart.
func partitionEquivocators() Scenario {
	return Scenario{
		Name:         "partition-equivocators",
		Description:  "partition the honest servers, fork f equivocators across the halves, heal, expect conviction and bans everywhere",
		N:            7,
		Byzantine:    []int{5, 6},
		LoadPerRound: 1,
		Phases: []Phase{
			{Name: "partition+fork", PartitionHalves: true, Equivocate: []int{5, 6}, Rounds: 8},
			{Name: "heal", Heal: true, Rounds: 12},
		},
		CheckBanSurvival: true,
	}
}

// crashStorm exercises the durability path: random crash/recover cycles
// under light loss, no byzantine slots. Every recovery replays the WAL;
// the invariants demand the survivors and the recovered servers end up
// with identical DAGs and consistent deliveries.
func crashStorm() Scenario {
	return Scenario{
		Name:         "crash-storm",
		Description:  "random crash/recover cycles under light message loss; expect convergence and agreement after recovery",
		N:            4,
		LoadPerRound: 2,
		Phases: []Phase{
			{Name: "storm1", CrashRandom: 1, Drop: 0.05, Rounds: 6},
			{Name: "recover1", Recover: true, Rounds: 6},
			{Name: "storm2", CrashRandom: 1, Rounds: 6},
			{Name: "recover2", Recover: true, Heal: true, Drop: 0, Rounds: 8},
		},
	}
}

// Config parameterizes a scenario run.
type Config struct {
	Scenario Scenario
	// Seed fixes every random choice of the run (default 1).
	Seed int64
	// StoreDir roots the per-server durable stores. Required: crash
	// recovery and ban persistence are what the harness exists to test.
	StoreDir string
	// Protocol is the embedded BFT protocol (default brb.Protocol{}).
	Protocol protocol.Protocol
	// Logf, when non-nil, receives phase-by-phase progress lines.
	Logf func(format string, args ...any)
}

// Result is a run's verdict: the invariant outcomes and every violation
// found. A run with no violations passed.
type Result struct {
	Scenario     string
	Seed         int64
	Rounds       int // dissemination rounds driven, convergence drive included
	Equivocators []types.ServerID

	Converged          bool // all correct DAGs identical after the heal
	Agreement          bool // no two correct servers delivered different values per label
	BannedEverywhere   bool // every correct scorer holds a proof per equivocator
	SameProofBytes     bool // ... and the encodings are byte-identical cluster-wide
	BanSurvival        bool // bans intact after an honest crash/restart (when checked)
	BanSurvivalChecked bool

	// BlocksDigest and IndicationsDigest fingerprint the run's trace, taken
	// once the run is over: a hash over every correct server's sorted
	// block refs, and one over its per-label indication sequences. Same
	// scenario, same seed ⇒ same digests; the pinned values in
	// chaos_test.go hold a runtime refactor to the schedule it replaced. A
	// change to what blocks cite or to when they arrive moves the first
	// and must leave the second alone.
	BlocksDigest      string
	IndicationsDigest string

	Violations []string
}

// OK reports whether every checked invariant held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Summary renders the verdict compactly for CLI output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s: seed=%d rounds=%d blocks=%s indications=%s", r.Scenario, r.Seed, r.Rounds, r.BlocksDigest, r.IndicationsDigest)
	fmt.Fprintf(&b, "\n  converged=%v agreement=%v", r.Converged, r.Agreement)
	if len(r.Equivocators) > 0 {
		fmt.Fprintf(&b, "\n  equivocators=%v same-proof=%v banned-everywhere=%v",
			r.Equivocators, r.SameProofBytes, r.BannedEverywhere)
	}
	if r.BanSurvivalChecked {
		fmt.Fprintf(&b, " ban-survived-restart=%v", r.BanSurvival)
	}
	if r.OK() {
		b.WriteString("\n  PASS")
	} else {
		fmt.Fprintf(&b, "\n  FAIL: %s", strings.Join(r.Violations, "; "))
	}
	return b.String()
}

// runner is one executing scenario.
type runner struct {
	cfg     Config
	c       *cluster.Cluster
	rng     *rand.Rand
	crashed map[int]bool
	// byzSeq/byzTip track each byzantine slot's chain so repeated phases
	// can fork at fresh sequence numbers with a valid parent.
	byzSeq map[int]uint64
	byzTip map[int]block.Ref
	// equivocated records the slots actually driven to fork — the set
	// the accountability invariants quantify over.
	equivocated map[int]bool
	// partition is the currently installed grouping (slot → group).
	partition map[int]int
	result    *Result
}

// Run executes one scenario and reports the verdict. The error covers
// harness failures (bad config, a recovery that failed); invariant
// violations land in the Result instead.
func Run(cfg Config) (*Result, error) {
	s := cfg.Scenario
	if s.N < 1 || len(s.Phases) == 0 {
		return nil, fmt.Errorf("chaos: scenario %q needs servers and phases", s.Name)
	}
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("chaos: scenario %q needs a StoreDir (crash recovery and ban persistence are under test)", s.Name)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = brb.Protocol{}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c, err := cluster.New(cluster.Options{
		N:            s.N,
		Protocol:     cfg.Protocol,
		Byzantine:    s.Byzantine,
		Seed:         cfg.Seed,
		StoreDir:     cfg.StoreDir,
		LoadPerRound: s.LoadPerRound,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	r := &runner{
		cfg:         cfg,
		c:           c,
		rng:         rand.New(rand.NewSource(cfg.Seed ^ chaosRngSalt)),
		crashed:     make(map[int]bool),
		byzSeq:      make(map[int]uint64),
		byzTip:      make(map[int]block.Ref),
		equivocated: make(map[int]bool),
		result:      &Result{Scenario: s.Name, Seed: cfg.Seed},
	}
	for _, ph := range s.Phases {
		if err := r.phase(ph); err != nil {
			return nil, err
		}
	}
	if err := r.converge(); err != nil {
		return nil, err
	}
	r.checkInvariants()
	if s.CheckBanSurvival {
		if err := r.checkBanSurvival(); err != nil {
			return nil, err
		}
	}
	r.result.BlocksDigest, r.result.IndicationsDigest = r.digests()
	return r.result, nil
}

// digests hashes what the run left behind at every correct server: its
// DAG as sorted block refs, and its indications as one value sequence per
// label (labels sorted). Grouping by label keeps the second a statement
// about the trace the paper's properties quantify over — what each
// instance indicated, in order — rather than about how two unrelated
// instances happened to interleave.
func (r *runner) digests() (blocks, indications string) {
	hb, hi := sha256.New(), sha256.New()
	for _, i := range r.c.CorrectServers() {
		fmt.Fprintf(hb, "s%d\n", i)
		fmt.Fprintf(hi, "s%d\n", i)
		refs := r.c.Servers[i].DAG().Refs() // a copy, ours to sort
		sort.Slice(refs, func(a, b int) bool { return bytes.Compare(refs[a][:], refs[b][:]) < 0 })
		for _, ref := range refs {
			hb.Write(ref[:])
		}
		byLabel := make(map[types.Label][][]byte)
		for _, ind := range r.c.Indications(i) {
			byLabel[ind.Label] = append(byLabel[ind.Label], ind.Value)
		}
		labels := make([]string, 0, len(byLabel))
		for l := range byLabel {
			labels = append(labels, string(l))
		}
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(hi, "%q", l)
			for _, v := range byLabel[types.Label(l)] {
				fmt.Fprintf(hi, " %q", v)
			}
			hi.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(hb.Sum(nil)[:16]), hex.EncodeToString(hi.Sum(nil)[:16])
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// phase applies one phase's faults and runs its rounds.
func (r *runner) phase(ph Phase) error {
	r.logf("phase %s: partition-halves=%v heal=%v drop=%.2f crash=%v+%d recover=%v equivocate=%v rounds=%d",
		ph.Name, ph.PartitionHalves, ph.Heal, ph.Drop, ph.Crash, ph.CrashRandom, ph.Recover, ph.Equivocate, ph.Rounds)
	switch {
	case ph.Heal:
		r.setPartition(nil)
	case ph.PartitionHalves:
		r.setPartition(r.randomHalves())
	}
	r.c.Net.SetDrop(ph.Drop)
	if ph.Recover {
		if err := r.recoverAll(); err != nil {
			return err
		}
	}
	for _, slot := range ph.Crash {
		r.crash(slot)
	}
	for i := 0; i < ph.CrashRandom; i++ {
		r.crashRandom()
	}
	for _, slot := range ph.Equivocate {
		if err := r.equivocate(slot); err != nil {
			return err
		}
	}
	if ph.Rounds > 0 {
		r.result.Rounds += ph.Rounds
		if err := r.c.RunRounds(ph.Rounds); err != nil {
			return fmt.Errorf("chaos: phase %s: %w", ph.Name, err)
		}
	}
	return nil
}

// randomHalves draws a random bisection of the live correct servers
// from the harness RNG. Byzantine slots stay ungrouped — they reach
// both halves, the position an equivocator needs.
func (r *runner) randomHalves() [][]int {
	live := r.liveCorrect()
	r.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	mid := len(live) / 2
	a := append([]int(nil), live[:mid]...)
	b := append([]int(nil), live[mid:]...)
	sort.Ints(a)
	sort.Ints(b)
	return [][]int{a, b}
}

// setPartition installs (or, with nil, removes) a grouping: links
// between slots of different groups are blocked, everything else flows.
func (r *runner) setPartition(groups [][]int) {
	if len(groups) == 0 {
		r.partition = nil
		r.c.Net.SetPartition(nil)
		return
	}
	r.partition = make(map[int]int)
	for gi, g := range groups {
		for _, slot := range g {
			r.partition[slot] = gi
		}
	}
	part := r.partition
	r.c.Net.SetPartition(func(from, to types.ServerID) bool {
		gf, okf := part[int(from)]
		gt, okt := part[int(to)]
		return okf && okt && gf != gt
	})
	r.logf("  partition installed: %v", groups)
}

// liveCorrect lists the running correct slots.
func (r *runner) liveCorrect() []int {
	var out []int
	for _, i := range r.c.CorrectServers() {
		if !r.crashed[i] {
			out = append(out, i)
		}
	}
	return out
}

func (r *runner) crash(slot int) {
	if r.crashed[slot] || r.c.Servers[slot] == nil {
		return
	}
	r.crashed[slot] = true
	r.c.Crash(slot)
	r.logf("  crashed s%d", slot)
}

// crashRandom power-cuts one randomly chosen live correct server, but
// never the last one: a fully dark cluster has nothing left to check.
func (r *runner) crashRandom() {
	live := r.liveCorrect()
	if len(live) <= 1 {
		return
	}
	r.crash(live[r.rng.Intn(len(live))])
}

// recoverAll restarts every crashed server from its on-disk store.
func (r *runner) recoverAll() error {
	var slots []int
	for slot := range r.crashed {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		if err := r.c.Restart(slot); err != nil {
			return fmt.Errorf("chaos: recover s%d: %w", slot, err)
		}
		delete(r.crashed, slot)
		r.logf("  recovered s%d from store", slot)
	}
	return nil
}

// equivocate forks one byzantine slot's next sequence number: two
// validly signed blocks with the same (builder, seq) and different
// request payloads, one sent to each half of the correct servers. With
// a partition installed the halves are its first two groups, so neither
// side can detect the fork until the heal; without one, the live
// correct servers are split down the middle.
func (r *runner) equivocate(slot int) error {
	seq := r.byzSeq[slot]
	var preds []block.Ref
	if seq > 0 {
		preds = []block.Ref{r.byzTip[slot]}
	}
	label := types.Label(fmt.Sprintf("chaos/s%d/%d", slot, seq))
	forkA, err := r.c.Seal(slot, seq, preds, block.Request{Label: label, Data: []byte("a")})
	if err != nil {
		return fmt.Errorf("chaos: fork s%d: %w", slot, err)
	}
	forkB, err := r.c.Seal(slot, seq, preds, block.Request{Label: label, Data: []byte("b")})
	if err != nil {
		return fmt.Errorf("chaos: fork s%d: %w", slot, err)
	}
	halfA, halfB := r.halves()
	r.c.Send(slot, forkA, halfA...)
	r.c.Send(slot, forkB, halfB...)
	r.byzSeq[slot] = seq + 1
	r.byzTip[slot] = forkA.Ref() // the equivocator's own chain continues on fork A
	r.equivocated[slot] = true
	r.logf("  s%d equivocates at k=%d: %s→%v vs %s→%v", slot, seq, forkA.Ref(), halfA, forkB.Ref(), halfB)
	return nil
}

// halves returns the two receiver sets an equivocation is split across.
func (r *runner) halves() (a, b []int) {
	if r.partition != nil {
		for slot, g := range r.partition {
			if r.crashed[slot] {
				continue
			}
			if g == 0 {
				a = append(a, slot)
			} else {
				b = append(b, slot)
			}
		}
		sort.Ints(a)
		sort.Ints(b)
		if len(a) > 0 && len(b) > 0 {
			return a, b
		}
	}
	live := r.liveCorrect()
	mid := (len(live) + 1) / 2
	return live[:mid], live[mid:]
}

// converge heals every fault and drives the cluster until the correct
// DAGs agree (and, when equivocators were driven, every correct server
// has convicted them) or the round budget runs out.
func (r *runner) converge() error {
	r.setPartition(nil)
	r.c.Net.SetDrop(0)
	if err := r.recoverAll(); err != nil {
		return err
	}
	settled := func() bool {
		if !r.c.Converged() {
			return false
		}
		for slot := range r.equivocated {
			if !r.c.BannedEverywhere(types.ServerID(slot)) {
				return false
			}
		}
		return true
	}
	for round := 0; round < convergeRounds && !settled(); round++ {
		r.result.Rounds++
		if err := r.c.RunRounds(1); err != nil {
			return fmt.Errorf("chaos: converge: %w", err)
		}
	}
	return nil
}

// checkInvariants fills the Result's verdict fields.
func (r *runner) checkInvariants() {
	res := r.result
	res.Converged = r.c.Converged()
	if !res.Converged {
		res.Violations = append(res.Violations, "correct DAGs did not converge after heal")
	}
	res.Agreement = r.checkAgreement()
	for slot := range r.equivocated {
		res.Equivocators = append(res.Equivocators, types.ServerID(slot))
	}
	sort.Slice(res.Equivocators, func(i, j int) bool { return res.Equivocators[i] < res.Equivocators[j] })
	if len(res.Equivocators) > 0 {
		r.checkAccountability()
	}
}

// checkAgreement verifies honest interpretation agreement: across every
// correct server's indications, one label never maps to two different
// values (at-least-once redelivery after recovery is fine; conflicting
// values are not).
func (r *runner) checkAgreement() bool {
	values := make(map[types.Label][]byte)
	ok := true
	for _, i := range r.c.CorrectServers() {
		for _, ind := range r.c.Indications(i) {
			if prev, seen := values[ind.Label]; seen {
				if !bytes.Equal(prev, ind.Value) {
					r.result.Violations = append(r.result.Violations,
						fmt.Sprintf("label %s delivered two values (%q at s%d)", ind.Label, ind.Value, i))
					ok = false
				}
				continue
			}
			values[ind.Label] = ind.Value
		}
	}
	return ok
}

// checkAccountability verifies the evidence invariants for every driven
// equivocator: a ban — a proof — in every correct server's scorer, all
// encodings byte-identical (the canonical ordering makes the proof unique).
func (r *runner) checkAccountability() {
	res := r.result
	res.SameProofBytes, res.BannedEverywhere = true, true
	for _, id := range res.Equivocators {
		var canonical []byte
		for _, i := range r.c.CorrectServers() {
			p := r.c.Servers[i].Scores().Proof(id)
			if p == nil {
				res.BannedEverywhere = false
				res.Violations = append(res.Violations, fmt.Sprintf("s%d holds no proof against s%d", i, id))
				continue
			}
			enc := p.Encode()
			if canonical == nil {
				canonical = enc
			} else if !bytes.Equal(canonical, enc) {
				res.SameProofBytes = false
				res.Violations = append(res.Violations, fmt.Sprintf("s%d holds a different proof against s%d", i, id))
			}
		}
	}
}

// checkBanSurvival crash/restarts the lowest correct slot and verifies
// every conviction came back from the proofs in the store's head — the
// proof blocks themselves may never have been insertable, so this is
// the proofs' replay path, not WAL replay.
func (r *runner) checkBanSurvival() error {
	res := r.result
	res.BanSurvivalChecked = true
	correct := r.c.CorrectServers()
	if len(correct) == 0 {
		return nil
	}
	victim := correct[0]
	r.logf("ban-survival: crash/restart s%d", victim)
	r.c.Crash(victim)
	if err := r.c.Restart(victim); err != nil {
		return fmt.Errorf("chaos: ban-survival recover s%d: %w", victim, err)
	}
	res.BanSurvival = true
	for _, id := range res.Equivocators {
		if !r.c.Servers[victim].Scores().Banned(id) {
			res.BanSurvival = false
			res.Violations = append(res.Violations,
				fmt.Sprintf("ban of s%d did not survive s%d's restart", id, victim))
		}
	}
	return nil
}
