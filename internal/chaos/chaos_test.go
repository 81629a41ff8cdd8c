package chaos

import (
	"reflect"
	"testing"
)

// TestPartitionEquivocators is the acceptance scenario: partition the
// honest servers, fork f equivocators across the halves, heal — all
// correct servers must converge to one interpretation, hold the same
// canonical proof per equivocator, ban both, and keep the bans across
// an honest crash/restart.
func TestPartitionEquivocators(t *testing.T) {
	sc, ok := Lookup("partition-equivocators")
	if !ok {
		t.Fatal("built-in scenario missing")
	}
	res, err := Run(Config{Scenario: sc, Seed: 7, StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Summary())
	}
	if len(res.Equivocators) != 2 {
		t.Fatalf("expected 2 equivocators, got %v", res.Equivocators)
	}
	if !res.Converged || !res.Agreement || !res.SameProofBytes || !res.BannedEverywhere {
		t.Fatalf("verdict fields inconsistent with OK():\n%s", res.Summary())
	}
	if !res.BanSurvivalChecked || !res.BanSurvival {
		t.Fatalf("ban survival not verified:\n%s", res.Summary())
	}
	checkTrace(t, res, 20, "ad2c2db329fe68350610d7330b2ddbe4", "fcbd62402f5538f911639d007705d2ae")
}

// checkTrace pins a seeded run's round count and its two digests. The round
// counts are the ones recorded before PR 16, when the cluster package still
// carried its own copy of the runtime. The indication digests have never
// moved. The block digests were re-pinned twice, each time with the
// indication digests proven equal by this test: in PR 18, when blocks began
// to cite their parent and the DAG's tips instead of every inserted block,
// and in PR 28, when a missing predecessor began to be asked of the peer
// that sent the citing block — it arrives at another moment, so it is a tip
// of another own block.
// A moved indication digest, or a moved round count, is a change in what
// some server decided — find the decision before re-pinning.
func checkTrace(t *testing.T, res *Result, rounds int, blocks, indications string) {
	t.Helper()
	if res.Rounds != rounds || res.BlocksDigest != blocks || res.IndicationsDigest != indications {
		t.Fatalf("trace moved: rounds=%d blocks=%s indications=%s, pinned rounds=%d blocks=%s indications=%s",
			res.Rounds, res.BlocksDigest, res.IndicationsDigest, rounds, blocks, indications)
	}
}

// TestCrashStorm exercises the crash/recover durability path under
// light loss: survivors and recovered servers must converge and agree.
func TestCrashStorm(t *testing.T) {
	sc, ok := Lookup("crash-storm")
	if !ok {
		t.Fatal("built-in scenario missing")
	}
	res, err := Run(Config{Scenario: sc, Seed: 3, StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariants violated:\n%s", res.Summary())
	}
	if !res.Converged || !res.Agreement {
		t.Fatalf("verdict fields inconsistent with OK():\n%s", res.Summary())
	}
	checkTrace(t, res, 26, "4b81852fdce7f8dea355f9851b6a5729", "b7e805765e9b507003129a3936496522")
}

// TestDeterminism runs the acceptance scenario twice with the same seed
// and demands bit-identical results — the whole run derives from the
// seed, so any divergence is nondeterminism in the harness or the
// stack under test.
func TestDeterminism(t *testing.T) {
	sc, _ := Lookup("partition-equivocators")
	run := func() *Result {
		res, err := Run(Config{Scenario: sc, Seed: 42, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) || a.BlocksDigest == "" || a.IndicationsDigest == "" {
		t.Fatalf("same seed, different results (digest included):\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	// A different seed must still pass the invariants (the verdict is
	// seed-independent even though the trace is not).
	res, err := Run(Config{Scenario: sc, Seed: 43, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("seed 43 violated invariants:\n%s", res.Summary())
	}
	// Only the block digest can tell the seeds apart: what this scenario
	// indicates per label is the same under every schedule.
	if res.BlocksDigest == a.BlocksDigest {
		t.Fatalf("seeds 42 and 43 share block digest %s: the digest does not see the trace", res.BlocksDigest)
	}
}

// TestRunValidation covers harness-level misconfiguration.
func TestRunValidation(t *testing.T) {
	sc, _ := Lookup("crash-storm")
	if _, err := Run(Config{Scenario: sc}); err == nil {
		t.Fatal("expected error without StoreDir")
	}
	if _, err := Run(Config{Scenario: Scenario{Name: "empty"}, StoreDir: t.TempDir()}); err == nil {
		t.Fatal("expected error for empty scenario")
	}
}

// TestScenarioRegistry checks the built-ins resolve by name.
func TestScenarioRegistry(t *testing.T) {
	if len(Scenarios()) < 2 {
		t.Fatalf("expected at least two built-ins, got %d", len(Scenarios()))
	}
	for _, s := range Scenarios() {
		got, ok := Lookup(s.Name)
		if !ok || got.Name != s.Name {
			t.Fatalf("Lookup(%q) failed", s.Name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}
