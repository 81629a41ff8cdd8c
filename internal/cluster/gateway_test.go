package cluster

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"blockdag/internal/deploy"
	"blockdag/internal/protocols/brb"
)

// withGateways gives every slot a client gateway on an ephemeral loopback
// port (deploy.Config.GatewayAddr), so deterministic tests drive the real
// HTTP front door against simulated consensus: its HTTP goroutines reach
// the slot only through the pool, the broker and the counters.
func withGateways(opts Options) Options {
	opts.slot = func(_ int, cfg *deploy.Config) { cfg.GatewayAddr = "127.0.0.1:0" }
	return opts
}

// gatewayAddr is one slot's gateway address, "" when the slot is down.
func gatewayAddr(c *Cluster, slot int) string {
	if a := c.slots[slot]; a != nil {
		return a.Gateway.Addr()
	}
	return ""
}

// freshRecovery is the recovery report of a slot whose store was empty.
var freshRecovery = regexp.MustCompile(`"recovery":\{"blocks":0,"replay_ms":[0-9.e-]+,"torn_bytes":0,"duplicates":0,"own_chain":\{"held":0,"seen":0\}\}`)

// TestGatewayPerSlot drives the real HTTP front door against simulated
// consensus: submit through slot 0's gateway, run rounds until every slot
// delivers, then await and scrape through the same gateway.
func TestGatewayPerSlot(t *testing.T) {
	c, err := New(withGateways(Options{
		N:               4,
		Protocol:        brb.Protocol{},
		MempoolCapacity: 64,
		StoreDir:        t.TempDir(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)

	base := "http://" + gatewayAddr(c, 0)
	// A configured follower reports its state from the start, not only
	// once it has polled.
	resp, err := http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(status), `"follow":{"state":"idle","behind_by":0,"polls":0`) {
		t.Fatalf("status before the first poll lacks the follower's state:\n%s", status)
	}
	// So does the recovery report: nothing replayed (in however long the
	// empty store took), no own block yet.
	if !freshRecovery.Match(status) {
		t.Fatalf("status of a fresh durable slot lacks the recovery report:\n%s", status)
	}
	resp, err = http.Post(base+"/v1/submit", "application/json",
		strings.NewReader(`{"label":"http/req","data":"via gateway"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}

	delivered := func() bool {
		for _, s := range c.CorrectServers() {
			found := false
			for _, ind := range c.Indications(s) {
				if ind.Label == "http/req" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	ok, err := c.RunUntil(50, delivered)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("HTTP-submitted request never delivered everywhere")
	}

	// Every slot's gateway can await the label — the brokers observed the
	// event-loop deliveries.
	for _, s := range c.CorrectServers() {
		resp, err := http.Get("http://" + gatewayAddr(c, s) + "/v1/await/http/req?timeout=2s")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "via gateway") {
			t.Fatalf("slot %d await = %d %s", s, resp.StatusCode, body)
		}
	}

	// The own chain has grown; nothing was seen that is not held.
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	status, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	held := fmt.Sprintf(`"own_chain":{"held":%d,"seen":0}`, len(c.Servers[0].DAG().ByBuilder(0)))
	if !strings.Contains(string(status), held) {
		t.Fatalf("status after the run lacks %s:\n%s", held, status)
	}

	// The scrape shows live counters from the simulated run.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, want := range []string{"dag_blocks_built_total", "mempool_accepted_total 1"} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
	if strings.Contains(string(scrape), "dag_blocks_built_total 0\n") {
		t.Fatalf("dag counters stayed zero:\n%s", scrape)
	}
}

// TestGatewayPerSlotCrashRecovery: crashing a slot closes its gateway
// (clients see the terminal signal, not a hang); recovery opens a fresh
// one whose broker replays pre-crash indications.
func TestGatewayPerSlotCrashRecovery(t *testing.T) {
	c, err := New(withGateways(Options{
		N:               4,
		Protocol:        brb.Protocol{},
		MempoolCapacity: 64,
		StoreDir:        t.TempDir(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)

	if err := c.Servers[1].Submit("pre/crash", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	ok, err := c.RunUntil(50, func() bool {
		for _, ind := range c.Indications(1) {
			if ind.Label == "pre/crash" {
				return true
			}
		}
		return false
	})
	if err != nil || !ok {
		t.Fatalf("pre-crash delivery: ok=%v err=%v", ok, err)
	}

	oldAddr := gatewayAddr(c, 1)
	c.Crash(1)
	if gatewayAddr(c, 1) != "" {
		t.Fatal("crashed slot still advertises a gateway")
	}
	if _, err := http.Get("http://" + oldAddr + "/v1/status"); err == nil {
		t.Fatal("crashed slot's gateway still serving")
	}

	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	newAddr := gatewayAddr(c, 1)
	if newAddr == "" {
		t.Fatal("recovered slot has no gateway")
	}
	// The replayed indication is in the fresh broker's index: await
	// answers immediately.
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/await/pre/crash?timeout=2s", newAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "survives") {
		t.Fatalf("post-recovery await = %d %s", resp.StatusCode, body)
	}
}

// stopAll closes every live slot's assembly: its gateway drains, its store
// is synced and closed.
func stopAll(c *Cluster) {
	for i := range c.slots {
		_ = c.stop(i)
	}
}
