package gateway_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/deploy"
	"blockdag/internal/gateway"
	"blockdag/internal/interpret"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/types"
)

// gwCluster stands up n full nodes over real TCP on loopback — the
// production assembly (package deploy) — with the client plane on node 0:
// mempool, durable store, catch-up server, and the gateway under test over
// the registry the assembly folded them all into.
type gwCluster struct {
	nodes []*node.Node
	base  string
}

func newGWCluster(t *testing.T, n int, gwCfg gateway.Config) *gwCluster {
	t.Helper()
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	c := &gwCluster{}
	members := make([]*deploy.Assembly, n)
	for i := range members {
		cfg := deploy.Config{ListenAddr: "127.0.0.1:0", Protocol: brb.Protocol{}}
		if cfg.Identity, err = fx.Identity(i); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cfg.StoreDir = t.TempDir() // MempoolCapacity 0: the pool's default
		}
		if members[i], err = deploy.Listen(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = members[i].Close() })
	}
	for _, m := range members {
		if err := m.Boot(func(id types.ServerID) string { return members[id].Addr() }); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, m.Node)
	}

	gwCfg.Node = c.nodes[0]
	gwCfg.Registry = members[0].Registry
	gw, err := gateway.Listen("127.0.0.1:0", gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	c.base = "http://" + gw.Addr()
	return c
}

// TestGatewayEndToEndOverTCP is the acceptance path: an HTTP client
// submits through one node of a real TCP cluster, awaits the indication,
// reads status, and scrapes live counters from four subsystems.
func TestGatewayEndToEndOverTCP(t *testing.T) {
	c := newGWCluster(t, 4, gateway.Config{})

	resp := postJSON(t, c.base+"/v1/submit", `{"label":"gw/hello","data":"over http"}`, nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	// Every node has a mempool, whatever capacity it was configured with: a
	// client's retry is answered as the duplicate it is.
	resp = postJSON(t, c.base+"/v1/submit", `{"label":"gw/hello","data":"over http"}`, nil)
	if body := drainClose(t, resp); resp.StatusCode != http.StatusConflict {
		t.Fatalf("repeated submit = %d %s, want 409", resp.StatusCode, body)
	}

	resp = get(t, c.base+"/v1/await/gw/hello?timeout=10s", nil)
	body = drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("await = %d %s", resp.StatusCode, body)
	}
	var ind struct {
		Label string `json:"label"`
		Data  string `json:"data"`
	}
	if err := json.Unmarshal([]byte(body), &ind); err != nil {
		t.Fatal(err)
	}
	if ind.Label != "gw/hello" || ind.Data != "over http" {
		t.Fatalf("await body = %+v", ind)
	}

	resp = get(t, c.base+"/v1/status", nil)
	body = drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d %s", resp.StatusCode, body)
	}
	var st struct {
		Healthy  bool `json:"healthy"`
		Recovery *struct {
			Blocks   *int `json:"blocks"`
			OwnChain struct {
				Held, Seen uint64
			} `json:"own_chain"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Healthy {
		t.Fatalf("status body = %s", body)
	}

	resp = get(t, c.base+"/metrics", nil)
	scrape := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	// Every declared family, from every subsystem's table plus the
	// gateway's own, with its declared type — but for the scorer's, which
	// has a sample per peer with a record and no peer has one here, and the
	// signature counters, which the dev fixture's identities do not install.
	for _, tab := range []metrics.Table{metrics.Families, dag.Families, interpret.Families, mempool.Families, tcpnet.Families, syncsvc.Families, gateway.Families} {
		for _, f := range tab {
			if !strings.Contains(scrape, "# TYPE "+f.Name+" "+string(f.Kind)+"\n"+f.Name) {
				t.Fatalf("scrape missing %s %s:\n%s", f.Kind, f.Name, scrape)
			}
		}
	}
	sample := func(name string) float64 {
		v, ok := dagtest.Sample(scrape, name)
		if !ok {
			t.Fatalf("scrape lacks %s:\n%s", name, scrape)
		}
		return v
	}
	// The submit was admitted once, and served with a 2xx.
	if got := sample("mempool_accepted_total"); got != 1 {
		t.Fatalf("mempool_accepted_total = %v, want 1", got)
	}
	sample(`gateway_responses_total{class="2xx"}`)
	// The dag counters must be live, not zero: blocks were built and
	// interpreted to deliver the indication above.
	built := sample("dag_blocks_built_total")
	if built == 0 {
		t.Fatal("dag_blocks_built_total stayed zero")
	}
	// DAG shape: every block after the genesis cites at least its parent,
	// and the tip gauge is reported — with the two queues behind it, which
	// a cluster that delivers over loopback has no reason to fill.
	if refs := sample("dag_own_block_refs_total"); refs < built-1 {
		t.Fatalf("%v references cited by %v own blocks", refs, built)
	}
	sample("dag_tips")
	if p, m := sample("gossip_pending_blocks"), sample("gossip_missing_refs"); p < 0 || m < 0 {
		t.Fatalf("pending blocks %v, missing refs %v", p, m)
	}
	// So must the interpreter's gauges: the awaited indication means this
	// node's own chain finished the instance — a tombstone until every
	// chain has, a retired label from then on — and there is one lag
	// sample per builder. (That the out-buffer gauges fall back again is
	// deploy's TestInterpreterGaugesFollowTheLoad.)
	if sample("interpret_instances_retired")+sample("interpret_labels_retired") == 0 {
		t.Fatalf("no tombstone and no retired label after a delivery:\n%s", scrape)
	}
	for b := range 4 {
		sample(fmt.Sprintf(`interpret_chain_unread_blocks{builder="%d"}`, b))
	}

	// Recovery: a first start replays nothing, and the own chain the node
	// holds is the one it built — nothing seen that is not held. The status
	// was read before the scrape, so its own chain cannot be ahead of it.
	if r := st.Recovery; r == nil || r.Blocks == nil || *r.Blocks != 0 ||
		r.OwnChain.Held == 0 || float64(r.OwnChain.Held) > built || r.OwnChain.Seen != 0 {
		t.Fatalf("status body lacks the recovery report or its own-chain position: %s", body)
	}
}

// TestNodeStopDrainsSlowAwait is the graceful-drain regression: a client
// blocked in a long-poll when the node stops must get a clean terminal
// HTTP response (503, node stopping), not a connection reset.
func TestNodeStopDrainsSlowAwait(t *testing.T) {
	c := newGWCluster(t, 1, gateway.Config{})

	type result struct {
		code int
		body string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(c.base + "/v1/await/never/arrives?timeout=20s")
		if err != nil {
			done <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		done <- result{code: resp.StatusCode, body: string(b), err: err}
	}()

	// Let the long-poll reach the gateway, then stop the node under it.
	time.Sleep(100 * time.Millisecond)
	c.nodes[0].Stop()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("slow await saw a transport error, not a clean response: %v", r.err)
		}
		if r.code != http.StatusServiceUnavailable || !strings.Contains(r.body, "node stopping") {
			t.Fatalf("slow await = %d %q, want 503 node stopping", r.code, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow await never returned after node.Stop")
	}

	// The drain hook also closed the listener: new connections are refused.
	if _, err := http.Get(c.base + "/v1/status"); err == nil {
		t.Fatal("gateway still accepting connections after node.Stop")
	}
}
