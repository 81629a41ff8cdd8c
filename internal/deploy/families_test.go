package deploy

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/gateway"
	"blockdag/internal/interpret"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
	"blockdag/internal/roster"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

var update = flag.Bool("update", false, "rewrite what the tables generate: testdata/*.golden and the family reference in docs/ARCHITECTURE.md")

type nopEndpoint struct{}

func (nopEndpoint) Deliver(types.ServerID, []byte) {}

// TestGoldenExposition renders one registry over every subsystem's collector
// — a core Metrics with row i at i+1, an empty DAG's, four chains' lag, a transport and a
// sync server that counted nothing, two signatures, a pool and a scorer with
// a known history, a gateway — and compares it with testdata/metrics.golden:
// every # HELP, # TYPE and sample line. As committed by PR 25 the file is
// what PR 24's gateway.Registry rendered of the same state.
func TestGoldenExposition(t *testing.T) {
	m := &metrics.Metrics{}
	for id := range metrics.Families {
		m.Add(metrics.ID(id), int64(id+1))
	}
	fx, err := roster.Dev(1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fx.Identity(0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tcpnet.Listen(tcpnet.Config{ListenAddr: "127.0.0.1:0", Auth: id.Auth(),
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var sigs crypto.Counters
	rost, signers, err := crypto.LocalRosterWithCounters(4, &sigs)
	if err != nil {
		t.Fatal(err)
	}
	signers[0].Sign([]byte("a"))
	signers[1].Sign([]byte("b"))
	pool := mempool.New(mempool.Options{Capacity: 2})
	_ = pool.Submit("a", []byte("1"))
	_ = pool.Submit("b", []byte("2"))
	_ = pool.Submit("c", []byte("3")) // overflow
	_ = pool.Submit("a", []byte("1")) // duplicate
	pool.Next(1)
	scores := peerscore.New()
	scores.Penalize(1, peerscore.BadSignature)
	scores.Penalize(1, peerscore.BadSignature)
	scores.Convict(dagtest.Proof(2))

	reg := metrics.NewRegistry()
	reg.Register(metrics.Families.Collector(m))
	reg.Register(dag.New(rost).Collect)
	reg.Register(interpret.CollectChainUnread(func() []int64 { return []int64{3, 0, 5, 1} }))
	reg.Register(pool.Collect)
	reg.Register(scores.Collect)
	reg.Register(tcpnet.Families.Collector(tr.Counts()))
	reg.Register(syncsvc.Families.Collector((&syncsvc.Server{}).Counts()))
	reg.Register(crypto.Families.Collector(&sigs))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	broker := node.NewIndicationBroker(0)
	defer broker.Close()
	gw, err := gateway.Serve(ln, gateway.Config{Registry: reg, Indications: broker,
		Submit: func(types.Label, []byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	var got strings.Builder
	if _, err := reg.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	golden(t, "testdata/metrics.golden", got.String())
	// And it is the tables' families, each once: nothing scraped that no
	// table declares, nothing declared that no collector samples.
	var scraped []string
	for _, line := range strings.Split(got.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			scraped = append(scraped, line)
		}
	}
	var want []string
	for _, f := range families(t) {
		want = append(want, "# TYPE "+f.Name+" "+string(f.Kind))
	}
	slices.Sort(want)
	if !slices.Equal(scraped, want) {
		t.Fatalf("scraped and declared families differ:\n%s", lineDiff(strings.Join(want, "\n"), strings.Join(scraped, "\n")))
	}
}

// golden compares got with the file at path; -update rewrites the file.
func golden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	if !*update {
		t.Fatalf("differs from %s (a declared change: go test ./internal/deploy -update):\n%s", path, lineDiff(string(want), got))
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineDiff lists the lines only one of two texts has.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}

// declared is one family and the package that counts it.
type declared struct {
	owner string
	metrics.Family
}

// tables lists every declaration table of the tree, by the package that
// counts its families: the scrape of a deployed node is these.
var tables = []struct {
	Owner string
	metrics.Table
}{
	{"gossip, interpret, core, node", metrics.Families},
	{"dag", dag.Families},
	{"interpret", interpret.Families},
	{"mempool", mempool.Families},
	{"peerscore", peerscore.Families},
	{"tcpnet", tcpnet.Families},
	{"syncsvc", syncsvc.Families},
	{"crypto", crypto.Families},
	{"gateway", gateway.Families},
}

// families lists every declared family once (a family's rows differ in
// their fixed label only), in table order; two tables declaring one name
// fail the test.
func families(t *testing.T) []declared {
	t.Helper()
	var all []declared
	for _, tab := range tables {
		for _, f := range tab.Table {
			i := slices.IndexFunc(all, func(d declared) bool { return d.Name == f.Name })
			if i < 0 {
				all = append(all, declared{tab.Owner, f})
			} else if all[i].owner != tab.Owner {
				t.Fatalf("%s is declared by %s and by %s", f.Name, all[i].owner, tab.Owner)
			}
		}
	}
	return all
}

// TestFamilies prints the declared families, one "family <name>" line each:
// what `make docs-check` and `make gateway-smoke` read instead of keeping
// lists of their own (go test -run '^TestFamilies$' -v ./internal/deploy).
func TestFamilies(t *testing.T) {
	for _, f := range families(t) {
		fmt.Println("family", f.Name)
	}
}

// TestFamilyReference keeps docs/ARCHITECTURE.md's family reference equal to
// the tables.
func TestFamilyReference(t *testing.T) {
	const path, begin, end = "../../docs/ARCHITECTURE.md", "<!-- families:begin -->\n", "<!-- families:end -->\n"
	var ref strings.Builder
	ref.WriteString("| family | type | counted by | help |\n|---|---|---|---|\n")
	for _, f := range families(t) {
		fmt.Fprintf(&ref, "| `%s` | %s | %s | %s |\n", f.Name, f.Kind, f.owner, f.Help)
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := strings.Index(string(doc), begin), strings.Index(string(doc), end)
	if i < 0 || j < i {
		t.Fatalf("%s lacks the %q … %q markers", path, begin, end)
	}
	golden(t, path, string(doc[:i+len(begin)])+ref.String()+string(doc[j:]))
}

// TestCollectorsTolerateNilSubsystems: the shells that lack a transport, a
// sync server or signature counters (the simulator; a node without a store)
// hand Registry nils, and those collect nothing.
func TestCollectorsTolerateNilSubsystems(t *testing.T) {
	var srv *syncsvc.Server
	for name, c := range map[string]metrics.Collector{
		"metrics": metrics.Families.Collector(nil),
		"tcpnet":  tcpnet.Families.Collector(nil),
		"sync":    syncsvc.Families.Collector(srv.Counts()),
		"crypto":  crypto.Families.Collector((&crypto.Roster{}).Counters()),
	} {
		if c != nil {
			t.Fatalf("collector of a nil %s subsystem != nil", name)
		}
	}
}

// keyPaths lists every object key of a JSON document as a dotted path.
func keyPaths(prefix string, v any, out *[]string) {
	if obj, ok := v.(map[string]any); ok {
		for k, child := range obj {
			*out = append(*out, prefix+k)
			keyPaths(prefix+k+".", child, out)
		}
	}
}

// TestStatusKeys compares the key set of a durable node's /v1/status with
// testdata/status_keys.golden: health, watermarks, the recovery and
// follower reports — the first poll's outcome among them — and the store's
// size: what no /metrics family samples. Each member boots once the one
// before has settled its first poll, so node 0's is a cold start. A key
// that records how a race came out is left out: follow.peer (a poll in
// flight) and follow.last_error.
func TestStatusKeys(t *testing.T) {
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*member, n)
	for i := range members {
		cfg := Config{StoreDir: t.TempDir()}
		if i == 0 {
			cfg.GatewayAddr = "127.0.0.1:0"
		}
		members[i] = listen(t, fx, i, cfg)
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
		m.firstPoll(t)
	}
	if first := members[0].Node.FollowReport().First; first.Outcome != node.FirstColdStart || first.Err != nil {
		t.Fatalf("node 0's first poll = %+v, want a cold start", first)
	}
	members[0].Node.Request("k", []byte("v"))
	waitFor(t, 20*time.Second, "delivery", func() bool { return members[0].has("k") })
	var doc any
	if err := json.Unmarshal([]byte(members[0].get(t, "/v1/status")), &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	keyPaths("", doc, &keys)
	keys = slices.DeleteFunc(keys, func(k string) bool {
		return slices.Contains([]string{"follow.peer", "follow.last_error"}, k)
	})
	slices.Sort(keys)
	golden(t, "testdata/status_keys.golden", strings.Join(keys, "\n")+"\n")
}
