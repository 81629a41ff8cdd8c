package deploy

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/gossip"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// member is one node of a loopback test cluster: its assembly and what it
// has been indicated.
type member struct {
	*Assembly

	mu        sync.Mutex
	delivered map[types.Label][]byte
}

// listen brings member i of fx to its Listen phase on loopback per cfg,
// with the delivery log — and cfg.State, when set, the way examples/tcp
// feeds it: one entry per label, slot = number of labels — as indication
// sink.
func listen(t *testing.T, fx *roster.Fixture, i int, cfg Config) *member {
	t.Helper()
	identity, err := fx.Identity(i)
	if err != nil {
		t.Fatal(err)
	}
	m := &member{delivered: make(map[types.Label][]byte)}
	cfg.Identity, cfg.Protocol = identity, brb.Protocol{}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	machine := cfg.State
	cfg.OnIndication = func(label types.Label, value []byte) {
		m.mu.Lock()
		m.delivered[label] = value
		m.mu.Unlock()
		if machine != nil {
			machine.Tree().Put([]byte(label), value)
			machine.AdvanceTo(uint64(machine.Tree().Len()))
		}
	}
	if m.Assembly, err = Listen(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// sealed is the (slot, root) of the member's store's head — the snapshot it
// serves — the zero commit before its first seal.
func (m *member) sealed() state.Commit {
	if ck := m.Store.Head().State; ck != nil {
		return state.Commit{Slot: ck.Slot, Root: ck.Root}
	}
	return state.Commit{}
}

func (m *member) has(label types.Label) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.delivered[label]
	return ok
}

// get returns the body of a 200 answer of the member's gateway.
func (m *member) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + m.Gateway.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// firstPoll waits for the member's first poll to settle and returns it.
func (m *member) firstPoll(t *testing.T) node.FirstPoll {
	t.Helper()
	waitFor(t, 20*time.Second, "the first poll to settle", func() bool {
		return m.Node.FollowReport().First.Outcome != node.FirstPending
	})
	return m.Node.FollowReport().First
}

// addrs is Boot's addrOf for a cluster in one process: member id's bound
// address, read when Boot dials — a replaced member's is its new one.
func addrs(members []*member) func(types.ServerID) string {
	return func(id types.ServerID) string { return members[id].Addr() }
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWipedNodeRejoinsBySnapshotOverItsOwnListener is the acceptance path
// of the snapshot tier over real TCP: a 4-node durable cluster seals Merkle
// state commitments and prunes history; one node is stopped and its store
// wiped; its replacement binds the same address, and from that one
// listener fetches a roster-certified snapshot, installs it into its open
// store, pulls the delta from the snapshot's anchor, reconverges with live
// traffic and commits the same root as everyone else.
func TestWipedNodeRejoinsBySnapshotOverItsOwnListener(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))
	}
	durable := func(i int) Config {
		return Config{StoreDir: dirs[i], State: state.NewMachine()}
	}
	members := make([]*member, n)
	for i := range members {
		members[i] = listen(t, fx, i, durable(i))
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
	}

	// The workload: one broadcast per member.
	label := func(i int) types.Label { return types.Label(fmt.Sprintf("greet/s%d", i)) }
	value := func(i int) []byte { return []byte(fmt.Sprintf("hello from s%d", i)) }
	for i, m := range members {
		m.Node.Request(label(i), value(i))
	}
	waitFor(t, 20*time.Second, "all deliveries", func() bool {
		for _, m := range members {
			for i := 0; i < n; i++ {
				if !m.has(label(i)) {
					return false
				}
			}
		}
		return true
	})
	// Every survivor must have sealed the quiescent state (slot n) and
	// pruned history below it before the wiped node tries to join.
	waitFor(t, 20*time.Second, "peers sealed and pruned", func() bool {
		for _, m := range members[1:] {
			if m.sealed().Slot != n || len(m.Store.Head().Horizon) == 0 {
				return false
			}
		}
		return true
	})
	want := members[1].sealed()

	// Kill node 0 and wipe its store: its history below the survivors'
	// horizons now exists nowhere. The replacement rebinds the same address
	// — in a deployment the node's stable roster address, which the
	// survivors' senders keep redialing.
	addr0 := members[0].Addr()
	if err := members[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dirs[0]); err != nil {
		t.Fatal(err)
	}
	servedBefore := make([]int64, n)
	for i, m := range members[1:] {
		servedBefore[i+1] = m.Transport.Counts().Get(tcpnet.CallsServed)
	}

	cfg := durable(0)
	cfg.ListenAddr, cfg.SnapshotJoin = addr0, true
	rn := listen(t, fx, 0, cfg)
	members[0] = rn
	if err := rn.Boot(addrs(members)); err != nil {
		t.Fatal(err)
	}
	joined := rn.Joined
	if joined == nil {
		t.Fatal("no snapshot join on an empty store")
	}
	if got := joined.Head.State; got.Slot != want.Slot || got.Root != want.Root {
		t.Fatalf("joined commit (%d, %x), want (%d, %x)", got.Slot, got.Root[:8], want.Slot, want.Root[:8])
	}
	verifier, err := fx.File.Roster()
	if err != nil {
		t.Fatal(err)
	}
	if !state.CertifiedBy(joined.Cert, verifier) {
		t.Fatal("fetched certificate does not certify the commit")
	}
	// The open store took the install: certified checkpoint, base
	// stand-ins, a horizon.
	head := rn.Store.Head()
	if ckpt := head.State; ckpt == nil || ckpt.Root != want.Root {
		t.Fatalf("installed store checkpoint = %+v, want root %x", ckpt, want.Root[:8])
	}
	if len(head.Base) == 0 || len(head.Horizon) == 0 {
		t.Fatalf("installed store has %d base stand-ins, horizon %v", len(head.Base), head.Horizon)
	}
	// The runtime restored the machine from it (and serves it on), without
	// any indication: the history that produced it is gone.
	if got := rn.sealed(); got != want {
		t.Fatalf("rejoined node serves %+v, want the installed commit", got)
	}
	tree, err := state.Import(want.Root, head.State.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if present, vh, err := tree.Prove([]byte(label(i))).Verify(want.Root, []byte(label(i))); err != nil || !present || vh != sha256.Sum256(value(i)) {
			t.Fatalf("restored state missing %s (present %v, err %v)", label(i), present, err)
		}
	}
	// The delta came anchor-first: the anchor served the snapshot's meta,
	// its chunk stream and a pull, all over the replacement's one transport.
	if first := rn.firstPoll(t); first.Outcome != node.FirstCaughtUp || first.Peer != joined.Anchor {
		t.Fatalf("first poll after the join = %+v, want a clean stream from the anchor s%d", first, joined.Anchor)
	}
	if got := members[joined.Anchor].Transport.Counts().Get(tcpnet.CallsServed) - servedBefore[joined.Anchor]; got < 3 {
		t.Fatalf("anchor s%d served %d calls since the wipe, want meta + chunks + pull", joined.Anchor, got)
	}

	// Live reconvergence: a fresh broadcast submitted at the rejoined node
	// must deliver everywhere, and every node — the rejoined one included —
	// must then seal the same advanced root.
	rn.Node.Request("post/rejoin", []byte("back from the dead"))
	waitFor(t, 20*time.Second, "post-rejoin delivery", func() bool {
		for _, m := range members {
			if !m.has("post/rejoin") {
				return false
			}
		}
		return true
	})
	waitFor(t, 20*time.Second, "roots converge after rejoin", func() bool {
		for _, m := range members {
			if got := m.sealed(); got.Slot != n+1 || got != members[0].sealed() {
				return false
			}
		}
		return true
	})
	for i, m := range members {
		if err := m.Node.Err(); err != nil {
			t.Fatalf("node %d unhealthy after rejoin: %v", i, err)
		}
	}

	// Nothing below the installed horizon was ever journaled: the store
	// holds the delta and what came after, in WAL segments behind the
	// installed snapshot.
	if err := rn.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := store.Open(dirs[0], store.Options{Roster: verifier, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ro.Close() }()
	blocks := ro.Blocks()
	if len(blocks) == 0 {
		t.Fatal("rejoined store journaled no block")
	}
	for _, b := range blocks {
		if b.Seq < head.Horizon[b.Builder] {
			t.Fatalf("rejoined store holds pruned history: s%d seq %d < horizon %d", b.Builder, b.Seq, head.Horizon[b.Builder])
		}
	}
}

// TestFreshClusterFirstPollsColdStartOrCatchUp: four durable members with
// empty stores boot one after another, each once the one before has
// settled its first poll. The first finds no peer serving yet: a cold
// start, not a failure — a refusal by a peer that is not up is no error.
// Each later one catches up from s0, the first peer it asks.
func TestFreshClusterFirstPollsColdStartOrCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*member, n)
	for i := range members {
		members[i] = listen(t, fx, i, Config{StoreDir: t.TempDir()})
	}
	for i, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
		want := node.FirstCaughtUp
		if i == 0 {
			want = node.FirstColdStart
		}
		if first := m.firstPoll(t); first.Outcome != want || first.Peer != 0 || first.Err != nil {
			t.Errorf("s%d first poll = %+v, want %s, no error", i, first, want)
		}
	}
}

// TestInterpreterGaugesFollowTheLoad: what the interpreter holds follows the
// load and names the replica that is behind, as seen from outside. On a
// 4-node durable cluster, /metrics of node 0 shows interpret_out_messages_held
// rise with a burst of broadcasts and fall back to nothing once every chain
// has read them, the delivered labels retired; with node 3 stopped,
// interpret_chain_unread_blocks{builder="3"} climbs and what the others
// broadcast meanwhile stays held — s3's chain has not read it; after its
// restart over the same directory the gauge returns to a round's worth and
// the held buffers go.
func TestInterpreterGaugesFollowTheLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n, burst = 4, 24
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, n)
	members := make([]*member, n)
	for i := range members {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))
		cfg := Config{StoreDir: dirs[i]}
		if i == 0 {
			cfg.GatewayAddr = "127.0.0.1:0"
		}
		members[i] = listen(t, fx, i, cfg)
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
	}
	// gauge reads one sample of node 0's scrape.
	gauge := func(sample string) int {
		body := members[0].get(t, "/metrics")
		v, ok := dagtest.Sample(body, sample)
		if !ok {
			t.Fatalf("/metrics lacks %s:\n%s", sample, body)
		}
		return int(v)
	}
	const held, unread3 = "interpret_out_messages_held", `interpret_chain_unread_blocks{builder="3"}`
	broadcast := func(wave string, count int, among []*member) (peak int) {
		for i := 0; i < count; i++ {
			among[i%len(among)].Node.Request(types.Label(fmt.Sprintf("%s/%d", wave, i)), []byte(wave))
		}
		waitFor(t, 20*time.Second, wave+" deliveries", func() bool {
			peak = max(peak, gauge(held))
			for _, m := range among {
				for i := 0; i < count; i++ {
					if !m.has(types.Label(fmt.Sprintf("%s/%d", wave, i))) {
						return false
					}
				}
			}
			return true
		})
		return peak
	}

	// A burst, and back.
	if peak := broadcast("burst", burst, members); peak < n {
		t.Fatalf("%s peaked at %d during a burst of %d broadcasts", held, peak, burst)
	}
	waitFor(t, 20*time.Second, "the burst's out-buffers to be released", func() bool {
		return gauge(held) == 0 && gauge("interpret_labels_retired") == burst && gauge("interpret_instances_retired") == 0
	})
	if got := gauge(unread3); got > 3*n {
		t.Fatalf("%s = %d with every node running", unread3, got)
	}

	// Node 3 stops: its chain falls behind, and what is broadcast meanwhile
	// is held for it. The live nodes build while a wave runs, not after, so
	// waves go out until the lag passes 10n, well clear of the round's
	// worth a running chain shows.
	addr3 := members[3].Addr()
	if err := members[3].Close(); err != nil {
		t.Fatal(err)
	}
	waves := 0
	for ; gauge(unread3) <= 10*n; waves++ {
		if waves == 10 {
			t.Fatalf("%s = %d after %d waves of %d broadcasts with the member stopped", unread3, gauge(unread3), waves, n)
		}
		broadcast(fmt.Sprintf("meanwhile%d", waves), n, members[:3])
	}
	t.Logf("%s = %d after %d waves of %d broadcasts", unread3, gauge(unread3), waves, n)
	heldFor3 := gauge(held)
	if heldFor3 < 2*n {
		t.Fatalf("%s = %d with a member stopped and %d broadcasts it has not read", held, heldFor3, waves*n)
	}
	// One lag sample per builder, the running ones' a round's worth.
	for b := range n - 1 {
		if got := gauge(fmt.Sprintf(`interpret_chain_unread_blocks{builder="%d"}`, b)); got > 3*n {
			t.Fatalf("builder %d's chain has %d blocks unread while running", b, got)
		}
	}

	// It restarts over its directory and catches up: its chain reads the
	// backlog, the lag is gone and so is what was held for it.
	members[3] = listen(t, fx, 3, Config{StoreDir: dirs[3], ListenAddr: addr3})
	if err := members[3].Boot(addrs(members)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "the lag and the held buffers to go", func() bool {
		return gauge(unread3) <= 3*n && gauge(held) == 0 && gauge("interpret_labels_retired") == burst+waves*n
	})
	for i, m := range members {
		if err := m.Node.Err(); err != nil {
			t.Fatalf("node %d unhealthy: %v", i, err)
		}
	}
}

// TestFollowerConvergesALaggardOneCallPerPoll: the follower's poll is the
// delta pull, one call on the sync channel whether or not it finds anything.
// Member 3 restarts on an address nobody redials — an asymmetric partition:
// it reaches its peers (its gossip, its sync calls), they do not reach it,
// and only its follower brings it their blocks. It delivers what they
// broadcast meanwhile, and its transport opened one call per poll, the
// first poll's included — not two for a poll that found a lag. Each wave
// gives the laggard a request of its own too: silence counts only while a
// node has a reason to build, and nothing its peers send reaches it.
func TestFollowerConvergesALaggardOneCallPerPoll(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, n)
	members := make([]*member, n)
	for i := range members {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))
		members[i] = listen(t, fx, i, Config{StoreDir: dirs[i]})
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
	}
	if err := members[3].Close(); err != nil {
		t.Fatal(err)
	}
	laggard := listen(t, fx, 3, Config{StoreDir: dirs[3]})
	members[3] = laggard
	if err := laggard.Boot(addrs(members)); err != nil {
		t.Fatal(err)
	}
	if first := laggard.firstPoll(t); first.Outcome != node.FirstCaughtUp || first.Peer != 0 {
		t.Fatalf("first poll = %+v, want one clean stream from the first peer", first)
	}

	// Two waves, the second submitted once the first is delivered: at
	// least two polls find a lag.
	for wave := 0; wave < 2; wave++ {
		label := func(i int) types.Label { return types.Label(fmt.Sprintf("meanwhile/%d/%d", wave, i)) }
		for i := 0; i < n; i++ {
			members[i%3].Node.Request(label(i), []byte("unheard by gossip"))
		}
		laggard.Node.Request(types.Label(fmt.Sprintf("own/%d", wave)), []byte("its reason"))
		waitFor(t, 30*time.Second, "the laggard to deliver what only its follower can bring it", func() bool {
			for i := 0; i < n; i++ {
				if !laggard.has(label(i)) {
					return false
				}
			}
			return true
		})
	}
	laggard.Node.Stop()
	rep := laggard.Node.FollowReport()
	if rep.Deltas < 2 || rep.Blocks == 0 || rep.Errors != 0 || rep.Throttled != 0 {
		t.Fatalf("follow report %+v, want pulls that carried blocks and none that failed", rep)
	}
	if opened := laggard.Transport.Counts().Get(tcpnet.CallsOpened); opened != int64(rep.Polls) {
		t.Fatalf("%d sync calls opened for %d polls (%d of which found a lag), want one each",
			opened, rep.Polls, rep.Deltas)
	}
	if err := laggard.Node.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthyNodeNeverPulls: the follower pulls on evidence of lag, and a
// healthy cluster shows none — every node's blocks arrive every few
// milliseconds and FWD fills a gap at once. Four durable nodes run for 3 s
// with traffic, then 1 s idle — no node builds, so no block arrives, and
// silence counts only while a node has a reason to build — then one more
// request; once its first poll has settled no node opens a sync call, and
// no follower polls.
func TestHealthyNodeNeverPulls(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*member, n)
	for i := range members {
		members[i] = listen(t, fx, i, Config{StoreDir: filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))})
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
	}
	booted, polled := make([]int64, n), make([]int, n)
	for i, m := range members {
		m.firstPoll(t)
		booted[i], polled[i] = m.Transport.Counts().Get(tcpnet.CallsOpened), m.Node.FollowReport().Polls
	}
	for wave := 0; wave < 30; wave++ {
		label := types.Label(fmt.Sprintf("healthy/%d", wave))
		members[wave%n].Node.Request(label, []byte("v"))
		time.Sleep(100 * time.Millisecond)
	}
	delivered := func(label types.Label) func() bool {
		return func() bool {
			for _, m := range members {
				if !m.has(label) {
					return false
				}
			}
			return true
		}
	}
	waitFor(t, 10*time.Second, "every node to deliver the last wave", delivered("healthy/29"))
	time.Sleep(time.Second) // idle: many times gossip.ResendAfter plus a period
	members[0].Node.Request("healthy/after-idle", []byte("v"))
	waitFor(t, 10*time.Second, "every node to deliver the request after the idle phase", delivered("healthy/after-idle"))
	for i, m := range members {
		m.Node.Stop()
		if opened := m.Transport.Counts().Get(tcpnet.CallsOpened); opened != booted[i] {
			t.Errorf("s%d opened %d sync calls after its first poll", i, opened-booted[i])
		}
		if rep := m.Node.FollowReport(); rep.Polls != polled[i] {
			t.Errorf("s%d follower polled on a healthy cluster: %+v", i, rep)
		}
		if err := m.Node.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// doneSink is a transport.CallSink that keeps how its call ended.
type doneSink chan error

func (doneSink) OnFrame([]byte)     {}
func (d doneSink) OnDone(err error) { d <- err }

// TestEquivocatorIsBannedOverTCPAndAcrossRestart: deployed nodes run the
// accountability layer. Three durable nodes on loopback and a fourth roster
// member driven by hand, which shows half the cluster one genesis block and
// the other half another. Every deployed node comes to hold both forks,
// convicts and bans it — visible on /metrics; the banned
// member, which still holds its key and still passes the handshake, is
// refused after it; and a node restarted over its directory finds the proof
// in the store's head and holds the ban when Boot returns.
func TestEquivocatorIsBannedOverTCPAndAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n, byz = 4, 3
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, byz)
	members := make([]*member, byz)
	for i := range members {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("s%d", i))
		cfg := Config{StoreDir: dirs[i]}
		if i == 0 {
			cfg.GatewayAddr = "127.0.0.1:0"
		}
		members[i] = listen(t, fx, i, cfg)
	}
	evil, err := fx.Identity(byz)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tcpnet.Listen(tcpnet.Config{
		Self:       byz,
		ListenAddr: "127.0.0.1:0",
		Auth:       evil.Auth(),
		Endpoints:  map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	addrOf := func(id types.ServerID) string {
		if id == byz {
			return tr.Addr()
		}
		return members[id].Addr()
	}
	for i, m := range members {
		if err := m.Boot(addrOf); err != nil {
			t.Fatal(err)
		}
		if err := tr.Connect(types.ServerID(i), m.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	// The equivocation: two signed blocks for slot (s3, 0), each shown to a
	// different part of the cluster. The correct nodes' next blocks cite the
	// fork they hold, and FWD brings everyone the other one.
	fork := func(data string, to ...types.ServerID) {
		b := block.New(byz, 0, nil, []block.Request{{Label: "split", Data: []byte(data)}})
		if err := b.Seal(evil.Signer); err != nil {
			t.Fatal(err)
		}
		for _, id := range to {
			tr.Send(id, transport.ChanGossip, gossip.EncodeBlockMsg(b))
		}
	}
	fork("a", 0, 1)
	fork("b", 2)
	waitFor(t, 20*time.Second, "every deployed node to ban the equivocator", func() bool {
		for _, m := range members {
			if !m.Node.Server().Scores().Banned(byz) {
				return false
			}
		}
		return true
	})

	// The scrape shows it: the ban, counted once.
	scrape := members[0].get(t, "/metrics")
	for _, sample := range []string{`peerscore_banned{peer="3"}`, "dag_peers_banned_total"} {
		if v, ok := dagtest.Sample(scrape, sample); !ok || v != 1 {
			t.Fatalf("/metrics %s = %v (present %v), want 1:\n%s", sample, v, ok, scrape)
		}
	}

	// The ban over TCP: s3 proves who it is, and is refused for it.
	refused := members[0].Transport.Counts().Get(tcpnet.BanRejections)
	done := make(doneSink, 1)
	tr.Call(0, transport.ChanSync, syncsvc.EncodeRequest(nil), done)
	if err := <-done; err == nil || !strings.Contains(err.Error(), transport.ErrUnreachable.Error()) {
		t.Fatalf("banned member's call ended with %v, want the listener's %q", err, transport.ErrUnreachable)
	}
	if got := members[0].Transport.Counts().Get(tcpnet.BanRejections); got <= refused {
		t.Fatalf("ban rejections stayed at %d across the banned member's call", got)
	}
	if got := members[0].Transport.Counts().Get(tcpnet.AuthRejections); got != 0 {
		t.Fatalf("%d handshakes rejected; the banned member holds its key and must pass", got)
	}

	// A restart: the conviction was journaled beside the blocks, and comes
	// back with them — and so does a label indicated before it, which the
	// restarted node's gateway answers an await for.
	members[0].Node.Request("pre/restart", []byte("kept"))
	waitFor(t, 20*time.Second, "the pre-restart label everywhere", func() bool {
		for _, m := range members {
			if !m.has("pre/restart") {
				return false
			}
		}
		return true
	})
	for i, m := range members {
		if err := m.Node.Err(); err != nil {
			t.Fatalf("node %d unhealthy: %v", i, err)
		}
	}
	if err := members[1].Close(); err != nil {
		t.Fatal(err)
	}
	rn := listen(t, fx, 1, Config{StoreDir: dirs[1], GatewayAddr: "127.0.0.1:0"})
	if proofs := rn.Store.Evidence(); len(proofs) != 1 || proofs[0].Equivocator() != byz {
		t.Fatalf("reopened store holds %d proofs, want the one against s%d", len(proofs), byz)
	}
	members[1] = rn
	// The listener is up and the runtime is not: the ban already holds.
	if !rn.scores.Banned(byz) {
		t.Fatal("the listener serves the convicted member until Boot")
	}
	if err := rn.Boot(addrOf); err != nil {
		t.Fatal(err)
	}
	if !rn.Node.Server().Scores().Banned(byz) || len(rn.Node.Server().Scores().Proofs()) != 1 {
		t.Fatal("the ban did not survive the restart")
	}
	// Boot opens the gateway before the node starts, so it claims the replay
	// index while that holds what the store replayed; the claim outlasts the
	// node's later indications.
	await := func() {
		t.Helper()
		if body := rn.get(t, "/v1/await/pre/restart?timeout=5s"); !strings.Contains(body, "kept") {
			t.Fatalf("await of a label indicated before the restart answered %s", body)
		}
	}
	await()
	members[0].Node.Request("post/restart", []byte("later"))
	waitFor(t, 20*time.Second, "the post-restart label at the restarted node", func() bool { return rn.has("post/restart") })
	await()
}

// TestOneScorerPerNode: the transport's ban gates, the sync server's
// throttle signal and the core server read and write one scorer, made in
// Listen — a verdict reached in gossip closes the sockets too.
func TestOneScorerPerNode(t *testing.T) {
	fx, err := roster.Dev(2)
	if err != nil {
		t.Fatal(err)
	}
	m := listen(t, fx, 0, Config{StoreDir: t.TempDir()})
	if err := m.Boot(func(types.ServerID) string { return "127.0.0.1:1" }); err != nil {
		t.Fatal(err)
	}
	scores := m.Node.Server().Scores()
	if scores == nil || m.syncSrv.Scores != scores {
		t.Fatalf("sync server scores into %p, core server into %p", m.syncSrv.Scores, scores)
	}
	// The transport keeps its config to itself: ask it by what it does.
	scores.Convict(dagtest.Proof(1))
	m.Transport.Send(1, transport.ChanGossip, []byte("x"))
	if got := m.Transport.Counts().Get(tcpnet.BanRejections); got != 1 {
		t.Fatalf("transport refused %d sends to a peer the core server's scorer bans, want 1", got)
	}
}

// TestFailedPhasesReleaseEverything: whichever step of Listen or Boot
// fails, the listen port is free and the store is closed when the error
// returns, and Close after it is a no-op.
func TestFailedPhasesReleaseEverything(t *testing.T) {
	fx, err := roster.Dev(2)
	if err != nil {
		t.Fatal(err)
	}
	freePort := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	// A journal the live DAG refuses: a chain without its first block.
	orphaned := t.TempDir()
	{
		id, err := fx.Identity(0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(orphaned, store.Options{Roster: id.Roster})
		if err != nil {
			t.Fatal(err)
		}
		genesis := block.New(0, 0, nil, nil)
		child := block.New(0, 1, []block.Ref{genesis.Ref()}, nil)
		if err := child.Seal(id.Signer); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(child); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "0000000000000001.snap"), []byte("not a snapshot segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	peerAddr := func(types.ServerID) string { return taken.Addr().String() }

	cases := []struct {
		name   string
		cfg    Config
		addrOf func(types.ServerID) string
		listen bool // the failure is Listen's
	}{
		{name: "corrupt store dir", cfg: Config{StoreDir: corrupt}, listen: true},
		{name: "listen port taken", cfg: Config{StoreDir: t.TempDir(), ListenAddr: taken.Addr().String()}, listen: true},
		{name: "peer without an address", cfg: Config{StoreDir: t.TempDir()}, addrOf: func(types.ServerID) string { return "" }},
		{name: "node.New refuses the log", cfg: Config{StoreDir: orphaned}, addrOf: peerAddr},
		{name: "gateway port taken", cfg: Config{StoreDir: t.TempDir(), GatewayAddr: taken.Addr().String()}, addrOf: peerAddr},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.ListenAddr == "" {
				cfg.ListenAddr = freePort()
			}
			id, err := fx.Identity(0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Identity, cfg.Protocol = id, brb.Protocol{}
			a, err := Listen(cfg)
			if tc.listen != (err != nil) {
				t.Fatalf("Listen: %v", err)
			}
			if err == nil {
				if err := a.Boot(tc.addrOf); err == nil {
					t.Fatal("Boot succeeded")
				}
				if err := a.Store.Append(block.New(0, 0, nil, nil)); err == nil {
					t.Fatal("store still open after a failed Boot")
				}
				if err := a.Close(); err != nil {
					t.Fatalf("Close after a failed Boot: %v", err)
				}
				_ = a.Close()
			}
			if cfg.ListenAddr != taken.Addr().String() {
				ln, err := net.Listen("tcp", cfg.ListenAddr)
				if err != nil {
					t.Fatalf("listen port still held: %v", err)
				}
				_ = ln.Close()
			}
			if cfg.StoreDir != corrupt {
				st, err := store.Open(cfg.StoreDir, store.Options{Roster: id.Roster})
				if err != nil {
					t.Fatalf("store not reopenable: %v", err)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestAnchorFirst(t *testing.T) {
	peers := []types.ServerID{0, 1, 3}
	if got := anchorFirst(peers, 3); !slices.Equal(got, []types.ServerID{3, 0, 1}) {
		t.Fatalf("anchorFirst = %v, want the anchor, then the rest in order", got)
	}
	if !slices.Equal(peers, []types.ServerID{0, 1, 3}) {
		t.Fatalf("anchorFirst reordered its argument: %v", peers)
	}
}
