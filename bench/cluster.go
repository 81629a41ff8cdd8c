package bench

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/gateway"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// indications is one node incarnation's observed (label → value) map,
// fed from core.Config.OnIndication on the loop goroutine.
type indications struct {
	mu     sync.Mutex
	values map[string]string
	// repeats counts indications of a label already indicated; conflict
	// latches a label indicated with two different values.
	repeats  int
	conflict string
}

func newIndications() *indications { return &indications{values: make(map[string]string)} }

func (in *indications) observe(label types.Label, value []byte) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if prev, seen := in.values[string(label)]; seen {
		in.repeats++
		if prev != string(value) && in.conflict == "" {
			in.conflict = string(label)
		}
		return
	}
	in.values[string(label)] = string(value)
}

func (in *indications) len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.values)
}

// member is one running server: the production wiring of examples/tcp —
// authenticated tcpnet, interval-fsync store, sync service, core.Server
// with zero-value knobs, node runtime — with the benchmark's taps on the
// transport seam.
type member struct {
	identity *roster.Identity
	dir      string
	addr     string

	tr     *tcpnet.Transport
	st     *store.Store
	nd     *node.Node
	pool   *mempool.Pool
	gossip *transport.LateBound
	// ndRef late-binds the runtime for the sync service's watermark
	// source: the listener exists before the node does.
	ndRef atomic.Pointer[node.Node]
	seen  *indications
	// opened and built are what store.Open and node.New last took.
	opened, built time.Duration
}

// Cluster is n members on loopback TCP in this process, with the client
// gateway on member 0.
type Cluster struct {
	wl      Workload
	fx      *roster.Fixture
	members []*member
	gw      *gateway.Gateway
	tap     *tap
	// phase0 anchors every member's block-timer phase; see start.
	phase0 time.Time
}

// StartCluster brings the whole cluster up under dir (one store
// directory per member) and returns once every runtime is started and the
// gateway is listening.
func StartCluster(wl Workload, dir string, tp *tap) (*Cluster, error) {
	fx, err := roster.Dev(wl.N)
	if err != nil {
		return nil, err
	}
	c := &Cluster{wl: wl, fx: fx, tap: tp, members: make([]*member, wl.N)}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	// Bind every listener first, then the full mesh, then the runtimes:
	// a booting node's catch-up call finds every peer's sync handler up.
	for i := range c.members {
		identity, err := fx.Identity(i)
		if err != nil {
			return nil, err
		}
		m := &member{identity: identity, dir: filepath.Join(dir, fmt.Sprintf("s%d", i)), addr: "127.0.0.1:0"}
		c.members[i] = m
		if err := c.listen(m); err != nil {
			return nil, err
		}
		m.addr = m.tr.Addr()
	}
	for _, m := range c.members {
		if err := c.connect(m); err != nil {
			return nil, err
		}
	}
	for _, m := range c.members {
		if err := c.build(m, 0); err != nil {
			return nil, err
		}
	}
	c.phase0 = time.Now()
	for _, m := range c.members {
		if err := c.start(m); err != nil {
			return nil, err
		}
	}
	gw, err := gateway.Listen("127.0.0.1:0", gateway.Config{Node: c.members[0].nd})
	if err != nil {
		return nil, err
	}
	c.gw = gw
	ok = true
	return c, nil
}

// listen opens m's store and binds its transport on m.addr.
func (c *Cluster) listen(m *member) error {
	began := time.Now()
	st, err := store.Open(m.dir, store.Options{Roster: m.identity.Roster, Sync: store.SyncInterval})
	if err != nil {
		return err
	}
	m.opened = time.Since(began)
	m.st = st
	m.gossip = &transport.LateBound{}
	m.seen = newIndications()
	syncSrv := &syncsvc.Server{
		Store: st, Every: time.Second, Burst: 8,
		Watermarks: func() []syncsvc.Watermark {
			if nd := m.ndRef.Load(); nd != nil {
				return nd.Watermarks()
			}
			return nil
		},
	}
	tr, err := tcpnet.Listen(tcpnet.Config{
		Self:       m.identity.ID(),
		ListenAddr: m.addr,
		Auth:       m.identity.Auth(),
		Endpoints: map[transport.Channel]transport.Endpoint{
			transport.ChanGossip: c.tap.endpoint(m.identity.ID(), m.gossip),
		},
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: syncSrv},
	})
	if err != nil {
		return err
	}
	m.tr = tr
	return nil
}

func (c *Cluster) connect(m *member) error {
	for _, peer := range c.members {
		if peer == m {
			continue
		}
		if err := m.tr.Connect(peer.identity.ID(), peer.addr); err != nil {
			return err
		}
	}
	return nil
}

// build makes m's core server and node runtime over its store (recovery
// and startup catch-up run here). follow is node.Config.FollowEvery.
func (c *Cluster) build(m *member, follow time.Duration) error {
	ccfg := core.Config{
		Roster:             m.identity.Roster,
		Signer:             m.identity.Signer,
		Protocol:           brb.Protocol{},
		Transport:          c.tap.transport(m.tr),
		Clock:              node.Clock(),
		Metrics:            &metrics.Metrics{},
		OnIndication:       m.seen.observe,
		CompressReferences: c.wl.Compress,
	}
	if m.identity.ID() == 0 {
		m.pool = mempool.New(mempool.Options{})
		ccfg.Mempool = m.pool
	}
	srv, err := core.NewServer(ccfg)
	if err != nil {
		return err
	}
	var peers []types.ServerID
	for _, id := range m.identity.Roster.IDs() {
		if id != m.identity.ID() {
			peers = append(peers, id)
		}
	}
	began := time.Now()
	nd, err := node.New(node.Config{
		Server:                  srv,
		Identity:                m.identity,
		DisseminateEvery:        c.wl.DisseminateEvery,
		Store:                   m.st,
		CheckpointEverySegments: 4,
		CatchUp:                 &syncsvc.FetchConfig{Transport: m.tr, Peers: peers, Timeout: 5 * time.Second},
		FollowEvery:             follow,
	})
	if err != nil {
		return err
	}
	m.built = time.Since(began)
	m.gossip.Bind(nd)
	m.nd = nd
	m.ndRef.Store(nd)
	return nil
}

// start launches m's loop at m's slot of the dissemination period: member
// i's block timer fires i/n of a period after member 0's, on the first
// start and on every restart. Left to chance, the timers' relative phases
// differ from run to run and move latency by a good part of a period —
// noise of the harness, not a property of the program. Evenly staggered,
// every pair of timers is at least period/n apart, which is the widest
// margin there is against a block arriving just before or just after a
// peer's tick (firing all timers together makes that a race on every
// tick).
func (c *Cluster) start(m *member) error {
	period := c.wl.DisseminateEvery
	beats := time.Since(c.phase0)/period + 1
	slot := c.phase0.Add(beats*period + time.Duration(m.identity.ID())*period/time.Duration(c.wl.N))
	time.Sleep(time.Until(slot))
	return m.nd.Start()
}

// stop takes one member down the way a process exit would: runtime,
// transport, store.
func (m *member) stop() {
	if m.nd != nil {
		m.nd.Stop()
	}
	if m.tr != nil {
		_ = m.tr.Close()
	}
	if m.st != nil {
		_ = m.st.Close()
	}
	// Nothing may keep the stopped runtime reachable: its heap is the
	// layer replay's to reuse.
	m.nd, m.tr, m.st, m.gossip = nil, nil, nil, nil
	m.ndRef.Store(nil)
}

// followEvery is a restarted member's live-follower period.
const followEvery = 200 * time.Millisecond

// Restart brings a stopped member back on the same address from its
// store, with startup catch-up and the live follower on, and reports how
// long it took to hold everything member 0 held when the restart began.
func (c *Cluster) Restart(i int) (time.Duration, error) {
	m := c.members[i]
	target := c.members[0].nd.Watermarks()
	began := time.Now()
	if err := c.listen(m); err != nil {
		return 0, err
	}
	if err := c.connect(m); err != nil {
		return 0, err
	}
	if err := c.build(m, followEvery); err != nil {
		return 0, err
	}
	if err := c.start(m); err != nil {
		return 0, err
	}
	deadline := began.Add(30 * time.Second)
	for !dominates(m.nd.Watermarks(), target) {
		if time.Now().After(deadline) {
			return 0, errors.New("bench: restarted member did not catch up within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(began), nil
}

// dominates reports whether have covers every chain prefix want claims.
func dominates(have, want []syncsvc.Watermark) bool {
	local := make(map[types.ServerID]uint64, len(have))
	for _, w := range have {
		local[w.Builder] = w.NextSeq
	}
	return !syncsvc.Behind(local, want)
}

// Gateway returns the base URL of member 0's client gateway.
func (c *Cluster) Gateway() string { return "http://" + c.gw.Addr() }

// Err returns the first member's runtime error, if any.
func (c *Cluster) Err() error {
	for _, m := range c.members {
		if m.nd == nil {
			continue
		}
		if err := m.nd.Err(); err != nil {
			return fmt.Errorf("s%d: %w", m.identity.ID(), err)
		}
	}
	return nil
}

// DiskSize sums every running member's store size.
func (c *Cluster) DiskSize() (int64, error) {
	var total int64
	for _, m := range c.members {
		if m.st == nil {
			continue
		}
		size, err := m.st.DiskSize()
		if err != nil {
			return 0, err
		}
		total += size
	}
	return total, nil
}

// Close stops every member. The gateway drains first: member 0's Stop
// runs its registered hook.
func (c *Cluster) Close() {
	for _, m := range c.members {
		if m != nil {
			m.stop()
		}
	}
	c.gw = nil
}
