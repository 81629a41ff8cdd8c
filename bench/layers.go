package bench

import (
	"errors"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/dag"
	"blockdag/internal/gateway"
	"blockdag/internal/gossip"
	"blockdag/internal/interpret"
	"blockdag/internal/mempool"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// liveMetrics fills the per-layer metrics the traced half of the run
// observed and returns every span it recorded.
func liveMetrics(p Metrics, tr *tracer, records []record, lat []float64, w0, w1 time.Duration) []Span {
	var spans []Span
	var rounds []float64
	var accepted, refused int
	var total, uncovered time.Duration
	for i := range records {
		r := &records[i]
		if r.req.Due < w0 || r.req.Due >= w1 {
			continue
		}
		if r.accepted() {
			accepted++
		} else {
			refused++
		}
		if rs, n, ok := tr.requestSpans(r); ok {
			spans = append(spans, rs...)
			rounds = append(rounds, float64(n))
			total += rs[0].Duration()
			uncovered += SelfTime(rs[0], rs[1:])
		}
	}
	sort.Float64s(rounds)
	tr.mu.Lock()
	spans = append(spans, tr.spans...)
	ownBlocks0, ownReqs0 := float64(tr.ownBlocks0), float64(tr.ownReqs0)
	ownBlocks, ownPreds := float64(tr.ownBlocks), float64(tr.ownPreds)
	blockFrames, fwdFrames := float64(tr.blockFrames), float64(tr.fwdFrames)
	traced := tr.tracedFor.Seconds()
	tr.mu.Unlock()

	pct := func(name, span string, unit time.Duration, unitName string, ps ...float64) {
		d := durations(spans, span, unit)
		for _, q := range ps {
			p.set(name+"_p"+strconv.Itoa(int(q))+"_"+unitName, Percentile(d, q), unitName)
		}
	}
	pct("gateway.submit_rtt", "gateway.submit", time.Microsecond, "us", 50, 95)
	pct("gateway.stream_lag", "gateway.stream", time.Microsecond, "us", 50, 95)
	pct("node.embed_wait", "node.embed_wait", time.Millisecond, "ms", 50, 95)
	pct("tcpnet.hop", "tcpnet.hop", time.Microsecond, "us", 50, 95)
	pct("gossip.ref_delay", "gossip.ref_delay", time.Millisecond, "ms", 50)
	p.set("loadgen.late_p95_ms", Percentile(durations(spans, "loadgen.late", time.Millisecond), 95), "ms")
	p.set("gateway.accepted", float64(accepted), "count")
	p.set("gateway.refused", float64(refused), "count")
	for _, q := range []float64{95, 99} {
		p.set("gateway.latency_p"+strconv.Itoa(int(q))+"_ms", Percentile(lat, q), "ms")
	}
	p.set("node.blocks_per_s", ratio(ownBlocks0, traced), "1/s")
	p.set("node.reqs_per_block_mean", ratio(ownReqs0, ownBlocks0), "count")
	p.set("gossip.fwd_frames", ratio(fwdFrames, blockFrames), "ratio")
	p.set("dag.rounds_to_indication_p50", Percentile(rounds, 50), "rounds")
	p.set("dag.rounds_to_indication_p95", Percentile(rounds, 95), "rounds")
	p.set("dag.preds_per_block_mean", ratio(ownPreds, ownBlocks), "count")

	// The tracer's self-check: the share of traced requests' time that no
	// layer span covers. 0 when the span tree has no gap.
	p.set("trace.request_self_ratio", ratio(float64(uncovered), float64(total)), "ratio")
	return spans
}

// crashMetrics fills the recovery metrics; they are 0 on a workload that
// restarts nothing.
func crashMetrics(p Metrics, c *Cluster, recovered time.Duration) {
	var opened, built time.Duration
	var fetched int
	var follow node.FollowReport
	if c.wl.Crash {
		m := c.members[c.wl.N-1]
		opened, built = m.opened, m.built
		fetched = m.nd.CatchUpReport().Blocks
		follow = m.nd.FollowReport()
	}
	p.set("node.recover_s", recovered.Seconds(), "s")
	p.set("store.open_ms", float64(opened)/float64(time.Millisecond), "ms")
	p.set("node.new_ms", float64(built)/float64(time.Millisecond), "ms")
	p.set("syncsvc.fetch_blocks", float64(fetched), "count")
	p.set("syncsvc.follow_polls", float64(follow.Polls), "count")
	p.set("syncsvc.follow_blocks", float64(follow.Blocks), "count")
}

// nullTransport swallows everything a replayed server sends.
type nullTransport struct{ self types.ServerID }

func (n nullTransport) Self() types.ServerID                           { return n.self }
func (n nullTransport) Send(types.ServerID, transport.Channel, []byte) {}
func (n nullTransport) Call(_ types.ServerID, _ transport.Channel, _ []byte, sink transport.CallSink) func() {
	sink.OnDone(transport.ErrUnreachable)
	return func() {}
}

// perBlock times fn over every block, single goroutine, and returns the
// per-call durations in microseconds.
func perBlock(blocks []*block.Block, fn func(*block.Block) error) ([]float64, error) {
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		began := time.Now()
		if err := fn(b); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(began)) / float64(time.Microsecond)
	}
	return out, nil
}

// replayReps is how often each layer's loop runs. The fastest repetition
// is the one reported: a stall of the host, a stolen core or a page fault
// only ever adds time, and on a shared machine one of them lands in most
// single runs (the same loop read 0.9 and 14 ms per block minutes apart).
const replayReps = 3

// fastest runs loop replayReps times and returns the result with the
// smallest total. loop builds whatever state it needs afresh; the previous
// repetition's is collected first, by hand, because the collector is off.
func fastest(loop func() ([]float64, error)) ([]float64, error) {
	var best []float64
	for r := 0; r < replayReps; r++ {
		runtime.GC()
		got, err := loop()
		if err != nil {
			return nil, err
		}
		if best == nil || Mean(got) < Mean(best) {
			best = got
		}
	}
	return best, nil
}

// timed runs fn once and returns how long it took, in microseconds, as
// the one-element result fastest compares.
func timed(fn func() error) ([]float64, error) {
	began := time.Now()
	err := fn()
	return []float64{float64(time.Since(began)) / float64(time.Microsecond)}, err
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// replayLayers runs each layer alone, on one goroutine, over member 0's
// journaled block stream in insertion order — so block sizes, labels per
// block and chain depth are the workload's own — then adds the layers up
// into the budget and compares it with measured, the untraced CPU-ms per
// request of the live run. The cluster must be closed: the replay reads
// member 0's store, and reuses the memory the nodes held.
func replayLayers(p Metrics, c *Cluster, dir string, measured float64) error {
	// The collector is off while the layers replay: whether a cycle landed
	// inside a loop moved that loop's time threefold between runs. Each
	// number is thus the layer's own work, allocation included and
	// collection not; collection is part of what budget.coverage leaves
	// unexplained.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m0 := c.members[0]
	rost := m0.identity.Roster
	n := float64(c.wl.N)

	// store: reading the run's directory back is itself the replay metric.
	began := time.Now()
	ro, err := store.Open(m0.dir, store.Options{Roster: rost, ReadOnly: true})
	if err != nil {
		return err
	}
	openTook := time.Since(began)
	blocks := ro.Blocks()
	_ = ro.Close()
	if len(blocks) == 0 {
		return errors.New("bench: member 0 journaled no blocks")
	}
	nb := float64(len(blocks))
	var reqs, encBytes float64
	for _, b := range blocks {
		reqs += float64(len(b.Requests))
		encBytes += float64(b.EncodedSize())
	}
	p.set("store.replay_us_per_block", float64(openTook)/float64(time.Microsecond)/nb, "us")
	p.set("block.encoded_bytes_mean", encBytes/nb, "B")

	// block: decode each frame from a private copy (Decode keeps it); seal
	// a copy of each block with its builder's key.
	decode, err := fastest(func() ([]float64, error) {
		return perBlock(blocks, func(b *block.Block) error {
			_, err := block.Decode(append([]byte(nil), b.Encode()...))
			return err
		})
	})
	if err != nil {
		return err
	}
	_, signers, err := c.fx.Signers(nil)
	if err != nil {
		return err
	}
	seal, err := fastest(func() ([]float64, error) {
		return perBlock(blocks, func(b *block.Block) error {
			return block.New(b.Builder, b.Seq, b.Preds, b.Requests).Seal(signers[b.Builder])
		})
	})
	if err != nil {
		return err
	}

	// crypto: one signature at a time, then in the batches ingest uses.
	verify, err := fastest(func() ([]float64, error) {
		return perBlock(blocks, func(b *block.Block) error {
			if !b.VerifySignature(rost) {
				return errors.New("bench: journaled block fails verification")
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	verifyBatch, err := fastest(func() ([]float64, error) {
		return timed(func() error {
			for i := 0; i < len(blocks); i += 64 {
				block.VerifyBatch(rost, blocks[i:min(i+64, len(blocks))], 0)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}

	// dag and interpret: fresh instances fed in journal order.
	insert, err := fastest(func() ([]float64, error) {
		return perBlock(blocks, dag.New(rost).InsertVerified)
	})
	if err != nil {
		return err
	}
	var heapGrew float64
	interp, err := fastest(func() ([]float64, error) {
		heap0 := liveHeap()
		it := interpret.New(brb.Protocol{}, rost.N(), rost.F(), nil)
		took, err := perBlock(blocks, it.AddBlock)
		heapGrew = liveHeap() - heap0
		runtime.KeepAlive(it)
		return took, err
	})
	if err != nil {
		return err
	}
	decile := max(len(interp)/10, 1)

	// store: member 0's own sink, so its own blocks pay the forced fsync
	// and the others ride the interval policy, as they did live. Once, not
	// replayReps times: its time is the disk's. The loop's CPU time, not
	// its wall time, goes into the budget: an fsync waits.
	fresh := filepath.Join(dir, "replay-store")
	st, err := store.Open(fresh, store.Options{Roster: rost, Sync: store.SyncInterval})
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	appendAll, err := perBlock(blocks, st.PersistSink(0))
	storeCPU := float64(cpuTime()-cpu0) / float64(time.Microsecond) / nb
	_ = st.Close()
	if err != nil {
		return err
	}
	var appendPeer, appendOwn []float64
	for i, b := range blocks {
		if b.Builder == 0 {
			appendOwn = append(appendOwn, appendAll[i])
		} else {
			appendPeer = append(appendPeer, appendAll[i])
		}
	}

	// mempool: admit every journaled request, then drain in the run's own
	// batch sizes.
	pool, err := fastest(func() ([]float64, error) {
		pool := mempool.New(mempool.Options{})
		submit, err := timed(func() error {
			for _, b := range blocks {
				for _, rq := range b.Requests {
					if err := pool.Submit(rq.Label, rq.Data); err != nil {
						return err
					}
				}
			}
			return nil
		})
		next, _ := timed(func() error {
			for _, b := range blocks {
				if len(b.Requests) > 0 {
					pool.Next(len(b.Requests))
				}
			}
			return nil
		})
		return append(submit, next...), err
	})
	if err != nil {
		return err
	}
	submitNs, nextNs := ratio(pool[0]*1000, reqs), ratio(pool[1]*1000, reqs)

	// core: the recorded frames into a fresh server on a null transport,
	// three at a time — one round's worth of peer blocks.
	msgs := make([]gossip.Message, len(blocks))
	for i, b := range blocks {
		msgs[i] = gossip.Message{From: b.Builder, Payload: gossip.EncodeBlockMsg(b)}
	}
	delivered, err := fastest(func() ([]float64, error) {
		srv, err := core.NewServer(core.Config{
			Roster: rost, Signer: signers[0], Protocol: brb.Protocol{},
			Transport: nullTransport{self: 0}, Clock: node.Clock(),
		})
		if err != nil {
			return nil, err
		}
		return timed(func() error {
			for i := 0; i < len(msgs); i += 3 {
				srv.DeliverBatch(msgs[i:min(i+3, len(msgs))])
			}
			if srv.DAG().Len() != len(blocks) {
				return errors.New("bench: replayed server did not insert every journaled block")
			}
			return srv.Health()
		})
	})
	if err != nil {
		return err
	}
	deliver := delivered[0] / nb

	gateway, err := fastest(func() ([]float64, error) { return gatewayCost(c.wl.Payload) })
	if err != nil {
		return err
	}
	gatewayUs := gateway[0]

	mDecode, mSeal, mVerify, mInsert, mInterp := Mean(decode), Mean(seal), Mean(verify), Mean(insert), Mean(interp)
	p.set("block.decode_us_per_block", mDecode, "us")
	p.set("block.seal_us_per_block", mSeal, "us")
	p.set("crypto.verify_us_per_block", mVerify, "us")
	p.set("crypto.verify_batch_us_per_block", verifyBatch[0]/nb, "us")
	p.set("dag.insert_us_per_block", mInsert, "us")
	p.set("interpret.us_per_block", mInterp, "us")
	p.set("interpret.us_per_req", ratio(mInterp*nb, reqs), "us")
	p.set("interpret.growth_ratio", ratio(Mean(interp[len(interp)-decile:]), Mean(interp[:decile])), "ratio")
	p.set("interpret.heap_kb_per_req", ratio(heapGrew/1024, reqs), "KB")
	p.set("store.append_us_per_block", Mean(appendPeer), "us")
	p.set("store.fsync_us", Mean(appendOwn), "us")
	p.set("mempool.submit_ns_per_req", submitNs, "ns")
	p.set("mempool.next_ns_per_req", nextNs, "ns")
	p.set("core.deliver_us_per_block", deliver, "us")
	p.set("gossip.self_us_per_block", deliver-mDecode-mVerify-mInsert-mInterp, "us")
	p.set("gateway.cpu_us_per_req", gatewayUs, "us")

	// The budget, in CPU-µs per journaled block across the cluster: one
	// seal, n journal writes, n-1 decode+verify+insert, n interpretations.
	perBlockLayers := mSeal + n*storeCPU + (n-1)*(mDecode+mVerify+mInsert)
	interpLayers := n * mInterp
	perReqLayers := gatewayUs + (submitNs+nextNs)/1000
	budget := ratio((perBlockLayers+interpLayers)*nb, reqs) + perReqLayers
	p.set("budget.cpu_ms_per_req", budget/1000, "ms")
	p.set("budget.coverage", ratio(budget/1000, measured), "ratio")
	p.set("budget.per_block_share", ratio(ratio(perBlockLayers*nb, reqs), budget), "ratio")
	p.set("budget.interpret_share", ratio(ratio(interpLayers*nb, reqs), budget), "ratio")
	return nil
}

// gatewayCost is the process CPU one request spends outside the cluster:
// the generator's POST and stream read plus the gateway's handlers and
// the indication broker, with admission and delivery stubbed to a bare
// mempool and an immediate publish. Both sides run in this process in
// the live run too, so both belong in the budget.
func gatewayCost(payload int) (usPerReq []float64, err error) {
	const requests = 2000
	pool := mempool.New(mempool.Options{})
	broker := node.NewIndicationBroker(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gw, err := gateway.Serve(ln, gateway.Config{
		Indications: broker,
		Submit: func(label types.Label, data []byte) error {
			if err := pool.Submit(label, data); err != nil {
				return err
			}
			pool.Next(1)
			broker.Publish(label, data)
			return nil
		},
	})
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	defer gw.Close()
	defer broker.Close()
	reqs := make([]Request, requests) // all due at once: back to back on the generator's connections
	for i := range reqs {
		reqs[i] = Request{Label: "g/" + strconv.Itoa(i), Value: make([]byte, payload)}
	}
	gen, err := NewLoadGen("http://"+gw.Addr(), reqs)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	gen.Run(time.Now())
	gen.Drain(time.Second)
	spent := cpuTime() - cpu0
	if err := gen.Close(); err != nil {
		return nil, err
	}
	return []float64{float64(spent) / float64(time.Microsecond) / requests}, nil
}
