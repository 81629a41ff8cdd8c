package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// submitConns is the number of keep-alive connections the generator
// posts on. With the indication stream that makes three client
// goroutines: no more than the machine has cores to spare beside the
// cluster, and a 202 returns in well under a millisecond, so two
// connections carry every named workload without queueing.
const submitConns = 2

// record is one request's life as the client saw it. All times are
// offsets from the generator's epoch; zero means "did not happen".
type record struct {
	req Request
	// sent and acked bracket the POST; status is its HTTP status (0 on a
	// transport error).
	sent, acked time.Duration
	status      int
	// read is when the client read the request's line off the indication
	// stream; lines counts how many it read, badValue latches a line whose
	// value differed from the one submitted.
	read     time.Duration
	lines    int
	badValue bool
}

func (r *record) accepted() bool  { return r.status == http.StatusAccepted }
func (r *record) indicated() bool { return r.lines > 0 }

// latency is due time → indication read.
func (r *record) latency() time.Duration { return r.read - r.req.Due }

// LoadGen drives one gateway through HTTP, open loop: requests go out at
// their scheduled due times whether or not earlier ones have completed.
type LoadGen struct {
	base  string
	epoch time.Time

	mu      sync.Mutex
	records []record
	byLabel map[string]int
	// pending counts accepted requests not yet seen on the stream.
	pending int
	// missed sums the gaps in the stream's sequence numbers: indications
	// the gateway's bounded subscription dropped.
	missed  uint64
	nextSeq uint64
	seqInit bool

	streamCancel context.CancelFunc
	streamDone   chan struct{}
	streamErr    error
}

// NewLoadGen opens the indication stream and returns once the gateway has
// answered it, so no indication of a later submit can be missed.
func NewLoadGen(base string, reqs []Request) (*LoadGen, error) {
	g := &LoadGen{
		base:       base,
		records:    make([]record, len(reqs)),
		byLabel:    make(map[string]int, len(reqs)),
		streamDone: make(chan struct{}),
	}
	for i, rq := range reqs {
		g.records[i].req = rq
		g.byLabel[rq.Label] = i
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.streamCancel = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/indications", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("bench: open indication stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("bench: indication stream: HTTP %d", resp.StatusCode)
	}
	go g.readStream(resp.Body)
	return g, nil
}

// streamLine is the gateway's NDJSON indication shape.
type streamLine struct {
	Label   string `json:"label"`
	DataB64 string `json:"data_b64"`
	Seq     uint64 `json:"seq"`
}

func (g *LoadGen) readStream(body io.ReadCloser) {
	defer close(g.streamDone)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		now := time.Now()
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			g.streamErr = fmt.Errorf("bench: indication stream: %w", err)
			return
		}
		g.mu.Lock()
		if g.seqInit && line.Seq > g.nextSeq {
			g.missed += line.Seq - g.nextSeq
		}
		g.nextSeq, g.seqInit = line.Seq+1, true
		if i, ok := g.byLabel[line.Label]; ok {
			r := &g.records[i]
			if r.lines == 0 {
				r.read = now.Sub(g.epoch)
				g.pending--
			}
			r.lines++
			if line.DataB64 != base64.StdEncoding.EncodeToString(r.req.Value) {
				r.badValue = true
			}
		}
		g.mu.Unlock()
	}
}

// Run sends the whole schedule, every request at its due offset from
// epoch, and returns when the last one has been answered.
func (g *LoadGen) Run(epoch time.Time) {
	g.mu.Lock()
	g.epoch = epoch // the stream reader reads it under the same lock
	g.mu.Unlock()
	work := make(chan int, len(g.records)) // sized to the schedule: the dispatcher never blocks on a slow gateway
	var wg sync.WaitGroup
	for c := 0; c < submitConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			for i := range work {
				g.submit(client, i)
			}
		}()
	}
	for i := range g.records {
		if wait := time.Until(g.epoch.Add(g.records[i].req.Due)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
}

func (g *LoadGen) submit(client *http.Client, i int) {
	rq := g.records[i].req
	body, _ := json.Marshal(map[string]string{
		"label":    rq.Label,
		"data_b64": base64.StdEncoding.EncodeToString(rq.Value),
	})
	// The request counts as pending before the POST: its indication can
	// reach the stream reader before the 202 reaches this goroutine.
	g.mu.Lock()
	g.pending++
	g.mu.Unlock()
	sent := time.Since(g.epoch)
	status := 0
	resp, err := client.Post(g.base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	acked := time.Since(g.epoch)
	g.mu.Lock()
	r := &g.records[i]
	r.sent, r.acked, r.status = sent, acked, status
	if !r.accepted() && r.lines == 0 {
		g.pending-- // refused: no indication will come
	}
	g.mu.Unlock()
}

// Drain waits until every accepted request has been read off the stream,
// or grace has passed; it reports whether the stream caught up.
func (g *LoadGen) Drain(grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		g.mu.Lock()
		pending := g.pending
		g.mu.Unlock()
		if pending == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close ends the indication stream and waits for its reader.
func (g *LoadGen) Close() error {
	g.streamCancel()
	<-g.streamDone
	return g.streamErr
}

// Records returns the per-request records. Call after Close.
func (g *LoadGen) Records() []record { return g.records }
