// Package gateway is the client-facing front door of a running node: a
// versioned HTTP/JSON RPC service plus a scrapeable observability plane.
//
// The protocol stack below it stays byte-identical — the gateway is a
// new layer, not a new transport channel: clients submit requests through
// the same backpressure-aware entry point the examples use (node.Submit →
// mempool admission), and observe results through the node's indication
// broker, the subscription seam that fans the loop goroutine's
// OnIndication stream out to any number of concurrent HTTP clients.
//
// The broker's replay index, which answers an await for a label
// indicated before the client asked, is the gateway's: Serve claims it
// (node.IndicationBroker.ClaimIndex), and a node no gateway serves keeps
// none. A gateway opened before its node starts — deploy.Boot's order —
// claims within the replay window, so it also answers for what the node
// restored from its store; one opened later answers for what is
// indicated from then on. gateway_await_index_bytes is the window's size.
//
// # API (version 1)
//
//	POST /v1/submit          {"label": "...", "data": "..."} — enqueue a
//	                         request; mempool backpressure surfaces as
//	                         503 (pool full, Retry-After), 409 (duplicate),
//	                         413 (too large), 400 (invalid)
//	GET  /v1/await/{label}   long-poll one label's indication
//	                         (?timeout=10s, capped at 30s)
//	GET  /v1/indications     chunked NDJSON stream of indications, each
//	                         {"label", "data", "data_b64", "seq"} as
//	                         /v1/await answers; "data" only for a value
//	                         that is valid UTF-8
//	GET  /v1/status          node status: health, watermarks, the
//	                         recovery and follow reports (the first poll's
//	                         outcome too), store size — what no /metrics
//	                         family samples; served only for a Config.Node
//	GET  /metrics            Prometheus text format (the Registry fold)
//
// Every client-plane route runs behind the middleware chain — in-flight
// concurrency cap with explicit shedding, bearer-token auth, response
// counting — while /metrics skips auth (scrape convention) but not the
// in-flight cap.
//
// Shutdown is graceful by design: binding a Config.Node registers a drain
// hook, so node.Stop first closes the indication broker (every await and
// stream gets a clean terminal response), then waits for in-flight
// requests to finish, and only then tears the loop down.
package gateway

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/types"
)

// Config parameterizes a gateway.
type Config struct {
	// Node, if non-nil, binds the gateway to a running node runtime:
	// Submit and Indications default to the node's, /v1/status is served
	// and describes it, and the gateway registers a graceful-drain hook with
	// node.Node.OnStop so a stopping node finishes in-flight requests
	// before the loop dies.
	Node *node.Node

	// Submit admits one client request (required unless Node is set).
	// Return mempool.ErrFull / ErrDuplicate / ErrTooLarge (or a
	// validation error) to drive the HTTP status mapping.
	Submit func(label types.Label, data []byte) error
	// Indications is the broker await and streaming reads ride on
	// (required unless Node is set). Serve claims its replay index.
	Indications *node.IndicationBroker

	// Registry is the observability fold /metrics renders. Optional; a
	// nil registry serves only the gateway's own counters.
	Registry *metrics.Registry

	// Tokens lists accepted bearer tokens. Empty, the gateway is open.
	Tokens []string
}

const (
	// maxAwait caps (and defaults) the long-poll timeout.
	maxAwait = 30 * time.Second
	// drainTimeout bounds the graceful drain on Close / node stop.
	drainTimeout = 5 * time.Second
	// maxInFlight bounds concurrently served requests; the excess is shed
	// with 503 before authentication. Each held request is a goroutine
	// and a connection, and an await holds one up to maxAwait.
	maxInFlight = 256
	// maxBodyBytes bounds a request body, enforced before any decoding or
	// mempool admission: a submit is one label and one payload, which the
	// mempool caps far below this.
	maxBodyBytes = 1 << 20
)

// Gateway is a running front door.
type Gateway struct {
	cfg      Config
	srv      *http.Server
	ln       net.Listener
	inflight chan struct{}

	// Self-observability: the gateway is a subsystem of the plane it
	// serves.
	counts metrics.Metrics // over Families

	closed atomic.Bool
}

// Families declares the front door's own counters: its part of the scrape.
var Families metrics.Table

var (
	inFlight     = Families.Gauge("gateway_in_flight", "Requests currently being served.")
	responses2xx = Families.Counter("gateway_responses_total", "Responses served by status class.", "class", "2xx")
	responses4xx = Families.With(responses2xx, "4xx")
	responses5xx = Families.With(responses2xx, "5xx")
	authFailures = Families.Counter("gateway_auth_failures_total", "Requests refused by authentication.")
	shed         = Families.Counter("gateway_shed_total", "Requests shed at the in-flight concurrency cap.")
	indexBytes   = Families.Gauge("gateway_await_index_bytes", "Label and value bytes the await replay index holds.")
)

// Listen binds addr and serves the gateway on it.
func Listen(addr string, cfg Config) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g, err := Serve(ln, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	return g, nil
}

// Serve runs the gateway on an existing listener (which it takes
// ownership of).
func Serve(ln net.Listener, cfg Config) (*Gateway, error) {
	if cfg.Node != nil {
		if cfg.Submit == nil {
			cfg.Submit = cfg.Node.Submit
		}
		if cfg.Indications == nil {
			cfg.Indications = cfg.Node.Indications()
		}
	}
	if cfg.Submit == nil {
		return nil, errors.New("gateway: config needs Submit (or Node)")
	}
	if cfg.Indications == nil {
		return nil, errors.New("gateway: config needs Indications (or Node)")
	}
	// The replay index is await's: a node keeps it only for a gateway.
	cfg.Indications.ClaimIndex()
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}

	g := &Gateway{
		cfg:      cfg,
		ln:       ln,
		inflight: make(chan struct{}, maxInFlight),
	}
	cfg.Registry.Register(Families.Collector(&g.counts))

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", g.wrap(true, g.handleSubmit))
	mux.HandleFunc("GET /v1/await/{label...}", g.wrap(true, g.handleAwait))
	mux.HandleFunc("GET /v1/indications", g.wrap(true, g.handleIndications))
	mux.HandleFunc("GET /metrics", g.wrap(false, g.handleMetrics))
	if cfg.Node != nil {
		mux.HandleFunc("GET /v1/status", g.wrap(true, g.handleStatus))
	}

	g.srv = &http.Server{Handler: mux}
	// Serve returns ErrServerClosed once Close has run, or the listener's
	// error, which clients meet as refused connections; nobody else awaits it.
	go func() { _ = g.srv.Serve(ln) }()
	if cfg.Node != nil {
		cfg.Node.OnStop(func() { _ = g.Close() })
	}
	return g, nil
}

// Addr returns the bound address (host:port).
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Close drains the gateway: no new connections, in-flight requests get up
// to drainTimeout to finish (long-polls finish immediately once
// the indication broker closes), then the server closes hard. Idempotent.
func (g *Gateway) Close() error {
	if !g.closed.CompareAndSwap(false, true) {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := g.srv.Shutdown(ctx); err != nil {
		return g.srv.Close()
	}
	return nil
}

func (g *Gateway) countResponse(code int) {
	switch {
	case code < 400:
		g.counts.Add(responses2xx, 1)
	case code < 500:
		g.counts.Add(responses4xx, 1)
	default:
		g.counts.Add(responses5xx, 1)
	}
}

// ---- handlers --------------------------------------------------------

// submitRequest is the POST /v1/submit body. Data carries a UTF-8
// payload directly; DataB64 carries arbitrary bytes (it wins when both
// are set).
type submitRequest struct {
	Label   string `json:"label"`
	Data    string `json:"data"`
	DataB64 string `json:"data_b64"`
}

// indicationResponse is the await/stream wire shape. DataB64 carries the
// value's exact bytes; Data carries them as text, and only when they are
// valid UTF-8: encoding/json would replace any other byte with U+FFFD.
type indicationResponse struct {
	Label   string  `json:"label"`
	Data    *string `json:"data,omitempty"`
	DataB64 string  `json:"data_b64"`
	Seq     uint64  `json:"seq"`
}

func toResponse(ind node.Indication) indicationResponse {
	resp := indicationResponse{
		Label:   string(ind.Label),
		DataB64: base64.StdEncoding.EncodeToString(ind.Value),
		Seq:     ind.Seq,
	}
	if utf8.Valid(ind.Value) {
		text := string(ind.Value)
		resp.Data = &text
	}
	return resp
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The body cap runs before any decoding, so an oversized payload is
	// rejected here — it never reaches mempool admission — however early a
	// JSON value inside it ends: the body is one value, nothing behind it.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var req submitRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooBig.Limit))
		return
	}
	if err != nil || json.Unmarshal(body, &req) != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON body")
		return
	}
	if req.Label == "" {
		writeError(w, http.StatusBadRequest, "label required")
		return
	}
	data := []byte(req.Data)
	if req.DataB64 != "" {
		decoded, err := base64.StdEncoding.DecodeString(req.DataB64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "data_b64 is not valid base64")
			return
		}
		data = decoded
	}
	if err := g.cfg.Submit(types.Label(req.Label), data); err != nil {
		switch {
		case errors.Is(err, mempool.ErrFull):
			// Admission backpressure: the pool sheds load, the client
			// retries after the drain interval. 503 rather than 429 —
			// the system, not this client, is over capacity.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, mempool.ErrDuplicate):
			writeError(w, http.StatusConflict, err.Error())
		case errors.Is(err, mempool.ErrTooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]string{"status": "accepted", "label": req.Label})
}

func (g *Gateway) handleAwait(w http.ResponseWriter, r *http.Request) {
	label := types.Label(r.PathValue("label"))
	if label == "" {
		writeError(w, http.StatusBadRequest, "label required")
		return
	}
	timeout := maxAwait
	if tq := r.URL.Query().Get("timeout"); tq != "" {
		d, err := time.ParseDuration(tq)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad timeout")
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	// Subscribe before Lookup: an indication landing between the two is
	// then seen on one path or the other, never missed.
	sub := g.cfg.Indications.Subscribe(64)
	defer sub.Close()
	if ind, ok := g.cfg.Indications.Lookup(label); ok {
		writeJSON(w, toResponse(ind))
		return
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	// The re-lookup tick covers the rare case where the target indication
	// overflowed this subscription's bounded buffer on a busy stream: the
	// replay index still has it.
	recheck := time.NewTicker(250 * time.Millisecond)
	defer recheck.Stop()
	for {
		select {
		case ind, open := <-sub.C():
			if !open {
				// Broker closed: the node is stopping. A clean terminal
				// response, not a connection reset.
				writeError(w, http.StatusServiceUnavailable, "node stopping")
				return
			}
			if ind.Label == label {
				writeJSON(w, toResponse(ind))
				return
			}
		case <-recheck.C:
			if ind, ok := g.cfg.Indications.Lookup(label); ok {
				writeJSON(w, toResponse(ind))
				return
			}
		case <-timer.C:
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("no indication for %q within %v", label, timeout))
			return
		case <-r.Context().Done():
			return // client went away
		}
	}
}

// handleIndications streams indications as NDJSON chunks until the client
// disconnects or the node stops. An optional ?prefix= filters labels. A
// block's indications are published in one turn, so the stream writes what
// is queued and flushes once: one chunk per burst, not per indication.
func (g *Gateway) handleIndications(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	flusher, _ := w.(http.Flusher)
	sub := g.cfg.Indications.Subscribe(256)
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		var ind node.Indication
		var open bool
		select {
		case ind, open = <-sub.C():
		case <-r.Context().Done():
			return
		}
		for queued := true; queued; {
			if !open {
				return // node stopping: the chunked body ends cleanly
			}
			if prefix == "" || strings.HasPrefix(string(ind.Label), prefix) {
				if err := enc.Encode(toResponse(ind)); err != nil {
					return
				}
			}
			select {
			case ind, open = <-sub.C():
			default:
				queued = false
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, nodeStatus(g.cfg.Node))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.counts.Set(indexBytes, g.cfg.Indications.IndexBytes())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = g.cfg.Registry.WriteTo(w)
}

// ---- JSON helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
