package gateway

import (
	"crypto/subtle"
	"fmt"
	"net/http"
)

// The middleware chain wraps every route in this order (outermost first):
//
//	response counting → in-flight cap → auth → handler
//
// Shedding happens before authentication on purpose: under overload the
// gateway refuses cheaply, without authenticating a refused request.
// /metrics skips auth (scrapers run unauthenticated by convention) but
// still counts against the in-flight cap, so a scrape storm cannot starve
// consensus clients.

// statusWriter captures the response code for logging and counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards streaming flushes (the /v1/indications feed needs it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.code == 0 {
			w.code = http.StatusOK
		}
		f.Flush()
	}
}

// wrap builds the full chain around one route handler.
func (g *Gateway) wrap(authed bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		g.serve(sw, r, authed, h)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		g.countResponse(code)
	}
}

// serve applies shedding and auth, then runs the handler.
func (g *Gateway) serve(w http.ResponseWriter, r *http.Request, authed bool, h http.HandlerFunc) {
	if !g.acquire() {
		g.counts.Add(shed, 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "gateway at capacity")
		return
	}
	defer g.release()

	if authed {
		if err := g.authenticate(r); err != nil {
			g.counts.Add(authFailures, 1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="dagrpc"`)
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
	}
	h(w, r)
}

// acquire claims one in-flight slot, reporting false when the gateway is
// at its concurrency cap.
func (g *Gateway) acquire() bool {
	select {
	case g.inflight <- struct{}{}:
		g.counts.Add(inFlight, 1)
		return true
	default:
		return false
	}
}

func (g *Gateway) release() {
	g.counts.Add(inFlight, -1)
	<-g.inflight
}

// ---- authentication -------------------------------------------------

// authenticate applies bearer-token auth: a token from Config.Tokens. With
// none configured the gateway is open.
func (g *Gateway) authenticate(r *http.Request) error {
	if len(g.cfg.Tokens) == 0 {
		return nil
	}
	auth := r.Header.Get("Authorization")
	if auth == "" {
		return fmt.Errorf("authentication required (bearer token)")
	}
	const prefix = "Bearer "
	if len(auth) > len(prefix) && auth[:len(prefix)] == prefix {
		tok := auth[len(prefix):]
		for _, want := range g.cfg.Tokens {
			if subtle.ConstantTimeCompare([]byte(tok), []byte(want)) == 1 {
				return nil
			}
		}
	}
	return fmt.Errorf("invalid bearer token")
}
