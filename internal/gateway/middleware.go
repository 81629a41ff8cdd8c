package gateway

import (
	"crypto/subtle"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The middleware chain wraps every route in this order (outermost first):
//
//	logging → in-flight cap → auth → per-client rate limit → handler
//
// Shedding happens before authentication on purpose: under overload the
// gateway refuses cheaply, without authenticating a refused request. /metrics skips auth and rate limiting (scrapers run
// unauthenticated by convention) but still counts against the in-flight
// cap, so a scrape storm cannot starve consensus clients.

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

// serve applies shedding, auth, and rate limiting, then runs the handler.
func (g *Gateway) serve(w http.ResponseWriter, r *http.Request, authed bool, h http.HandlerFunc) {
	if !g.acquire() {
		g.counts.Add(shed, 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "gateway at capacity")
		return
	}
	defer g.release()

	client := clientHost(r)
	if authed {
		principal, err := g.authenticate(r)
		if err != nil {
			g.counts.Add(authFailures, 1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="dagrpc"`)
			writeError(w, http.StatusUnauthorized, err.Error())
			return
		}
		if principal != "" {
			client = principal
		}
		if g.limiter != nil {
			if ok, retry := g.limiter.allow(client); !ok {
				g.counts.Add(rateLimited, 1)
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retry)))
				writeError(w, http.StatusTooManyRequests, "rate limit exceeded")
				return
			}
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

// clientHost is the fallback rate-limit key: the remote IP.
func clientHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds rounds a wait up to whole seconds, minimum 1.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// ---- authentication -------------------------------------------------

// authenticate applies bearer-token auth: a token from Config.Tokens. With
// none configured the gateway is open. The returned principal keys the
// per-client rate limiter ("" = fall back to the remote IP).
func (g *Gateway) authenticate(r *http.Request) (string, error) {
	if len(g.cfg.Tokens) == 0 {
		return "", nil
	}
	auth := r.Header.Get("Authorization")
	if auth == "" {
		return "", fmt.Errorf("authentication required (bearer token)")
	}
	const prefix = "Bearer "
	if len(auth) > len(prefix) && auth[:len(prefix)] == prefix {
		tok := auth[len(prefix):]
		for i, want := range g.cfg.Tokens {
			if subtle.ConstantTimeCompare([]byte(tok), []byte(want)) == 1 {
				return fmt.Sprintf("token/%d", i), nil
			}
		}
	}
	return "", fmt.Errorf("invalid bearer token")
}

// ---- per-client rate limiting ---------------------------------------

// rateLimiter is a per-client token bucket on an injectable clock — the
// same accrual arithmetic as syncsvc's sync-channel admission bucket,
// keyed by authenticated principal (or remote IP). The bucket table is
// bounded: beyond maxClients the stalest bucket is evicted, so an
// attacker rotating source addresses trades its own rate-limit state
// away, not the gateway's memory.
type rateLimiter struct {
	mu    sync.Mutex
	every time.Duration
	burst int
	clock func() time.Duration

	buckets    map[string]*clientBucket
	maxClients int
}

type clientBucket struct {
	tokens float64
	last   time.Duration
}

func newRateLimiter(every time.Duration, burst int, clock func() time.Duration) *rateLimiter {
	if every <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 4
	}
	return &rateLimiter{
		every:      every,
		burst:      burst,
		clock:      clock,
		buckets:    make(map[string]*clientBucket),
		maxClients: 1024,
	}
}

// allow spends one token of the client's bucket. When refused, retry is
// how long until a token accrues.
func (l *rateLimiter) allow(client string) (ok bool, retry time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= l.maxClients {
			l.evictStalest()
		}
		b = &clientBucket{tokens: float64(l.burst), last: now}
		l.buckets[client] = b
	}
	b.tokens += float64(now-b.last) / float64(l.every)
	b.last = now
	if b.tokens > float64(l.burst) {
		b.tokens = float64(l.burst)
	}
	if b.tokens < 1 {
		return false, time.Duration((1 - b.tokens) * float64(l.every))
	}
	b.tokens--
	return true, 0
}

// evictStalest removes the bucket with the oldest refill time (callers
// hold the lock). Evicting a stale bucket resets that client to a full
// burst — acceptable, since a stale bucket is a full one anyway.
func (l *rateLimiter) evictStalest() {
	var victim string
	var oldest time.Duration
	first := true
	for k, b := range l.buckets {
		if first || b.last < oldest {
			victim, oldest, first = k, b.last, false
		}
	}
	delete(l.buckets, victim)
}
