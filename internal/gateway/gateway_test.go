package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"blockdag/internal/dagtest"
	"blockdag/internal/gateway"
	"blockdag/internal/mempool"
	"blockdag/internal/node"
	"blockdag/internal/types"
)

// start runs a gateway on a loopback port, defaulting the required seams
// to inert fakes, and returns its base URL plus the broker.
func start(t *testing.T, cfg gateway.Config) (*gateway.Gateway, string, *node.IndicationBroker) {
	t.Helper()
	if cfg.Indications == nil {
		cfg.Indications = node.NewIndicationBroker(0)
	}
	if cfg.Submit == nil {
		cfg.Submit = func(types.Label, []byte) error { return nil }
	}
	g, err := gateway.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g, "http://" + g.Addr(), cfg.Indications
}

func postJSON(t *testing.T, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSubmitReachesSink(t *testing.T) {
	var mu sync.Mutex
	got := map[types.Label][]byte{}
	_, base, _ := start(t, gateway.Config{
		Submit: func(l types.Label, d []byte) error {
			mu.Lock()
			defer mu.Unlock()
			got[l] = d
			return nil
		},
	})
	resp := postJSON(t, base+"/v1/submit", `{"label":"k","data":"hello"}`, nil)
	if body := drainClose(t, resp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	// data_b64 wins and decodes arbitrary bytes.
	resp = postJSON(t, base+"/v1/submit", `{"label":"b","data":"x","data_b64":"AAEC"}`, nil)
	drainClose(t, resp)
	mu.Lock()
	defer mu.Unlock()
	if string(got["k"]) != "hello" || !bytes.Equal(got["b"], []byte{0, 1, 2}) {
		t.Fatalf("sink saw %q", got)
	}
}

func TestSubmitErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{mempool.ErrFull, http.StatusServiceUnavailable},
		{mempool.ErrDuplicate, http.StatusConflict},
		{mempool.ErrTooLarge, http.StatusRequestEntityTooLarge},
		{errors.New("validation: empty label"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		err := tc.err
		_, base, _ := start(t, gateway.Config{
			Submit: func(types.Label, []byte) error { return err },
		})
		resp := postJSON(t, base+"/v1/submit", `{"label":"k","data":"v"}`, nil)
		body := drainClose(t, resp)
		if resp.StatusCode != tc.code {
			t.Fatalf("%v -> %d (%s), want %d", tc.err, resp.StatusCode, body, tc.code)
		}
		if tc.err == mempool.ErrFull && resp.Header.Get("Retry-After") == "" {
			t.Fatal("pool-full response missing Retry-After")
		}
	}
}

// TestOversizedBodyRejectedBeforeAdmission is the satellite regression:
// the body cap fires before decoding, so an oversized payload never
// reaches mempool admission.
func TestOversizedBodyRejectedBeforeAdmission(t *testing.T) {
	const maxBodyBytes = 1 << 20
	pool := mempool.New(mempool.Options{Capacity: 16})
	_, base, _ := start(t, gateway.Config{Submit: pool.Submit})
	// One byte past the cap, as a JSON value that would decode.
	head := `{"label":"k","data":"`
	big := head + strings.Repeat("x", maxBodyBytes+1-len(head)-2) + `"}`
	resp := postJSON(t, base+"/v1/submit", big, nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body = %d (%s), want 413", len(big), resp.StatusCode, body)
	}
	if s := pool.Stats(); s.Submitted != 0 {
		t.Fatalf("oversized body reached mempool admission: %+v", s)
	}
	// A fitting body still goes through.
	resp = postJSON(t, base+"/v1/submit", `{"label":"k","data":"small"}`, nil)
	drainClose(t, resp)
	if s := pool.Stats(); s.Accepted != 1 {
		t.Fatalf("normal submit not admitted: %+v", s)
	}
}

func TestAwaitLookupAndLongPoll(t *testing.T) {
	_, base, broker := start(t, gateway.Config{})

	// Already-published label answers from the replay index.
	broker.Publish("done/1", []byte("early"))
	resp := get(t, base+"/v1/await/done/1", nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "early") {
		t.Fatalf("await(published) = %d %s", resp.StatusCode, body)
	}

	// Not-yet-published label long-polls until the publish lands.
	done := make(chan string, 1)
	go func() {
		resp := get(t, base+"/v1/await/done/2?timeout=5s", nil)
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- fmt.Sprintf("%d %s", resp.StatusCode, b)
	}()
	time.Sleep(50 * time.Millisecond)
	broker.Publish("done/2", []byte("later"))
	select {
	case got := <-done:
		if !strings.HasPrefix(got, "200") || !strings.Contains(got, "later") {
			t.Fatalf("await(long-poll) = %s", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("await never returned")
	}
}

// TestAwaitIndexBytesRendered: /metrics reports the label and value bytes
// the replay index holds as of the request.
func TestAwaitIndexBytesRendered(t *testing.T) {
	_, base, broker := start(t, gateway.Config{})
	for _, tc := range []struct {
		value string
		want  float64
	}{{"xyz", 5}, {"x", 3}} {
		broker.Publish("ab", []byte(tc.value))
		body := drainClose(t, get(t, base+"/metrics", nil))
		if got, ok := dagtest.Sample(body, "gateway_await_index_bytes"); !ok || got != tc.want {
			t.Fatalf("gateway_await_index_bytes = %v (present %v), want %v:\n%s", got, ok, tc.want, body)
		}
	}
}

// TestStatusNeedsANode: a gateway without a node has no status to tell and
// serves no /v1/status.
func TestStatusNeedsANode(t *testing.T) {
	_, base, _ := start(t, gateway.Config{})
	resp := get(t, base+"/v1/status", nil)
	if body := drainClose(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/status of a node-less gateway = %d %s, want 404", resp.StatusCode, body)
	}
}

func TestAwaitTimeout(t *testing.T) {
	_, base, _ := start(t, gateway.Config{})
	resp := get(t, base+"/v1/await/never?timeout=50ms", nil)
	body := drainClose(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("await timeout = %d %s, want 504", resp.StatusCode, body)
	}
}

func TestIndicationsStream(t *testing.T) {
	_, base, broker := start(t, gateway.Config{})
	resp := get(t, base+"/v1/indications?prefix=want/", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		broker.Publish("skip/0", []byte("filtered"))
		broker.Publish("want/1", []byte("one"))
		broker.Publish("want/2", []byte("two"))
		time.Sleep(20 * time.Millisecond)
		broker.Close()
	}()
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("stream lines = %q, want 2", lines)
	}
	var ind struct {
		Label string `json:"label"`
		Data  string `json:"data"`
		Seq   uint64 `json:"seq"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ind); err != nil {
		t.Fatal(err)
	}
	if ind.Label != "want/1" || ind.Data != "one" {
		t.Fatalf("first line = %+v", ind)
	}
}

// TestBinaryIndicationExactInDataB64: a value that is not UTF-8 comes back
// exact in data_b64 and without data, through /v1/await and
// /v1/indications alike; a text value keeps both fields.
func TestBinaryIndicationExactInDataB64(t *testing.T) {
	_, base, broker := start(t, gateway.Config{})
	bin := make([]byte, 256)
	rand.New(rand.NewSource(1)).Read(bin)
	if utf8.Valid(bin) {
		t.Fatal("fixture: the random value is valid UTF-8")
	}
	values := map[string][]byte{"bin": bin, "text": []byte("plain text")}
	check := func(where string, line []byte) {
		t.Helper()
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatalf("%s: %v in %s", where, err, line)
		}
		var label, b64 string
		if err := errors.Join(json.Unmarshal(fields["label"], &label), json.Unmarshal(fields["data_b64"], &b64)); err != nil {
			t.Fatalf("%s: %v in %s", where, err, line)
		}
		want := values[label]
		if got, err := base64.StdEncoding.DecodeString(b64); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s %s: data_b64 decodes to %x (%v), want %x", where, label, got, err, want)
		}
		var data string
		if raw, has := fields["data"]; utf8.Valid(want) != has {
			t.Fatalf("%s %s: data present %v for a value that is UTF-8 %v", where, label, has, utf8.Valid(want))
		} else if has && (json.Unmarshal(raw, &data) != nil || data != string(want)) {
			t.Fatalf("%s %s: data = %s, want %q", where, label, raw, want)
		}
	}

	stream := get(t, base+"/v1/indications", nil)
	defer stream.Body.Close()
	broker.Publish("bin", bin)
	broker.Publish("text", values["text"])
	for _, label := range []string{"bin", "text"} {
		resp := get(t, base+"/v1/await/"+label, nil)
		if body := drainClose(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("await %s = %d %s", label, resp.StatusCode, body)
		} else {
			check("await", []byte(body))
		}
	}
	sc := bufio.NewScanner(stream.Body)
	for range 2 {
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		check("stream", sc.Bytes())
	}
}

func TestBearerTokenAuth(t *testing.T) {
	_, base, broker := start(t, gateway.Config{Tokens: []string{"s3cret"}})
	broker.Publish("k", []byte("v"))
	const await = "/v1/await/k?timeout=1s"

	resp := get(t, base+await, nil)
	drainClose(t, resp)
	if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatalf("no-auth = %d, want 401 with WWW-Authenticate", resp.StatusCode)
	}
	resp = get(t, base+await, map[string]string{"Authorization": "Bearer wrong"})
	drainClose(t, resp)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad token = %d, want 401", resp.StatusCode)
	}
	resp = get(t, base+await, map[string]string{"Authorization": "Bearer s3cret"})
	if body := drainClose(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("good token = %d %s", resp.StatusCode, body)
	}
	// /metrics stays scrapeable without credentials, and counts the two
	// refusals.
	resp = get(t, base+"/metrics", nil)
	scrape := drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated /metrics = %d, want 200", resp.StatusCode)
	}
	if got, ok := dagtest.Sample(scrape, "gateway_auth_failures_total"); !ok || got != 2 {
		t.Fatalf("gateway_auth_failures_total = %v (present %v), want 2", got, ok)
	}
}

// TestInFlightShedding: the gateway serves 256 requests at once. With 256
// long-polls held, the 257th request — an await or a scrape — is shed with
// 503 and Retry-After before authentication, and once the polls are
// answered the gateway serves again.
func TestInFlightShedding(t *testing.T) {
	const maxInFlight = 256
	_, base, broker := start(t, gateway.Config{Tokens: []string{"tok"}})
	// A connection the client dialled and then found no use for is one the
	// gateway's drain would wait on: close them before it (cleanups run
	// last in, first out).
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	auth := map[string]string{"Authorization": "Bearer tok"}
	held := make(chan string, maxInFlight)
	for i := 0; i < maxInFlight; i++ {
		go func() {
			req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/await/hold/%d?timeout=30s", base, i), nil)
			req.Header.Set("Authorization", "Bearer tok")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				held <- err.Error()
				return
			}
			b, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			held <- fmt.Sprintf("%d %s", resp.StatusCode, b)
		}()
	}
	// Only the polls hold slots, and one scrape at a time takes the next:
	// a shed scrape means all 256 are in.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := get(t, base+"/metrics", nil)
		drainClose(t, resp)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the long-polls never filled the gateway")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The 257th await is shed, before its (missing) token is checked.
	for _, hdr := range []map[string]string{auth, nil} {
		resp := get(t, base+"/v1/await/hold/extra?timeout=30s", hdr)
		body := drainClose(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("await number %d = %d %s, want 503", maxInFlight+1, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("shed response missing Retry-After")
		}
	}

	for i := 0; i < maxInFlight; i++ {
		broker.Publish(types.Label(fmt.Sprintf("hold/%d", i)), []byte("v"))
	}
	for i := 0; i < maxInFlight; i++ {
		if got := <-held; !strings.HasPrefix(got, "200") {
			t.Fatalf("held await after its publication = %s, want 200", got)
		}
	}
	// The slots freed: the next request is served again.
	resp := get(t, base+"/v1/await/hold/0", auth)
	drainClose(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request = %d, want 200", resp.StatusCode)
	}
}
