package gateway

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blockdag/internal/mempool"
	"blockdag/internal/node"
	"blockdag/internal/types"
)

// FuzzSubmit drives POST /v1/submit, the one endpoint whose body any
// client writes, through httptest with a stub admission whose verdict the
// label picks: "full" is mempool.ErrFull, "dup" ErrDuplicate, "big"
// ErrTooLarge, "bad" a validation error, anything else accepted. Whatever
// the body: the only 5xx is 503, and only for ErrFull; a body past
// maxBodyBytes is 413 and never reaches admission; a 202 means a non-empty
// label and a data_b64 that decodes (or none), admitted with those bytes.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"label":"k","data":"hello"}`,
		`{"label":"b","data":"x","data_b64":"AAEC"}`,
		`{"label":"full","data":"v"}`,
		`{"label":"dup","data":"v"}`,
		`{"label":"big","data":"v"}`,
		`{"label":"bad","data":"v"}`,
		`{"label":"","data":"v"}`,
		`{"label":"k","data_b64":"not base64!"}`,
		`{"label":"k","data":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
		`{"label":"k","data":"v"}` + strings.Repeat(" ", maxBodyBytes),
		`{"label":"k"} trailing`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(body))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	var admitted struct {
		label types.Label
		data  []byte
		calls int
	}
	verdicts := map[types.Label]error{
		"full": mempool.ErrFull, "dup": mempool.ErrDuplicate, "big": mempool.ErrTooLarge,
		"bad": errors.New("validation: refused"),
	}
	broker := node.NewIndicationBroker(0)
	defer broker.Close()
	g, err := Serve(ln, Config{
		Indications: broker,
		Submit: func(label types.Label, data []byte) error {
			admitted.label, admitted.data = label, data
			admitted.calls++
			return verdicts[label]
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer g.Close()

	f.Fuzz(func(t *testing.T, body []byte) {
		admitted.calls = 0
		rec := httptest.NewRecorder()
		g.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
		code := rec.Code
		if code >= 500 && (code != http.StatusServiceUnavailable || admitted.calls != 1 || verdicts[admitted.label] != mempool.ErrFull) {
			t.Fatalf("%d for %q (admission called %d times, label %q)", code, body, admitted.calls, admitted.label)
		}
		if len(body) > maxBodyBytes && (code != http.StatusRequestEntityTooLarge || admitted.calls != 0) {
			t.Fatalf("%d-byte body past the %d-byte cap answered %d, admission called %d times", len(body), maxBodyBytes, code, admitted.calls)
		}
		if code != http.StatusAccepted {
			return
		}
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil || req.Label == "" {
			t.Fatalf("202 for %q: %v, label %q", body, err, req.Label)
		}
		want := []byte(req.Data)
		if req.DataB64 != "" {
			if want, err = base64.StdEncoding.DecodeString(req.DataB64); err != nil {
				t.Fatalf("202 for a data_b64 that does not decode: %q", body)
			}
		}
		if admitted.calls != 1 || admitted.label != types.Label(req.Label) || !bytes.Equal(admitted.data, want) {
			t.Fatalf("202 for %q admitted %q %q (%d calls)", body, admitted.label, admitted.data, admitted.calls)
		}
	})
}
