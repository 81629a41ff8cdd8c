package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"blockdag/internal/node"
	"blockdag/internal/types"
)

// flushCounter is a response writer that counts its flushes. The first — the
// stream's header, sent once the handler has subscribed — waits for proceed,
// and every one is announced on flushed.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
	flushed chan struct{}
	proceed chan struct{}
}

func (w *flushCounter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
	w.flushed <- struct{}{}
	if w.flushes == 1 {
		<-w.proceed
	}
}

// TestIndicationStreamFlushesOncePerBurst: k indications published in one
// turn, as a block's are, reach the stream as the same NDJSON lines they
// did one flush apiece, in one flush.
func TestIndicationStreamFlushesOncePerBurst(t *testing.T) {
	const k = 30
	broker := node.NewIndicationBroker(0)
	g := &Gateway{cfg: Config{Indications: broker}}
	// flushed holds a flush per indication and the header's: a stream that
	// flushes per indication must fail here, not block.
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{}, k+1), proceed: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.handleIndications(w, httptest.NewRequest(http.MethodGet, "/v1/indications", nil))
	}()
	<-w.flushed // subscribed, and held in the header's flush
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range k {
		label, value := types.Label(fmt.Sprintf("burst/%d", i)), []byte(fmt.Sprint("v", i))
		broker.Publish(label, value)
		if err := enc.Encode(toResponse(node.Indication{Label: label, Value: value, Seq: uint64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	close(w.proceed)
	<-w.flushed // the burst's
	broker.Close()
	<-done
	if w.flushes != 2 {
		t.Fatalf("%d flushes for the header and a burst of %d, want 2", w.flushes, k)
	}
	if got := w.Body.String(); got != want.String() {
		t.Fatalf("stream wrote\n%s\nwant\n%s", got, want.String())
	}
}
