package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/store"
)

// TestVerifyRefusesRetiredFormats: a store holding the evidence sidecar or
// a head of the format before it held proofs fails verify, the retired
// format named.
func TestVerifyRefusesRetiredFormats(t *testing.T) {
	for name, data := range map[string]string{
		"evidence.log": "BDEVID1\n",
		"head":         "BDHEAD1\n\x00\x00\x00\x00\x00\x00\x00",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"verify", "-dir", dir, "-n", "4"})
		if err == nil || !strings.Contains(err.Error(), "retired format") {
			t.Fatalf("verify over a retired %s: err = %v, want it refused as a retired format", name, err)
		}
	}
}

// TestVerifyRefusesARecordThatDoesNotDecode: a store whose journal holds a
// whole record of a block past block.Decode's bounds — what an older build
// could have written — fails verify as corrupt, naming the segment, and
// verify leaves the segment as it was.
func TestVerifyRefusesARecordThatDoesNotDecode(t *testing.T) {
	h := dagtest.NewHarness(4)
	g := h.Seal(1, 0, nil)
	wide := h.Seal(1, 1, []block.Ref{g.Ref()}, dagtest.Wide(block.MaxRequests+1)...)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: h.Roster})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range []*block.Block{g, wide} {
		if err := st.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d segments (%v), want 1", len(segs), err)
	}
	before, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = stdout(t, func() error { return run([]string{"verify", "-dir", dir, "-n", "4"}) })
	if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
		t.Fatalf("verify over a record that does not decode: err = %v, want ErrCorrupt naming %s", err, filepath.Base(segs[0]))
	}
	if after, err := os.ReadFile(segs[0]); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("verify changed the segment (%d → %d bytes, %v)", len(before), len(after), err)
	}
}

// TestEveryCommandShowsTheForks: the fork collection of the rebuild reaches
// every command — inspect and render print one EQUIVOCATION line per forked
// slot, first block before second, and verify refuses the store for it.
func TestEveryCommandShowsTheForks(t *testing.T) {
	h := dagtest.NewHarness(4)
	g := h.Seal(1, 0, nil)
	a := h.Seal(1, 1, []block.Ref{g.Ref()}, block.Request{Label: "ℓ", Data: []byte("a")})
	b := h.Seal(1, 1, []block.Ref{g.Ref()}, block.Request{Label: "ℓ", Data: []byte("b")})
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: h.Roster})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range []*block.Block{g, a, b} {
		if err := st.Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"inspect"}, fmt.Sprintf("EQUIVOCATION s1 at seq 1: %s vs %s\n", a.Ref(), b.Ref())},
		{[]string{"render", "-format", "ascii"}, fmt.Sprintf("EQUIVOCATION s1 at k1: %s vs %s\n", a.Ref(), b.Ref())},
	} {
		out, err := stdout(t, func() error { return run(append(tc.args, "-dir", dir, "-n", "4")) })
		if err != nil || !strings.Contains(out, tc.want) {
			t.Fatalf("%v: err %v, output\n%s\nwant a line %q", tc.args, err, out, tc.want)
		}
	}
	if _, err := stdout(t, func() error { return run([]string{"verify", "-dir", dir, "-n", "4"}) }); err == nil ||
		!strings.Contains(err.Error(), "1 equivocations") {
		t.Fatalf("verify over a forked store: err = %v, want the fork refused", err)
	}
}

// stdout runs fn and returns what it printed to os.Stdout.
func stdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = saved
	_ = w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}
