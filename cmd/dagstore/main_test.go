package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
