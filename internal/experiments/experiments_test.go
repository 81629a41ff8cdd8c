package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	out := tbl.Render()
	if !strings.Contains(out, "EX — demo") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "333") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("missing note:\n%s", out)
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %s has no Run", e.ID)
		}
	}
}

// TestE13Shape validates the O(n²) claim's shape: refs/block ≈ n while a
// round's blocks are all tips, and never more.
func TestE13Shape(t *testing.T) {
	tbl, err := E13ReferenceOverhead()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		n, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		refs, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if refs > float64(n) || n <= 10 && refs < float64(n)-0.5 {
			t.Fatalf("n=%d: refs/block = %.2f, want ≈ n and at most n", n, refs)
		}
	}
}

// TestE9Shape validates the compression claim's shape: the DAG side sends
// strictly fewer wire messages than the direct baseline at every n.
func TestE9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster experiment")
	}
	tbl, err := E9MessageCompression()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		dagMsgs, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		directMsgs, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if dagMsgs >= directMsgs {
			t.Fatalf("n=%s: DAG sent %d wire msgs, direct %d — no compression", row[0], dagMsgs, directMsgs)
		}
	}
}

// TestE16Shape validates the table's shape: a block never cites more
// blocks than it brings into its chain's ancestry, and under rate skew it
// cites strictly fewer.
func TestE16Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster experiment")
	}
	tbl, err := E16ReferencesPerBlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		refs, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		seen, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if refs > seen || row[1] != "0" && refs >= seen {
			t.Fatalf("n=%s skew=%s: %.1f refs/block for %.1f blocks seen", row[0], row[1], refs, seen)
		}
	}
}

// TestE5Converges just asserts the experiment completes: convergence is
// its internal invariant (it errors after 50 rounds without it).
func TestE5Converges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster experiment")
	}
	if _, err := E5GossipConvergence(); err != nil {
		t.Fatal(err)
	}
}
