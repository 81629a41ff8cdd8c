package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilMetricsSafe: a nil *Metrics discards every update of every row and
// reads as zeros.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	for id := range Families {
		m.Add(ID(id), 1)
		m.Set(ID(id), 1)
		if m.Get(ID(id)) != 0 {
			t.Fatal("nil metrics returned a nonzero value")
		}
	}
	if Families.Collector(m) != nil {
		t.Fatal("collector over nil metrics")
	}
	s := Families.Snapshot(m)
	for id := range Families {
		if s.Get(ID(id)) != 0 {
			t.Fatal("nil metrics returned nonzero snapshot")
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	m := &Metrics{}
	m.Add(BlocksBuilt, 2)
	m.Add(WireBytes, 100)
	m.Add(WireBytes, 50)
	m.Set(Tips, 9)
	m.Set(Tips, 3)
	s := Families.Snapshot(m)
	if s.Get(BlocksBuilt) != 2 || s.Get(WireBytes) != 150 || s.Get(Tips) != 3 || s.Get(WireMessages) != 0 {
		t.Fatalf("snapshot = %v, tips %d", s, s.Get(Tips))
	}
}

func TestConcurrentUpdates(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add(WireMessages, 1)
				m.Add(Indications, 1)
			}
		}()
	}
	wg.Wait()
	if s := Families.Snapshot(m); s.Get(WireMessages) != 8000 || s.Get(Indications) != 8000 {
		t.Fatalf("lost updates: %v", s)
	}
}

// TestUpdatesDoNotAllocate: counting is free of the heap on both receivers.
func TestUpdatesDoNotAllocate(t *testing.T) {
	m, none := &Metrics{}, (*Metrics)(nil)
	if n := testing.AllocsPerRun(100, func() {
		m.Add(BlocksBuilt, 1)
		m.Set(Tips, 4)
		none.Add(BlocksBuilt, 1)
		none.Set(Tips, 4)
	}); n != 0 {
		t.Fatalf("Add/Set allocate %v times per run", n)
	}
}

// filled has row id at 100+10·id, prev at 3·id.
func filled(t Table) (cur, prev Snapshot) {
	a, b := &Metrics{}, &Metrics{}
	for id := range t {
		a.Set(ID(id), int64(100+10*id))
		b.Set(ID(id), int64(3*id))
	}
	return t.Snapshot(a), t.Snapshot(b)
}

// TestEveryRowIsRendered walks the table, so a row added to it cannot be
// missing from a rendering: every counter is in String and in Delta, no
// gauge is in Delta (a level has no rate), every keyed row is in the JSON,
// and every row is one sample of the scrape. At PR 24 it fails twice: Delta
// subtracted the eight gauges and String did not know OwnBlockRefs.
func TestEveryRowIsRendered(t *testing.T) {
	cur, prev := filled(Families)
	str, delta := cur.String(), cur.Delta(prev)
	raw, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]int64
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	var scrape strings.Builder
	reg := NewRegistry()
	reg.Register(Families.Collector(m))
	if _, err := reg.WriteTo(&scrape); err != nil {
		t.Fatal(err)
	}
	counters := 0
	for id, f := range Families {
		want := int64(100 + 10*id)
		if got, ok := doc[f.Key]; !ok || got != want {
			t.Errorf("JSON %s = %d (present %v), want %d", f.Key, got, ok, want)
		}
		if !strings.Contains(scrape.String(), "# TYPE "+f.Name+" "+string(f.Kind)+"\n"+f.Name+" 0\n") {
			t.Errorf("scrape lacks %s %s", f.Kind, f.Name)
		}
		d, inDelta := delta[f.Key]
		if f.Kind == Gauge {
			if inDelta {
				t.Errorf("Delta lists gauge %s", f.Key)
			}
			continue
		}
		counters++
		if !inDelta || d != want-int64(3*id) {
			t.Errorf("Delta %s = %d (present %v), want %d", f.Key, d, inDelta, want-int64(3*id))
		}
		if !strings.Contains(" "+str+" ", fmt.Sprintf(" %s=%d ", f.Key, want)) {
			t.Errorf("String lacks counter %s: %q", f.Key, str)
		}
	}
	if len(doc) != len(Families) || len(delta) != counters {
		t.Fatalf("JSON has %d keys for %d rows, Delta %d for %d counters", len(doc), len(Families), len(delta), counters)
	}
}

func TestSnapshotDeltaZero(t *testing.T) {
	m := &Metrics{}
	m.Add(BlocksBuilt, 7)
	s := Families.Snapshot(m)
	for key, d := range s.Delta(s) {
		if d != 0 {
			t.Fatalf("self-delta of %s = %d", key, d)
		}
	}
	// A first poll's window is measured from the zero Snapshot.
	if d := s.Delta(Snapshot{}); d["BlocksBuilt"] != 7 {
		t.Fatalf("delta from nothing = %v", d)
	}
}

// TestTableDeclaration: rows get consecutive IDs, With shares its family's
// metadata, and Sample adds the caller's labels after the fixed ones
// without touching the row.
func TestTableDeclaration(t *testing.T) {
	var tab Table
	a := tab.Counter("a", "x_total", "X.")
	b := tab.Counter("b2", "y_total", "Y by class.", "class", "2xx")
	c := tab.With(b, "b4", "4xx")
	d := tab.Gauge("", "z", "Z.")
	if a != 0 || b != 1 || c != 2 || d != 3 || len(tab) != 4 {
		t.Fatalf("ids %d %d %d %d over %d rows", a, b, c, d, len(tab))
	}
	if f := tab[c]; f.Name != "y_total" || f.Help != "Y by class." || f.Kind != Counter || f.Key != "b4" ||
		len(f.Labels) != 1 || f.Labels[0] != [2]string{"class", "4xx"} || tab[b].Labels[0][1] != "2xx" {
		t.Fatalf("With row = %+v after %+v", f, tab[b])
	}
	s := tab.Sample(b, 2, "peer", "7")
	if len(s.Labels) != 2 || s.Labels[0] != [2]string{"class", "2xx"} || s.Labels[1] != [2]string{"peer", "7"} || len(tab[b].Labels) != 1 {
		t.Fatalf("sample labels %v, row labels %v", s.Labels, tab[b].Labels)
	}
	if s := tab.Sample(d, 1.5); s.Kind != Gauge || s.Value != 1.5 || s.Labels != nil {
		t.Fatalf("sample = %+v", s)
	}
}

// TestFamilyNamesUnique: within the core table no Prometheus name and no
// status key is declared twice (With rows aside, which it has none of).
func TestFamilyNamesUnique(t *testing.T) {
	names, keys := map[string]bool{}, map[string]bool{}
	for _, f := range Families {
		if names[f.Name] || keys[f.Key] || f.Name == "" || f.Key == "" || f.Help == "" {
			t.Fatalf("row %+v repeats a name or a key, or lacks one", f)
		}
		names[f.Name], keys[f.Key] = true, true
		if (f.Kind == Counter) != strings.HasSuffix(f.Name, "_total") {
			t.Fatalf("%s is a %s", f.Name, f.Kind)
		}
	}
	if len(Families) > maxFamilies {
		t.Fatalf("%d rows over %d slots", len(Families), maxFamilies)
	}
}
