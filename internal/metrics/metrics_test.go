package metrics

import (
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
}

func TestCountersAccumulate(t *testing.T) {
	m := &Metrics{}
	m.Add(BlocksBuilt, 2)
	m.Add(WireBytes, 100)
	m.Add(WireBytes, 50)
	m.Set(Tips, 9)
	m.Set(Tips, 3)
	if m.Get(BlocksBuilt) != 2 || m.Get(WireBytes) != 150 || m.Get(Tips) != 3 || m.Get(WireMessages) != 0 {
		t.Fatalf("built %d, wire bytes %d, tips %d, wire messages %d",
			m.Get(BlocksBuilt), m.Get(WireBytes), m.Get(Tips), m.Get(WireMessages))
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
	if m.Get(WireMessages) != 8000 || m.Get(Indications) != 8000 {
		t.Fatalf("lost updates: %d wire messages, %d indications", m.Get(WireMessages), m.Get(Indications))
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

// TestEveryRowIsRendered walks the table, so a row added to it cannot be
// missing from the scrape: every row is one sample, under its declared
// type, holding its value.
func TestEveryRowIsRendered(t *testing.T) {
	m := &Metrics{}
	for id := range Families {
		m.Set(ID(id), int64(100+10*id))
	}
	var scrape strings.Builder
	reg := NewRegistry()
	reg.Register(Families.Collector(m))
	if _, err := reg.WriteTo(&scrape); err != nil {
		t.Fatal(err)
	}
	for id, f := range Families {
		if want := fmt.Sprintf("# TYPE %s %s\n%s %d\n", f.Name, f.Kind, f.Name, 100+10*id); !strings.Contains(scrape.String(), want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
}

// TestTableDeclaration: rows get consecutive IDs, With shares its family's
// metadata, and Sample adds the caller's labels after the fixed ones
// without touching the row.
func TestTableDeclaration(t *testing.T) {
	var tab Table
	a := tab.Counter("x_total", "X.")
	b := tab.Counter("y_total", "Y by class.", "class", "2xx")
	c := tab.With(b, "4xx")
	d := tab.Gauge("z", "Z.")
	if a != 0 || b != 1 || c != 2 || d != 3 || len(tab) != 4 {
		t.Fatalf("ids %d %d %d %d over %d rows", a, b, c, d, len(tab))
	}
	if f := tab[c]; f.Name != "y_total" || f.Help != "Y by class." || f.Kind != Counter ||
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

// TestFamilyNamesUnique: within the core table no Prometheus name is
// declared twice (With rows aside, which it has none of).
func TestFamilyNamesUnique(t *testing.T) {
	names := map[string]bool{}
	for _, f := range Families {
		if names[f.Name] || f.Name == "" || f.Help == "" {
			t.Fatalf("row %+v repeats a name, or lacks one or its help", f)
		}
		names[f.Name] = true
		if (f.Kind == Counter) != strings.HasSuffix(f.Name, "_total") {
			t.Fatalf("%s is a %s", f.Name, f.Kind)
		}
	}
	if len(Families) > maxFamilies {
		t.Fatalf("%d rows over %d slots", len(Families), maxFamilies)
	}
}
