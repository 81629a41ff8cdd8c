package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.AddBlocksBuilt(1)
	m.AddBlocksReceived(1)
	m.AddBlocksInserted(1)
	m.AddBlocksDuplicate(1)
	m.AddBlocksRejected(1)
	m.AddFwdRequestsSent(1)
	m.AddFwdRequestsServed(1)
	m.AddWireSend(10)
	m.AddRequestsEmbedded(1)
	m.AddMsgsMaterialized(1)
	m.AddBlocksInterpreted(1)
	m.AddIndications(1)
	if m.Snapshot() != (Snapshot{}) {
		t.Fatal("nil metrics returned nonzero snapshot")
	}
}

func TestCountersAccumulate(t *testing.T) {
	m := &Metrics{}
	m.AddBlocksBuilt(2)
	m.AddWireSend(100)
	m.AddWireSend(50)
	m.AddMsgsMaterialized(7)
	s := m.Snapshot()
	if s.BlocksBuilt != 2 {
		t.Errorf("BlocksBuilt = %d", s.BlocksBuilt)
	}
	if s.WireMessages != 2 || s.WireBytes != 150 {
		t.Errorf("wire = %d msgs %d bytes", s.WireMessages, s.WireBytes)
	}
	if s.MsgsMaterialized != 7 {
		t.Errorf("MsgsMaterialized = %d", s.MsgsMaterialized)
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
				m.AddWireSend(1)
				m.AddIndications(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.WireMessages != 8000 || s.WireBytes != 8000 || s.Indications != 8000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestSnapshotString(t *testing.T) {
	m := &Metrics{}
	m.AddBlocksBuilt(3)
	out := m.Snapshot().String()
	if !strings.Contains(out, "built=3") {
		t.Fatalf("String() = %q", out)
	}
}

// TestSnapshotDelta uses reflection so a new counter added to Snapshot
// without a matching line in Delta fails here instead of silently
// reporting a zero rate.
func TestSnapshotDelta(t *testing.T) {
	var cur, prev Snapshot
	cv := reflect.ValueOf(&cur).Elem()
	pv := reflect.ValueOf(&prev).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(100 + 10*i))
		pv.Field(i).SetInt(int64(3 * i))
	}
	d := cur.Delta(prev)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		want := int64(100+10*i) - int64(3*i)
		if got := dv.Field(i).Int(); got != want {
			t.Fatalf("Delta field %s = %d, want %d",
				dv.Type().Field(i).Name, got, want)
		}
	}
}

func TestSnapshotDeltaZero(t *testing.T) {
	m := &Metrics{}
	m.AddBlocksBuilt(7)
	s := m.Snapshot()
	if d := s.Delta(s); d != (Snapshot{}) {
		t.Fatalf("self-delta not zero: %+v", d)
	}
}

// TestInterpreterGauges: SetInterpreterState stores, it does not add — the
// gauges fall when the interpreter lets go — and the per-builder gauge is
// sized by the first call.
func TestInterpreterGauges(t *testing.T) {
	m := &Metrics{}
	if m.ChainUnread() != nil || (*Metrics)(nil).ChainUnread() != nil {
		t.Fatal("unread gauges before any block was interpreted")
	}
	m.SetInterpreterState(InterpreterState{LiveInstances: 5, Tombstones: 3, OutMessages: 40, HoldingBlocks: 9}, []int{0, 7, 2, 1})
	m.SetInterpreterState(InterpreterState{RetiredLabels: 2, OutMessages: 4, HoldingBlocks: 1}, []int{1, 0, 0, 1})
	s := m.Snapshot()
	if s.InstancesLive != 0 || s.InstancesRetired != 0 || s.LabelsRetired != 2 || s.OutMessagesHeld != 4 || s.BlocksHolding != 1 {
		t.Fatalf("gauges after the second publish: %+v", s)
	}
	if got := m.ChainUnread(); !reflect.DeepEqual(got, []int64{1, 0, 0, 1}) {
		t.Fatalf("ChainUnread = %v", got)
	}
}
