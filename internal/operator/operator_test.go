package operator

import (
	"testing"
	"testing/quick"

	"meteorshower/internal/partition"
	"meteorshower/internal/tuple"
)

// capture collects emitted tuples per port.
type capture struct {
	byPort map[int][]*tuple.Tuple
}

func newCapture() *capture { return &capture{byPort: make(map[int][]*tuple.Tuple)} }

func (c *capture) emit(port int, t *tuple.Tuple) {
	c.byPort[port] = append(c.byPort[port], t)
}

func (c *capture) total() int {
	n := 0
	for _, ts := range c.byPort {
		n += len(ts)
	}
	return n
}

func mk(id uint64, key string) *tuple.Tuple {
	return tuple.New(id, "S", key, []byte("x"))
}

func TestMapTransformsAndDrops(t *testing.T) {
	m := NewMap("m", func(in *tuple.Tuple) *tuple.Tuple {
		if in.Key == "drop" {
			return nil
		}
		out := in.Clone()
		out.Key = "mapped"
		return out
	})
	c := newCapture()
	m.OnTuple(0, mk(1, "keep"), c.emit)
	m.OnTuple(0, mk(2, "drop"), c.emit)
	if len(c.byPort[0]) != 1 || c.byPort[0][0].Key != "mapped" {
		t.Fatalf("map output = %+v", c.byPort[0])
	}
	if m.StateSize() != 0 {
		t.Fatal("map must be stateless")
	}
}

func TestPassthroughFanout(t *testing.T) {
	p := NewPassthrough("g", 3)
	c := newCapture()
	p.OnTuple(0, mk(1, "k"), c.emit)
	for port := 0; port < 3; port++ {
		if len(c.byPort[port]) != 1 {
			t.Fatalf("port %d got %d tuples", port, len(c.byPort[port]))
		}
	}
	// Fanout copies must be independent.
	c.byPort[0][0].Data[0] = 0xFF
	if c.byPort[1][0].Data[0] == 0xFF {
		t.Fatal("fanout shares payloads")
	}
}

func TestPassthroughDefaultFanout(t *testing.T) {
	p := NewPassthrough("g", 0)
	c := newCapture()
	p.OnTuple(0, mk(1, "k"), c.emit)
	if c.total() != 1 {
		t.Fatal("default fanout must be 1")
	}
}

func TestCounterCountsAndSurvivesRestore(t *testing.T) {
	cnt := NewCounter("c")
	c := newCapture()
	for i := 0; i < 5; i++ {
		cnt.OnTuple(0, mk(uint64(i), "a"), c.emit)
	}
	cnt.OnTuple(0, mk(9, "b"), c.emit)
	if cnt.Count("a") != 5 || cnt.Count("b") != 1 || cnt.Total() != 6 {
		t.Fatalf("counts wrong: a=%d b=%d", cnt.Count("a"), cnt.Count("b"))
	}
	if c.total() != 6 {
		t.Fatal("counter must forward tuples")
	}
	snap, _ := cnt.Snapshot()
	cnt2 := NewCounter("c")
	if err := cnt2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if cnt2.Count("a") != 5 || cnt2.Total() != 6 {
		t.Fatal("restored counter lost counts")
	}
}

func TestSlotWeightsReflectKeyedState(t *testing.T) {
	cnt := NewCounter("c")
	c := newCapture()
	for i := 0; i < 8; i++ {
		cnt.OnTuple(0, mk(uint64(i), "hotkey"), c.emit)
	}
	snap, err := cnt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := partition.SlotBytes(snap)
	if len(w) != partition.DefaultSlots {
		t.Fatalf("got %d slot weights, want %d", len(w), partition.DefaultSlots)
	}
	hot := partition.SlotOf("hotkey", partition.DefaultSlots)
	if w[hot] <= 0 {
		t.Fatalf("hot slot %d weighs %d, want > 0", hot, w[hot])
	}
	if w.Total() != w[hot] {
		t.Fatalf("weight leaked outside the hot slot: total %d, hot %d", w.Total(), w[hot])
	}
}

func TestCounterRestoreCorrupt(t *testing.T) {
	cnt := NewCounter("c")
	if err := cnt.Restore([]byte{1, 2}); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

// Property: Counter snapshot/restore is lossless for arbitrary key sets.
func TestQuickCounterRoundTrip(t *testing.T) {
	f := func(keys []string) bool {
		cnt := NewCounter("c")
		for i, k := range keys {
			if k == "" {
				k = "empty"
			}
			if len(k) > 100 {
				k = k[:100]
			}
			cnt.OnTuple(0, mk(uint64(i), k), func(int, *tuple.Tuple) {})
		}
		snap, err := cnt.Snapshot()
		if err != nil {
			return false
		}
		cnt2 := NewCounter("c")
		if err := cnt2.Restore(snap); err != nil {
			return false
		}
		return cnt2.Total() == cnt.Total() && cnt2.StateSize() == cnt.StateSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
