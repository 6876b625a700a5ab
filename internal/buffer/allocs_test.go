package buffer

import (
	"testing"

	"meteorshower/internal/tuple"
)

// TestSourceLogAppendAllocs pins source preservation's hot path: a tuple
// is encoded straight into the pending flush buffer, so the only
// allocations left are per flush (the buffer and its store key), amortised
// over a 64 KB group commit.
func TestSourceLogAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	st := fastStore()
	l := NewSourceLog("S0", st, 64<<10)
	tp := tuple.NewAt(1, "S0", "ph0-17", 1, make([]byte, 164))
	const runs = 10000
	allocs := testing.AllocsPerRun(runs, func() {
		tp.ID++
		if err := l.Append(tp); err != nil {
			t.Fatal(err)
		}
	})
	if flushes := st.Disk().Stats().Ops; flushes < 10 {
		t.Fatalf("only %d flushes over %d appends: the amortisation is not measured", flushes, runs)
	}
	if allocs >= 0.1 {
		t.Fatalf("SourceLog.Append: %.3f allocations per tuple, want < 0.1", allocs)
	}
}
