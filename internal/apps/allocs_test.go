package apps

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"meteorshower/internal/tuple"
)

// The TMI job's per-tuple objects are single allocations: a source report
// is its payload, and a Pair or GoogleMap output is its header and 16-byte
// Speed payload together.

func TestPositionPayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const phones = 900
	fn := PositionPayload(3, phones, 140)
	rng := rand.New(rand.NewSource(1))
	var id uint64
	for ; id < phones; id++ { // every phone reported once: its name is built
		fn(id, rng)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		fn(id, rng)
	})
	if allocs != 1 {
		t.Fatalf("PositionPayload: %.2f allocations per report, want 1", allocs)
	}
}

func TestPairAndRefSpeedOnTupleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	emitted := 0
	emit := func(int, *tuple.Tuple) { emitted++ }

	pair := NewPairOp("P0")
	in := posTuple(1, "ph0-1", 1, 2, 1)
	if err := pair.OnTuple(0, in, emit); err != nil { // first report: no output
		t.Fatal(err)
	}
	ts := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		ts++
		binary.LittleEndian.PutUint64(in.Data[16:], uint64(ts)) // a newer report of the same phone
		if err := pair.OnTuple(0, in, emit); err != nil {
			t.Fatal(err)
		}
	})
	if emitted != 1001 {
		t.Fatalf("PairOp emitted %d speeds, want one per call", emitted)
	}
	if allocs != 1 {
		t.Fatalf("PairOp.OnTuple: %.2f allocations per emitted speed, want 1", allocs)
	}

	m := NewRefSpeedOp("M0", 10)
	sp := tuple.New(1, "P0", "ph0-1", Speed{V: 3}.Encode())
	emitted = 0
	allocs = testing.AllocsPerRun(1000, func() {
		if err := m.OnTuple(0, sp, emit); err != nil {
			t.Fatal(err)
		}
	})
	if emitted != 1001 {
		t.Fatalf("RefSpeedOp emitted %d tuples, want one per call", emitted)
	}
	if allocs != 1 {
		t.Fatalf("RefSpeedOp.OnTuple: %.2f allocations per emitted tuple, want 1", allocs)
	}
}
