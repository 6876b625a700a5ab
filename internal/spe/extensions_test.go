package spe

import (
	"context"
	"fmt"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// TestDeltaCheckpointWritesLess checkpoints a counter HAU twice with a tiny
// state change in between: the second write must be a small delta, and
// recovery from it must reconstruct the full state.
func TestDeltaCheckpointWritesLess(t *testing.T) {
	store := fastStore()
	cat := storage.NewCatalog(store, []string{"H"})
	in := NewEdge("x", "H", 0)
	out := NewEdge("H", "drain", 0)
	discard(t, out)
	cnt := operator.NewCounter("c")
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAP, Ops: []operator.Operator{cnt},
		In: []*Edge{in}, Out: []*Edge{out}, Catalog: cat,
		TickEvery: time.Millisecond, DeltaCheckpoint: true, DeltaFullEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	// Build a multi-block state (distinct keys), then checkpoint epoch 1
	// (full).
	for i := uint64(1); i <= 400; i++ {
		tp := tuple.New(i, "x", fmt.Sprintf("key-%03d", i), nil)
		tp.Seq = i
		in.Inject(nil, tp)
	}
	in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "x"}))
	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 1 })

	// Bump one existing key, then epoch 2 (delta): the count updates in
	// place inside its slot, so only that slot's blocks change.
	tp := tuple.New(401, "x", "key-001", nil)
	tp.Seq = 401
	in.Inject(nil, tp)
	in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 2, Kind: tuple.OneHop, From: "x"}))
	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 2 })
	h.WaitWriters()

	lis.mu.Lock()
	fullBytes := lis.ckpts[0].b.StateBytes
	deltaBytes := lis.ckpts[1].b.StateBytes
	lis.mu.Unlock()
	if deltaBytes >= fullBytes {
		t.Fatalf("delta (%d) not smaller than full (%d)", deltaBytes, fullBytes)
	}

	// Recovery from the delta epoch reconstructs the counter.
	blob, _, err := cat.LoadState(2, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt2 := operator.NewCounter("c")
	h2, _ := New(Config{
		ID: "H", Scheme: MSSrcAP, Ops: []operator.Operator{cnt2},
		In: []*Edge{NewEdge("x", "H", 0)}, Out: []*Edge{NewEdge("H", "drain", 0)},
	})
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	if cnt2.Total() != 401 {
		t.Fatalf("restored count = %d, want 401", cnt2.Total())
	}
	cancel()
}

// TestDeltaFullEveryForcesFullSaves verifies the periodic full snapshot.
func TestDeltaFullEveryForcesFullSaves(t *testing.T) {
	store := fastStore()
	cat := storage.NewCatalog(store, []string{"H"})
	in := NewEdge("x", "H", 0)
	out := NewEdge("H", "drain", 0)
	discard(t, out)
	h, _ := New(Config{
		ID: "H", Scheme: MSSrcAP, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in}, Out: []*Edge{out}, Catalog: cat,
		TickEvery: time.Millisecond, DeltaCheckpoint: true, DeltaFullEvery: 2,
	})
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)
	for e := uint64(1); e <= 4; e++ {
		tp := tuple.New(e, "x", "k", make([]byte, 500))
		tp.Seq = e
		in.Inject(nil, tp)
		in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: e, Kind: tuple.OneHop, From: "x"}))
		waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == int(e) })
	}
	h.WaitWriters()
	// Epochs 1 and 3 are full (state includes a 0-byte... we just check
	// every epoch restores).
	for e := uint64(1); e <= 4; e++ {
		if _, _, err := cat.LoadState(e, "H"); err != nil {
			t.Fatalf("epoch %d unreadable: %v", e, err)
		}
	}
	cancel()
}

// TestLoadShedding saturates a consumer and verifies the producer drops
// instead of blocking once the output queue passes the watermark.
func TestLoadShedding(t *testing.T) {
	out := NewEdge("H", "slow", 10)
	gen := operator.NewRateSource("H", 0, 1, operator.BytePayload(8, 2))
	gen.MaxRate = true
	gen.CatchUpCap = 50
	h, err := New(Config{
		ID: "H", Scheme: MSSrc, Ops: []operator.Operator{gen},
		Out: []*Edge{out}, TickEvery: time.Millisecond,
		ShedWatermark: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)
	// Nobody drains `out`: the queue fills to the watermark and sheds
	// keep the HAU live instead of deadlocked.
	waitFor(t, 5*time.Second, func() bool { return h.ShedCount() > 100 })
	if q := out.Occupancy(); q > 8 {
		t.Fatalf("queue overfilled despite watermark: %d", q)
	}
	cancel()
}

// TestNoSheddingByDefault: with watermark 0 the producer must block, not
// drop.
func TestNoSheddingByDefault(t *testing.T) {
	out := NewEdge("H", "slow", 4)
	gen := operator.NewRateSource("H", 0, 1, operator.BytePayload(8, 2))
	gen.MaxRate = true
	gen.CatchUpCap = 50
	h, _ := New(Config{
		ID: "H", Scheme: MSSrc, Ops: []operator.Operator{gen},
		Out: []*Edge{out}, TickEvery: time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)
	waitFor(t, 5*time.Second, func() bool { return out.Queued() == 4 })
	time.Sleep(20 * time.Millisecond)
	if h.ShedCount() != 0 {
		t.Fatal("shed without watermark")
	}
	cancel()
}
