package spe

import (
	"context"
	"runtime"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// Tests of the per-HAU inbox: the Edge ring and the loop's per-port reads.
// None of them sleeps for a fixed time to let something happen; each waits
// on an observable condition instead.

func dataTuple(src string, id uint64) *tuple.Tuple {
	tp := tuple.New(id, src, src, nil)
	tp.Seq = id
	return tp
}

// waitBlocked spins until n senders are parked on e's full ring.
func waitBlocked(t *testing.T, e *Edge, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		w := e.waiters
		e.mu.Unlock()
		if w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d senders blocked, want %d", w, n)
		}
		runtime.Gosched()
	}
}

func TestEdgeFIFO(t *testing.T) {
	e := NewEdgeBatch("a", "b", 8, 2) // 4 batch slots
	for i := uint64(1); i <= 4; i++ {
		if !e.Inject(nil, dataTuple("a", i)) {
			t.Fatal("inject failed")
		}
	}
	if q := e.Queued(); q != 4 {
		t.Fatalf("Queued = %d, want 4", q)
	}
	// Interleave pops and pushes so the ring wraps.
	var got []uint64
	for i := uint64(5); i <= 10; i++ {
		b, closed := e.pop()
		if b == nil || closed {
			t.Fatalf("pop %d: batch %v closed %v", i, b, closed)
		}
		got = append(got, b.Tuples[0].ID)
		e.Inject(nil, dataTuple("a", i))
	}
	for {
		b, ok := e.Recv(context.Background())
		if !ok {
			t.Fatal("Recv failed on an open edge")
		}
		got = append(got, b.Tuples[0].ID)
		if len(got) == 10 {
			break
		}
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("order %v, want 1..10", got)
		}
	}
	if q := e.Queued(); q != 0 {
		t.Fatalf("Queued = %d after draining, want 0", q)
	}
}

func TestEdgeFlushBlocksOnFullRing(t *testing.T) {
	e := NewEdgeBatch("a", "b", 2, 1) // 2 batch slots
	e.Inject(nil, dataTuple("a", 1))
	e.Inject(nil, dataTuple("a", 2))

	e.Append(dataTuple("a", 3))
	flushed := make(chan bool)
	go func() { flushed <- e.Flush(context.Background()) }()
	waitBlocked(t, e, 1)
	select {
	case <-flushed:
		t.Fatal("Flush returned on a full ring")
	default:
	}
	if b, _ := e.pop(); b == nil || b.Tuples[0].ID != 1 {
		t.Fatalf("pop = %v, want id 1", b)
	}
	if !<-flushed {
		t.Fatal("Flush failed after a pop made room")
	}
	if e.PendingLen() != 0 {
		t.Fatal("batch still pending after a successful Flush")
	}

	// Full again: a cancelled ctx makes Flush give up and keep the batch.
	e.Append(dataTuple("a", 4))
	ctx, cancel := context.WithCancel(context.Background())
	go func() { flushed <- e.Flush(ctx) }()
	waitBlocked(t, e, 1)
	cancel()
	if <-flushed {
		t.Fatal("Flush succeeded on a full ring after ctx cancel")
	}
	if e.PendingLen() != 1 {
		t.Fatalf("pending = %d after a failed Flush, want 1", e.PendingLen())
	}
	waitBlocked(t, e, 0)
}

func TestEdgeConcurrentInjectorsAllLand(t *testing.T) {
	e := NewEdgeBatch("a", "b", 1, 1) // one slot, three blocked senders
	e.Inject(nil, dataTuple("a", 1))
	done := make(chan struct{})
	for i := uint64(2); i <= 4; i++ {
		go func(id uint64) {
			e.Inject(nil, dataTuple("a", id))
			done <- struct{}{}
		}(i)
	}
	waitBlocked(t, e, 3)
	seen := map[uint64]bool{}
	for len(seen) < 4 {
		b, ok := e.Recv(context.Background())
		if !ok {
			t.Fatal("Recv failed")
		}
		seen[b.Tuples[0].ID] = true
	}
	for i := 0; i < 3; i++ {
		<-done
	}
}

func TestEdgeCloseAfterQueuedBatches(t *testing.T) {
	e := NewEdgeBatch("a", "b", 8, 1)
	e.Inject(nil, dataTuple("a", 1))
	e.Inject(nil, dataTuple("a", 2))
	e.Close()
	for want := uint64(1); want <= 2; want++ {
		b, closed := e.pop()
		if b == nil || closed || b.Tuples[0].ID != want {
			t.Fatalf("pop: batch %v closed %v, want id %d before the hang-up", b, closed, want)
		}
	}
	if b, closed := e.pop(); b != nil || !closed {
		t.Fatalf("pop after the queue: batch %v closed %v, want the hang-up", b, closed)
	}
	if _, ok := e.Recv(context.Background()); ok {
		t.Fatal("Recv on a closed, drained edge returned a batch")
	}
}

// TestAligningPortBlocksOnlyItsSender: while one input of a two-input HAU
// is aligned, its batches stay on its edge and its sender blocks on the
// full ring, while the other input keeps flowing through the operator.
func TestAligningPortBlocksOnlyItsSender(t *testing.T) {
	f := newAlignFixture(t) // 16-tuple edges of one 16-tuple batch slot
	defer f.cancel()
	f.in0.Inject(nil, f.token(1, "u0"))
	f.in0.Inject(nil, f.data("u0", 1, 1))
	blocked := make(chan struct{})
	go func() {
		f.in0.Inject(nil, f.data("u0", 2, 2))
		close(blocked)
	}()
	waitBlocked(t, f.in0, 1)

	for i := uint64(1); i <= 5; i++ {
		f.in1.Inject(nil, f.data("u1", i, i))
	}
	counts, _ := f.waitDelivered(t, map[string]int{"u1": 5})
	// Every round visits in0 before in1, so had in0 been readable its batch
	// would be gone by the time in1's fifth batch went through.
	if counts["u0"] != 0 || f.in0.Queued() != 1 {
		t.Fatalf("aligning port read: delivered u0=%d, queued %d, want 0 and 1", counts["u0"], f.in0.Queued())
	}
	select {
	case <-blocked:
		t.Fatal("sender on the aligning port got through")
	default:
	}

	f.in1.Inject(nil, f.token(1, "u1"))
	<-blocked
	f.waitDelivered(t, map[string]int{"u0": 2})
	waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 1 })
	if cut := f.cutCounts(t, 1); cut["u0"] != 0 || cut["u1"] != 5 {
		t.Fatalf("cut = %v, want u0=0 u1=5", cut)
	}
}

// TestAddInPortMidAlignment: a port attached while the HAU aligns starts
// readable, and the checkpoint waits for its token too — its pre-token
// tuples belong to the cut.
func TestAddInPortMidAlignment(t *testing.T) {
	f := newAlignFixture(t)
	defer f.cancel()
	f.in0.Inject(nil, f.token(1, "u0"))
	in2 := NewEdge("u2", "H", 16)
	attached := make(chan []byte, 1)
	f.h.Command(Command{Kind: CmdAddInPort, Edge: in2, Logical: 0, Reply: attached})
	<-attached
	in2.Inject(nil, f.data("u2", 1, 1))
	f.waitDelivered(t, map[string]int{"u2": 1})
	f.in1.Inject(nil, f.token(1, "u1"))
	// in1 is now aligned too; in2 stays readable and its token is owed.
	in2.Inject(nil, f.data("u2", 2, 2))
	f.waitDelivered(t, map[string]int{"u2": 1})
	if n := f.lis.ckptCount(); n != 0 {
		t.Fatalf("%d checkpoints before the attached port's token", n)
	}
	in2.Inject(nil, f.token(1, "u2"))
	waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 1 })
}

// TestUnalignedReadAheadPastFullRing: an unaligned capture armed before a
// backlog arrives must reach a token that sits behind several full rings
// of data. The loop reads the unsealed port ahead, logging and parking what
// it passes, so the blocked sender keeps getting room until the token lands
// and the capture seals with exactly the pre-token tuples logged.
func TestUnalignedReadAheadPastFullRing(t *testing.T) {
	const pre, post = 20, 5
	in := NewEdgeBatch("u0", "H", 4, 1) // 4 slots: the backlog is 5 rings deep
	out := NewEdge("H", "sink", 1024)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in}, Out: []*Edge{out}, Catalog: cat, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	// Arm first: the HAU broadcasts its own token at the arm instant.
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	r := newEdgeReader(out)
	waitFor(t, 5*time.Second, func() bool {
		tp := r.tryNext()
		return tp != nil && tp.IsToken()
	})

	sent := make(chan struct{})
	go func() {
		for i := uint64(1); i <= pre; i++ {
			in.Inject(nil, dataTuple("u0", i))
		}
		in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "u0"}))
		for i := uint64(pre + 1); i <= pre+post; i++ {
			in.Inject(nil, dataTuple("u0", i))
		}
		close(sent)
	}()
	<-sent
	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 1 })
	var ids []uint64
	waitFor(t, 5*time.Second, func() bool {
		for tp := r.tryNext(); tp != nil; tp = r.tryNext() {
			ids = append(ids, tp.ID)
		}
		return len(ids) == pre+post
	})
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("live output out of order at %d: id %d", i, id)
		}
	}
	h.WaitWriters()

	blob, _, err := cat.LoadState(1, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt := operator.NewCounter("c")
	h2, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{cnt},
		In: []*Edge{NewEdge("u0", "H", 16)}, Out: []*Edge{NewEdge("H", "z", 16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, cs := range h2.chanReplay {
		for i, tp := range cs.ts {
			if tp.ID != uint64(logged+i+1) {
				t.Fatalf("channel log out of order: %d at %d", tp.ID, logged+i)
			}
		}
		logged += len(cs.ts)
	}
	if got := cnt.Count("u0"); got != 0 || logged != pre {
		t.Fatalf("cut: snapshot %d + logged %d, want 0 + %d", got, logged, pre)
	}
}

// TestUnalignedArmLogsParkedTuples: a capture leaves its overtaken tuples
// parked, and the loop works them off one batch per round. A capture armed
// before they are all processed must log the rest: they precede everything
// on the edge, so its snapshot has not seen them.
func TestUnalignedArmLogsParkedTuples(t *testing.T) {
	const pre1, pre2 = 100, 10
	in := NewEdge("u0", "H", 4096)
	out := NewEdge("H", "sink", 8192)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in}, Out: []*Edge{out}, Catalog: cat, TickEvery: time.Millisecond,
		PerTupleDelay: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)
	r := newEdgeReader(out)
	armed := func() {
		waitFor(t, 5*time.Second, func() bool {
			for tp := r.tryNext(); tp != nil; tp = r.tryNext() {
				if tp.IsToken() {
					return true
				}
			}
			return false
		})
	}

	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	armed()
	for i := uint64(1); i <= pre1; i++ {
		in.Inject(nil, dataTuple("u0", i))
	}
	in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "u0"}))
	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 1 })

	// Epoch 1's overtaken tuples take 20 ms to work off; arm epoch 2 now.
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 2})
	for i := uint64(pre1 + 1); i <= pre1+pre2; i++ {
		in.Inject(nil, dataTuple("u0", i))
	}
	in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 2, Kind: tuple.OneHop, From: "u0"}))
	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 2 })
	h.WaitWriters()

	blob, _, err := cat.LoadState(2, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt := operator.NewCounter("c")
	h2, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{cnt},
		In: []*Edge{NewEdge("u0", "H", 16)}, Out: []*Edge{NewEdge("H", "z", 16)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	snap := int(cnt.Count("u0"))
	next := uint64(snap + 1)
	for _, cs := range h2.chanReplay {
		for _, tp := range cs.ts {
			if tp.ID != next {
				t.Fatalf("epoch 2 log: id %d where %d was due (snapshot has %d)", tp.ID, next, snap)
			}
			next++
		}
	}
	if next != pre1+pre2+1 {
		t.Fatalf("epoch 2 cut covers ids 1..%d (snapshot %d), want 1..%d", next-1, snap, pre1+pre2)
	}
}
