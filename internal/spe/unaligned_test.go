package spe

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

func TestSchemeUnalignedPredicates(t *testing.T) {
	if !MSSrcAPU.Unaligned() || !MSSrcAPU.OneHopTokens() || !MSSrcAPU.Asynchronous() || !MSSrcAPU.UsesTokens() {
		t.Fatal("MSSrcAPU predicates wrong")
	}
	if MSSrcAPU.ApplicationAware() {
		t.Fatal("MSSrcAPU must not be application-aware")
	}
	for _, s := range []Scheme{Baseline, MSSrc, MSSrcAP, MSSrcAPAA} {
		if s.Unaligned() {
			t.Fatalf("%v reports Unaligned", s)
		}
	}
	if MSSrcAPU.String() != "MS-src+ap+unaligned" {
		t.Fatalf("String() = %q", MSSrcAPU.String())
	}
}

// TestUnalignedCaptureRoundTrip drives the whole unaligned datapath on a
// fan-in-2 HAU: arm via controller command, log in-flight tuples on both
// ports, seal with tokens, then restore the blob into a fresh HAU and check
// that the operator snapshot reflects the arm-instant cut while the logged
// channel tuples replay through the input path.
func TestUnalignedCaptureRoundTrip(t *testing.T) {
	in0 := NewEdge("u0", "H", 16)
	in1 := NewEdge("u1", "H", 16)
	out := NewEdge("H", "sink", 256)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in0, in1}, Out: []*Edge{out},
		Catalog: cat, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	counts := map[string]int{}
	sawOwnToken := false
	r := newEdgeReader(out)
	drain := func() {
		for {
			tp := r.tryNext()
			if tp == nil {
				return
			}
			if tp.IsToken() {
				if tp.Tok.From == "H" {
					sawOwnToken = true
				}
			} else {
				counts[tp.Src]++
			}
		}
	}
	waitCounts := func(src string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			drain()
			if counts[src] >= want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timeout: %s count = %d, want %d", src, counts[src], want)
	}
	send := func(e *Edge, src string, id, seq uint64) {
		tp := tuple.New(id, src, src, nil)
		tp.Seq = seq
		e.Inject(nil, tp)
	}

	// Pre-checkpoint traffic establishes the snapshot state: u0 x1, u1 x1.
	send(in0, "u0", 1, 1)
	send(in1, "u1", 1, 1)
	waitCounts("u0", 1)
	waitCounts("u1", 1)

	// Arm the capture. The HAU broadcasts its own 1-hop token and snapshots
	// in the same loop step, so once the token is visible downstream every
	// later injection lands inside the capture window.
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	waitFor(t, 5*time.Second, func() bool { drain(); return sawOwnToken })

	// In-flight tuples on not-yet-tokened ports: logged, not stalled.
	send(in0, "u0", 2, 2)
	send(in0, "u0", 3, 3)
	send(in1, "u1", 2, 2)
	in0.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "u0"}))
	in1.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "u1"}))

	waitFor(t, 5*time.Second, func() bool { return lis.ckptCount() == 1 })
	h.WaitWriters()

	lis.mu.Lock()
	b := lis.ckpts[0].b
	lis.mu.Unlock()
	if !b.Async {
		t.Fatal("unaligned checkpoint must be asynchronous")
	}
	if b.AlignStallMax != 0 || b.AlignStallSum != 0 {
		t.Fatalf("unaligned checkpoint reports alignment stall: max=%v sum=%v", b.AlignStallMax, b.AlignStallSum)
	}
	if b.ChannelBytes <= 0 {
		t.Fatalf("ChannelBytes = %d, want > 0 (in-flight tuples were logged)", b.ChannelBytes)
	}

	// The parked in-flight tuples are processed live after the capture
	// finalizes — nothing is lost or duplicated on the running stream.
	waitCounts("u0", 3)
	waitCounts("u1", 2)

	// Restore into a fresh HAU. Before Start, the operator state must be
	// the arm-instant cut: the logged tuples live in the channel section,
	// not the snapshot.
	blob, _, err := cat.LoadState(1, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt2 := operator.NewCounter("c")
	out2 := NewEdge("H", "sink", 256)
	h2, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{cnt2},
		In:  []*Edge{NewEdge("u0", "H", 16), NewEdge("u1", "H", 16)},
		Out: []*Edge{out2}, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	if cnt2.Count("u0") != 1 || cnt2.Count("u1") != 1 {
		t.Fatalf("snapshot cut u0=%d u1=%d, want 1/1 (logged tuples must not be in operator state)",
			cnt2.Count("u0"), cnt2.Count("u1"))
	}

	// Start replays the channel tuples through the input path: u0 #2 #3,
	// u1 #2 appear downstream and the counter catches up to the live run.
	h2.Start(ctx)
	r2 := newEdgeReader(out2)
	replayed := map[uint64]int{}
	total := 0
	waitFor(t, 5*time.Second, func() bool {
		for {
			tp := r2.tryNext()
			if tp == nil {
				break
			}
			if !tp.IsToken() {
				replayed[tp.ID]++
				total++
			}
		}
		return total >= 3
	})
	if replayed[2] != 2 || replayed[3] != 1 { // id 2 exists on both streams
		t.Fatalf("replayed ids = %v, want id2 x2 (u0+u1), id3 x1", replayed)
	}

	// Dedup continuity: an upstream re-emission of a logged tuple is
	// suppressed, the next fresh sequence number flows.
	h2.in[0].Inject(nil, func() *tuple.Tuple { tp := tuple.New(3, "u0", "u0", nil); tp.Seq = 3; return tp }())
	h2.in[0].Inject(nil, func() *tuple.Tuple { tp := tuple.New(4, "u0", "u0", nil); tp.Seq = 4; return tp }())
	waitFor(t, 5*time.Second, func() bool {
		for {
			tp := r2.tryNext()
			if tp == nil {
				break
			}
			if !tp.IsToken() {
				replayed[tp.ID]++
			}
		}
		return replayed[4] == 1
	})
	if replayed[3] != 1 {
		t.Fatalf("replay duplicate not suppressed after channel replay: id3 x%d", replayed[3])
	}
	cancel()
}

// TestUnalignedOvertakesBacklog reproduces the scenario the scheme exists
// for: a deep edge backlog in front of the token on a slow consumer. The
// loop's read-ahead must overtake the backlog, log what it passes, and the
// checkpoint cut (operator snapshot + channel log) must equal exactly the
// pre-token prefix — wherever the arm instant happened to land.
func TestUnalignedOvertakesBacklog(t *testing.T) {
	// Injections are one tuple per batch, and edge channel slots are
	// tupleCap/batchSize — size the edges so the whole stream queues
	// without the test goroutine blocking behind an undrained sink.
	const pre, post = 50, 10
	in := NewEdge("u0", "H", 4096)
	out := NewEdge("H", "sink", 8192)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in}, Out: []*Edge{out},
		Catalog: cat, TickEvery: time.Millisecond,
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

	// Backlog of pre tuples, the token, then post tuples — all queued
	// before the slow consumer makes progress.
	for i := uint64(1); i <= pre; i++ {
		tp := tuple.New(i, "u0", "u0", nil)
		tp.Seq = i
		in.Inject(nil, tp)
	}
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	in.Inject(nil, tuple.NewToken(tuple.Token{Epoch: 1, Kind: tuple.OneHop, From: "u0"}))
	for i := uint64(pre + 1); i <= pre+post; i++ {
		tp := tuple.New(i, "u0", "u0", nil)
		tp.Seq = i
		in.Inject(nil, tp)
	}

	// Live stream: every tuple delivered exactly once, in order.
	r := newEdgeReader(out)
	var ids []uint64
	waitFor(t, 10*time.Second, func() bool {
		for {
			tp := r.tryNext()
			if tp == nil {
				break
			}
			if !tp.IsToken() {
				ids = append(ids, tp.ID)
			}
		}
		return len(ids) >= pre+post
	})
	if len(ids) != pre+post {
		t.Fatalf("live output: %d tuples, want %d", len(ids), pre+post)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("live output out of order at %d: id %d", i, id)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return lis.ckptCount() == 1 })
	h.WaitWriters()

	// Cut oracle: snapshot count S plus logged channel tuples L must cover
	// the pre-token prefix exactly — no post-token tuple leaks in, none of
	// the prefix is dropped, regardless of where the arm instant fell.
	blob, _, err := cat.LoadState(1, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt2 := operator.NewCounter("c")
	out2 := NewEdge("H", "sink", 256)
	h2, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{cnt2},
		In: []*Edge{NewEdge("u0", "H", 16)}, Out: []*Edge{out2}, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	snapCount := int(cnt2.Count("u0"))
	wantReplay := pre - snapCount
	if wantReplay < 0 {
		t.Fatalf("snapshot has %d tuples, more than the %d-tuple prefix", snapCount, pre)
	}

	h2.Start(ctx)
	r2 := newEdgeReader(out2)
	seen := map[uint64]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < wantReplay && time.Now().Before(deadline) {
		if tp := r2.tryNext(); tp != nil {
			if !tp.IsToken() {
				if tp.ID <= uint64(snapCount) || tp.ID > pre {
					t.Fatalf("replayed id %d outside the logged window (%d, %d]", tp.ID, snapCount, pre)
				}
				if seen[tp.ID] {
					t.Fatalf("replayed id %d twice", tp.ID)
				}
				seen[tp.ID] = true
			}
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if len(seen) != wantReplay {
		t.Fatalf("replayed %d channel tuples, want %d (snapshot had %d of the %d-tuple prefix)",
			len(seen), wantReplay, snapCount, pre)
	}
	// Settle briefly: nothing beyond the log may replay.
	time.Sleep(50 * time.Millisecond)
	if tp := r2.tryNext(); tp != nil && !tp.IsToken() {
		t.Fatalf("unexpected extra replayed tuple id %d", tp.ID)
	}
	cancel()
}

// TestUnalignedAbortOnMigration is the satellite-2 regression at the HAU
// level: a migration drain arriving while an unaligned capture is in flight
// must force-seal (abort) the capture instead of deadlocking on ports whose
// tokens will never arrive. The drained state still contains the logged
// tuples (they were processed live), and the aborted epoch never completes.
func TestUnalignedAbortOnMigration(t *testing.T) {
	in0 := NewEdge("u0", "H", 16)
	in1 := NewEdge("u1", "H", 16)
	out := NewEdge("H", "sink", 256)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{in0, in1}, Out: []*Edge{out},
		Catalog: cat, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	// Arm a capture that will never complete: only port 0 ever gets data,
	// port 1's token never arrives.
	sawOwnToken := false
	r := newEdgeReader(out)
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	waitFor(t, 5*time.Second, func() bool {
		if tp := r.tryNext(); tp != nil && tp.IsToken() && tp.Tok.From == "H" {
			sawOwnToken = true
		}
		return sawOwnToken
	})
	tp := tuple.New(1, "u0", "u0", nil)
	tp.Seq = 1
	in0.Inject(nil, tp)

	// Migration drain races the capture.
	reply := make(chan []byte, 1)
	h.Command(Command{Kind: CmdMigrateSnap, Reply: reply})
	in0.Inject(nil, tuple.NewToken(tuple.Token{Kind: tuple.Migration, From: "u0"}))
	in1.Inject(nil, tuple.NewToken(tuple.Token{Kind: tuple.Migration, From: "u1"}))

	var blob []byte
	select {
	case blob = <-reply:
	case <-time.After(5 * time.Second):
		t.Fatal("migration drain deadlocked behind the unaligned capture")
	}

	// The logged tuple was also processed live, so the drained state has it.
	cnt2 := operator.NewCounter("c")
	h2, err := New(Config{
		ID: "H", Scheme: MSSrcAPU, Ops: []operator.Operator{cnt2},
		In:  []*Edge{NewEdge("u0", "H", 16), NewEdge("u1", "H", 16)},
		Out: []*Edge{NewEdge("H", "sink", 16)}, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	if cnt2.Count("u0") != 1 {
		t.Fatalf("drained state u0=%d, want 1", cnt2.Count("u0"))
	}
	// The aborted epoch must never have completed.
	if lis.ckptCount() != 0 {
		t.Fatalf("aborted capture still checkpointed: %d", lis.ckptCount())
	}
	if _, _, err := cat.LoadState(1, "H"); err == nil {
		t.Fatal("aborted epoch 1 is loadable from the catalog")
	}
	cancel()
}
