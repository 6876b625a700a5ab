package spe

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// alignFixture is a two-input MS-src HAU under direct edge control — the
// shape every alignment edge case below runs against.
type alignFixture struct {
	in0, in1 *Edge
	out      *edgeReader
	cat      *storage.Catalog
	h        *HAU
	lis      *recListener
	cancel   context.CancelFunc
}

func newAlignFixture(t *testing.T) *alignFixture {
	t.Helper()
	f := &alignFixture{
		in0: NewEdge("u0", "H", 16),
		in1: NewEdge("u1", "H", 16),
		lis: &recListener{},
	}
	out := NewEdge("H", "down", 256)
	f.out = newEdgeReader(out)
	f.cat = storage.NewCatalog(fastStore(), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrc, Ops: []operator.Operator{operator.NewCounter("c")},
		In: []*Edge{f.in0, f.in1}, Out: []*Edge{out},
		Catalog: f.cat, TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.cfg.Listener = f.lis
	f.h = h
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	h.Start(ctx)
	return f
}

func (f *alignFixture) data(src string, id, seq uint64) *tuple.Tuple {
	tp := tuple.New(id, src, src, nil)
	tp.Seq = seq
	return tp
}

func (f *alignFixture) token(epoch uint64, from string) *tuple.Tuple {
	return tuple.NewToken(tuple.Token{Epoch: epoch, Kind: tuple.Cascading, From: from})
}

// waitDelivered drains the output edge until each source reached its
// wanted count (tokens are counted separately and returned).
func (f *alignFixture) waitDelivered(t *testing.T, want map[string]int) (counts map[string]int, tokens int) {
	t.Helper()
	counts = map[string]int{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for src, n := range want {
			if counts[src] < n {
				done = false
			}
		}
		if done {
			return counts, tokens
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: delivered %v, want %v", counts, want)
		}
		tp := f.out.tryNext()
		if tp == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		if tp.IsToken() {
			tokens++
		} else {
			counts[tp.Src]++
		}
	}
}

// drain consumes whatever is immediately available on the output edge.
func (f *alignFixture) drain() (counts map[string]int, tokens int) {
	counts = map[string]int{}
	for {
		tp := f.out.tryNext()
		if tp == nil {
			return counts, tokens
		}
		if tp.IsToken() {
			tokens++
		} else {
			counts[tp.Src]++
		}
	}
}

// cutCounts restores the epoch's checkpoint into a fresh operator and
// returns the per-source counts captured by the cut.
func (f *alignFixture) cutCounts(t *testing.T, epoch uint64) map[string]uint64 {
	t.Helper()
	blob, _, err := f.cat.LoadState(epoch, "H")
	if err != nil {
		t.Fatal(err)
	}
	cnt := operator.NewCounter("c")
	h2, err := New(Config{
		ID: "H", Scheme: MSSrc, Ops: []operator.Operator{cnt},
		In:  []*Edge{NewEdge("a", "H", 0), NewEdge("b", "H", 0)},
		Out: []*Edge{NewEdge("H", "z", 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	return map[string]uint64{"u0": cnt.Count("u0"), "u1": cnt.Count("u1")}
}

// TestAlignmentEdgeCases covers the adversarial instants the chaos
// harness aims kills at: a token buried mid-batch, an input hanging up
// while alignment is in progress, and a checkpoint epoch overlapping a
// recovery (stale token replayed at a restored HAU).
func TestAlignmentEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, f *alignFixture)
	}{
		{
			// Tokens force a flush at the sender, so a token is normally
			// last in its batch — but a sender crash/replay can produce a
			// batch with tuples behind the token. The remainder must wait
			// for alignment, or the cut would include post-boundary tuples.
			name: "token mid-batch parks the remainder",
			run: func(t *testing.T, f *alignFixture) {
				f.in0.Inject(nil,
					f.data("u0", 1, 1),
					f.token(1, "u0"),
					f.data("u0", 2, 2),
				)
				f.in1.Inject(nil, f.data("u1", 1, 1))
				f.waitDelivered(t, map[string]int{"u0": 1, "u1": 1})
				// Give the HAU a chance to (incorrectly) process the
				// parked remainder, then confirm it did not.
				time.Sleep(20 * time.Millisecond)
				counts, _ := f.drain()
				if counts["u0"] != 0 {
					t.Fatal("tuple behind mid-batch token processed before alignment")
				}
				if f.lis.ckptCount() != 0 {
					t.Fatal("checkpointed with one input still unaligned")
				}
				f.in1.Inject(nil, f.token(1, "u1"))
				waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 1 })
				// The parked remainder flows once the cut is taken.
				f.waitDelivered(t, map[string]int{"u0": 1})
				cut := f.cutCounts(t, 1)
				if cut["u0"] != 1 || cut["u1"] != 1 {
					t.Fatalf("cut = %v, want u0=1 u1=1 (remainder excluded)", cut)
				}
			},
		},
		{
			// An upstream that dies (edge closed) during alignment must
			// count as aligned-by-quiescence, or the checkpoint wedges
			// waiting for a token that can never come.
			name: "input closing during alignment completes the cut",
			run: func(t *testing.T, f *alignFixture) {
				f.in0.Inject(nil, f.data("u0", 1, 1))
				f.in1.Inject(nil, f.data("u1", 1, 1))
				f.waitDelivered(t, map[string]int{"u0": 1, "u1": 1})
				f.in0.Inject(nil, f.token(1, "u0"))
				time.Sleep(10 * time.Millisecond)
				if f.lis.ckptCount() != 0 {
					t.Fatal("checkpointed before the second input resolved")
				}
				f.in1.Close() // u1 fail-stops mid-alignment
				waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 1 })
				cut := f.cutCounts(t, 1)
				if cut["u0"] != 1 || cut["u1"] != 1 {
					t.Fatalf("cut = %v, want u0=1 u1=1", cut)
				}
				// The surviving input keeps flowing after the cut.
				f.in0.Inject(nil, f.data("u0", 2, 2))
				f.waitDelivered(t, map[string]int{"u0": 1})
			},
		},
		{
			// After a rollback to epoch N, a token for epoch N (or older)
			// can still reach a recovered HAU — e.g. replayed by an
			// upstream that checkpointed before the failure. It must be
			// discarded, not re-open alignment for a finished epoch.
			name: "checkpoint epoch overlapping recovery is discarded",
			run: func(t *testing.T, f *alignFixture) {
				f.in0.Inject(nil, f.data("u0", 1, 1), f.token(1, "u0"))
				f.in1.Inject(nil, f.data("u1", 1, 1), f.token(1, "u1"))
				waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 1 })

				// Stale token for the already-checkpointed epoch: no new
				// alignment, and traffic keeps moving on both inputs.
				f.in0.Inject(nil, f.token(1, "u0"))
				f.in0.Inject(nil, f.data("u0", 2, 2))
				f.in1.Inject(nil, f.data("u1", 2, 2))
				f.waitDelivered(t, map[string]int{"u0": 1, "u1": 1})
				if f.lis.ckptCount() != 1 {
					t.Fatalf("stale token re-ran the checkpoint: %d cuts", f.lis.ckptCount())
				}

				// The next epoch still aligns normally.
				f.in0.Inject(nil, f.token(2, "u0"))
				f.in1.Inject(nil, f.token(2, "u1"))
				waitFor(t, 5*time.Second, func() bool { return f.lis.ckptCount() == 2 })
				cut := f.cutCounts(t, 2)
				if cut["u0"] != 2 || cut["u1"] != 2 {
					t.Fatalf("epoch-2 cut = %v, want u0=2 u1=2", cut)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newAlignFixture(t)
			defer f.cancel()
			tc.run(t, f)
		})
	}
}
