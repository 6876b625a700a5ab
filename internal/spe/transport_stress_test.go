package spe

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// TestTransportStressFIFOAndAlignment hammers the merge-based transport
// with randomized batch shapes and verifies the three invariants the
// reflect.Select loop used to give us for free:
//
//  1. per-edge FIFO order (out-of-order delivery would trip the per-edge
//     Seq dedup and drop tuples → undercount at the cut);
//  2. tokens never overtake the data sent before them (an overtaken token
//     would checkpoint before its epoch's data arrived → undercount);
//  3. alignment blocks exactly the tokened ports (processing data that a
//     port sent after its token, before the other ports aligned, would
//     leak next-epoch tuples into the cut → overcount).
//
// Three producers inject the same logical stream — K data tuples per
// epoch, then a 1-hop token — but chopped into random 1..7-tuple batches
// with no regard for epoch boundaries, so tokens land at the start,
// middle and end of batches (exercising the mid-batch remainder parking
// path). Every epoch's checkpoint must cut at exactly e*K tuples per port.
func TestTransportStressFIFOAndAlignment(t *testing.T) {
	const (
		P = 3   // input ports
		E = 4   // epochs
		K = 300 // data tuples per port per epoch
	)
	cat := storage.NewCatalog(fastStore(), []string{"H"})
	// Deliberately mismatched buffer/batch shapes per edge, including the
	// degenerate batch-of-1 transport.
	ins := []*Edge{
		NewEdgeBatch("p0", "H", 8, 1),
		NewEdgeBatch("p1", "H", 64, 7),
		NewEdgeBatch("p2", "H", 256, 32),
	}
	out := NewEdge("H", "drain", 0)
	discard(t, out)
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAP, Ops: []operator.Operator{operator.NewCounter("c")},
		In: ins, Out: []*Edge{out}, Catalog: cat,
		TickEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lis := &recListener{}
	h.cfg.Listener = lis
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := fmt.Sprintf("src%d", p)
			rng := rand.New(rand.NewSource(int64(1000 + p)))
			// Build the port's full logical stream: epochs of data closed
			// by their token.
			stream := make([]*tuple.Tuple, 0, E*(K+1))
			var id, seq uint64
			for e := uint64(1); e <= E; e++ {
				for k := 0; k < K; k++ {
					id++
					seq++
					tp := tuple.New(id, src, src, nil)
					tp.Seq = seq
					stream = append(stream, tp)
				}
				stream = append(stream, tuple.NewToken(tuple.Token{
					Epoch: e, Kind: tuple.OneHop, From: src,
				}))
			}
			// Chop it into random batches, ignoring epoch boundaries.
			for i := 0; i < len(stream); {
				n := 1 + rng.Intn(7)
				if i+n > len(stream) {
					n = len(stream) - i
				}
				if !ins[p].Inject(ctx, stream[i:i+n]...) {
					return
				}
				i += n
			}
		}()
	}
	wg.Wait()
	waitFor(t, 10*time.Second, func() bool { return lis.ckptCount() >= E })
	h.WaitWriters()
	if err := h.Err(); err != nil {
		t.Fatalf("HAU failed under stress: %v", err)
	}

	// Every epoch's checkpoint must have cut at exactly e*K tuples per
	// port: FIFO violations, overtaken tokens or alignment leaks all show
	// up as a wrong count at some cut.
	for e := uint64(1); e <= E; e++ {
		blob, _, err := cat.LoadState(e, "H")
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		cnt := operator.NewCounter("c")
		h2, _ := New(Config{
			ID: "H", Scheme: MSSrcAP, Ops: []operator.Operator{cnt},
			In:  []*Edge{NewEdge("a", "H", 0), NewEdge("b", "H", 0), NewEdge("c", "H", 0)},
			Out: []*Edge{NewEdge("H", "z", 0)},
		})
		if err := h2.RestoreFrom(blob); err != nil {
			t.Fatalf("epoch %d restore: %v", e, err)
		}
		for p := 0; p < P; p++ {
			src := fmt.Sprintf("src%d", p)
			if got := cnt.Count(src); got != e*K {
				t.Errorf("epoch %d cut: %s count = %d, want %d", e, src, got, e*K)
			}
		}
	}
	cancel()
}
