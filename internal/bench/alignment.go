package bench

// Alignment-ablation harness: aligned (MS-src+ap) vs unaligned
// (MS-src+ap+unaligned) checkpoint completion on a fan-in consumer whose
// input edges carry a backlog in front of the tokens. Under the aligned
// scheme the tokens are ordinary FIFO items, so completion waits for the
// whole backlog to be processed (and the first-tokened ports stall while
// it is); under the unaligned scheme the HAU snapshots at the arm instant
// and reads its unsealed ports ahead, logging what it passes, so
// completion is decoupled from consumer progress. Results regenerate
// BENCH_unaligned.json via cmd/msalign.

import (
	"fmt"
	"time"

	"context"

	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// AlignParams configures one cell of the alignment-ablation grid.
type AlignParams struct {
	Scheme       spe.Scheme
	FanIn        int  // input edges on the consumer (>= 1)
	Backpressure bool // per-tuple processing delay on the consumer
	EdgeBatch    int  // edge batch size (0 = runtime default)
	Backlog      int  // tuples queued in front of each token (0 = 64)
	Payload      int  // payload bytes per tuple (0 = 64)
	Epochs       int  // measured checkpoint epochs (0 = 5)
	Seed         int64
}

// AlignCell is one measured grid cell; durations are per-epoch means in
// microseconds.
type AlignCell struct {
	Scheme       string  `json:"scheme"`
	FanIn        int     `json:"fan_in"`
	Backpressure bool    `json:"backpressure"`
	EdgeBatch    int     `json:"edge_batch"`
	Epochs       int     `json:"epochs"`
	CompleteUs   float64 `json:"complete_us"`        // trigger -> checkpoint done, wall clock
	TokenWaitUs  float64 `json:"token_wait_us"`      // arm -> last token observed by the HAU
	StallMaxUs   float64 `json:"align_stall_max_us"` // longest single-port pause (aligned only)
	StallSumUs   float64 `json:"align_stall_sum_us"` // summed port pauses (aligned only)
	SnapshotKB   float64 `json:"snapshot_kb"`        // operator state in the blob
	ChannelKB    float64 `json:"channel_kb"`         // logged in-flight tuples (unaligned only)
}

const alignBenchTimeout = 60 * time.Second

// RunAlignCell drives a FanIn-input consumer HAU through Epochs checkpoint
// epochs. Before each trigger, Backlog tuples are queued on every input
// edge and the epoch's tokens are injected BEHIND them, so the token
// position models a checkpoint racing real in-flight traffic. The cell
// averages the wall-clock from trigger to checkpoint completion plus the
// breakdown the HAU reports; between epochs the driver waits for the sink
// to absorb everything, so each epoch starts from the same queue state.
func RunAlignCell(p AlignParams) (AlignCell, error) {
	if p.FanIn <= 0 {
		p.FanIn = 1
	}
	if p.Backlog <= 0 {
		p.Backlog = 64
	}
	if p.Payload <= 0 {
		p.Payload = 64
	}
	if p.Epochs <= 0 {
		p.Epochs = 5
	}
	batch := p.EdgeBatch
	if batch <= 0 {
		batch = spe.DefaultBatchSize
	}
	var delay time.Duration
	if p.Backpressure {
		delay = 200 * time.Microsecond
	}

	// Each single-tuple Inject occupies one edge slot regardless of batch
	// size, so capacity is sized in slots: the whole backlog plus the token
	// must queue without blocking the driver.
	buf := (p.Backlog + 8) * batch
	in := make([]*spe.Edge, p.FanIn)
	for i := range in {
		in[i] = spe.NewEdgeBatch(alignSrc(i), "M", buf, batch)
	}
	out := spe.NewEdge("M", "K", (p.Backlog+8)*p.FanIn*32)

	fast := storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond}
	cat := storage.NewCatalog(storage.NewStore(fast), []string{"M", "K"})
	lis := &ckptCapture{ch: make(chan spe.CheckpointBreakdown, 4)}
	m, err := spe.New(spe.Config{
		ID:            "M",
		Scheme:        p.Scheme,
		Ops:           []operator.Operator{operator.NewCounter("c")},
		In:            in,
		Out:           []*spe.Edge{out},
		Catalog:       cat,
		Listener:      lis,
		TickEvery:     time.Millisecond,
		PerTupleDelay: delay,
	})
	if err != nil {
		return AlignCell{}, err
	}
	sink := operator.NewSink("K", nil)
	k, err := spe.New(spe.Config{
		ID:        "K",
		Scheme:    p.Scheme,
		Ops:       []operator.Operator{sink},
		In:        []*spe.Edge{out},
		Catalog:   cat,
		TickEvery: time.Millisecond,
	})
	if err != nil {
		return AlignCell{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	k.Start(ctx)
	defer func() { cancel(); <-m.Done(); <-k.Done() }()

	payload := make([]byte, p.Payload)
	cell := AlignCell{
		Scheme:       p.Scheme.String(),
		FanIn:        p.FanIn,
		Backpressure: p.Backpressure,
		EdgeBatch:    batch,
		Epochs:       p.Epochs,
	}
	seq := make([]uint64, p.FanIn)
	var id uint64
	for e := 1; e <= p.Epochs; e++ {
		for i := 0; i < p.FanIn; i++ {
			for t := 0; t < p.Backlog; t++ {
				seq[i]++
				id++
				tp := tuple.New(id, alignSrc(i), "k", payload)
				tp.Seq = seq[i]
				in[i].Inject(nil, tp)
			}
		}
		t0 := time.Now()
		m.Command(spe.Command{Kind: spe.CmdCheckpoint, Epoch: uint64(e)})
		for i := 0; i < p.FanIn; i++ {
			in[i].Inject(nil, tuple.NewToken(tuple.Token{Epoch: uint64(e), Kind: tuple.OneHop, From: alignSrc(i)}))
		}
		var b spe.CheckpointBreakdown
		select {
		case b = <-lis.ch:
		case <-time.After(alignBenchTimeout):
			return AlignCell{}, fmt.Errorf("bench: epoch %d never completed under %v (%v)", e, p.Scheme, m.Err())
		}
		cell.CompleteUs += float64(time.Since(t0).Microseconds())
		cell.TokenWaitUs += float64(b.TokenWait.Microseconds())
		cell.StallMaxUs += float64(b.AlignStallMax.Microseconds())
		cell.StallSumUs += float64(b.AlignStallSum.Microseconds())
		cell.SnapshotKB += float64(b.StateBytes) / 1024
		cell.ChannelKB += float64(b.ChannelBytes) / 1024

		// Quiesce: the unaligned scheme completes long before the consumer
		// has worked through the backlog, so wait for the sink to absorb the
		// epoch's traffic before queuing the next one.
		want := uint64(e) * uint64(p.Backlog*p.FanIn)
		deadline := time.Now().Add(alignBenchTimeout)
		for sink.Delivered() < want {
			if err := m.Err(); err != nil {
				return AlignCell{}, err
			}
			if err := k.Err(); err != nil {
				return AlignCell{}, err
			}
			if time.Now().After(deadline) {
				return AlignCell{}, fmt.Errorf("bench: sink stuck at %d/%d after epoch %d", sink.Delivered(), want, e)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	n := float64(p.Epochs)
	cell.CompleteUs /= n
	cell.TokenWaitUs /= n
	cell.StallMaxUs /= n
	cell.StallSumUs /= n
	cell.SnapshotKB /= n
	cell.ChannelKB /= n
	return cell, nil
}

func alignSrc(i int) string { return fmt.Sprintf("u%d", i) }
