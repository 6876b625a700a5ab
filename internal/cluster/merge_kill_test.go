package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/tuple"
)

// slowSink is a sink whose per-tuple cost can be switched on, so a test
// can pile a backlog up in front of it at a chosen instant.
type slowSink struct {
	*operator.Sink
	slow *atomic.Bool
}

func (s slowSink) OnTuple(port int, t *tuple.Tuple, emit operator.Emitter) error {
	if s.slow.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	return s.Sink.OnTuple(port, t, emit)
}

// TestMergeThenKillKeepsEveryTuple kills the whole cluster right after a
// merge, so recovery restores the merge's commit epoch. The sink is backed
// up while the merge runs: its queued input from the old replicas — and the
// hang-ups behind it — reach it after the commit epoch's checkpoint
// command. Unless the commit epoch waits for the sink to attach the merged
// incarnation's port, the sink cuts that epoch on the hang-ups alone, so
// the merged incarnation's pre-token output lands after the sink's cut,
// and the blob lists only the stale pre-split port under the reused label
// "C". Both lose tuples on rollback; the closed-form count catches it.
func TestMergeThenKillKeepsEveryTuple(t *testing.T) {
	const limit = 1500 // per source
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	var slow atomic.Bool
	g := graph.New()
	for _, id := range []string{"S0", "S1", "C", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S0", "C")
	g.MustAddEdge("S1", "C")
	g.MustAddEdge("C", "K")
	app := AppSpec{
		Name:  "merge-kill",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id[0] {
			case 'S':
				src := operator.NewRateSource(id, 3, 7, operator.BytePayload(16, 64))
				src.Limit = limit
				return []operator.Operator{src}
			case 'C':
				return []operator.Operator{operator.NewCounter(id)}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{slowSink{s, &slow}}
			}
		},
	}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:           app,
		Scheme:        spe.MSSrcAP,
		Nodes:         4,
		NodesPerRack:  2,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		RetainEpochs:  3,
		Seed:          1,
		Metrics:       col,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	if _, err := cl.SplitHAU(ctx, "C", 2); err != nil {
		t.Fatalf("SplitHAU: %v", err)
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-split deliveries", func() bool {
		return reg.get().Delivered() > after+100
	})

	slow.Store(true)
	time.Sleep(50 * time.Millisecond) // let a backlog build in front of K
	mstats, err := cl.MergeHAU(ctx, "C")
	slow.Store(false)
	if err != nil {
		t.Fatalf("MergeHAU: %v", err)
	}
	// No periodic checkpoints run, so the merge's commit epoch is the
	// newest complete one and recovery restores exactly it.
	cl.KillAll()
	stats, err := cl.RecoverAllWithRetry(ctx, 10, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("RecoverAll: %v", err)
	}
	if mrc, _ := cl.catalog.MostRecentComplete(); stats.Epoch != mrc {
		t.Fatalf("restored epoch %d, newest complete %d", stats.Epoch, mrc)
	}

	want := uint64(2 * limit)
	deadline := time.Now().Add(20 * time.Second)
	for reg.get().Delivered() < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // surface any over-delivery
	if got := reg.get().Delivered(); got != want {
		t.Fatalf("sink delivered %d tuples after merge (%d slots moved) then kill, want %d:\n%s",
			got, mstats.Moved, want, reg.get().Report())
	}
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatalf("exactly-once violated after merge then kill:\n%s", reg.get().Report())
	}
}
