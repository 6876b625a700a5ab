package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// TestRecoverAllFetchesReplayInParallel recovers a fan-in of many sources
// from a slow shared store. Each source's replay fetch costs up to two
// store operations (flush of the pending batch, then the read), so one
// source after another takes about 2 x sources x latency; fetched
// concurrently across the store's stripes it takes about two operations.
func TestRecoverAllFetchesReplayInParallel(t *testing.T) {
	const sources = 8
	const latency = 20 * time.Millisecond
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	g := graph.New()
	g.MustAddNode("K")
	for i := 0; i < sources; i++ {
		id := fmt.Sprintf("S%d", i)
		g.MustAddNode(id)
		g.MustAddEdge(id, "K")
	}
	app := AppSpec{
		Name:  "replay-fetch",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			if id == "K" {
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
			return []operator.Operator{operator.NewRateSource(id, 1, int64(len(id)), operator.BytePayload(16, 64))}
		},
	}
	local, _ := fastSpecs()
	cl, err := New(Config{
		App:           app,
		Scheme:        spe.MSSrcAP,
		Nodes:         3,
		LocalDiskSpec: local,
		SharedSpec:    storage.DiskSpec{BandwidthBps: 1 << 30, Latency: latency, TimeScale: 1, Stripes: 8},
		TickEvery:     time.Millisecond,
		SourceFlush:   1 << 20, // every tuple since the cut is still pending at the kill
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
	waitFor(t, 10*time.Second, "warmup", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch completion", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	preCut := reg.get().Delivered()
	waitFor(t, 10*time.Second, "post-checkpoint flow", func() bool {
		return reg.get().Delivered() > preCut+100
	})
	cl.KillAll()

	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != ep {
		t.Fatalf("restored epoch %d, want %d", stats.Epoch, ep)
	}
	if stats.ReplayFetch >= 5*latency {
		t.Fatalf("replay fetch of %d sources took %v, want under %v (one source at a time takes about %v)",
			sources, stats.ReplayFetch, 5*latency, 2*sources*latency)
	}
	recs := col.Recoveries()
	if len(recs) != 1 || recs[0].ReplayFetch != stats.ReplayFetch {
		t.Fatalf("recovery metrics = %+v, want one record with ReplayFetch %v", recs, stats.ReplayFetch)
	}
	restored := reg.get().Delivered()
	waitFor(t, 10*time.Second, "post-recovery flow", func() bool {
		return reg.get().Delivered() > restored+100
	})
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatalf("exactly-once violated after parallel replay fetch:\n%s", reg.get().Report())
	}
}
