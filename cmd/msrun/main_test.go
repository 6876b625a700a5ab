package main

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
)

func TestSummarize(t *testing.T) {
	g := graph.New()
	g.MustAddNode("S")
	g.MustAddNode("K")
	g.MustAddEdge("S", "K")
	col := metrics.NewCollector()
	cl, err := cluster.New(cluster.Config{
		App: cluster.AppSpec{
			Name:  "chain",
			Graph: g,
			NewOperators: func(id string) []operator.Operator {
				if id == "S" {
					return []operator.Operator{operator.NewRateSource("S", 4, 9, operator.BytePayload(16, 4))}
				}
				return []operator.Operator{operator.NewSink("K", col)}
			},
		},
		Scheme:    spe.MSSrc,
		Nodes:     2,
		TickEvery: time.Millisecond,
		Seed:      1,
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
	start := time.Now()
	deadline := start.Add(10 * time.Second)
	for col.Count() < 20 {
		if time.Now().After(deadline) {
			t.Fatal("no tuples reached the sink")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cl.Catalog().WaitForEpoch(cl.Controller().TriggerCheckpoint(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sum := summarize(cl, col, start.UnixNano(), time.Since(start))
	if sum.Tuples == 0 || sum.TuplesPerMS <= 0 || sum.MeanLatency <= 0 || sum.P99 <= 0 {
		t.Fatalf("measurements empty: %+v", sum)
	}
	if sum.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", sum.Checkpoints)
	}
}
