// Quickstart: build a custom three-stage stream application, run it under
// Meteor Shower's parallel-asynchronous checkpointing, take a checkpoint,
// fail the whole cluster, and recover with exactly-once delivery.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

func main() {
	// 1. Describe the query network: sensors -> word counter -> sink.
	g := graph.New()
	g.MustAddNode("sensor-a")
	g.MustAddNode("sensor-b")
	g.MustAddNode("count")
	g.MustAddNode("sink")
	g.MustAddEdge("sensor-a", "count")
	g.MustAddEdge("sensor-b", "count")
	g.MustAddEdge("count", "sink")

	// 2. Bind operators. The factory is called again during recovery, so
	// it must return fresh instances.
	col := metrics.NewCollector()
	var lastSink *operator.Sink
	spec := cluster.AppSpec{
		Name:  "quickstart",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id {
			case "sensor-a", "sensor-b":
				return []operator.Operator{operator.NewRateSource(id, 5, 42,
					func(n uint64, rng *rand.Rand) (string, []byte) {
						words := []string{"meteor", "shower", "stream", "token"}
						return words[rng.Intn(len(words))], []byte("payload")
					})}
			case "count":
				return []operator.Operator{operator.NewCounter("count")}
			default:
				s := operator.NewSink("sink", col)
				s.TrackIdentity = true
				lastSink = s
				return []operator.Operator{s}
			}
		},
	}

	// 3. Assemble the cluster: 3 simulated nodes, MS-src+ap scheme. The
	// disks model their costs without sleeping (TimeScale 0).
	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         3,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   4 << 10,
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer cl.StopAll()

	// 4. Stream for a while, then checkpoint.
	time.Sleep(300 * time.Millisecond)
	epoch := cl.Controller().TriggerCheckpoint()
	if err := cl.Catalog().WaitForEpoch(epoch, 5*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint epoch %d complete; sink delivered %d tuples\n",
		epoch, col.Count())

	// 5. Large-scale burst failure: every node dies at once.
	time.Sleep(200 * time.Millisecond)
	cl.KillAll()
	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d HAUs from epoch %d\n", stats.HAUs, stats.Epoch)

	// 6. The restarted sink replays the gap exactly once.
	time.Sleep(400 * time.Millisecond)
	fmt.Printf("after recovery: delivered=%d duplicates=%d mean latency=%s\n",
		lastSink.Delivered(), lastSink.Duplicates(), col.MeanLatency().Truncate(time.Microsecond))
	if lastSink.Duplicates() > 0 {
		log.Fatal("exactly-once violated")
	}
	fmt.Println("ok: exactly-once held across a whole-cluster failure")
}
