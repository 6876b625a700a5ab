// Extensions example: the three mechanisms the paper names as
// complementary, demonstrated together — delta-checkpointing, distributed
// (scatter) checkpointing, and controller hot-standby failover — plus load
// shedding under deliberate overload.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/controller"
	"meteorshower/internal/delta"
	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

func main() {
	demoDelta()
	demoScatter()
	demoStandby()
	demoShedding()
}

// demoDelta checkpoints a slowly-changing state twice and shows the second
// write shrinking to the changed blocks.
func demoDelta() {
	state := make([]byte, 64<<10)
	for i := range state {
		state[i] = byte(i)
	}
	next := append([]byte(nil), state...)
	next[1000] ^= 0xFF // one dirty block
	diff := delta.Diff(state, next, delta.DefaultBlockSize)
	fmt.Printf("delta-checkpointing: 64KB state, 1 dirty block -> %d-byte delta (%.0f%% saved)\n",
		len(diff), delta.Savings(diff, len(next))*100)
	restored, err := delta.Apply(state, diff)
	if err != nil || len(restored) != len(next) {
		log.Fatal("delta apply failed")
	}
}

// demoScatter writes one blob at several scatter widths.
func demoScatter() {
	blob := make([]byte, 512<<10)
	spec := storage.DiskSpec{BandwidthBps: 4 << 20, Latency: 2 * time.Millisecond, TimeScale: 1}
	fmt.Println("distributed checkpointing: 512KB state write")
	for _, width := range []int{1, 4} {
		sc := storage.NewScatter(width, spec)
		start := time.Now()
		if _, err := sc.Put("state", blob); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d storage nodes: %s\n", width, time.Since(start).Truncate(time.Millisecond))
	}
}

// demoStandby promotes a standby controller mid-run and shows epoch
// numbering continuing.
func demoStandby() {
	cat := storage.NewCatalog(storage.NewStore(storage.DiskSpec{BandwidthBps: 1 << 30}), nil)
	cfg := controller.Config{Scheme: spe.MSSrcAP, Catalog: cat, Period: time.Hour}
	primary := controller.New(cfg)
	standby := controller.NewStandby(cfg)
	primary.TriggerCheckpoint()
	primary.TriggerCheckpoint()
	standby.Sync(primary)
	// Primary's node fails; promote.
	promoted := standby.Promote()
	next := promoted.TriggerCheckpoint()
	fmt.Printf("hot standby: primary died after epoch 2; promoted controller issued epoch %d\n", next)
	if next != 3 {
		log.Fatal("epoch numbering broke across failover")
	}
}

// demoShedding overloads a tiny pipeline and shows shedding keeping
// latency bounded while dropping the excess.
func demoShedding() {
	g := graph.New()
	g.MustAddNode("S")
	g.MustAddNode("slow")
	g.MustAddNode("K")
	g.MustAddEdge("S", "slow")
	g.MustAddEdge("slow", "K")
	col := metrics.NewCollector()
	spec := cluster.AppSpec{
		Name:  "overload",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id {
			case "S":
				src := operator.NewRateSource("S", 0, 1, func(n uint64, rng *rand.Rand) (string, []byte) {
					return "k", make([]byte, 64)
				})
				src.MaxRate = true
				src.CatchUpCap = 64
				return []operator.Operator{src}
			case "slow":
				// An artificially slow stage: 300us of "work" per tuple.
				return []operator.Operator{operator.NewMap("slow", func(t *tuple.Tuple) *tuple.Tuple {
					time.Sleep(300 * time.Microsecond)
					return t
				})}
			default:
				return []operator.Operator{operator.NewSink("K", col)}
			}
		},
	}
	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0 // model disk costs without sleeping
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         2,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   4 << 10,
		EdgeBuffer:    32,
		Seed:          1,
		ShedWatermark: 0.8,
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
	time.Sleep(time.Second)
	shed := cl.HAU("S").ShedCount()
	fmt.Printf("load shedding: overloaded stage; %d tuples delivered, %d shed, mean latency %s\n",
		col.Count(), shed, col.MeanLatency().Truncate(time.Microsecond))
	if shed == 0 {
		log.Fatal("expected shedding under overload")
	}
}
