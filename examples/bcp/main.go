// BCP example: run Bus Capacity Prediction (paper Fig. 3) under Meteor
// Shower, inject a correlated rack failure that takes down half the
// cluster, and verify exactly-once recovery — the paper's headline: "most
// DSPSs can only handle single-node failures".
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

func main() {
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	cfg := apps.BCPPaper(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	spec := apps.BCP(cfg)
	fmt.Printf("BCP query network: %d operators (cameras, counters, history, predictors)\n",
		spec.Graph.NumNodes())

	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0 // model disk costs without sleeping
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         8,
		CkptPeriod:    600 * time.Millisecond,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   64 << 10,
		Seed:          2,
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
	cl.StartController(ctx)

	time.Sleep(time.Second)
	if err := cl.Catalog().WaitForEpoch(1, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed; sink has %d predictions\n", col.Count())

	// Correlated burst: nodes 0..3 share a rack whose switch dies.
	fmt.Println("injecting rack failure: nodes 0-3 down")
	cl.KillNodes([]int{0, 1, 2, 3})
	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("whole-application rollback to epoch %d: %d HAUs, %s total\n",
		stats.Epoch, stats.HAUs, stats.Total().Truncate(time.Millisecond))

	time.Sleep(1200 * time.Millisecond)
	sink := ref.Get()
	fmt.Printf("after recovery: delivered=%d duplicates=%d distinct=%d\n",
		sink.Delivered(), sink.Duplicates(), sink.SeenCount())
	if sink.Duplicates() > 0 {
		log.Fatal("exactly-once violated")
	}
	fmt.Println("ok: crowdedness predictions survived a rack-scale burst failure")
}
