// TMI example: run Transportation Mode Inference (paper Fig. 2) under
// application-aware checkpointing. It profiles the k-means sawtooth,
// prints the learnt alert threshold, and shows checkpoints landing near
// state-size minima.
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
	cfg := apps.TMIPaper(col, 400*time.Millisecond) // k-means window
	cfg.SinkRef = &apps.SinkRef{}
	spec := apps.TMI(cfg)
	fmt.Printf("TMI query network: %d operators, %d streams, sources %v\n",
		spec.Graph.NumNodes(), spec.Graph.NumEdges(), spec.Graph.Sources())

	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0 // model disk costs without sleeping
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAPAA,
		Nodes:         8,
		CkptPeriod:    500 * time.Millisecond,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   64 << 10,
		Seed:          1,
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

	// Profiling phase (§III-C2): learn the state-size pattern.
	prof := cl.Controller().ProfileApplication(ctx, 900*time.Millisecond)
	fmt.Printf("profile: smax=%dB smin=%dB alpha=%.2f dynamic HAUs=%v\n",
		prof.Smax, prof.Smin, prof.Alpha, cl.Controller().Dynamic())

	// Actual execution: the controller fires checkpoints in alert mode.
	cl.StartController(ctx)
	start := time.Now()
	for time.Since(start) < 2*time.Second {
		time.Sleep(250 * time.Millisecond)
		var total int64
		for _, id := range cl.GraphNodes() {
			if h := cl.HAU(id); h != nil {
				total += h.CachedStateSize()
			}
		}
		fmt.Printf("t=%-6s state=%-8dB alert=%-5v epochs=%d\n",
			time.Since(start).Truncate(50*time.Millisecond), total,
			cl.Controller().InAlertMode(), cl.Controller().Epoch())
	}

	// Report what each checkpoint actually saved.
	for _, st := range cl.Controller().EpochStats() {
		if !st.Complete {
			continue
		}
		var bytes int64
		for _, b := range st.Breakdown {
			bytes += b.StateBytes
		}
		fmt.Printf("epoch %d: checkpointed %dB across %d HAUs (slowest: %s)\n",
			st.Epoch, bytes, len(st.Breakdown), st.SlowestBreakdown().Total().Truncate(time.Microsecond))
	}
	fmt.Printf("sink: %d cluster summaries, mean latency %s\n",
		col.Count(), col.MeanLatency().Truncate(time.Microsecond))
}
