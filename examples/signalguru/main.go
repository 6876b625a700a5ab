// SignalGuru example: run the paper's heaviest application (Fig. 4) under
// the baseline and under Meteor Shower back to back and compare common-case
// throughput and latency — the §IV-A experiment in miniature.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/bench"
	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
)

func runOnce(scheme spe.Scheme, dur time.Duration) (tput float64, lat time.Duration) {
	col := metrics.NewCollector()
	cfg := apps.SGPaper(col)
	cfg.SinkRef = &apps.SinkRef{}
	p := bench.Defaults()

	cl, err := cluster.New(cluster.Config{
		App:            apps.SG(cfg),
		Scheme:         scheme,
		Nodes:          8,
		CkptPeriod:     dur / 3,
		LocalDiskSpec:  p.LocalDisk,
		SharedSpec:     p.SharedDisk,
		TickEvery:      time.Millisecond,
		PreserveMemCap: 50 << 10,
		SourceFlush:    64 << 10,
		EdgeBuffer:     64,
		Seed:           3,
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

	time.Sleep(dur / 4) // warmup
	base := cl.ProcessedTotal()
	col.Reset()
	start := time.Now()
	time.Sleep(dur)
	n := cl.ProcessedTotal() - base
	return float64(n) / float64(time.Since(start).Milliseconds()), col.MeanLatency()
}

func main() {
	const dur = 2 * time.Second
	fmt.Println("SignalGuru: baseline vs Meteor Shower (3 checkpoints per window)")
	baseTput, baseLat := runOnce(spe.Baseline, dur)
	fmt.Printf("  %-14s %8.1f tuples/ms   mean latency %s\n", "Baseline", baseTput, baseLat.Truncate(time.Microsecond))
	msTput, msLat := runOnce(spe.MSSrcAP, dur)
	fmt.Printf("  %-14s %8.1f tuples/ms   mean latency %s\n", "MS-src+ap", msTput, msLat.Truncate(time.Microsecond))
	if baseTput > 0 && baseLat > 0 {
		fmt.Printf("Meteor Shower: %.0f%% throughput, %.0f%% latency vs baseline\n",
			msTput/baseTput*100, float64(msLat)/float64(baseLat)*100)
		fmt.Println("(paper, SignalGuru: MS-src+ap ~148% throughput, ~lower latency at 3 ckpts)")
	}
}
