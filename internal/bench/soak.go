package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/failure"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
)

// SoakResult summarizes an availability soak: the application runs under a
// compressed Table-I failure trace with periodic checkpoints and automatic
// whole-application recovery after each burst. This quantifies the paper's
// motivation — "it is necessary for DSPSs running in data centers to deal
// with large-scale burst failures" — as delivered throughput relative to a
// failure-free run.
type SoakResult struct {
	App          string
	Scheme       string
	Bursts       int           // correlated failure events injected
	SingleFails  int           // single-node failure events injected
	Recoveries   int           // successful whole-application recoveries
	FailedRecov  int           // recovery attempts that found no checkpoint
	Baseline     uint64        // tuples delivered in the failure-free run
	Delivered    uint64        // tuples delivered under the failure trace
	Availability float64       // Delivered / Baseline
	Duplicates   uint64        // exactly-once violations observed at sinks
	Window       time.Duration // total soak duration
}

// RunSoak drives one app + scheme through a failure trace sampled from the
// Google DC model, compressed so that `bursts` correlated events land
// within the soak window. A failure-free control run measures the
// denominator.
func RunSoak(p Params, kind AppKind, scheme spe.Scheme, bursts int) (SoakResult, error) {
	p = p.withDefaults()
	p.TrackIdentity = true
	res := SoakResult{App: kind.String(), Scheme: scheme.String(), Window: p.Window * 2}

	// Control run: no failures.
	control, _, err := runSoakOnce(p, kind, scheme, nil, &res)
	if err != nil {
		return res, err
	}
	res.Baseline = control

	// Failure trace: sample burst events from the Google model, take the
	// first `bursts` correlated ones, and spread them over the window.
	events := failure.Generate(failure.GoogleDC(), p.Nodes*80, failure.Year, p.Seed)
	var picked []failure.Event
	for _, e := range events {
		if e.Correlated() && len(picked) < bursts {
			picked = append(picked, e)
		} else if !e.Correlated() && res.SingleFails < bursts {
			picked = append(picked, e)
			res.SingleFails++
		}
		if len(picked) >= 2*bursts {
			break
		}
	}
	res.Bursts = len(picked) - res.SingleFails

	delivered, dupes, err := runSoakOnce(p, kind, scheme, picked, &res)
	if err != nil {
		return res, err
	}
	res.Delivered = delivered
	res.Duplicates = dupes
	if res.Baseline > 0 {
		res.Availability = float64(res.Delivered) / float64(res.Baseline)
	}
	return res, nil
}

// runSoakOnce runs the app for 2x window; when events is non-nil they are
// injected evenly across the run, each followed by RecoverAll.
func runSoakOnce(p Params, kind AppKind, scheme spe.Scheme, events []failure.Event, res *SoakResult) (uint64, uint64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := BuildApp(kind, p, col, ref)
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        scheme,
		Nodes:         p.Nodes,
		CkptPeriod:    p.Window / 4,
		LocalDiskSpec: p.LocalDisk,
		SharedSpec:    p.SharedDisk,
		TickEvery:     time.Millisecond,
		SourceFlush:   64 << 10,
		Seed:          p.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := cl.Start(ctx); err != nil {
		return 0, 0, err
	}
	defer cl.StopAll()
	cl.StartController(ctx)
	sleepCtx(ctx, p.Warmup)
	if len(events) > 0 {
		// Do not inject before the first application checkpoint exists —
		// there would be nothing to recover to.
		if err := cl.Catalog().WaitForEpoch(1, 30*time.Second); err != nil {
			return 0, 0, err
		}
	}

	total := 2 * p.Window
	// Recovery replaces HAU instances (their processed counters restart),
	// so the delivered count is accumulated segment by segment.
	var acc uint64
	base := cl.ProcessedTotal()
	if len(events) == 0 {
		sleepCtx(ctx, total)
		return cl.ProcessedTotal() - base, sinkDupes(ref), nil
	}

	gap := total / time.Duration(len(events)+1)
	for _, e := range events {
		sleepCtx(ctx, gap)
		acc += cl.ProcessedTotal() - base
		// Map the trace's node set onto the simulated cluster.
		nodes := make(map[int]bool)
		for _, n := range e.Nodes {
			nodes[n%p.Nodes] = true
		}
		idxs := make([]int, 0, len(nodes))
		for n := range nodes {
			idxs = append(idxs, n)
		}
		cl.KillNodes(idxs)
		if _, err := cl.RecoverAll(ctx); err != nil {
			res.FailedRecov++
			return acc, sinkDupes(ref), err
		}
		res.Recoveries++
		base = cl.ProcessedTotal()
	}
	sleepCtx(ctx, gap)
	acc += cl.ProcessedTotal() - base
	return acc, sinkDupes(ref), nil
}

func sinkDupes(ref *apps.SinkRef) uint64 {
	if s := ref.Get(); s != nil {
		return s.Duplicates()
	}
	return 0
}

// MSSoakScheme returns the scheme the soak experiment exercises.
func MSSoakScheme() spe.Scheme { return spe.MSSrcAP }

// FprintSoak prints a soak result.
func FprintSoak(w io.Writer, r SoakResult) {
	fmt.Fprintf(w, "availability soak — %s under %s, %s\n", r.App, r.Scheme, r.Window)
	fmt.Fprintf(w, "  failure events: %d bursts + %d single-node, recoveries: %d\n",
		r.Bursts, r.SingleFails, r.Recoveries)
	fmt.Fprintf(w, "  delivered %d / %d failure-free tuples -> availability %.1f%%\n",
		r.Delivered, r.Baseline, r.Availability*100)
	fmt.Fprintf(w, "  exactly-once violations: %d\n", r.Duplicates)
}
