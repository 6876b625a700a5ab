// Package bench regenerates every table and figure of the paper's
// evaluation (§IV) on the simulated cluster: Table I (failure model),
// Fig. 5 (state-size traces), Figs. 12/13 (throughput/latency vs checkpoint
// count), Fig. 14 (checkpoint time breakdown), Fig. 15 (instantaneous
// latency during a checkpoint), Fig. 16 (worst-case recovery time), plus
// ablation experiments for the design choices called out in DESIGN.md.
//
// Scaling: the paper's 10-minute EC2 window maps to Params.Window of
// simulated wall time (default 2 s), and 1 paper-MB of state maps to 1
// simulated KB. Disk bandwidth is scaled by the same factor so the ratio of
// checkpoint time to window length is preserved; absolute numbers are
// reported in simulation seconds and compared against the paper by shape
// (see EXPERIMENTS.md).
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/controller"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// AppKind selects one of the three evaluation applications.
type AppKind int

const (
	// TMIApp is Transportation Mode Inference (low workload).
	TMIApp AppKind = iota
	// BCPApp is Bus Capacity Prediction (medium workload).
	BCPApp
	// SGApp is SignalGuru (high workload).
	SGApp
)

func (k AppKind) String() string {
	switch k {
	case TMIApp:
		return "TMI"
	case BCPApp:
		return "BCP"
	case SGApp:
		return "SignalGuru"
	default:
		return "unknown-app"
	}
}

// AllApps lists the apps in paper order.
func AllApps() []AppKind { return []AppKind{TMIApp, BCPApp, SGApp} }

// AllSchemes lists the evaluated schemes in paper order.
func AllSchemes() []spe.Scheme {
	return []spe.Scheme{spe.Baseline, spe.MSSrc, spe.MSSrcAP, spe.MSSrcAPAA}
}

// Params are the global experiment knobs.
type Params struct {
	Window time.Duration // the paper's 10-minute window, in sim time
	Warmup time.Duration
	Nodes  int
	Seed   int64

	SharedDisk storage.DiskSpec
	LocalDisk  storage.DiskSpec

	// Quick shrinks grids (fewer checkpoint counts) for test runs.
	Quick bool
	// TrackIdentity makes sinks record (source, id) pairs so experiments
	// can assert exactly-once (soak test); off for the throughput grids
	// because the identity set itself is state.
	TrackIdentity bool
}

// Defaults returns the standard experiment parameters.
func Defaults() Params {
	p := Params{}
	return p.withDefaults()
}

func (p Params) withDefaults() Params {
	if p.Window <= 0 {
		p.Window = 2 * time.Second
	}
	if p.Warmup <= 0 {
		p.Warmup = p.Window / 4
	}
	if p.Nodes <= 0 {
		p.Nodes = 8
	}
	zero := storage.DiskSpec{}
	if p.SharedDisk == zero {
		// GFS-like distributed store: higher aggregate bandwidth than a
		// single spindle, scaled so a full-application checkpoint costs
		// a few percent of the window (the paper's tens of seconds
		// against a 600-second window).
		p.SharedDisk = storage.DiskSpec{BandwidthBps: 4 << 20, Latency: 2 * time.Millisecond, TimeScale: 1, Stripes: 8}
	}
	if p.LocalDisk == zero {
		// Commodity SATA scaled by the same factor as state sizes: slow
		// enough that input preservation's per-hop dumps are the real
		// cost the paper describes.
		p.LocalDisk = storage.DiskSpec{BandwidthBps: 4 << 20, Latency: time.Millisecond, TimeScale: 1}
	}
	return p
}

// BuildApp constructs the paper-scale spec for kind, wired to col/ref.
func BuildApp(kind AppKind, p Params, col *metrics.Collector, ref *apps.SinkRef) cluster.AppSpec {
	switch kind {
	case TMIApp:
		cfg := apps.TMIPaper(col, p.Window/3) // ~3 k-means windows per run
		cfg.SinkRef = ref
		cfg.TrackIdentity = p.TrackIdentity
		return apps.TMI(cfg)
	case BCPApp:
		cfg := apps.BCPPaper(col)
		cfg.SinkRef = ref
		cfg.TrackIdentity = p.TrackIdentity
		return apps.BCP(cfg)
	default:
		cfg := apps.SGPaper(col)
		cfg.SinkRef = ref
		cfg.TrackIdentity = p.TrackIdentity
		return apps.SG(cfg)
	}
}

// Cell is one grid measurement (one bar of Fig. 12/13).
type Cell struct {
	App         string
	Scheme      string
	Ckpts       int
	Processed   uint64
	TuplesPerMS float64
	MeanLat     time.Duration
	P99Lat      time.Duration
	Epochs      int
}

// runner bundles a started system for one cell.
type runner struct {
	cl  *cluster.Cluster
	col *metrics.Collector
	ref *apps.SinkRef
}

// startSystem boots app kind under scheme with the given checkpoint period.
func startSystem(ctx context.Context, p Params, kind AppKind, scheme spe.Scheme, period time.Duration) (*runner, error) {
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := BuildApp(kind, p, col, ref)
	cl, err := cluster.New(cluster.Config{
		App:            spec,
		Scheme:         scheme,
		Nodes:          p.Nodes,
		CkptPeriod:     period,
		LocalDiskSpec:  p.LocalDisk,
		SharedSpec:     p.SharedDisk,
		TickEvery:      time.Millisecond,
		PreserveMemCap: 50 << 10, // the paper's 50 MB, scaled
		SourceFlush:    64 << 10, // group commit for high-volume sources
		EdgeBuffer:     64,       // small in-flight window: backpressure bites
		Seed:           p.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Start(ctx); err != nil {
		return nil, err
	}
	return &runner{cl: cl, col: col, ref: ref}, nil
}

// MeasureReps is how many consecutive windows each grid cell measures; the
// reported throughput/latency is the median, which suppresses the
// wall-clock noise of running a hundred simulations back to back on one
// machine.
const MeasureReps = 3

// RunCell measures one (app, scheme, checkpoint-count) grid cell.
func RunCell(p Params, kind AppKind, scheme spe.Scheme, nCkpts int) (Cell, error) {
	p = p.withDefaults()
	runtime.GC() // isolate this cell from the previous one's garbage
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var period time.Duration
	if nCkpts > 0 {
		period = p.Window / time.Duration(nCkpts)
	}
	r, err := startSystem(ctx, p, kind, scheme, period)
	if err != nil {
		return Cell{}, err
	}
	defer r.cl.StopAll()

	// Warmup; for the application-aware scheme this doubles as the
	// profiling phase (§III-C2).
	if scheme.ApplicationAware() && period > 0 {
		r.cl.Controller().ProfileApplication(ctx, p.Warmup)
	} else {
		sleepCtx(ctx, p.Warmup)
	}
	if period > 0 {
		r.cl.StartController(ctx)
	}

	reps := MeasureReps
	if p.Quick {
		reps = 1
	}
	tputs := make([]float64, 0, reps)
	lats := make([]time.Duration, 0, reps)
	p99s := make([]time.Duration, 0, reps)
	var totalProcessed uint64
	for i := 0; i < reps; i++ {
		base := r.cl.ProcessedTotal()
		r.col.Reset()
		start := time.Now()
		if p.Quick && nCkpts > 0 && scheme.UsesTokens() && !scheme.ApplicationAware() {
			// A quick cell of a periodic token scheme ends once a window's
			// worth of epochs completed, not on wall time: one slow epoch
			// under load would otherwise leave none complete. The deadline
			// bounds a stuck controller. The baseline has no controller
			// epochs, and the application-aware scheme picks its own
			// instants, so both keep the wall-clock window.
			waitUntil(quickDeadline*p.Window, func() bool { return completedEpochs(r.cl.Controller()) >= nCkpts })
		} else {
			sleepCtx(ctx, p.Window)
		}
		processed := r.cl.ProcessedTotal() - base
		totalProcessed += processed
		tputs = append(tputs, float64(processed)/float64(time.Since(start).Milliseconds()))
		lats = append(lats, r.col.MeanLatency())
		p99s = append(p99s, r.col.Quantile(0.99))
	}

	completed := completedEpochs(r.cl.Controller())
	return Cell{
		App:         kind.String(),
		Scheme:      scheme.String(),
		Ckpts:       nCkpts,
		Processed:   totalProcessed,
		TuplesPerMS: medianF(tputs),
		MeanLat:     medianD(lats),
		P99Lat:      medianD(p99s),
		Epochs:      completed,
	}, nil
}

// quickDeadline bounds a quick cell's epoch wait, in windows.
const quickDeadline = 20

// completedEpochs counts the checkpoint epochs the controller completed.
func completedEpochs(ctrl *controller.Controller) int {
	n := 0
	for _, st := range ctrl.EpochStats() {
		if st.Complete {
			n++
		}
	}
	return n
}

func medianF(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)/2]
}

func medianD(v []time.Duration) time.Duration {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

// CkptCounts returns the checkpoint-count sweep (paper: 0..8).
func (p Params) CkptCounts() []int {
	if p.Quick {
		return []int{0, 3}
	}
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
}

// Apps returns the app sweep.
func (p Params) Apps() []AppKind {
	if p.Quick {
		return []AppKind{TMIApp}
	}
	return AllApps()
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// fmtDur prints a duration in seconds with millisecond resolution.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// waitUntil polls cond every 2 ms until it holds or the timeout elapses.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// waitEpoch waits for epoch to complete and returns its stats.
func waitEpoch(cl *cluster.Cluster, epoch uint64, timeout time.Duration) (controller.EpochStat, error) {
	if err := cl.Catalog().WaitForEpoch(epoch, timeout); err != nil {
		return controller.EpochStat{}, err
	}
	// The catalog completes before the last listener callback lands; give
	// the controller a beat to record it.
	var st controller.EpochStat
	ok := waitUntil(timeout, func() bool {
		var found bool
		st, found = cl.Controller().Stat(epoch)
		return found && st.Complete
	})
	if !ok {
		return st, fmt.Errorf("bench: epoch %d stats incomplete", epoch)
	}
	return st, nil
}
