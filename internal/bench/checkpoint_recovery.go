package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
)

// Variant labels the Fig. 14/16 bars: the three Meteor Shower schemes plus
// the Oracle that checkpoints exactly at the observed state minimum.
type Variant int

const (
	VarMSSrc Variant = iota
	VarMSSrcAP
	VarMSSrcAPAA
	VarOracle
)

func (v Variant) String() string {
	switch v {
	case VarMSSrc:
		return "MS-src"
	case VarMSSrcAP:
		return "MS-src+ap"
	case VarMSSrcAPAA:
		return "MS-src+ap+aa"
	default:
		return "Oracle"
	}
}

func (v Variant) scheme() spe.Scheme {
	if v == VarMSSrc {
		return spe.MSSrc
	}
	return spe.MSSrcAP // aa and Oracle use the ap runtime; timing differs
}

// Fig14Row is one stacked bar of Fig. 14.
type Fig14Row struct {
	App        string
	Variant    string
	TokenWait  time.Duration // "token collection"
	DiskIO     time.Duration
	Other      time.Duration // serialization + process creation
	Total      time.Duration
	StateBytes int64
}

// RunFig14 measures the checkpoint time of each variant on one app. For
// MS-src only the total is reported (token propagation and individual
// checkpoints overlap); for the parallel variants the slowest individual
// checkpoint is broken down.
func RunFig14(p Params, kind AppKind) ([]Fig14Row, error) {
	p = p.withDefaults()
	var rows []Fig14Row
	for _, v := range []Variant{VarMSSrc, VarMSSrcAP, VarMSSrcAPAA, VarOracle} {
		row, err := runCheckpointOnce(p, kind, v, nil)
		if err != nil {
			return nil, fmt.Errorf("%v/%v: %w", kind, v, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runCheckpointOnce boots the app, fires one checkpoint with the variant's
// timing policy, and reports its breakdown. If col is non-nil it is left
// collecting through the checkpoint (used by Fig. 15).
func runCheckpointOnce(p Params, kind AppKind, v Variant, after func(*runner)) (Fig14Row, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := startSystem(ctx, p, kind, v.scheme(), 0)
	if err != nil {
		return Fig14Row{}, err
	}
	defer r.cl.StopAll()
	sleepCtx(ctx, p.Warmup)

	switch v {
	case VarMSSrcAPAA, VarOracle:
		// Wait for a (near-)minimal aggregate state before triggering.
		min := observeMinimum(ctx, r, p.Window/2)
		tol := 1.25
		if v == VarOracle {
			tol = 1.05
		}
		waitUntil(p.Window, func() bool {
			return totalState(r) <= int64(float64(min)*tol)+1
		})
	}
	ep := r.cl.Controller().TriggerCheckpoint()
	st, err := waitEpoch(r.cl, ep, 30*time.Second)
	if err != nil {
		return Fig14Row{}, err
	}
	if after != nil {
		after(r)
	}

	row := Fig14Row{App: kind.String(), Variant: v.String()}
	if v == VarMSSrc {
		row.Total = st.WallTime()
		for _, b := range st.Breakdown {
			row.StateBytes += b.StateBytes
		}
	} else {
		slow := st.SlowestBreakdown()
		row.TokenWait = slow.TokenWait
		row.DiskIO = slow.DiskIO
		row.Other = slow.Serialize
		row.Total = slow.Total()
		for _, b := range st.Breakdown {
			row.StateBytes += b.StateBytes
		}
	}
	return row, nil
}

// observeMinimum watches the aggregate state size for dur and returns the
// smallest value seen (the Oracle's "complete picture ... from prior runs").
func observeMinimum(ctx context.Context, r *runner, dur time.Duration) int64 {
	min := int64(1 << 62)
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		if s := totalState(r); s < min {
			min = s
		}
		sleepCtx(ctx, 5*time.Millisecond)
	}
	return min
}

func totalState(r *runner) int64 {
	var total int64
	for _, id := range r.cl.GraphNodes() {
		if h := r.cl.HAU(id); h != nil {
			total += h.CachedStateSize()
		}
	}
	return total
}

// FprintFig14 prints the checkpoint-time table.
func FprintFig14(w io.Writer, app string, rows []Fig14Row) {
	fmt.Fprintf(w, "Fig. 14 — checkpoint time (%s), sim seconds\n", app)
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12s\n",
		"variant", "token", "disk I/O", "other", "total", "state bytes")
	for _, r := range rows {
		if r.Variant == "MS-src" {
			fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12d\n",
				r.Variant, "-", "-", "-", fmtDur(r.Total), r.StateBytes)
			continue
		}
		fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12d\n",
			r.Variant, fmtDur(r.TokenWait), fmtDur(r.DiskIO), fmtDur(r.Other),
			fmtDur(r.Total), r.StateBytes)
	}
}

// Fig15Series is the instantaneous latency around one checkpoint.
type Fig15Series struct {
	App     string
	Variant string
	Buckets []metrics.Bucket
}

// RunFig15 records instantaneous latency while each variant checkpoints.
func RunFig15(p Params, kind AppKind) ([]Fig15Series, error) {
	p = p.withDefaults()
	var out []Fig15Series
	for _, v := range []Variant{VarMSSrc, VarMSSrcAP, VarMSSrcAPAA} {
		series, err := runFig15One(p, kind, v)
		if err != nil {
			return nil, err
		}
		out = append(out, series)
	}
	return out, nil
}

func runFig15One(p Params, kind AppKind, v Variant) (Fig15Series, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := startSystem(ctx, p, kind, v.scheme(), 0)
	if err != nil {
		return Fig15Series{}, err
	}
	defer r.cl.StopAll()
	sleepCtx(ctx, p.Warmup)
	r.col.Reset()
	sleepCtx(ctx, p.Window/8) // pre-checkpoint baseline

	if v == VarMSSrcAPAA {
		min := observeMinimum(ctx, r, p.Window/4)
		waitUntil(p.Window/2, func() bool { return totalState(r) <= int64(float64(min)*1.25)+1 })
	}
	ep := r.cl.Controller().TriggerCheckpoint()
	if _, err := waitEpoch(r.cl, ep, 30*time.Second); err != nil {
		return Fig15Series{}, err
	}
	sleepCtx(ctx, p.Window/4) // post-checkpoint tail
	return Fig15Series{
		App:     kind.String(),
		Variant: v.String(),
		Buckets: r.col.InstantSeries(50 * time.Millisecond),
	}, nil
}

// FprintFig15 prints the instantaneous-latency traces.
func FprintFig15(w io.Writer, series []Fig15Series) {
	for _, s := range series {
		fmt.Fprintf(w, "Fig. 15 — instantaneous latency (%s, %s)\n", s.App, s.Variant)
		var max time.Duration
		for _, b := range s.Buckets {
			if b.MeanLat > max {
				max = b.MeanLat
			}
		}
		for _, b := range s.Buckets {
			fmt.Fprintf(w, "  +%-8s n=%-5d mean=%-12s %s\n",
				time.Duration(b.Start-s.Buckets[0].Start).Truncate(10*time.Millisecond),
				b.Count, b.MeanLat.Truncate(time.Microsecond),
				bar(int64(b.MeanLat), int64(max), 40))
		}
	}
}

// Fig16Row is one recovery bar of Fig. 16.
type Fig16Row struct {
	App       string
	Variant   string
	Reconnect time.Duration
	DiskIO    time.Duration
	Other     time.Duration
	Total     time.Duration
	Stats     cluster.RecoveryStats
}

// RunFig16 measures worst-case recovery: every node fails and the whole
// application rolls back to the MRC. MS-src and MS-src+ap share a recovery
// path, so the paper reports them as one bar.
func RunFig16(p Params, kind AppKind) ([]Fig16Row, error) {
	p = p.withDefaults()
	var rows []Fig16Row
	for _, v := range []Variant{VarMSSrcAP, VarMSSrcAPAA, VarOracle} {
		row, err := runFig16One(p, kind, v)
		if err != nil {
			return nil, fmt.Errorf("%v/%v: %w", kind, v, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFig16One(p Params, kind AppKind, v Variant) (Fig16Row, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := startSystem(ctx, p, kind, v.scheme(), 0)
	if err != nil {
		return Fig16Row{}, err
	}
	defer r.cl.StopAll()
	sleepCtx(ctx, p.Warmup)

	switch v {
	case VarMSSrcAPAA, VarOracle:
		min := observeMinimum(ctx, r, p.Window/2)
		tol := 1.25
		if v == VarOracle {
			tol = 1.05
		}
		waitUntil(p.Window, func() bool { return totalState(r) <= int64(float64(min)*tol)+1 })
	}
	ep := r.cl.Controller().TriggerCheckpoint()
	if _, err := waitEpoch(r.cl, ep, 30*time.Second); err != nil {
		return Fig16Row{}, err
	}
	sleepCtx(ctx, p.Window/8)

	r.cl.KillAll()
	stats, err := r.cl.RecoverAll(ctx)
	if err != nil {
		return Fig16Row{}, err
	}
	name := v.String()
	if v == VarMSSrcAP {
		name = "MS-src(+ap)"
	}
	return Fig16Row{
		App:       kind.String(),
		Variant:   name,
		Reconnect: stats.Reconnect,
		DiskIO:    stats.DiskIO,
		Other:     stats.Reload + stats.Deserialize,
		Total:     stats.Total(),
		Stats:     stats,
	}, nil
}

// FprintFig16 prints the recovery-time table. Replay fetch is shown for
// completeness but excluded from the total, matching the paper.
func FprintFig16(w io.Writer, app string, rows []Fig16Row) {
	fmt.Fprintf(w, "Fig. 16 — worst-case recovery time (%s), sim seconds\n", app)
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %14s\n", "variant", "reconnect", "disk I/O", "other", "total", "(replay fetch)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %14s\n",
			r.Variant, fmtDur(r.Reconnect), fmtDur(r.DiskIO), fmtDur(r.Other),
			fmtDur(r.Total), fmtDur(r.Stats.ReplayFetch))
	}
}
