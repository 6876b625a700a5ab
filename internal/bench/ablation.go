package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// AblationRow is one measurement of a design-choice ablation.
type AblationRow struct {
	Name   string
	Value  string
	Metric string
	Result float64
}

// RunAblationBufferSize sweeps the baseline's input-preservation memory cap
// (the paper: "a larger buffer reduces the frequency of disk I/O, but does
// not reduce the amount of data written ... further enlarging buffers shows
// little performance improvement").
func RunAblationBufferSize(p Params, kind AppKind) ([]AblationRow, error) {
	p = p.withDefaults()
	var rows []AblationRow
	for _, capKB := range []int64{10, 50, 200} {
		cell, err := runWithMemCap(p, kind, capKB<<10)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:   "preserve-buffer",
			Value:  fmt.Sprintf("%dKB", capKB),
			Metric: "tuples/ms",
			Result: cell.TuplesPerMS,
		})
	}
	return rows, nil
}

func runWithMemCap(p Params, kind AppKind, memCap int64) (Cell, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := BuildApp(kind, p, col, ref)
	cl, err := cluster.New(cluster.Config{
		App:            spec,
		Scheme:         spe.Baseline,
		Nodes:          p.Nodes,
		CkptPeriod:     p.Window / 3,
		LocalDiskSpec:  p.LocalDisk,
		SharedSpec:     p.SharedDisk,
		TickEvery:      time.Millisecond,
		PreserveMemCap: memCap,
		SourceFlush:    2 << 10,
		Seed:           p.Seed,
	})
	if err != nil {
		return Cell{}, err
	}
	if err := cl.Start(ctx); err != nil {
		return Cell{}, err
	}
	defer cl.StopAll()
	sleepCtx(ctx, p.Warmup)
	base := cl.ProcessedTotal()
	start := time.Now()
	sleepCtx(ctx, p.Window)
	n := cl.ProcessedTotal() - base
	return Cell{TuplesPerMS: float64(n) / float64(time.Since(start).Milliseconds())}, nil
}

// RunAblationAsync isolates parallel-asynchronous checkpointing: the same
// app checkpoints once synchronously (MS-src) and once asynchronously
// (MS-src+ap); the metric is the peak instantaneous latency during the
// checkpoint (Fig. 15's headline).
func RunAblationAsync(p Params, kind AppKind) ([]AblationRow, error) {
	p = p.withDefaults()
	var rows []AblationRow
	for _, v := range []Variant{VarMSSrc, VarMSSrcAP} {
		series, err := runFig15One(p, kind, v)
		if err != nil {
			return nil, err
		}
		var peak time.Duration
		for _, b := range series.Buckets {
			if b.MeanLat > peak {
				peak = b.MeanLat
			}
		}
		rows = append(rows, AblationRow{
			Name:   "async-checkpoint",
			Value:  v.String(),
			Metric: "peak instantaneous latency (ms)",
			Result: float64(peak.Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// RunAblationAware isolates application-aware timing: checkpointed bytes of
// a randomly-timed checkpoint (MS-src+ap) vs a minimum-timed one (aa) vs
// the Oracle.
func RunAblationAware(p Params, kind AppKind) ([]AblationRow, error) {
	p = p.withDefaults()
	var rows []AblationRow
	for _, v := range []Variant{VarMSSrcAP, VarMSSrcAPAA, VarOracle} {
		row, err := runCheckpointOnce(p, kind, v, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:   "aware-timing",
			Value:  v.String(),
			Metric: "checkpointed state bytes",
			Result: float64(row.StateBytes),
		})
	}
	return rows, nil
}

// RunAblationGroupCommit sweeps the source log's group-commit threshold:
// strict write-before-send per tuple vs batched stable writes.
func RunAblationGroupCommit(p Params, kind AppKind) ([]AblationRow, error) {
	p = p.withDefaults()
	var rows []AblationRow
	// 1B means "flush on every append" (strict write-before-send); 0 would
	// be replaced by the system default.
	for _, flush := range []int64{1, 512, 4096, 65536} {
		cell, err := runWithSourceFlush(p, kind, flush)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%dB", flush)
		if flush == 1 {
			label = "per-tuple"
		}
		rows = append(rows, AblationRow{
			Name:   "source-group-commit",
			Value:  label,
			Metric: "tuples/ms",
			Result: cell.TuplesPerMS,
		})
	}
	return rows, nil
}

func runWithSourceFlush(p Params, kind AppKind, flush int64) (Cell, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := BuildApp(kind, p, col, ref)
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         p.Nodes,
		LocalDiskSpec: p.LocalDisk,
		SharedSpec:    p.SharedDisk,
		TickEvery:     time.Millisecond,
		SourceFlush:   flush,
		Seed:          p.Seed,
	})
	if err != nil {
		return Cell{}, err
	}
	if err := cl.Start(ctx); err != nil {
		return Cell{}, err
	}
	defer cl.StopAll()
	sleepCtx(ctx, p.Warmup)
	base := cl.ProcessedTotal()
	start := time.Now()
	sleepCtx(ctx, p.Window)
	n := cl.ProcessedTotal() - base
	return Cell{TuplesPerMS: float64(n) / float64(time.Since(start).Milliseconds())}, nil
}

// RunAblationDelta compares checkpointed bytes and recovery cost with and
// without delta-checkpointing (paper §V: delta-checkpointing "could be
// applied jointly" with Meteor Shower). BCP's slowly-changing predictor
// maps benefit; TMI's fully-turned-over pools do not.
func RunAblationDelta(p Params, kind AppKind) ([]AblationRow, error) {
	p = p.withDefaults()
	var rows []AblationRow
	for _, useDelta := range []bool{false, true} {
		bytes, recovery, err := runDeltaOnce(p, kind, useDelta)
		if err != nil {
			return nil, err
		}
		label := "full"
		if useDelta {
			label = "delta"
		}
		rows = append(rows,
			AblationRow{Name: "delta-checkpoint", Value: label, Metric: "2nd-epoch bytes", Result: float64(bytes)},
			AblationRow{Name: "delta-checkpoint", Value: label + "-recovery", Metric: "recovery ms", Result: recovery.Seconds() * 1000},
		)
	}
	return rows, nil
}

func runDeltaOnce(p Params, kind AppKind, useDelta bool) (int64, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := BuildApp(kind, p, col, ref)
	cl, err := cluster.New(cluster.Config{
		App:             spec,
		Scheme:          spe.MSSrcAP,
		Nodes:           p.Nodes,
		LocalDiskSpec:   p.LocalDisk,
		SharedSpec:      p.SharedDisk,
		TickEvery:       time.Millisecond,
		SourceFlush:     64 << 10,
		Seed:            p.Seed,
		DeltaCheckpoint: useDelta,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := cl.Start(ctx); err != nil {
		return 0, 0, err
	}
	defer cl.StopAll()
	sleepCtx(ctx, p.Warmup)
	// Two closely spaced epochs: the second is where deltas win.
	ep1 := cl.Controller().TriggerCheckpoint()
	if err := cl.Catalog().WaitForEpoch(ep1, 30*time.Second); err != nil {
		return 0, 0, err
	}
	sleepCtx(ctx, p.Window/8)
	ep2 := cl.Controller().TriggerCheckpoint()
	if err := cl.Catalog().WaitForEpoch(ep2, 30*time.Second); err != nil {
		return 0, 0, err
	}
	st, ok := cl.Controller().Stat(ep2)
	if !ok {
		return 0, 0, fmt.Errorf("bench: epoch %d stats missing", ep2)
	}
	var bytes int64
	for _, b := range st.Breakdown {
		bytes += b.StateBytes
	}
	cl.KillAll()
	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		return 0, 0, err
	}
	return bytes, stats.Total(), nil
}

// RunAblationScatter measures distributed checkpointing (paper §V, after
// SGuard): writing one large state blob to a scatter store of increasing
// width.
func RunAblationScatter(p Params, stateBytes int64) []AblationRow {
	p = p.withDefaults()
	var rows []AblationRow
	blob := make([]byte, stateBytes)
	for _, width := range []int{1, 2, 4, 8} {
		sc := storage.NewScatter(width, p.SharedDisk)
		start := time.Now()
		if _, err := sc.Put("state", blob); err != nil {
			continue
		}
		rows = append(rows, AblationRow{
			Name:   "scatter-checkpoint",
			Value:  fmt.Sprintf("%d-wide", width),
			Metric: "write ms",
			Result: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	return rows
}

// FprintAblations prints ablation rows.
func FprintAblations(w io.Writer, rows []AblationRow) {
	var last string
	for _, r := range rows {
		if r.Name != last {
			fmt.Fprintf(w, "ablation: %s (%s)\n", r.Name, r.Metric)
			last = r.Name
		}
		fmt.Fprintf(w, "  %-14s %12.2f\n", r.Value, r.Result)
	}
}
