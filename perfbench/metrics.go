package main

import (
	"math"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// durations returns each span's duration in ms.
func durations(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

func vals(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.Val)
	}
	return out
}

// children groups the spans called name by parent id.
func children(spans []Span, name string) map[int32][]Span {
	out := map[int32][]Span{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// perEvent returns, for each span called parent, f applied to its
// children called name.
func perEvent(spans []Span, parent, name string, f func([]Span) float64) []float64 {
	kids := children(spans, name)
	var out []float64
	for _, p := range named(spans, parent) {
		out = append(out, f(kids[p.ID]))
	}
	return out
}

func sumDur(ss []Span) float64 {
	var t float64
	for _, s := range ss {
		t += ms(s.dur())
	}
	return t
}

func sumVal(ss []Span) float64 {
	var t float64
	for _, s := range ss {
		t += float64(s.Val)
	}
	return t
}

func maxDur(ss []Span) float64 {
	var m float64
	for _, s := range ss {
		m = math.Max(m, ms(s.dur()))
	}
	return m
}

// steadyEpochs returns the epochs the kept deployment triggered inside its
// fault-free phase, and how many of them completed.
func (r *run) steadyEpochs() (map[uint64]bool, int) {
	s := r.kept()
	in := map[uint64]bool{}
	done := 0
	for _, e := range r.epochs {
		if e.Started >= s.start.UnixNano() && e.Started <= s.end.UnixNano() {
			in[e.Epoch] = true
			if e.Complete {
				done++
			}
		}
	}
	return in, done
}

// acrossSetups returns the median over the fault-free phases of f.
func (r *run) acrossSetups(f func(steadyStats) float64) float64 {
	var xs []float64
	for _, s := range r.steadies {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// endToEndMetrics derives the user-visible metrics of the run.
func (r *run) endToEndMetrics() map[string]float64 {
	spans := r.tr.snapshot()
	m := map[string]float64{}
	m["throughput_tps"] = float64(r.timedDelivered) / r.timedDur.Seconds()
	m["latency_p50_ms"] = r.acrossSetups(func(s steadyStats) float64 { return s.lat.Quantile(0.5) / 1e6 })
	m["latency_p99_ms"] = r.acrossSetups(func(s steadyStats) float64 { return s.lat.Quantile(0.99) / 1e6 })
	m["ckpt_ms"] = r.acrossSetups(func(s steadyStats) float64 { return median(s.ckpt) })
	m["recovery_ms"] = median(durations(named(spans, "bench.recover")))
	var gaps []float64
	for _, sp := range named(spans, "bench.kill") {
		gaps = append(gaps, ms(time.Duration(sp.Val)))
	}
	m["outage_ms"] = median(gaps)
	m["migrate_ms"] = median(durations(named(spans, "cluster.migrate")))
	m["rescale_ms"] = median(zip(
		perEvent(spans, "bench.reconfig", "cluster.split", sumDur),
		perEvent(spans, "bench.reconfig", "cluster.merge", sumDur)))
	m["cpu_us_per_tuple"] = r.acrossSetups(func(s steadyStats) float64 {
		return float64(s.cpu/time.Nanosecond) / 1e3 / float64(max(s.delivered, 1))
	})
	m["peak_heap_mb"] = float64(r.heapPeak) / (1 << 20)
	m["setup_s"] = median(r.setups)
	return m
}

// zip returns the element-wise sums of a and b.
func zip(a, b []float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = a[i] + b[i]
	}
	return out
}

// perLayerMetrics derives the traced run's per-layer metrics.
func (r *run) perLayerMetrics(e2e map[string]float64) map[string]float64 {
	spans := r.tr.snapshot()
	s := r.kept()
	secs := s.end.Sub(s.start).Seconds()
	m := map[string]float64{}
	m["operator.source_lag_ms"] = s.lag.Quantile(0.99) / 1e6
	for _, k := range []string{"pair", "refspeed", "passthrough", "sink"} {
		calls := s.ops1[k][0] - s.ops0[k][0]
		m["operator."+k+"_ns"] = float64(s.ops1[k][1]-s.ops0[k][1]) / float64(max(calls, 1))
	}
	epochs, done := r.steadyEpochs()
	window := []Span{{Start: s.start.UnixNano(), End: s.end.UnixNano()}}
	m["operator.snapshot_ms"] = sumDur(within(spans, "operator.snapshot", window)[0]) / float64(max(done, 1))
	recovers := named(spans, "bench.recover")
	var restore float64
	for _, rs := range within(spans, "operator.restore", recovers) {
		restore += sumDur(rs)
	}
	m["operator.restore_ms"] = restore / float64(max(len(recovers), 1))
	for _, k := range []string{"S", "P", "M", "G", "A", "K"} {
		m["spe.processed_tps."+k] = float64(s.proc1[k]-s.proc0[k]) / secs
	}
	// Per-epoch maxima (times) and sums (bytes) over the epoch's
	// individual checkpoints, then the median over fault-free epochs.
	perEpoch := func(name string, f func([]Span) float64) float64 {
		by := map[int64][]Span{}
		for _, sp := range spans {
			if sp.Name == name && epochs[uint64(sp.Count)] {
				by[sp.Count] = append(by[sp.Count], sp)
			}
		}
		var xs []float64
		for _, ss := range by {
			xs = append(xs, f(ss))
		}
		return median(xs)
	}
	m["spe.token_wait_ms"] = perEpoch("spe.token_wait", maxDur)
	m["spe.align_stall_ms"] = perEpoch("spe.align_stall", maxDur)
	m["spe.freeze_ms"] = perEpoch("spe.freeze", maxDur)
	m["spe.writer_ms"] = perEpoch("spe.writer", maxDur)
	m["spe.dirty_bytes"] = perEpoch("spe.freeze", sumVal)
	m["storage.ckpt_bytes"] = perEpoch("spe.checkpoint", sumVal)
	m["storage.write_ops"] = float64(s.disk1.Ops-s.disk0.Ops) / secs
	var reads []float64
	for _, rs := range recovers {
		reads = append(reads, float64(rs.Count))
	}
	m["storage.read_bytes"] = median(reads)
	m["storage.busy_ms"] = ms(s.disk1.BusyTime-s.disk0.BusyTime) / secs
	var triggered, completed int
	for _, e := range r.epochs {
		if e.Started >= s.start.UnixNano() && e.Started <= r.timedEnd.UnixNano() {
			triggered++
			if e.Complete {
				completed++
			}
		}
	}
	m["controller.epoch_complete_ratio"] = float64(completed) / float64(max(triggered, 1))
	m["buffer.preserved_tuples"] = float64(s.preserved)
	m["buffer.replay_tuples"] = median(vals(recovers))
	for _, p := range []string{"recover_reload", "recover_diskio", "recover_deserialize", "recover_reconnect", "replay_fetch"} {
		m["cluster."+p+"_ms"] = median(perEvent(spans, "bench.recover", "cluster."+p, sumDur))
	}
	for _, p := range []string{"drain", "downtime", "restore"} {
		m["cluster.migrate_"+p+"_ms"] = median(perEvent(spans, "cluster.migrate", "cluster.migrate_"+p, sumDur))
	}
	m["cluster.migrate_bytes"] = median(vals(named(spans, "cluster.migrate")))
	for _, p := range []string{"drain", "reshard", "restore", "downtime"} {
		m["cluster.rescale_"+p+"_ms"] = median(zip(
			perEvent(spans, "cluster.split", "cluster.split_"+p, sumDur),
			perEvent(spans, "cluster.merge", "cluster.merge_"+p, sumDur)))
	}
	m["cluster.rescale_bytes"] = median(zip(
		perEvent(spans, "bench.reconfig", "cluster.split", sumVal),
		perEvent(spans, "bench.reconfig", "cluster.merge", sumVal)))
	m["runtime.alloc_bytes_per_tuple"] = float64(s.mem1.TotalAlloc-s.mem0.TotalAlloc) / float64(max(s.delivered, 1))
	m["runtime.gc_cycles"] = float64(s.mem1.NumGC - s.mem0.NumGC)
	m["runtime.gc_pause_ms"] = float64(s.mem1.PauseTotalNs-s.mem0.PauseTotalNs) / 1e6
	m["reference.tps"] = float64(r.refCount) / r.refTime.Seconds()
	m["trace.throughput_tps"] = e2e["throughput_tps"]
	m["trace.cpu_us_per_tuple"] = e2e["cpu_us_per_tuple"]
	m["trace.latency_p99_ms"] = e2e["latency_p99_ms"]
	return m
}
