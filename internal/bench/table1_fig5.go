package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"meteorshower/internal/failure"
	"meteorshower/internal/spe"
	"meteorshower/internal/statesize"
)

// Table1Row is one cluster column of Table I.
type Table1Row struct {
	Cluster string
	AFN100  map[failure.Cause]float64
	Burst   float64
}

// RunTable1 regenerates Table I from the failure generator.
func RunTable1(seed int64) []Table1Row {
	var rows []Table1Row
	for _, prof := range []failure.Profile{failure.GoogleDC(), failure.AbeCluster()} {
		events := failure.Generate(prof, 2400, failure.Year, seed)
		rows = append(rows, Table1Row{
			Cluster: prof.Name,
			AFN100:  failure.AFN100(events, 2400, failure.Year),
			Burst:   failure.BurstFraction(events),
		})
	}
	return rows
}

// FprintTable1 prints Table I with the paper's reference values.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — commodity data center failure models (AFN100)")
	fmt.Fprintf(w, "%-14s", "Failure Source")
	for _, r := range rows {
		fmt.Fprintf(w, "%24s", r.Cluster)
	}
	fmt.Fprintf(w, "%24s\n", "paper (Google / Abe)")
	ref := map[failure.Cause]string{
		failure.Network:     ">300 / ~250",
		failure.Environment: "100~150 / NA",
		failure.Ooops:       "~100 / ~40",
		failure.Disk:        "1.7~8.6 / 2~6",
		failure.Memory:      "1.3 / NA",
	}
	for _, c := range failure.Causes() {
		fmt.Fprintf(w, "%-14s", c)
		for _, r := range rows {
			fmt.Fprintf(w, "%24.1f", r.AFN100[c])
		}
		fmt.Fprintf(w, "%24s\n", ref[c])
	}
	for _, r := range rows {
		fmt.Fprintf(w, "burst fraction (%s): %.1f%% (paper: ~10%%)\n", r.Cluster, r.Burst*100)
	}
	n, afn := failure.GoogleNetworkExample()
	fmt.Fprintf(w, "worked example: %d network node-failures/year -> AFN100 = %.1f (paper: 7640 -> >300)\n", n, afn)
}

// Fig5Trace is one application's state-size series.
type Fig5Trace struct {
	App     string
	Samples []statesize.Sample
	Min     int64
	Max     int64
	Avg     int64
}

// RunFig5 runs each application without checkpoints and records the
// aggregate operator state size over time — the Fig. 5 traces whose local
// minima motivate application-aware checkpointing.
func RunFig5(p Params) ([]Fig5Trace, error) {
	p = p.withDefaults()
	var traces []Fig5Trace
	for _, kind := range p.Apps() {
		tr, err := runFig5One(p, kind)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

func runFig5One(p Params, kind AppKind) (Fig5Trace, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := startSystem(ctx, p, kind, spe.MSSrcAP, 0)
	if err != nil {
		return Fig5Trace{}, err
	}
	defer r.cl.StopAll()
	sleepCtx(ctx, p.Warmup)

	tr := Fig5Trace{App: kind.String(), Min: 1 << 62}
	start := time.Now()
	for time.Since(start) < p.Window {
		var total int64
		for _, id := range nodeIDs(r) {
			if h := r.cl.HAU(id); h != nil {
				total += h.CachedStateSize()
			}
		}
		tr.Samples = append(tr.Samples, statesize.Sample{
			At:   int64(time.Since(start)),
			Size: total,
		})
		if total < tr.Min {
			tr.Min = total
		}
		if total > tr.Max {
			tr.Max = total
		}
		sleepCtx(ctx, 20*time.Millisecond)
	}
	var sum int64
	for _, s := range tr.Samples {
		sum += s.Size
	}
	if len(tr.Samples) > 0 {
		tr.Avg = sum / int64(len(tr.Samples))
	}
	return tr, nil
}

func nodeIDs(r *runner) []string {
	return r.cl.GraphNodes()
}

// FprintFig5 prints per-app state-size envelopes and a coarse trace.
func FprintFig5(w io.Writer, traces []Fig5Trace) {
	fmt.Fprintln(w, "Fig. 5 — state size fluctuation (sim KB ~ paper MB)")
	for _, tr := range traces {
		fmt.Fprintf(w, "\n(%s) min=%dKB max=%dKB avg=%dKB", tr.App, tr.Min>>10, tr.Max>>10, tr.Avg>>10)
		if tr.Min*2 < tr.Avg {
			fmt.Fprintf(w, "  [dynamic: min < avg/2]")
		}
		fmt.Fprintln(w)
		step := len(tr.Samples) / 24
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tr.Samples); i += step {
			s := tr.Samples[i]
			fmt.Fprintf(w, "  t=%-8s %8d bytes %s\n",
				time.Duration(s.At).Truncate(10*time.Millisecond), s.Size, bar(s.Size, tr.Max, 40))
		}
	}
}

func bar(v, max int64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v * int64(width) / max)
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
