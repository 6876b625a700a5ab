// Command msskew benchmarks skew-aware weighted slot assignment and
// regenerates BENCH_skew.json. Two experiments:
//
//  1. Throughput vs assignment policy under Zipf key skew (s in {0.9,
//     1.1, 1.3}): a compute-bound Pair stage whose hot keys hash into one
//     replica's count-balanced slot range is run whole, split 4 ways
//     count-balanced, and split 4 ways weighted by the key distribution.
//     The count-balanced split leaves the hot range on one replica and
//     plateaus; the weighted split spreads the hot slots and recovers
//     near-linear scaling. Gated: at s=1.1 the weighted rate must be
//     >= 1.8x the count-balanced rate.
//
//  2. Drifting hotspot: a 4-way split balanced for one hot band drifts
//     onto slots co-located on a single replica; RebalanceHAU with the
//     drifted weights must restore the imbalance ratio to <= 1.25 without
//     changing the replica count.
//
//     msskew                 # full run, writes BENCH_skew.json
//     msskew -out -          # print JSON to stdout instead
//     msskew -quick          # reduced grids (CI smoke)
//
// A failed gate exits non-zero after writing the document.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

const (
	replicas  = 4   // split width both experiments drive toward
	ranks     = 256 // Zipf key-universe size per source
	hotRanks  = 64  // top ranks constrained into the hot slot band
	gateZipfS = 1.1
	gateRatio = 1.8  // weighted split must beat count-balanced by this
	maxDrift  = 1.25 // post-rebalance imbalance ceiling
)

func main() {
	var (
		out    = flag.String("out", "BENCH_skew.json", `output path; "-" prints to stdout`)
		window = flag.Duration("window", 500*time.Millisecond, "sink-rate measurement window")
		workNS = flag.Int64("work-ns", 50000, "per-tuple service time in the Pair stage")
		quick  = flag.Bool("quick", false, "reduced grids")
	)
	flag.Parse()

	svals := []float64{0.9, 1.1, 1.3}
	driftAt := uint64(4000)
	if *quick {
		svals = []float64{1.1}
		driftAt = 2500
		if *window > 250*time.Millisecond {
			*window = 250 * time.Millisecond
		}
	}

	doc := map[string]any{
		"benchmark": "skew",
		"environment": map[string]string{
			"go":     runtime.Version(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
		},
		"regenerate": "go run ./cmd/msskew",
	}
	failed := false

	fmt.Fprintln(os.Stderr, "== throughput vs assignment policy, Zipf keyed pair stage ==")
	var points []policyPoint
	for _, s := range svals {
		pt, err := policyTrials(s, *window, *workNS)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msskew: s=%.1f: %v\n", s, err)
			os.Exit(1)
		}
		points = append(points, pt)
		fmt.Fprintf(os.Stderr, "  s=%.1f: base %.1f/ms, count %.1f/ms (%.2fx), weighted %.1f/ms (%.2fx) -> weighted/count %.2fx\n",
			s, pt.BaseRate, pt.CountRate, pt.CountSpeedup, pt.WeightedRate, pt.WeightedSpeedup, pt.WeightedVsCount)
	}
	doc["throughput_vs_policy"] = points
	gate := map[string]any{"zipf_s": gateZipfS, "weighted_vs_count_min": gateRatio}
	for _, pt := range points {
		if pt.ZipfS == gateZipfS {
			pass := pt.WeightedVsCount >= gateRatio
			gate["weighted_vs_count"] = pt.WeightedVsCount
			gate["pass"] = pass
			if !pass {
				failed = true
				fmt.Fprintf(os.Stderr, "msskew: GATE FAILED: weighted/count %.2fx < %.2fx at s=%.1f\n",
					pt.WeightedVsCount, gateRatio, gateZipfS)
			}
		}
	}
	doc["gate"] = gate

	fmt.Fprintln(os.Stderr, "== drifting hotspot: weighted rebalance without resplit ==")
	drift, err := driftTrial(gateZipfS, driftAt, *workNS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msskew: drift experiment: %v\n", err)
		os.Exit(1)
	}
	doc["drifting_hotspot"] = drift
	fmt.Fprintf(os.Stderr, "  pre-rebalance ratio %.2f -> post %.2f (ceiling %.2f), %d slot(s) moved, replicas %d unchanged=%v\n",
		drift.PreRatio, drift.PostRatio, maxDrift, drift.MovedSlots, drift.Replicas, !drift.ReplicasChanged)
	if !drift.Pass {
		failed = true
		fmt.Fprintf(os.Stderr, "msskew: GATE FAILED: drift rebalance post ratio %.2f > %.2f or replica count changed\n",
			drift.PostRatio, maxDrift)
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "msskew: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "msskew: %v\n", err)
		os.Exit(1)
	} else {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

func fastDisk() storage.DiskSpec {
	return storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond, TimeScale: 0}
}

// --- Zipf workload construction ----------------------------------------------

// zipfCDF returns the cumulative probabilities of a Zipf(s) distribution
// over n ranks (p(r) proportional to 1/(r+1)^s). Unlike math/rand's Zipf
// it accepts any s > 0, covering the s=0.9 grid point.
func zipfCDF(s float64, n int) []float64 {
	cum := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	return cum
}

// bandKey returns a key for rank i whose slot lies in [lo, hi) — the salt
// search models real deployments where a hot key range happens to hash
// into one replica's slots.
func bandKey(prefix string, i, lo, hi int) string {
	for salt := 0; ; salt++ {
		k := fmt.Sprintf("%s%d-%d", prefix, i, salt)
		if s := partition.SlotOf(k, partition.DefaultSlots); s >= lo && s < hi {
			return k
		}
	}
}

// slotSetKey is bandKey over an arbitrary slot set.
func slotSetKey(prefix string, i int, want map[int]bool) string {
	for salt := 0; ; salt++ {
		k := fmt.Sprintf("%s%d-%d", prefix, i, salt)
		if want[partition.SlotOf(k, partition.DefaultSlots)] {
			return k
		}
	}
}

// zipfKeys builds one source's key universe for experiment 1: the top
// hotRanks ranks hash into slots [0, hotRanks) — exactly the slot range a
// count-balanced 4-way split leaves on replica 0 — and the cold tail is
// unconstrained.
func zipfKeys(src int) []string {
	keys := make([]string, ranks)
	for r := range keys {
		p := fmt.Sprintf("z%d-", src)
		if r < hotRanks {
			keys[r] = bandKey(p, r, 0, hotRanks)
		} else {
			keys[r] = p + fmt.Sprint(r)
		}
	}
	return keys
}

// analyticWeights folds each source's Zipf mass into per-slot weights —
// the profile a production controller would read off the key routers.
func analyticWeights(cdf []float64, keySets ...[]string) partition.Weights {
	w := make(partition.Weights, partition.DefaultSlots)
	for _, keys := range keySets {
		prev := 0.0
		for r, k := range keys {
			p := cdf[r] - prev
			prev = cdf[r]
			w[partition.SlotOf(k, partition.DefaultSlots)] += int64(p * 1e6)
		}
	}
	return w
}

// zipfPositions samples keys from the Zipf CDF and emits TMI positions.
// keysB (when non-nil) takes over once a source's tuple id crosses
// driftAt — the drifting-hotspot workload.
func zipfPositions(cdf []float64, keysA, keysB []string, driftAt uint64) operator.PayloadFn {
	return func(id uint64, rng *rand.Rand) (string, []byte) {
		keys := keysA
		if keysB != nil && id >= driftAt {
			keys = keysB
		}
		r := sort.SearchFloat64s(cdf, rng.Float64())
		if r >= len(keys) {
			r = len(keys) - 1
		}
		pos := apps.Position{X: rng.Float64() * 1000, Y: rng.Float64() * 1000, TsMS: int64(id)}
		return keys[r], pos.Encode()
	}
}

// --- shared cluster harness --------------------------------------------------

type trial struct {
	cl  *cluster.Cluster
	col *metrics.Collector
	cancel,
	stop func()
}

func (t *trial) Close() {
	t.stop()
	t.cancel()
}

// startTrial boots the two-source keyed Pair topology with the given
// per-source payload functions and waits for first deliveries.
func startTrial(payloads [2]operator.PayloadFn, workNS int64) (*trial, error) {
	g := graph.New()
	g.MustAddNode("S0")
	g.MustAddNode("S1")
	g.MustAddNode("P")
	g.MustAddNode("K")
	g.MustAddEdge("S0", "P")
	g.MustAddEdge("S1", "P")
	g.MustAddEdge("P", "K")
	col := metrics.NewCollector()
	spec := cluster.AppSpec{
		Name:  "skewbench",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id[0] {
			case 'S':
				idx := int(id[1] - '0')
				src := operator.NewRateSource(id, 64, int64(idx+1), payloads[idx])
				src.MaxRate = true
				// The sources must offer far more than one Pair replica
				// absorbs, or the measurement is source-bound and the slot
				// assignment cannot matter.
				src.CatchUpCap = 256
				return []operator.Operator{src}
			case 'P':
				p := apps.NewPairOp(id)
				p.WorkNS = workNS
				return []operator.Operator{p}
			default:
				return []operator.Operator{operator.NewSink("K", col)}
			}
		},
	}
	cl, err := cluster.New(cluster.Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         6,
		NodesPerRack:  2,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: fastDisk(),
		SharedSpec:    fastDisk(),
		TickEvery:     time.Millisecond,
		SourceFlush:   4 << 10,
		Seed:          1,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := cl.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	t := &trial{cl: cl, col: col, cancel: cancel, stop: cl.StopAll}
	if err := waitFor(10*time.Second, func() bool { return col.Count() > 200 }); err != nil {
		t.Close()
		return nil, fmt.Errorf("stream never warmed up: %w", err)
	}
	return t, nil
}

func (t *trial) sinkRate(window time.Duration) float64 {
	n0 := t.col.Count()
	time.Sleep(window)
	n1 := t.col.Count()
	return float64(n1-n0) / (float64(window.Microseconds()) / 1000)
}

func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timeout")
}

// --- experiment 1: throughput vs assignment policy ---------------------------

type policyPoint struct {
	ZipfS           float64 `json:"zipf_s"`
	WindowMS        float64 `json:"window_ms"`
	BaseRate        float64 `json:"base_tuples_per_ms"`
	CountRate       float64 `json:"count_tuples_per_ms"`
	WeightedRate    float64 `json:"weighted_tuples_per_ms"`
	CountSpeedup    float64 `json:"count_speedup_vs_1"`
	WeightedSpeedup float64 `json:"weighted_speedup_vs_1"`
	WeightedVsCount float64 `json:"weighted_vs_count"`
}

func policyTrials(s float64, window time.Duration, workNS int64) (policyPoint, error) {
	cdf := zipfCDF(s, ranks)
	k0, k1 := zipfKeys(0), zipfKeys(1)
	w := analyticWeights(cdf, k0, k1)
	payloads := [2]operator.PayloadFn{
		zipfPositions(cdf, k0, nil, 0),
		zipfPositions(cdf, k1, nil, 0),
	}
	run := func(split func(*trial) error) (float64, error) {
		t, err := startTrial(payloads, workNS)
		if err != nil {
			return 0, err
		}
		defer t.Close()
		if split != nil {
			if err := split(t); err != nil {
				return 0, err
			}
			// Let the replicas drain the backlog the split paused on
			// before the measurement window opens.
			time.Sleep(100 * time.Millisecond)
		}
		return t.sinkRate(window), nil
	}
	pt := policyPoint{ZipfS: s, WindowMS: float64(window.Microseconds()) / 1000}
	var err error
	if pt.BaseRate, err = run(nil); err != nil {
		return pt, fmt.Errorf("whole: %w", err)
	}
	if pt.CountRate, err = run(func(t *trial) error {
		_, err := t.cl.SplitHAU(context.Background(), "P", replicas)
		return err
	}); err != nil {
		return pt, fmt.Errorf("count-balanced: %w", err)
	}
	if pt.WeightedRate, err = run(func(t *trial) error {
		_, err := t.cl.RescaleHAU(context.Background(), "P", replicas, w)
		return err
	}); err != nil {
		return pt, fmt.Errorf("weighted: %w", err)
	}
	pt.CountSpeedup = pt.CountRate / pt.BaseRate
	pt.WeightedSpeedup = pt.WeightedRate / pt.BaseRate
	pt.WeightedVsCount = pt.WeightedRate / pt.CountRate
	return pt, nil
}

// --- experiment 2: drifting hotspot ------------------------------------------

type driftPoint struct {
	ZipfS           float64 `json:"zipf_s"`
	Replicas        int     `json:"replicas"`
	PreRatio        float64 `json:"pre_rebalance_ratio"`
	PostRatio       float64 `json:"post_rebalance_ratio"`
	MaxPostRatio    float64 `json:"max_post_ratio"`
	MovedSlots      int     `json:"moved_slots"`
	ReplicasChanged bool    `json:"replicas_changed"`
	Pass            bool    `json:"pass"`
}

// driftTrial splits the Pair stage 4 ways balanced for hot band A, lets
// the workload drift onto band-B keys whose slots all live on ONE replica
// of that assignment, then rebalances with the drifted weights and checks
// the imbalance ratio recovers without a resplit.
func driftTrial(s float64, driftAt uint64, workNS int64) (driftPoint, error) {
	pt := driftPoint{ZipfS: s, MaxPostRatio: maxDrift}
	cdf := zipfCDF(s, ranks)
	a0, a1 := zipfKeys(0), zipfKeys(1)
	wA := analyticWeights(cdf, a0, a1)

	// Mirror the weighted split locally (same deterministic algorithm the
	// cluster runs) to find which replica each slot lands on, then aim the
	// drifted hot band at slots co-located on the replica owning band A's
	// heaviest slot — the adversarial drift a static assignment cannot
	// absorb.
	mirror := partition.NewAssignment(partition.DefaultSlots)
	mirror.RescaleWeighted(replicas, wA)
	hotSlot := 0
	for sl, v := range wA {
		if v > wA[hotSlot] {
			hotSlot = sl
		}
	}
	target := mirror.Owner(hotSlot)
	driftSlots := map[int]bool{}
	for sl := hotRanks; sl < partition.DefaultSlots && len(driftSlots) < 24; sl++ {
		if mirror.Owner(sl) == target {
			driftSlots[sl] = true
		}
	}
	driftKey := func(src int) []string {
		keys := make([]string, ranks)
		for r := range keys {
			p := fmt.Sprintf("d%d-", src)
			if r < hotRanks {
				keys[r] = slotSetKey(p, r, driftSlots)
			} else {
				keys[r] = p + fmt.Sprint(r)
			}
		}
		return keys
	}
	b0, b1 := driftKey(0), driftKey(1)
	wB := analyticWeights(cdf, b0, b1)

	payloads := [2]operator.PayloadFn{
		zipfPositions(cdf, a0, b0, driftAt),
		zipfPositions(cdf, a1, b1, driftAt),
	}
	t, err := startTrial(payloads, workNS)
	if err != nil {
		return pt, err
	}
	defer t.Close()
	ctx := context.Background()
	if _, err := t.cl.RescaleHAU(ctx, "P", replicas, wA); err != nil {
		return pt, fmt.Errorf("weighted split: %w", err)
	}
	before := t.cl.Replicas("P")
	pt.Replicas = len(before)

	// Wait for both sources to cross the drift point (ids are emitted per
	// source, the sink sees both streams).
	if err := waitFor(30*time.Second, func() bool {
		return t.col.Count() > 2*driftAt+2000
	}); err != nil {
		return pt, fmt.Errorf("workload never drifted: %w", err)
	}

	_, pt.PreRatio = t.cl.LoadShares("P", wB)
	stats, err := t.cl.RebalanceHAU(ctx, "P", wB)
	if err != nil {
		return pt, fmt.Errorf("rebalance: %w", err)
	}
	pt.MovedSlots = stats.Moved
	after := t.cl.Replicas("P")
	pt.ReplicasChanged = len(after) != len(before)
	_, pt.PostRatio = t.cl.LoadShares("P", wB)
	pt.Pass = !pt.ReplicasChanged && pt.PostRatio <= maxDrift
	return pt, nil
}
