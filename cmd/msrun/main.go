// Command msrun runs one of the paper's applications on the simulated
// cluster under a chosen fault-tolerance scheme, printing live statistics.
// With -kill-after it injects a whole-cluster burst failure and recovers,
// demonstrating the headline capability end to end.
//
//	msrun -app TMI -scheme ms-src+ap+aa -duration 5s -ckpt-period 1s
//	msrun -app SignalGuru -scheme baseline -duration 3s
//	msrun -app BCP -scheme ms-src+ap -kill-after 2s -duration 6s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/bench"
	"meteorshower/internal/cluster"
	"meteorshower/internal/elastic"
	"meteorshower/internal/metrics"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

func parseScheme(s string) (spe.Scheme, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return spe.Baseline, nil
	case "ms-src", "src":
		return spe.MSSrc, nil
	case "ms-src+ap", "ap":
		return spe.MSSrcAP, nil
	case "ms-src+ap+aa", "aa":
		return spe.MSSrcAPAA, nil
	case "ms-src+ap+unaligned", "unaligned":
		return spe.MSSrcAPU, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

// shareString renders per-replica load fractions as "[0.25 0.25 ...]".
func shareString(shares []float64) string {
	parts := make([]string, len(shares))
	for i, s := range shares {
		parts[i] = fmt.Sprintf("%.2f", s)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// summary holds one run's headline measurements, the quantities Figs.
// 12/13 plot.
type summary struct {
	Tuples      uint64
	TuplesPerMS float64
	MeanLatency time.Duration
	P99         time.Duration
	Checkpoints int
}

// summarize reads the sink collector and the controller into a summary of
// the deliveries since 'since' (UnixNano); window is used for the rate.
func summarize(cl *cluster.Cluster, col *metrics.Collector, since int64, window time.Duration) summary {
	completed := 0
	for _, st := range cl.Controller().EpochStats() {
		if st.Complete {
			completed++
		}
	}
	n := col.CountSince(since)
	return summary{
		Tuples:      n,
		TuplesPerMS: float64(n) / float64(window.Milliseconds()),
		MeanLatency: col.MeanLatency(),
		P99:         col.Quantile(0.99),
		Checkpoints: completed,
	}
}

func main() {
	var (
		app       = flag.String("app", "TMI", "TMI | BCP | SignalGuru")
		appsList  = flag.String("apps", "", `multi-tenant run: comma-separated app:weight list (e.g. "TMI:1,BCP:3") sharing one fleet; overrides -app`)
		arbEvery  = flag.Duration("arbiter-every", 0, "fair-share arbiter period for -apps runs (0 = off)")
		scheme    = flag.String("scheme", "ms-src+ap", "baseline | ms-src | ms-src+ap | ms-src+ap+aa | ms-src+ap+unaligned")
		duration  = flag.Duration("duration", 5*time.Second, "how long to run")
		period    = flag.Duration("ckpt-period", time.Second, "checkpoint period (0 = off)")
		nodes     = flag.Int("nodes", 8, "worker nodes")
		killAfter = flag.Duration("kill-after", 0, "inject a whole-cluster failure after this long (0 = never)")
		seed      = flag.Int64("seed", 1, "workload seed")
		useDelta  = flag.Bool("delta", false, "enable delta-checkpointing")
		shed      = flag.Float64("shed", 0, "load-shedding watermark (0 = off, e.g. 0.9)")

		place     = flag.String("placement", "", `placement policy: "roundrobin", "rackspread" or "loadaware" ("" = round-robin)`)
		npr       = flag.Int("nodes-per-rack", 0, "failure-domain geometry for placement (0 = one rack)")
		rebalance = flag.Duration("rebalance-every", 0, "live-migration rebalancer period (0 = off)")

		autoscale   = flag.Duration("autoscale-every", 0, "split/merge autoscaler period (0 = off)")
		splitAbove  = flag.Int64("split-above", 0, "state-size watermark (bytes) above which a hot operator is split (0 = off)")
		mergeBelow  = flag.Int64("merge-below", 0, "state-size watermark (bytes) below which a split operator is merged (0 = off)")
		maxReplicas = flag.Int("max-replicas", 0, "replica cap per split operator (0 = 4)")

		imbAbove      = flag.Float64("imbalance-above", 0, "max/mean replica-load watermark arming the skew trigger (<=1 = off; needs -autoscale-every)")
		imbWindow     = flag.Int("imbalance-window", 0, "skew trigger tick window (0 = 5)")
		imbViolations = flag.Int("imbalance-violations", 0, "violated ticks required before the skew trigger acts (0 = 3)")

		elasticEvery = flag.Duration("elastic-every", 0, "fleet-elasticity tick period (0 = off)")
		minNodes     = flag.Int("min-nodes", 0, "elastic fleet floor (0 = the starting node count)")
		maxNodes     = flag.Int("max-nodes", 0, "elastic fleet ceiling (0 = 2x the starting node count)")
		outUtil      = flag.Float64("scale-out-util", 0.8, "mean CPU utilization above which the fleet grows")
		inUtil       = flag.Float64("scale-in-util", 0.2, "per-node CPU utilization below which a node may drain")
		elWindow     = flag.Int("elastic-window", 5, "elasticity trigger window (M of the N-of-M rule)")
		elViolations = flag.Int("elastic-violations", 3, "violated samples required to act (N of the N-of-M rule)")
		nodeCores    = flag.Float64("node-cores", 0, "modelled CPU cores per node (0 = no CPU capacity model; elasticity defaults it to 1)")
	)
	flag.Parse()

	sch, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	parseKind := func(name string) (bench.AppKind, bool) {
		switch strings.ToLower(name) {
		case "tmi":
			return bench.TMIApp, true
		case "bcp":
			return bench.BCPApp, true
		case "signalguru", "sg":
			return bench.SGApp, true
		}
		return 0, false
	}
	kind, ok := parseKind(*app)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}

	p := bench.Params{Nodes: *nodes, Seed: *seed}
	col := metrics.NewCollector()
	ref := &apps.SinkRef{}
	spec := bench.BuildApp(kind, p, col, ref)

	// Multi-tenant run: several applications on one shared fleet, each with
	// a fairness weight the arbiter and weighted load scores honour.
	var specs []cluster.AppSpec
	var refs []*apps.SinkRef
	if *appsList != "" {
		seen := map[string]int{}
		for _, ent := range strings.Split(*appsList, ",") {
			name, weightStr, _ := strings.Cut(strings.TrimSpace(ent), ":")
			k, ok := parseKind(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown app %q in -apps\n", name)
				os.Exit(2)
			}
			w := 1.0
			if weightStr != "" {
				if _, err := fmt.Sscanf(weightStr, "%g", &w); err != nil || w <= 0 {
					fmt.Fprintf(os.Stderr, "bad weight %q for app %q\n", weightStr, name)
					os.Exit(2)
				}
			}
			r := &apps.SinkRef{}
			sp := bench.BuildApp(k, p, col, r)
			seen[sp.Name]++
			if n := seen[sp.Name]; n > 1 {
				sp.Name = fmt.Sprintf("%s-%d", sp.Name, n)
			}
			sp.Weight = w
			specs = append(specs, sp)
			refs = append(refs, r)
		}
		if len(specs) < 2 {
			fmt.Fprintln(os.Stderr, "-apps needs at least two entries")
			os.Exit(2)
		}
	}

	var pol placement.Policy
	if *place != "" {
		pol, err = placement.Parse(*place)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Elasticity needs the CPU capacity model to read utilization, and
	// sensible fleet bounds around the starting size.
	if *elasticEvery > 0 {
		if *nodeCores == 0 {
			*nodeCores = 1
		}
		if *minNodes == 0 {
			*minNodes = *nodes
		}
		if *maxNodes == 0 {
			*maxNodes = 2 * *nodes
		}
	}

	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0 // model disk costs without sleeping
	cl, err := cluster.New(cluster.Config{
		App:                 spec,
		Apps:                specs,
		ArbiterEvery:        *arbEvery,
		Scheme:              sch,
		Nodes:               *nodes,
		Placement:           pol,
		NodesPerRack:        *npr,
		RebalanceEvery:      *rebalance,
		AutoscaleEvery:      *autoscale,
		SplitAbove:          *splitAbove,
		MergeBelow:          *mergeBelow,
		MaxReplicas:         *maxReplicas,
		ImbalanceAbove:      *imbAbove,
		ImbalanceWindow:     *imbWindow,
		ImbalanceViolations: *imbViolations,
		ElasticEvery:        *elasticEvery,
		Elastic: elastic.Config{
			Window: *elWindow, Violations: *elViolations,
			ScaleOutUtil: *outUtil, ScaleInUtil: *inUtil,
			MinNodes: *minNodes, MaxNodes: *maxNodes,
		},
		NodeCores:       *nodeCores,
		LocalDiskSpec:   local,
		SharedSpec:      shared,
		CkptPeriod:      *period,
		TickEvery:       time.Millisecond,
		SourceFlush:     64 << 10,
		Seed:            *seed,
		DeltaCheckpoint: *useDelta,
		ShedWatermark:   *shed,
		Metrics:         col,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cl.StopAll()
	// The autoscaler and the elasticity engine (like scheme-driven
	// checkpointing) run inside the controller loop, so enabling either
	// needs the controller running.
	if *period > 0 || *autoscale > 0 || *elasticEvery > 0 || *arbEvery > 0 {
		cl.StartController(ctx)
	}

	if len(specs) > 0 {
		labels := make([]string, len(specs))
		for i, sp := range specs {
			labels[i] = fmt.Sprintf("%s (weight %g)", sp.Name, sp.Weight)
		}
		fmt.Printf("running %s under %s on %d shared nodes\n",
			strings.Join(labels, " + "), sch, *nodes)
	} else {
		fmt.Printf("running %s (%d operators) under %s on %d nodes\n",
			spec.Name, spec.Graph.NumNodes(), sch, *nodes)
	}
	start := time.Now()
	killed := false
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for time.Since(start) < *duration {
		<-ticker.C
		if *killAfter > 0 && !killed && time.Since(start) >= *killAfter {
			fmt.Println(">> injecting whole-cluster burst failure")
			cl.KillAll()
			stats, err := cl.RecoverAll(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "recovery failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf(">> recovered %d HAUs from epoch %d in %s (disk %s, reconnect %s)\n",
				stats.HAUs, stats.Epoch, stats.Total().Truncate(time.Millisecond),
				stats.DiskIO.Truncate(time.Millisecond), stats.Reconnect.Truncate(time.Millisecond))
			killed = true
		}
		processed := cl.ProcessedTotal()
		fmt.Printf("t=%-6s processed=%-10d sink=%-8d meanLat=%-12s epochs=%d\n",
			time.Since(start).Truncate(100*time.Millisecond), processed,
			col.Count(), col.MeanLatency().Truncate(time.Microsecond), cl.Controller().Epoch())
	}
	sum := summarize(cl, col, start.UnixNano(), *duration)
	fmt.Printf("\nsummary: app=%s scheme=%s tuples=%d (%.1f/ms) meanLat=%s p99=%s checkpoints=%d\n",
		spec.Name, sch, sum.Tuples, sum.TuplesPerMS,
		sum.MeanLatency.Truncate(time.Microsecond), sum.P99.Truncate(time.Microsecond), sum.Checkpoints)
	if cks := col.Checkpoints(); len(cks) > 0 {
		var stallMax, stallSum time.Duration
		var chBytes int64
		for _, ck := range cks {
			stallSum += ck.AlignStallSum
			if ck.AlignStallMax > stallMax {
				stallMax = ck.AlignStallMax
			}
			chBytes += ck.ChannelBytes
		}
		fmt.Printf("alignment: stallMax=%s stallSum=%s channelBytes=%d across %d checkpoints\n",
			stallMax.Truncate(time.Microsecond), stallSum.Truncate(time.Microsecond), chBytes, len(cks))
	}
	// appTag labels a per-row printout with the owning application — rows
	// from different tenants are otherwise indistinguishable once several
	// apps share the fleet.
	appTag := func(app string) string {
		if app == "" {
			app = spec.Name
		}
		return "app=" + app + " "
	}
	if *elasticEvery > 0 {
		for _, ev := range cl.Elastic().Events() {
			fmt.Printf("elastic %s node %d (fleet -> %d, apps %s)\n",
				ev.Kind, ev.Node, ev.Fleet, strings.Join(cl.AppNames(), "+"))
		}
		fmt.Printf("fleet: %d nodes at shutdown (apps %s)\n",
			cl.FleetSize(), strings.Join(cl.AppNames(), "+"))
	}
	if shares := cl.ArbiterShares(); len(shares) > 0 {
		for _, name := range cl.AppNames() {
			fmt.Printf("fair-share app=%s nodes=%.2f processed=%d\n",
				name, shares[name], cl.ProcessedOf(name))
		}
	}
	for _, rs := range col.Rescales() {
		fmt.Printf("rescale %s%s %d->%d bytes=%d drain=%s reshard=%s restore=%s downtime=%s\n",
			appTag(rs.App), rs.HAU, rs.From, rs.To, rs.Bytes, rs.Drain.Truncate(time.Microsecond),
			rs.Reshard.Truncate(time.Microsecond), rs.Restore.Truncate(time.Microsecond),
			rs.Downtime.Truncate(time.Microsecond))
	}
	for _, sk := range col.Skews() {
		fmt.Printf("skew %s%s replicas=%d shares=%s ratio=%.2f action=%s moved=%d\n",
			appTag(sk.App), sk.HAU, sk.Replicas, shareString(sk.Shares), sk.Ratio, sk.Action, sk.Moved)
	}
	// Terminal per-replica load balance of every operator still split at
	// shutdown, from the routers' observed tuple counts.
	for _, id := range cl.GraphNodes() {
		if len(cl.Replicas(id)) < 2 {
			continue
		}
		shares, ratio := cl.LoadShares(id, nil)
		fmt.Printf("load %s%s shares=%s imbalance=%.2f\n",
			appTag(cl.AppOfHAU(id)), id, shareString(shares), ratio)
	}
	bad := false
	if len(refs) > 0 {
		for i, r := range refs {
			if s := r.Get(); s != nil && s.Duplicates() > 0 {
				fmt.Printf("WARNING: app=%s sink observed %d duplicate deliveries\n",
					specs[i].Name, s.Duplicates())
				bad = true
			}
		}
	} else if s := ref.Get(); s != nil && s.Duplicates() > 0 {
		fmt.Printf("WARNING: sink observed %d duplicate deliveries\n", s.Duplicates())
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}
