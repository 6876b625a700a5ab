package cluster

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
)

// keyedApp builds S0,S1 -> C -> K with a keyed counter in the middle — the
// smallest topology whose interior operator can be split by slot.
func keyedApp(col *metrics.Collector, reg *sinkRegistry) AppSpec {
	g := graph.New()
	for _, id := range []string{"S0", "S1", "C", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S0", "C")
	g.MustAddEdge("S1", "C")
	g.MustAddEdge("C", "K")
	return AppSpec{
		Name:  "keyed-test",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id[0] {
			case 'S':
				return []operator.Operator{operator.NewRateSource(id, 3, 7, operator.BytePayload(16, 64))}
			case 'C':
				return []operator.Operator{operator.NewCounter(id)}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
		},
	}
}

func newKeyedCluster(t *testing.T, nodes int) (*Cluster, *metrics.Collector, *sinkRegistry) {
	t.Helper()
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:           keyedApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         nodes,
		NodesPerRack:  2,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		RetainEpochs:  3,
		Seed:          1,
		Metrics:       col,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, col, reg
}

func TestRescaleValidation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Baseline scheme has no token barrier to drain with.
	blCl, _, _ := newTestCluster(t, spe.Baseline, 3)
	if _, err := blCl.SplitHAU(ctx, "M", 2); err == nil {
		t.Fatal("baseline rescale accepted")
	}

	cl, _, _ := newKeyedCluster(t, 4)
	if _, err := cl.SplitHAU(ctx, "C", 2); err == nil {
		t.Fatal("rescale before Start accepted")
	}
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	if _, err := cl.SplitHAU(ctx, "C", 1); err == nil {
		t.Fatal("split to one replica accepted")
	}
	if _, err := cl.SplitHAU(ctx, "S0", 2); err == nil {
		t.Fatal("source rescale accepted")
	}
	if _, err := cl.SplitHAU(ctx, "K", 2); err == nil {
		t.Fatal("sink rescale accepted")
	}
	if _, err := cl.RescaleHAU(ctx, "C~1", 2, nil); err == nil {
		t.Fatal("replica id accepted as rescale target")
	}
	if _, err := cl.RescaleHAU(ctx, "C", 1, nil); err == nil {
		t.Fatal("no-op rescale to current replica count accepted")
	}
	if _, err := cl.MergeHAU(ctx, "C"); err == nil {
		t.Fatal("merge of unsplit operator accepted")
	}

	// An app whose interior operator does not implement PartitionedState.
	plain, _, _ := newTestCluster(t, spe.MSSrcAP, 3)
	if err := plain.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer plain.StopAll()
	if _, err := plain.SplitHAU(ctx, "M", 2); err == nil {
		t.Fatal("non-partitionable operator accepted")
	}
}

// waitNoViolations polls until a sampled sink report shows zero gaps and
// duplicates — transient gaps from cross-replica interleaving close once
// the slower path's tuples land.
func waitNoViolations(t *testing.T, reg *sinkRegistry, what string) {
	t.Helper()
	var last operator.SinkReport
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		last = reg.get().Report()
		if last.TotalViolations() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("exactly-once violated (%s):\n%s", what, last)
}

// TestSplitThenMergeExactlyOnce splits the counter across two replicas while
// the application streams, checks flow continues with both replicas live,
// merges back, and verifies the sink saw every id exactly once throughout.
func TestSplitThenMergeExactlyOnce(t *testing.T) {
	cl, col, reg := newKeyedCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})

	stats, err := cl.SplitHAU(ctx, "C", 2)
	if err != nil {
		t.Fatalf("SplitHAU: %v", err)
	}
	if stats.From != 1 || stats.To != 2 || len(stats.Replicas) != 2 {
		t.Fatalf("split stats = %+v", stats)
	}
	if stats.Bytes <= 0 || stats.Drain <= 0 || stats.Downtime <= 0 {
		t.Fatalf("implausible split timings: %+v", stats)
	}
	reps := cl.Replicas("C")
	if len(reps) != 2 || !partition.IsReplica(reps[0]) || partition.BaseID(reps[0]) != "C" {
		t.Fatalf("replicas = %v", reps)
	}
	for _, r := range reps {
		if cl.HAU(r) == nil {
			t.Fatalf("replica %s has no HAU", r)
		}
	}
	if cl.HAU("C") != nil {
		t.Fatal("old incarnation still installed after split")
	}
	// Both replicas must actually process: the two sources key tuples over
	// 64 distinct keys, so both slot shares receive traffic.
	waitFor(t, 5*time.Second, "both replicas processing", func() bool {
		for _, r := range cl.Replicas("C") {
			h := cl.HAU(r)
			if h == nil || h.ProcessedCount() == 0 {
				return false
			}
		}
		return true
	})
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-split deliveries", func() bool {
		return reg.get().Delivered() > after+200
	})
	waitNoViolations(t, reg, "after split")

	mstats, err := cl.MergeHAU(ctx, "C")
	if err != nil {
		t.Fatalf("MergeHAU: %v", err)
	}
	if mstats.From != 2 || mstats.To != 1 {
		t.Fatalf("merge stats = %+v", mstats)
	}
	if got := cl.Replicas("C"); len(got) != 1 || got[0] != "C" {
		t.Fatalf("replicas after merge = %v", got)
	}
	after = reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-merge deliveries", func() bool {
		return reg.get().Delivered() > after+200
	})
	waitNoViolations(t, reg, "after merge")

	res := col.Rescales()
	if len(res) != 2 {
		t.Fatalf("metrics recorded %d rescales, want 2", len(res))
	}
	if res[0].HAU != "C" || res[0].From != 1 || res[0].To != 2 ||
		res[1].From != 2 || res[1].To != 1 {
		t.Fatalf("rescale records = %+v", res)
	}
	for _, r := range res {
		if r.Bytes <= 0 || r.Drain <= 0 || r.Downtime <= 0 {
			t.Fatalf("rescale record missing phases: %+v", r)
		}
	}
	cl.StopAll()
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicates across split+merge", d)
	}
}

// TestSplitStatePreserved checks the slot carve really moved state: the
// replicas' merged counts must equal what the single incarnation had
// counted, with no key counted twice.
func TestSplitStatePreserved(t *testing.T) {
	cl, _, reg := newKeyedCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "warmup", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 200
	})
	if _, err := cl.SplitHAU(ctx, "C", 2); err != nil {
		t.Fatal(err)
	}
	// Post-split, the replicas' counter totals plus the sink's deliveries
	// stay consistent: every delivered tuple was counted by exactly one
	// replica. Quiesce the stream first so in-flight tuples settle.
	cl.StopAll()
	var repTotal uint64
	for _, r := range cl.Replicas("C") {
		h := cl.HAU(r)
		if h == nil {
			t.Fatalf("replica %s missing", r)
		}
		ops := h.Operators()
		cnt, ok := ops[0].(*operator.Counter)
		if !ok {
			t.Fatalf("replica %s operator is %T", r, ops[0])
		}
		total := cnt.Total()
		if total == 0 {
			t.Fatalf("replica %s counted nothing — carve moved no state", r)
		}
		repTotal += total
	}
	if delivered := reg.get().Delivered(); repTotal < delivered {
		t.Fatalf("replica totals %d < sink deliveries %d: state lost in carve", repTotal, delivered)
	}
}

// TestSplitSurvivesRecovery splits, lets the commit epoch land, kills the
// whole cluster, and verifies recovery rebuilds the two-replica geometry
// from the journal with exactly-once delivery intact.
func TestSplitSurvivesRecovery(t *testing.T) {
	cl, _, reg := newKeyedCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "warmup", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	if _, err := cl.SplitHAU(ctx, "C", 2); err != nil {
		t.Fatal(err)
	}
	repsBefore := cl.Replicas("C")
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-split flow", func() bool {
		return reg.get().Delivered() > after+100
	})

	cl.KillAll()
	stats, err := cl.RecoverAllWithRetry(ctx, 10, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HAUs != 5 {
		t.Fatalf("recovered %d HAUs, want 5 (2 sources, 2 replicas, sink)", stats.HAUs)
	}
	if got := cl.Replicas("C"); len(got) != 2 || got[0] != repsBefore[0] || got[1] != repsBefore[1] {
		t.Fatalf("replicas after recovery = %v, want %v", got, repsBefore)
	}
	after = reg.get().Delivered()
	waitFor(t, 10*time.Second, "post-recovery flow", func() bool {
		return reg.get().Delivered() > after+100
	})
	waitNoViolations(t, reg, "after split+recovery")
	cl.StopAll()
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicates across split+recovery", d)
	}
}

// TestAutoscaleSplitsHotOperator drives the controller's autoscaler: the
// counter's state grows without bound, crosses the watermark, and the
// detector splits it without an explicit SplitHAU call.
func TestAutoscaleSplitsHotOperator(t *testing.T) {
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:            keyedApp(col, reg),
		Scheme:         spe.MSSrcAP,
		Nodes:          4,
		LocalDiskSpec:  local,
		SharedSpec:     shared,
		TickEvery:      time.Millisecond,
		CkptPeriod:     50 * time.Millisecond,
		SourceFlush:    256,
		Seed:           1,
		Metrics:        col,
		AutoscaleEvery: 20 * time.Millisecond,
		SplitAbove:     1, // any keyed state at all counts as hot
		MaxReplicas:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cl.StartController(ctx)
	waitFor(t, 10*time.Second, "autoscale split", func() bool {
		return len(cl.Replicas("C")) == 2
	})
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-autoscale flow", func() bool {
		return reg.get().Delivered() > after+100
	})
	waitNoViolations(t, reg, "after autoscale split")
	cl.StopAll()
}

// TestGraphDownstreamReadOnly pins the read-only contract of the graph
// accessors the router swap relies on: mutating a returned slice must not
// corrupt the graph's adjacency.
func TestGraphDownstreamReadOnly(t *testing.T) {
	g := graph.New()
	for _, id := range []string{"a", "b", "c"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("a", "c")
	down := g.Downstream("a")
	down[0] = "corrupted"
	if got := g.Downstream("a"); got[0] != "b" || got[1] != "c" {
		t.Fatalf("Downstream leaked internal storage: %v", got)
	}
	up := g.Upstream("b")
	up[0] = "corrupted"
	if got := g.Upstream("b"); got[0] != "a" {
		t.Fatalf("Upstream leaked internal storage: %v", got)
	}
}

// TestSplitHAUWeighted splits with an explicitly skewed weight vector and
// checks the resulting assignment is measurably better balanced under
// those weights than the count-balanced split, with flow still
// exactly-once.
func TestSplitHAUWeighted(t *testing.T) {
	cl, _, reg := newKeyedCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	w := make(partition.Weights, partition.DefaultSlots)
	for s := range w {
		w[s] = 1
	}
	for s := 0; s < 32; s++ {
		w[s] = 100 // hot range: the first 32 slots carry ~94% of the load
	}
	stats, err := cl.RescaleHAU(ctx, "C", 2, w)
	if err != nil {
		t.Fatalf("RescaleHAU: %v", err)
	}
	if stats.From != 1 || stats.To != 2 || stats.Moved == 0 {
		t.Fatalf("weighted split stats = %+v", stats)
	}
	cl.mu.Lock()
	assign := cl.parts["C"].Assign.Clone()
	cl.mu.Unlock()
	got := partition.ImbalanceRatio(assign.LoadOf(w))
	count := partition.NewAssignment(partition.DefaultSlots)
	count.Rescale(2)
	ref := partition.ImbalanceRatio(count.LoadOf(w))
	if got > 1.25 || got > ref {
		t.Fatalf("weighted split imbalance %.3f (count-balanced would be %.3f)", got, ref)
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-split deliveries", func() bool {
		return reg.get().Delivered() > after+200
	})
	waitNoViolations(t, reg, "after weighted split")
	cl.StopAll()
}

// TestRebalanceHAU drives the slots-only redistribution: after a
// count-balanced split, a rebalance under a skewed weight vector must
// re-incarnate the SAME replica count with the hot slots spread out,
// keep the stream exactly-once, record a skew metric, and no-op when
// called again with the weights it just balanced for.
func TestRebalanceHAU(t *testing.T) {
	cl, col, reg := newKeyedCluster(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	if _, err := cl.RebalanceHAU(ctx, "C", nil); err == nil {
		t.Fatal("rebalance of unsplit operator accepted")
	}
	if _, err := cl.SplitHAU(ctx, "C", 2); err != nil {
		t.Fatalf("SplitHAU: %v", err)
	}
	oldReps := cl.Replicas("C")

	// Weights that concentrate the load on replica 0's slot share.
	cl.mu.Lock()
	assign := cl.parts["C"].Assign.Clone()
	cl.mu.Unlock()
	w := make(partition.Weights, assign.Slots())
	for s := range w {
		if assign.Owner(s) == 0 {
			w[s] = 100
		} else {
			w[s] = 1
		}
	}
	stats, err := cl.RebalanceHAU(ctx, "C", w)
	if err != nil {
		t.Fatalf("RebalanceHAU: %v", err)
	}
	if stats.From != 2 || stats.To != 2 || stats.Moved == 0 {
		t.Fatalf("rebalance stats = %+v", stats)
	}
	newReps := cl.Replicas("C")
	if len(newReps) != 2 {
		t.Fatalf("replica count changed by rebalance: %v", newReps)
	}
	for _, o := range oldReps {
		for _, n := range newReps {
			if o == n {
				t.Fatalf("incarnation id %s reused across rebalance", o)
			}
		}
	}
	cl.mu.Lock()
	after := cl.parts["C"].Assign.Clone()
	cl.mu.Unlock()
	if r := partition.ImbalanceRatio(after.LoadOf(w)); r > 1.25 {
		t.Fatalf("post-rebalance imbalance %.3f > 1.25", r)
	}
	delivered := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-rebalance deliveries", func() bool {
		return reg.get().Delivered() > delivered+200
	})
	waitNoViolations(t, reg, "after rebalance")

	var sawRebalance bool
	for _, s := range col.Skews() {
		if s.HAU == "C" && s.Action == "rebalance" && s.Moved == stats.Moved && s.Replicas == 2 {
			sawRebalance = true
		}
	}
	if !sawRebalance {
		t.Fatalf("no rebalance skew metric recorded: %+v", col.Skews())
	}

	// Balanced-for-these-weights table: the same call is now a no-op that
	// leaves the running incarnations alone.
	again, err := cl.RebalanceHAU(ctx, "C", w)
	if err != nil {
		t.Fatalf("no-op RebalanceHAU: %v", err)
	}
	if again.Moved != 0 {
		t.Fatalf("no-op rebalance moved %d slots", again.Moved)
	}
	if got := cl.Replicas("C"); got[0] != newReps[0] || got[1] != newReps[1] {
		t.Fatalf("no-op rebalance re-incarnated replicas: %v -> %v", newReps, got)
	}

	// Observed-weight path: nil weights read the router's live counters.
	if _, err := cl.RebalanceHAU(ctx, "C", nil); err != nil {
		t.Fatalf("observed-weight RebalanceHAU: %v", err)
	}
	if got := cl.Replicas("C"); len(got) != 2 {
		t.Fatalf("observed-weight rebalance changed replica count: %v", got)
	}
	waitNoViolations(t, reg, "after observed-weight rebalance")
	cl.StopAll()
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicates across rebalances", d)
	}
}

// skewedKeyedApp is keyedApp with sources that only emit keys hashing into
// the FIRST half of the slot ring — after a count-balanced 2-way split,
// replica 0 owns every slot the traffic hits.
func skewedKeyedApp(col *metrics.Collector, reg *sinkRegistry) AppSpec {
	var hotKeys []string
	for i := 0; len(hotKeys) < 16; i++ {
		k := "h" + strconv.Itoa(i)
		if partition.SlotOf(k, partition.DefaultSlots) < partition.DefaultSlots/2 {
			hotKeys = append(hotKeys, k)
		}
	}
	payload := func(id uint64, _ *rand.Rand) (string, []byte) {
		return hotKeys[int(id)%len(hotKeys)], make([]byte, 16)
	}
	g := graph.New()
	for _, id := range []string{"S0", "S1", "C", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S0", "C")
	g.MustAddEdge("S1", "C")
	g.MustAddEdge("C", "K")
	return AppSpec{
		Name:  "skewed-keyed-test",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id[0] {
			case 'S':
				return []operator.Operator{operator.NewRateSource(id, 3, 7, payload)}
			case 'C':
				return []operator.Operator{operator.NewCounter(id)}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
		},
	}
}

// TestAutoscaleImbalanceTrigger drives the controller's skew trigger end to
// end: a split counter receives deliberately skewed traffic (every key
// hashes into one replica's slot share), the N-of-M watermark fires, and
// the autoscaler rebalances without an explicit call.
func TestAutoscaleImbalanceTrigger(t *testing.T) {
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:                 skewedKeyedApp(col, reg),
		Scheme:              spe.MSSrcAP,
		Nodes:               4,
		LocalDiskSpec:       local,
		SharedSpec:          shared,
		TickEvery:           time.Millisecond,
		CkptPeriod:          50 * time.Millisecond,
		SourceFlush:         256,
		Seed:                1,
		Metrics:             col,
		AutoscaleEvery:      20 * time.Millisecond,
		MaxReplicas:         2,
		ImbalanceAbove:      1.3,
		ImbalanceWindow:     3,
		ImbalanceViolations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 100
	})
	// A count-balanced split hands replica 0 the first half of the ring —
	// exactly where all of this app's keys hash — so replica 1 sees no
	// traffic and the imbalance ratio sits at 2.0, above the watermark.
	if _, err := cl.SplitHAU(ctx, "C", 2); err != nil {
		t.Fatalf("SplitHAU: %v", err)
	}
	cl.StartController(ctx)
	// The skew trigger should observe the one-sided traffic and rebalance:
	// a fresh incarnation set at the same replica count. The skew record is
	// written after the commit epoch, so wait on it rather than on the
	// replica ids.
	before := cl.Replicas("C")
	waitFor(t, 10*time.Second, "autoscaler rebalance", func() bool {
		for _, s := range col.Skews() {
			if s.HAU == "C" && s.Action == "rebalance" {
				return true
			}
		}
		return false
	})
	got := cl.Replicas("C")
	if len(got) != 2 || (got[0] == before[0] && got[1] == before[1]) {
		t.Fatalf("rebalance did not re-incarnate at the same count: %v -> %v", before, got)
	}
	var observed bool
	for _, s := range col.Skews() {
		if s.HAU == "C" && s.Action == "observe" && s.Ratio > 1.3 {
			observed = true
		}
	}
	if !observed {
		t.Fatalf("no observe skew record above the watermark: %+v", col.Skews())
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-trigger flow", func() bool {
		return reg.get().Delivered() > after+100
	})
	waitNoViolations(t, reg, "after autoscaler rebalance")
	cl.StopAll()
}
