package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// sinkRegistry tracks the most recent sink instance (recovery replaces it).
type sinkRegistry struct {
	mu   sync.Mutex
	sink *operator.Sink
}

func (r *sinkRegistry) set(s *operator.Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

func (r *sinkRegistry) get() *operator.Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// testApp builds S0,S1 -> M -> K.
func testApp(col *metrics.Collector, reg *sinkRegistry) AppSpec {
	g := graph.New()
	for _, id := range []string{"S0", "S1", "M", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S0", "M")
	g.MustAddEdge("S1", "M")
	g.MustAddEdge("M", "K")
	return AppSpec{
		Name:  "test",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id {
			case "S0", "S1":
				return []operator.Operator{operator.NewRateSource(id, 3, 7, operator.BytePayload(16, 4))}
			case "M":
				return []operator.Operator{operator.NewPassthrough("M", 1)}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
		},
	}
}

func fastSpecs() (local, shared storage.DiskSpec) {
	local = storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond, TimeScale: 0}
	shared = local
	return
}

func newTestCluster(t *testing.T, scheme spe.Scheme, nodes int) (*Cluster, *metrics.Collector, *sinkRegistry) {
	t.Helper()
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:            testApp(col, reg),
		Scheme:         scheme,
		Nodes:          nodes,
		LocalDiskSpec:  local,
		SharedSpec:     shared,
		TickEvery:      time.Millisecond,
		CkptPeriod:     40 * time.Millisecond,
		PreserveMemCap: 1 << 20,
		SourceFlush:    256,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, col, reg
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestNewValidatesSpec(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	g := graph.New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddNode("c")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	g.MustAddEdge("c", "a")
	_, err := New(Config{App: AppSpec{Graph: g, NewOperators: func(string) []operator.Operator { return nil }}})
	if err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

// TestNewRejectsIncompleteAppSpec checks that New refuses an app without
// a graph or without an operator factory, the empty config included.
func TestNewRejectsIncompleteAppSpec(t *testing.T) {
	g := graph.New()
	g.MustAddNode("a")
	newOps := func(string) []operator.Operator { return nil }
	for name, cfg := range map[string]Config{
		"empty":        {},
		"no operators": {App: AppSpec{Graph: g}},
		"no graph":     {App: AppSpec{NewOperators: newOps}},
		"unnamed app":  {Apps: []AppSpec{{Graph: g, NewOperators: newOps}}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

func TestClusterRunsApp(t *testing.T) {
	cl, col, _ := newTestCluster(t, spe.MSSrcAP, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "tuples at sink", func() bool { return col.Count() >= 100 })
	if err := cl.Start(ctx); err == nil {
		t.Fatal("double start accepted")
	}
	cl.StopAll()
}

func TestPlacementRoundRobin(t *testing.T) {
	cl, _, _ := newTestCluster(t, spe.MSSrc, 2)
	seen := map[int]int{}
	for _, id := range []string{"S0", "S1", "M", "K"} {
		seen[cl.NodeOf(id)]++
	}
	if seen[0] != 2 || seen[1] != 2 {
		t.Fatalf("placement skewed: %v", seen)
	}
}

func TestCheckpointEpochCompletes(t *testing.T) {
	cl, col, _ := newTestCluster(t, spe.MSSrcAP, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 30 })
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch completion", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	st, ok := cl.Controller().Stat(ep)
	if !ok || len(st.Breakdown) != 4 {
		t.Fatalf("epoch stat incomplete: %+v", st)
	}
	cl.StopAll()
}

func TestSourceLogsPrunedAfterEpoch(t *testing.T) {
	cl, col, _ := newTestCluster(t, spe.MSSrc, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 50 })
	before := cl.ReplayableTuples()
	if before == 0 {
		t.Fatal("sources preserved nothing")
	}
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch completion", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	// After completion, epoch-0 segments must be gone; only post-epoch
	// tuples remain.
	waitFor(t, 10*time.Second, "log prune", func() bool {
		logs := 0
		for _, id := range []string{"S0", "S1"} {
			if l := cl.SourceLog(id); l != nil && l.Epoch() == ep {
				logs++
			}
		}
		return logs == 2
	})
	cl.StopAll()
}

func TestKillAllAndRecoverExactlyOnce(t *testing.T) {
	cl, col, reg := newTestCluster(t, spe.MSSrcAP, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 50 })
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch completion", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	// Let the app run past the checkpoint, then fail everything.
	waitFor(t, 10*time.Second, "post-ckpt progress", func() bool { return col.Count() >= 150 })
	cl.KillAll()

	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != ep || stats.HAUs != 4 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	newSink := reg.get()
	// The restored sink must remember its pre-cut deliveries and replay
	// must fill the gap without duplicates.
	preCut := newSink.Delivered()
	waitFor(t, 10*time.Second, "post-recovery flow", func() bool {
		return reg.get().Delivered() > preCut+100
	})
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicate tuples after recovery", d)
	}
	// Eventually every generated id up to some prefix is delivered
	// exactly once: spot-check the earliest post-cut ids.
	waitFor(t, 10*time.Second, "gap filled", func() bool {
		s := reg.get()
		return s.Seen("S0", 1) && s.Seen("S1", 1)
	})
	cl.StopAll()
}

// TestRecoverAllParallelRestore runs whole-application recovery with the
// bounded restore pool and verifies exactly-once still holds, and that the
// metrics collector received per-checkpoint breakdowns with the freeze
// window recorded separately from the writer-side phases.
func TestRecoverAllParallelRestore(t *testing.T) {
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:            testApp(col, reg),
		Scheme:         spe.MSSrcAP,
		Nodes:          3,
		LocalDiskSpec:  local,
		SharedSpec:     shared,
		TickEvery:      time.Millisecond,
		CkptPeriod:     40 * time.Millisecond,
		PreserveMemCap: 1 << 20,
		SourceFlush:    256,
		Seed:           1,
		RestoreWorkers: 8,
		Metrics:        col,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 50 })
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch completion", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	cks := col.Checkpoints()
	if len(cks) == 0 {
		t.Fatal("no checkpoint breakdowns recorded")
	}
	for _, ck := range cks {
		if !ck.Async {
			t.Fatalf("MSSrcAP checkpoint recorded as synchronous: %+v", ck)
		}
		if ck.DirtyBytes <= 0 || ck.StateBytes <= 0 {
			t.Fatalf("checkpoint missing byte counts: %+v", ck)
		}
	}
	cl.KillAll()

	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != ep || stats.HAUs != 4 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	preCut := reg.get().Delivered()
	waitFor(t, 10*time.Second, "post-recovery flow", func() bool {
		return reg.get().Delivered() > preCut+100
	})
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicates after parallel restore", d)
	}
	cl.StopAll()
}

func TestRecoverAllWithoutCheckpointFails(t *testing.T) {
	cl, _, _ := newTestCluster(t, spe.MSSrcAP, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	cl.KillAll()
	if _, err := cl.RecoverAll(ctx); err == nil {
		t.Fatal("recovery without a checkpoint must fail")
	}
	cl.StopAll()
}

func TestBaselineSingleHAURecovery(t *testing.T) {
	cl, col, reg := newTestCluster(t, spe.Baseline, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 80 })
	// Wait for M to have a checkpoint of its own.
	waitFor(t, 10*time.Second, "M checkpoint", func() bool {
		_, ok := cl.Catalog().LatestEpochFor("M")
		return ok
	})
	// Fail the node hosting M only.
	cl.KillNode(cl.NodeOf("M"))
	waitFor(t, 10*time.Second, "M stopped", func() bool {
		select {
		case <-cl.HAU("M").Done():
			return true
		default:
			return false
		}
	})
	before := reg.get().Delivered()
	stats, err := cl.RecoverHAU(ctx, "M")
	if err != nil {
		t.Fatal(err)
	}
	if stats.HAUs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	waitFor(t, 10*time.Second, "flow resumes", func() bool {
		return reg.get().Delivered() > before+50
	})
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("sink saw %d duplicates after baseline recovery", d)
	}
	cl.StopAll()
}

// newPingCluster starts a two-node MS-src+ap cluster whose controller
// pings every millisecond; the caller wires a failure handler and starts
// the controller.
func newPingCluster(t *testing.T, ctx context.Context, col *metrics.Collector) *Cluster {
	t.Helper()
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:           testApp(col, &sinkRegistry{}),
		Scheme:        spe.MSSrcAP,
		Nodes:         2,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	return cl
}

func TestFailureDetectionViaPing(t *testing.T) {
	col := metrics.NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := newPingCluster(t, ctx, col)
	var mu sync.Mutex
	var detected []string
	// Wire detection after start (controller cfg callbacks are fixed at
	// New; use the cluster-level helper instead).
	cl.SetFailureHandler(func(dead []string) {
		mu.Lock()
		detected = append(detected, dead...)
		mu.Unlock()
	})
	cl.StartController(ctx)
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 20 })
	cl.KillNode(0)
	waitFor(t, 10*time.Second, "failure detected", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(detected) > 0
	})
}

// TestFailureHandlerRecoversFlow checks that the flow resumes when the
// failure handler answers a ping-detected node failure with RecoverAll.
func TestFailureHandlerRecoversFlow(t *testing.T) {
	col := metrics.NewCollector()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := newPingCluster(t, ctx, col)
	recovered := make(chan error, 1)
	cl.SetFailureHandler(func([]string) {
		go func() {
			_, err := cl.RecoverAll(ctx)
			select {
			case recovered <- err:
			default:
			}
		}()
	})
	cl.StartController(ctx)
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 20 })
	if err := cl.Catalog().WaitForEpoch(cl.Controller().TriggerCheckpoint(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl.KillNode(0)
	select {
	case err := <-recovered:
		if err != nil {
			t.Fatalf("handler's recovery: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("handler's recovery did not finish")
	}
	before := col.Count()
	waitFor(t, 15*time.Second, "flow resumes after recovery", func() bool { return col.Count() > before+20 })
}

func TestKillNodesBurst(t *testing.T) {
	cl, col, _ := newTestCluster(t, spe.MSSrcAP, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 30 })
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	// Correlated burst: half the cluster at once.
	cl.KillNodes([]int{0, 1})
	if _, err := cl.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	before := col.Count()
	waitFor(t, 10*time.Second, "post-burst flow", func() bool { return col.Count() > before+50 })
	cl.StopAll()
}

func TestTupleSeqStampedOnEdges(t *testing.T) {
	// White-box: edges carry monotonically increasing seqs per port.
	e := spe.NewEdge("a", "b", 8)
	_ = e
	tp := tuple.New(1, "S", "k", nil)
	if tp.Seq != 0 {
		t.Fatal("fresh tuples must be unsequenced")
	}
}

func TestRecoverHAUErrors(t *testing.T) {
	cl, col, _ := newTestCluster(t, spe.Baseline, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 10 })
	if _, err := cl.RecoverHAU(ctx, "nope"); err == nil {
		t.Fatal("unknown HAU accepted")
	}
	// M exists but may not have checkpointed yet if we ask immediately;
	// force the no-checkpoint path with a fresh HAU id check instead:
	// kill and recover M before any checkpoint completes.
	if _, ok := cl.Catalog().LatestEpochFor("M"); !ok {
		if _, err := cl.RecoverHAU(ctx, "M"); err == nil {
			t.Fatal("recovery without checkpoint accepted")
		}
	}
}

func TestExtraListenerReceivesEvents(t *testing.T) {
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	lis := &recordingListener{}
	cl, err := New(Config{
		App:           testApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         2,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		Seed:          1,
		Listener:      lis,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 10 })
	ep := cl.Controller().TriggerCheckpoint()
	waitFor(t, 10*time.Second, "epoch", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep
	})
	waitFor(t, 10*time.Second, "extra listener", func() bool { return lis.ckpts.Load() >= 4 })
}

type recordingListener struct {
	ckpts atomic.Int64
}

func (l *recordingListener) CheckpointDone(string, uint64, spe.CheckpointBreakdown) {
	l.ckpts.Add(1)
}
func (l *recordingListener) TurningPoint(string, int64, int64, float64, bool) {}
func (l *recordingListener) Stopped(string, error)                            {}

func TestAccessorsAndStats(t *testing.T) {
	cl, _, _ := newTestCluster(t, spe.MSSrc, 2)
	if cl.SharedStore() == nil || cl.Catalog() == nil || cl.Controller() == nil {
		t.Fatal("nil accessors")
	}
	if got := len(cl.GraphNodes()); got != 4 {
		t.Fatalf("GraphNodes = %d", got)
	}
	if cl.HAU("S0") != nil {
		t.Fatal("HAU exists before Start")
	}
	if cl.Preserver("M") != nil {
		t.Fatal("preserver exists for MS scheme")
	}
}

// TestKillDuringCheckpointFallsBackToCompleteEpoch kills every node while
// epoch 2 is being written. The pause lets every HAU capture epoch 2
// before the kill: a save the dead nodes had not begun must not land, or
// epoch 2 completes during the shutdown and recovery restores it.
func TestKillDuringCheckpointFallsBackToCompleteEpoch(t *testing.T) {
	for _, pause := range []time.Duration{0, 3 * time.Millisecond} {
		t.Run(fmt.Sprintf("pause=%v", pause), func(t *testing.T) {
			killDuringCheckpoint(t, pause)
		})
	}
}

func killDuringCheckpoint(t *testing.T, pause time.Duration) {
	// Use slow shared storage so an epoch is guaranteed to be in flight
	// when the failure hits: some HAUs will have saved epoch 2, others not.
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, _ := fastSpecs()
	slowShared := storage.DiskSpec{BandwidthBps: 1 << 20, Latency: 5 * time.Millisecond, TimeScale: 1}
	cl, err := New(Config{
		App:           testApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         2,
		LocalDiskSpec: local,
		SharedSpec:    slowShared,
		TickEvery:     time.Millisecond,
		SourceFlush:   1 << 20, // keep source-log flushes off the slow disk
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 10*time.Second, "warmup", func() bool { return col.Count() >= 20 })

	ep1 := cl.Controller().TriggerCheckpoint()
	waitFor(t, 20*time.Second, "epoch 1", func() bool {
		e, ok := cl.Catalog().MostRecentComplete()
		return ok && e == ep1
	})
	// Epoch 2 starts; kill the cluster before it can complete.
	cl.Controller().TriggerCheckpoint()
	time.Sleep(pause)
	cl.KillAll()

	stats, err := cl.RecoverAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != ep1 {
		t.Fatalf("recovered from epoch %d, want the complete epoch %d", stats.Epoch, ep1)
	}
	before := reg.get().Delivered()
	waitFor(t, 20*time.Second, "post-recovery flow", func() bool {
		return reg.get().Delivered() > before+20
	})
	if d := reg.get().Duplicates(); d != 0 {
		t.Fatalf("%d duplicates after mid-checkpoint failure", d)
	}
}
