package apps

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

func TestTMIPaperTopology(t *testing.T) {
	col := metrics.NewCollector()
	spec := TMI(TMIPaper(col, time.Second))
	if err := spec.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Graph.NumNodes(); got != 55 {
		t.Fatalf("TMI operators = %d, want 55 (paper: each app has 55 operators)", got)
	}
	if got := len(spec.Graph.Sources()); got != 10 {
		t.Fatalf("TMI sources = %d, want 10", got)
	}
	if got := spec.Graph.Sinks(); len(got) != 1 || got[0] != "K" {
		t.Fatalf("TMI sinks = %v", got)
	}
	// Each GoogleMap connects to all Group operators.
	for i := 0; i < 12; i++ {
		if d := spec.Graph.OutDegree("M" + itoa(i)); d != 10 {
			t.Fatalf("M%d out-degree = %d, want 10", i, d)
		}
	}
}

func TestBCPPaperTopology(t *testing.T) {
	col := metrics.NewCollector()
	spec := BCP(BCPPaper(col))
	if err := spec.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Graph.NumNodes(); got != 55 {
		t.Fatalf("BCP operators = %d, want 55", got)
	}
	if got := len(spec.Graph.Sources()); got != 8 {
		t.Fatalf("BCP sources = %d, want 8 (4 camera + 4 sensor)", got)
	}
	// Dispatchers feed 4 counters and one history operator.
	for c := 0; c < 4; c++ {
		if d := spec.Graph.OutDegree("D" + itoa(c)); d != 5 {
			t.Fatalf("D%d out-degree = %d, want 5", c, d)
		}
	}
}

func TestSGPaperTopology(t *testing.T) {
	col := metrics.NewCollector()
	spec := SG(SGPaper(col))
	if err := spec.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Graph.NumNodes(); got != 55 {
		t.Fatalf("SignalGuru operators = %d, want 55", got)
	}
	if got := len(spec.Graph.Sources()); got != 4 {
		t.Fatalf("SG sources = %d, want 4", got)
	}
	// Each filter pipeline is C -> A -> M.
	for i := 0; i < 12; i++ {
		down := spec.Graph.Downstream("C" + itoa(i))
		if len(down) != 1 || down[0] != "A"+itoa(i) {
			t.Fatalf("C%d downstream = %v", i, down)
		}
	}
}

func TestSmallTopologiesValidate(t *testing.T) {
	col := metrics.NewCollector()
	for _, spec := range []cluster.AppSpec{
		TMI(TMISmall(col)),
		BCP(BCPSmall(col)),
		SG(SGSmall(col)),
	} {
		if err := spec.Graph.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}

// testConfig is the deployment the apps tests run: spec under scheme on
// nodes simulated nodes whose disks model costs without sleeping.
func testConfig(spec cluster.AppSpec, scheme spe.Scheme, nodes int) cluster.Config {
	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0
	return cluster.Config{
		App:           spec,
		Scheme:        scheme,
		Nodes:         nodes,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   4 << 10,
		Seed:          1,
	}
}

// runSmoke boots an app under a scheme and waits for sink deliveries.
func runSmoke(t *testing.T, spec cluster.AppSpec, col *metrics.Collector, want uint64, timeout time.Duration) {
	t.Helper()
	cl, err := cluster.New(testConfig(spec, spe.MSSrcAP, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if col.Count() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: only %d tuples reached the sink (want %d)", spec.Name, col.Count(), want)
}

func TestTMIEndToEnd(t *testing.T) {
	col := metrics.NewCollector()
	cfg := TMISmall(col)
	runSmoke(t, TMI(cfg), col, 5, 20*time.Second)
}

func TestBCPEndToEnd(t *testing.T) {
	col := metrics.NewCollector()
	cfg := BCPSmall(col)
	runSmoke(t, BCP(cfg), col, 5, 20*time.Second)
}

func TestSGEndToEnd(t *testing.T) {
	col := metrics.NewCollector()
	cfg := SGSmall(col)
	runSmoke(t, SG(cfg), col, 2, 20*time.Second)
}

func TestTMICheckpointAndRecover(t *testing.T) {
	col := metrics.NewCollector()
	ref := &SinkRef{}
	cfg := TMISmall(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	cl, err := cluster.New(testConfig(TMI(cfg), spe.MSSrcAP, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()

	deadline := time.Now().Add(20 * time.Second)
	for col.Count() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	ep := cl.Controller().TriggerCheckpoint()
	if err := cl.Catalog().WaitForEpoch(ep, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	cl.KillAll()
	if _, err := cl.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	before := ref.Get().Delivered()
	deadline = time.Now().Add(20 * time.Second)
	for ref.Get().Delivered() <= before+3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ref.Get().Duplicates() != 0 {
		t.Fatalf("TMI recovery delivered %d duplicates", ref.Get().Duplicates())
	}
}

// recoverySmoke checkpoints, kills everything, recovers and verifies
// exactly-once for one app spec.
func recoverySmoke(t *testing.T, spec cluster.AppSpec, col *metrics.Collector, ref *SinkRef, minFlow uint64) {
	t.Helper()
	cl, err := cluster.New(testConfig(spec, spe.MSSrcAP, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	deadline := time.Now().Add(20 * time.Second)
	for col.Count() < minFlow && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if col.Count() < minFlow {
		t.Fatalf("%s: warmup starved (%d deliveries)", spec.Name, col.Count())
	}
	ep := cl.Controller().TriggerCheckpoint()
	if err := cl.Catalog().WaitForEpoch(ep, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	cl.KillAll()
	if _, err := cl.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	before := ref.Get().Delivered()
	deadline = time.Now().Add(20 * time.Second)
	for ref.Get().Delivered() <= before+minFlow/2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := ref.Get().Duplicates(); d != 0 {
		t.Fatalf("%s: %d duplicates after recovery", spec.Name, d)
	}
}

func TestBCPCheckpointAndRecover(t *testing.T) {
	col := metrics.NewCollector()
	ref := &SinkRef{}
	cfg := BCPSmall(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	recoverySmoke(t, BCP(cfg), col, ref, 10)
}

func TestSGCheckpointAndRecover(t *testing.T) {
	col := metrics.NewCollector()
	ref := &SinkRef{}
	cfg := SGSmall(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	recoverySmoke(t, SG(cfg), col, ref, 2)
}

func TestTMIBaselineRunsEndToEnd(t *testing.T) {
	col := metrics.NewCollector()
	cfg := TMISmall(col)
	ccfg := testConfig(TMI(cfg), spe.Baseline, 3)
	ccfg.CkptPeriod = 50 * time.Millisecond
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	deadline := time.Now().Add(20 * time.Second)
	for col.Count() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if col.Count() < 5 {
		t.Fatal("baseline TMI starved")
	}
	// Baseline HAUs checkpoint on their own timers.
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := cl.Catalog().LatestEpochFor("A0"); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("baseline never checkpointed A0")
}
