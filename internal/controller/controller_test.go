package controller

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meteorshower/internal/buffer"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/statesize"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

func fastStore() *storage.Store {
	return storage.NewStore(storage.DiskSpec{BandwidthBps: 1 << 30, TimeScale: 0})
}

// fakeClock provides a controllable Now.
type fakeClock struct{ t int64 }

func (f *fakeClock) now() int64 { return f.t }

func TestTriggerCheckpointAllocatesEpochs(t *testing.T) {
	c := New(Config{Scheme: spe.MSSrcAP, Catalog: storage.NewCatalog(fastStore(), nil)})
	if c.Epoch() != 0 {
		t.Fatal("fresh controller epoch != 0")
	}
	e1 := c.TriggerCheckpoint()
	e2 := c.TriggerCheckpoint()
	if e1 != 1 || e2 != 2 || c.Epoch() != 2 {
		t.Fatalf("epochs = %d, %d", e1, e2)
	}
	if _, ok := c.Stat(1); !ok {
		t.Fatal("epoch 1 has no stat")
	}
}

func TestCheckpointDoneCompletesEpoch(t *testing.T) {
	clk := &fakeClock{}
	c := New(Config{Scheme: spe.MSSrcAP, Catalog: storage.NewCatalog(fastStore(), nil), Now: clk.now})
	c.SetHAUs(map[string]*spe.HAU{"a": nil, "b": nil})
	clk.t = 100
	ep := c.TriggerCheckpoint()
	clk.t = 200
	c.CheckpointDone("a", ep, spe.CheckpointBreakdown{DiskIO: 5, Serialize: 1})
	st, _ := c.Stat(ep)
	if st.Complete {
		t.Fatal("epoch complete with one of two HAUs")
	}
	clk.t = 300
	c.CheckpointDone("b", ep, spe.CheckpointBreakdown{DiskIO: 9, Serialize: 2, TokenWait: 3})
	st, _ = c.Stat(ep)
	if !st.Complete {
		t.Fatal("epoch not complete")
	}
	if st.WallTime() != 200 {
		t.Fatalf("WallTime = %v, want 200", st.WallTime())
	}
}

func TestSlowestBreakdown(t *testing.T) {
	st := EpochStat{Breakdown: map[string]spe.CheckpointBreakdown{
		"fast": {DiskIO: 10},
		"slow": {DiskIO: 50, TokenWait: 5},
	}}
	if got := st.SlowestBreakdown(); got.DiskIO != 50 {
		t.Fatalf("slowest = %+v", got)
	}
}

func TestEpochCompletePrunesLogsAndGC(t *testing.T) {
	store := fastStore()
	cat := storage.NewCatalog(store, []string{"a"})
	log := buffer.NewSourceLog("a", store, 0)
	log.Append(tuple.New(1, "a", "k", nil))
	c := New(Config{
		Scheme:     spe.MSSrc,
		Catalog:    cat,
		SourceLogs: map[string]*buffer.SourceLog{"a": log},
	})
	c.SetHAUs(map[string]*spe.HAU{"a": nil})

	ep := c.TriggerCheckpoint()
	// Simulate the HAU: save state, rotate log, report done.
	cat.SaveState(ep, "a", []byte("s"))
	log.BeginEpoch(ep)
	log.Append(tuple.New(2, "a", "k", nil))
	c.CheckpointDone("a", ep, spe.CheckpointBreakdown{})
	if n := log.PreservedCount(); n != 1 {
		t.Fatalf("preserved after prune = %d, want 1 (only post-epoch)", n)
	}
}

func TestAlertModeFiresOnPositiveICR(t *testing.T) {
	cat := storage.NewCatalog(fastStore(), nil)
	c := New(Config{
		Scheme:  spe.MSSrcAPAA,
		Catalog: cat,
		Period:  time.Hour, // period never elapses during the test
		Profile: statesize.Profile{Smax: 1000, Smin: 100},
		Dynamic: []string{"d1", "d2"},
	})
	c.SetHAUs(map[string]*spe.HAU{"d1": nil, "d2": nil})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	// Run's startup calls maybeEnterAlert: total size of nil HAUs = 0 <
	// smax, so alert mode arms.
	deadline := time.Now().Add(2 * time.Second)
	for !c.InAlertMode() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !c.InAlertMode() {
		t.Fatal("alert mode not armed at period start")
	}
	// Fig. 11 at t2: ICRs -50 and +30 sum to -20: no checkpoint.
	c.TurningPoint("d1", 10, 140, -50, false)
	c.TurningPoint("d2", 10, 100, +30, false)
	time.Sleep(50 * time.Millisecond)
	if c.Epoch() != 0 {
		t.Fatal("checkpoint fired on negative aggregate ICR")
	}
	// Fig. 11 at t4: d1 turns with ICR +60; aggregate +90 > 0: fire.
	c.TurningPoint("d1", 20, 40, +60, false)
	deadline = time.Now().Add(2 * time.Second)
	for c.Epoch() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", c.Epoch())
	}
	if c.InAlertMode() {
		t.Fatal("alert mode not dismissed after checkpoint")
	}
	cancel()
	<-c.Done()
}

func TestPeriodEndForcesCheckpoint(t *testing.T) {
	cat := storage.NewCatalog(fastStore(), nil)
	c := New(Config{
		Scheme:  spe.MSSrcAPAA,
		Catalog: cat,
		Period:  30 * time.Millisecond,
		// smax = 0 profile: alert mode can never arm, forcing the
		// period-end fallback path.
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for c.Epoch() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Epoch() == 0 {
		t.Fatal("period end did not force a checkpoint")
	}
	cancel()
	<-c.Done()
}

func TestPeriodicTriggerNonAA(t *testing.T) {
	c := New(Config{
		Scheme:  spe.MSSrcAP,
		Catalog: storage.NewCatalog(fastStore(), nil),
		Period:  20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for c.Epoch() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Epoch() < 2 {
		t.Fatalf("epochs = %d, want >= 2", c.Epoch())
	}
	cancel()
	<-c.Done()
}

func TestBaselineControllerDoesNotSchedule(t *testing.T) {
	c := New(Config{
		Scheme:  spe.Baseline,
		Catalog: storage.NewCatalog(fastStore(), nil),
		Period:  10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	time.Sleep(60 * time.Millisecond)
	if c.Epoch() != 0 {
		t.Fatalf("baseline controller scheduled %d epochs", c.Epoch())
	}
	cancel()
	<-c.Done()
}

func TestFailureDetection(t *testing.T) {
	var alive atomic.Bool
	alive.Store(true)
	var mu sync.Mutex
	var detected []string
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(detected)
	}
	c := New(Config{
		Scheme:    spe.MSSrcAP,
		Catalog:   storage.NewCatalog(fastStore(), nil),
		PingEvery: 5 * time.Millisecond,
		IsAlive:   func(string) bool { return alive.Load() },
	})
	c.SetOnFailure(func(dead []string) {
		mu.Lock()
		detected = append(detected, dead...)
		mu.Unlock()
	})
	c.SetHAUs(map[string]*spe.HAU{"x": nil})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)
	time.Sleep(20 * time.Millisecond)
	if count() != 0 {
		t.Fatal("false positive failure detection")
	}
	alive.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count() == 0 {
		t.Fatal("failure not detected")
	}
	n := count()
	time.Sleep(30 * time.Millisecond)
	if count() != n {
		t.Fatal("failure reported more than once")
	}
	c.ClearFailure()
	deadline = time.Now().Add(2 * time.Second)
	for count() == n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count() == n {
		t.Fatal("detection not re-armed after ClearFailure")
	}
	cancel()
	<-c.Done()
}

// TestLoopSkipRules drives one fake policy loop through the three skip
// rules: no step while checkpoints are paused, none while a failure
// incident is open, and none started while a previous step still runs.
func TestLoopSkipRules(t *testing.T) {
	var alive, block atomic.Bool
	alive.Store(true)
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	c := New(Config{
		Scheme:    spe.MSSrcAP,
		Catalog:   storage.NewCatalog(fastStore(), nil),
		PingEvery: time.Millisecond,
		IsAlive:   func(string) bool { return alive.Load() },
		OnFailure: func([]string) {},
		Loops: []Loop{{Every: time.Millisecond, Step: func() (int, error) {
			calls.Add(1)
			if block.Load() {
				entered <- struct{}{}
				<-release
			}
			return 0, nil
		}}},
	})
	c.SetHAUs(map[string]*spe.HAU{"x": nil})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go c.Run(ctx)

	waitMore := func(what string, n int64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for calls.Load() <= n {
			if time.Now().After(deadline) {
				t.Fatalf("loop did not step %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// holds checks that no step starts for a while; the pause before the
	// sample lets a step begun before the rule took hold finish.
	holds := func(what string) int64 {
		t.Helper()
		time.Sleep(5 * time.Millisecond)
		n := calls.Load()
		time.Sleep(30 * time.Millisecond)
		if got := calls.Load(); got != n {
			t.Fatalf("%s: %d steps ran, want none", what, got-n)
		}
		return n
	}

	waitMore("at start", 2)

	c.PauseCheckpoints()
	n := holds("checkpoints paused")
	c.ResumeCheckpoints()
	waitMore("after resume", n)

	alive.Store(false)
	for !c.FailurePending() {
		time.Sleep(time.Millisecond)
	}
	n = holds("failure open")
	alive.Store(true)
	c.ClearFailure()
	waitMore("after ClearFailure", n)

	block.Store(true)
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("blocking step never started")
	}
	n = holds("previous step running")
	block.Store(false)
	close(release)
	waitMore("after the blocked step returned", n)

	cancel()
	<-c.Done()
}

func TestProfileApplication(t *testing.T) {
	c := New(Config{
		Scheme:  spe.MSSrcAPAA,
		Catalog: storage.NewCatalog(fastStore(), nil),
		Period:  100 * time.Millisecond,
	})
	c.SetHAUs(map[string]*spe.HAU{"dyn": nil, "flat": nil})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan statesize.Profile, 1)
	go func() { done <- c.ProfileApplication(ctx, 150*time.Millisecond) }()
	// Feed a sawtooth for "dyn" (min << avg/2) and a flat line for "flat".
	base := time.Now().UnixNano()
	sec := int64(time.Millisecond * 10)
	for i := 0; i < 8; i++ {
		size := int64(10)
		if i%2 == 0 {
			size = 500
		}
		c.TurningPoint("dyn", base+int64(i)*sec, size, 0, false)
		c.TurningPoint("flat", base+int64(i)*sec, 300+int64(i%2), 0, false)
		time.Sleep(5 * time.Millisecond)
	}
	prof := <-done
	dyn := c.Dynamic()
	if len(dyn) != 1 || dyn[0] != "dyn" {
		t.Fatalf("dynamic HAUs = %v", dyn)
	}
	if prof.Smax <= 0 {
		t.Fatalf("profile smax = %d", prof.Smax)
	}
	if got := c.InstalledProfile(); got.Smax != prof.Smax {
		t.Fatal("profile not installed")
	}
}

func TestSetProfile(t *testing.T) {
	c := New(Config{Scheme: spe.MSSrcAPAA, Catalog: storage.NewCatalog(fastStore(), nil)})
	c.SetProfile(statesize.Profile{Smax: 77})
	if c.InstalledProfile().Smax != 77 {
		t.Fatal("SetProfile lost")
	}
}

func TestEpochStatsSnapshot(t *testing.T) {
	c := New(Config{Scheme: spe.MSSrcAP, Catalog: storage.NewCatalog(fastStore(), nil)})
	c.SetHAUs(map[string]*spe.HAU{"a": nil})
	ep := c.TriggerCheckpoint()
	c.CheckpointDone("a", ep, spe.CheckpointBreakdown{DiskIO: 7})
	stats := c.EpochStats()
	if len(stats) != 1 || stats[0].Breakdown["a"].DiskIO != 7 {
		t.Fatalf("stats = %+v", stats)
	}
	// Mutating the snapshot must not affect the controller.
	stats[0].Breakdown["a"] = spe.CheckpointBreakdown{DiskIO: 99}
	st, _ := c.Stat(ep)
	if st.Breakdown["a"].DiskIO == 99 {
		t.Fatal("EpochStats returned shared state")
	}
}

// orderListener records the epochs each HAU checkpoints, in order, and
// forwards every event to the controller.
type orderListener struct {
	c  *Controller
	mu sync.Mutex
	by map[string][]uint64
}

func (l *orderListener) CheckpointDone(hau string, epoch uint64, b spe.CheckpointBreakdown) {
	l.mu.Lock()
	l.by[hau] = append(l.by[hau], epoch)
	l.mu.Unlock()
	l.c.CheckpointDone(hau, epoch, b)
}
func (l *orderListener) TurningPoint(string, int64, int64, float64, bool) {}
func (l *orderListener) Stopped(string, error)                            {}

// TestConcurrentTriggersBroadcastInOrder fires checkpoint triggers from two
// goroutines at once at a set of source HAUs, which checkpoint on the
// command alone. Every HAU must see every epoch, in ascending order: one
// handed N+1 before N skips N as stale, and N never completes.
func TestConcurrentTriggersBroadcastInOrder(t *testing.T) {
	const nHAU, perTrigger = 8, 40
	ids := make([]string, nHAU)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	cat := storage.NewCatalog(fastStore(), ids)
	c := New(Config{Scheme: spe.MSSrcAP, Catalog: cat})
	lis := &orderListener{c: c, by: make(map[string][]uint64)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	haus := make(map[string]*spe.HAU, nHAU)
	for _, id := range ids {
		h, err := spe.New(spe.Config{
			ID: id, Scheme: spe.MSSrcAP, Catalog: cat, Listener: lis, TickEvery: time.Millisecond,
			Ops: []operator.Operator{operator.NewRateSource(id, 0, 1, operator.BytePayload(4, 2))},
		})
		if err != nil {
			t.Fatal(err)
		}
		haus[id] = h
		h.Start(ctx)
	}
	c.SetHAUs(haus)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTrigger; i++ {
				c.TriggerCheckpoint()
			}
		}()
	}
	wg.Wait()
	const last = 2 * perTrigger
	deadline := time.Now().Add(5 * time.Second)
	for st, _ := c.Stat(last); !st.Complete && time.Now().Before(deadline); st, _ = c.Stat(last) {
		time.Sleep(time.Millisecond)
	}
	for ep := uint64(1); ep <= last; ep++ {
		if st, ok := c.Stat(ep); !ok || !st.Complete {
			t.Errorf("epoch %d never completed", ep)
		}
	}
	lis.mu.Lock()
	defer lis.mu.Unlock()
	for _, id := range ids {
		got := lis.by[id]
		if len(got) != last {
			t.Errorf("HAU %s checkpointed %d of %d epochs: %v", id, len(got), last, got)
			continue
		}
		for i, ep := range got {
			if ep != uint64(i+1) {
				t.Errorf("HAU %s saw epochs out of order: %v", id, got)
				break
			}
		}
	}
}
