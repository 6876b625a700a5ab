package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/tuple"
)

// gate parks the sink's OnTuple while closed. No checkpoint token gets past
// a parked sink, so every epoch stalls until the gate opens — the quiesce
// epoch of a live topology change included.
type gate struct{ closed, parked atomic.Bool }

type gatedSink struct {
	*operator.Sink
	g *gate
}

func (s gatedSink) OnTuple(port int, t *tuple.Tuple, emit operator.Emitter) error {
	for s.g.closed.Load() {
		s.g.parked.Store(true)
		time.Sleep(100 * time.Microsecond)
	}
	return s.Sink.OnTuple(port, t, emit)
}

// startGated starts app on a four-node, two-rack cluster whose sink sits
// behind g, and waits for the first deliveries.
func startGated(t *testing.T, app func(*metrics.Collector, *sinkRegistry) AppSpec, g *gate) (*Cluster, context.Context) {
	t.Helper()
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	spec := app(col, reg)
	build := spec.NewOperators
	spec.NewOperators = func(id string) []operator.Operator {
		ops := build(id)
		if s, ok := ops[len(ops)-1].(*operator.Sink); ok {
			ops[len(ops)-1] = gatedSink{s, g}
		}
		return ops
	}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:           spec,
		Scheme:        spe.MSSrcAP,
		Nodes:         4,
		NodesPerRack:  2,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		Seed:          1,
		Metrics:       col,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.StopAll)
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 50
	})
	return cl, ctx
}

// holdInQuiesce parks the sink, starts op, and waits until op has paused
// checkpoints: op is then past its pre-flight and pins, waiting in its
// quiesce epoch. The returned func opens the gate and returns op's error;
// it also runs at cleanup, ahead of StopAll, which a parked sink would
// wedge.
func holdInQuiesce(t *testing.T, cl *Cluster, g *gate, op func() error) func() error {
	t.Helper()
	g.closed.Store(true)
	waitFor(t, 5*time.Second, "sink parked", g.parked.Load)
	done := make(chan error, 1)
	go func() { done <- op() }()
	var once sync.Once
	var err error
	release := func() error {
		once.Do(func() {
			g.closed.Store(false)
			err = <-done
		})
		return err
	}
	t.Cleanup(func() { release() })
	waitFor(t, 5*time.Second, "change in its quiesce", cl.ctrl.CheckpointsPaused)
	return release
}

// refusedNow runs op with a short deadline and fails the test unless op
// was refused outright: an op that got past pre-flight would wait in its
// own quiesce and come back wrapped in its abort sentinel.
func refusedNow(t *testing.T, what string, abort error, op func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := op(ctx); err == nil || errors.Is(err, abort) {
		t.Fatalf("%s: err = %v, want an immediate refusal", what, err)
	}
}

// TestMigrateRefusesHAUMidRescale: the rebalancer (MigrateHAU) and the
// autoscaler (rescale) run on separate loops. A migration of an operator
// in the middle of a split must be refused, not run beside it.
func TestMigrateRefusesHAUMidRescale(t *testing.T) {
	g := &gate{}
	cl, ctx := startGated(t, keyedApp, g)
	split := holdInQuiesce(t, cl, g, func() error {
		_, err := cl.SplitHAU(ctx, "C", 2)
		return err
	})
	dest := (cl.NodeOf("C") + 1) % 4
	refusedNow(t, "migration of C mid-split", ErrMigrationAborted, func(ctx context.Context) error {
		_, err := cl.MigrateHAU(ctx, "C", dest)
		return err
	})
	if err := split(); err != nil {
		t.Fatalf("split: %v", err)
	}
	if got := cl.Replicas("C"); len(got) != 2 {
		t.Fatalf("replicas after split = %v", got)
	}
}

// TestRescaleRefusesHAUMidMigration is the reverse order.
func TestRescaleRefusesHAUMidMigration(t *testing.T) {
	g := &gate{}
	cl, ctx := startGated(t, keyedApp, g)
	dest := (cl.NodeOf("C") + 1) % 4
	migrate := holdInQuiesce(t, cl, g, func() error {
		_, err := cl.MigrateHAU(ctx, "C", dest)
		return err
	})
	refusedNow(t, "split of C mid-migration", ErrRescaleAborted, func(ctx context.Context) error {
		_, err := cl.SplitHAU(ctx, "C", 2)
		return err
	})
	if err := migrate(); err != nil {
		t.Fatalf("migration: %v", err)
	}
	if got := cl.NodeOf("C"); got != dest {
		t.Fatalf("C on node %d after migration, want %d", got, dest)
	}
}

// TestProtectRefusesHAUMidMigration: arming a standby clones the primary,
// so it must not run while the primary is moving.
func TestProtectRefusesHAUMidMigration(t *testing.T) {
	g := &gate{}
	cl, ctx := startGated(t, chainApp, g)
	dest := (cl.NodeOf("A") + 1) % 4
	migrate := holdInQuiesce(t, cl, g, func() error {
		_, err := cl.MigrateHAU(ctx, "A", dest)
		return err
	})
	refusedNow(t, "protect of A mid-migration", ErrFailoverAborted, func(ctx context.Context) error {
		_, err := cl.ProtectHAU(ctx, "A")
		return err
	})
	if err := migrate(); err != nil {
		t.Fatalf("migration: %v", err)
	}
	if cl.Protected("A") {
		t.Fatal("A protected after a refused protect")
	}
}

// TestMigrateRefusesHAUMidProtect: while a standby is being armed, neither
// the primary nor the upstream carrying the tee may move.
func TestMigrateRefusesHAUMidProtect(t *testing.T) {
	g := &gate{}
	cl, ctx := startGated(t, chainApp, g)
	protect := holdInQuiesce(t, cl, g, func() error {
		_, err := cl.ProtectHAU(ctx, "A")
		return err
	})
	for _, id := range []string{"A", "S"} {
		dest := (cl.NodeOf(id) + 1) % 4
		refusedNow(t, "migration of "+id+" mid-protect", ErrMigrationAborted, func(ctx context.Context) error {
			_, err := cl.MigrateHAU(ctx, id, dest)
			return err
		})
	}
	if err := protect(); err != nil {
		t.Fatalf("protect: %v", err)
	}
	if !cl.Protected("A") {
		t.Fatal("A not protected")
	}
}
