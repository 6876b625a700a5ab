package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// chainSpec builds S -> C -> K with identity tracking.
func chainSpec(col *metrics.Collector, reg *sinkRegistry) AppSpec {
	g := graph.New()
	g.MustAddNode("S")
	g.MustAddNode("C")
	g.MustAddNode("K")
	g.MustAddEdge("S", "C")
	g.MustAddEdge("C", "K")
	return AppSpec{
		Name:  "chain",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id {
			case "S":
				return []operator.Operator{operator.NewRateSource("S", 4, 9, operator.BytePayload(16, 4))}
			case "C":
				return []operator.Operator{operator.NewCounter("C")}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
		},
	}
}

// TestQuickExactlyOnceUnderRandomFailures is the paper's core correctness
// claim, tested adversarially: checkpoint at a random time, kill a random
// subset of nodes at a random time, recover, and require the sink to see
// no duplicate deliveries across the cut for every seed.
func TestQuickExactlyOnceUnderRandomFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	local, shared := storage.DefaultLocalDisk(), storage.DefaultSharedStore()
	local.TimeScale, shared.TimeScale = 0, 0 // model disk costs without sleeping
	for _, scheme := range []spe.Scheme{spe.MSSrc, spe.MSSrcAP} {
		for seed := int64(0); seed < 4; seed++ {
			scheme, seed := scheme, seed
			t.Run(scheme.String(), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				col := metrics.NewCollector()
				reg := &sinkRegistry{}
				cl, err := New(Config{
					App:           chainSpec(col, reg),
					Scheme:        scheme,
					Nodes:         3,
					LocalDiskSpec: local,
					SharedSpec:    shared,
					TickEvery:     time.Millisecond,
					SourceFlush:   4 << 10,
					Seed:          seed,
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

				time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
				ep := cl.Controller().TriggerCheckpoint()
				if err := cl.Catalog().WaitForEpoch(ep, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				time.Sleep(time.Duration(rng.Intn(80)) * time.Millisecond)
				// Random burst: 1..3 nodes.
				n := 1 + rng.Intn(3)
				for i := 0; i < n; i++ {
					cl.KillNode(rng.Intn(3))
				}
				if _, err := cl.RecoverAll(ctx); err != nil {
					t.Fatal(err)
				}
				before := reg.get().Delivered()
				waitFor(t, 10*time.Second, "post-recovery flow", func() bool {
					return reg.get().Delivered() > before+20
				})
				if d := reg.get().Duplicates(); d != 0 {
					t.Fatalf("seed %d: %d duplicates after random failure", seed, d)
				}
			})
		}
	}
}
