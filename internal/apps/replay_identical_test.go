package apps

import (
	"context"
	"reflect"
	"testing"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
)

// runToQuiescence boots an app with bounded sources, optionally kills the
// whole cluster mid-stream and recovers, then waits for the sink to go
// quiet and returns its delivery report. With Audit on and sources
// bounded, the report is a pure function of the source streams — so a
// failed+recovered run must reproduce the unfailed one exactly.
func runToQuiescence(t *testing.T, spec cluster.AppSpec, col *metrics.Collector, ref *SinkRef, failMidway bool) operator.SinkReport {
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
	for col.Count() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if col.Count() < 5 {
		t.Fatalf("%s: warmup starved (%d deliveries)", spec.Name, col.Count())
	}

	if failMidway {
		ep := cl.Controller().TriggerCheckpoint()
		if err := cl.Catalog().WaitForEpoch(ep, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		cl.KillAll()
		if _, err := cl.RecoverAllWithRetry(ctx, 3, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// Quiescence: bounded sources run dry, so the seen-set stops growing.
	// Wait for a full second without change before trusting the report.
	var lastSeen, stableSince = -1, time.Now()
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		n := ref.Get().SeenCount()
		if n != lastSeen {
			lastSeen, stableSince = n, time.Now()
		} else if time.Since(stableSince) > time.Second {
			return ref.Get().Report()
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s: sink never quiesced (seen=%d)", spec.Name, lastSeen)
	return nil
}

func tmiAudit() (cluster.AppSpec, *metrics.Collector, *SinkRef) {
	col := metrics.NewCollector()
	ref := &SinkRef{}
	cfg := TMISmall(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	cfg.Audit = true
	cfg.SourceLimit = 80
	return TMI(cfg), col, ref
}

func sgAudit() (cluster.AppSpec, *metrics.Collector, *SinkRef) {
	col := metrics.NewCollector()
	ref := &SinkRef{}
	cfg := SGSmall(col)
	cfg.SinkRef = ref
	cfg.TrackIdentity = true
	cfg.Audit = true
	cfg.SourceLimit = 60
	return SG(cfg), col, ref
}

func replayIdentical(t *testing.T, build func() (cluster.AppSpec, *metrics.Collector, *SinkRef)) {
	t.Helper()
	spec, col, ref := build()
	want := runToQuiescence(t, spec, col, ref, false)
	if want.TotalViolations() != 0 {
		t.Fatalf("unfailed run reported violations:\n%s", want)
	}

	spec2, col2, ref2 := build()
	got := runToQuiescence(t, spec2, col2, ref2, true)
	if got.TotalViolations() != 0 {
		t.Fatalf("recovered run reported violations:\n%s", got)
	}
	// Reorders are timing-dependent even on an identical tuple set; the
	// identity sets themselves must match exactly.
	for src := range want {
		w, g := want[src], got[src]
		w.Reorders, g.Reorders = 0, 0
		want[src], got[src] = w, g
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered sink output differs from unfailed run\nunfailed:\n%srecovered:\n%s", want, got)
	}
}

// TestTMIReplayIdentical drives KillAll + RecoverAll on TMI and checks
// the recovered run's sink output is identical to an unfailed run with
// the same seeds — exactly-once end to end, not merely duplicate-free.
func TestTMIReplayIdentical(t *testing.T) {
	replayIdentical(t, tmiAudit)
}

// TestSGReplayIdentical is the same oracle over SignalGuru's
// fan-out/fan-in pipeline shape.
func TestSGReplayIdentical(t *testing.T) {
	replayIdentical(t, sgAudit)
}
