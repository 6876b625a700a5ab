package controller

import (
	"context"
	"testing"
	"time"

	"meteorshower/internal/spe"
	"meteorshower/internal/statesize"
	"meteorshower/internal/storage"
)

func TestExportImportState(t *testing.T) {
	c := New(Config{Scheme: spe.MSSrcAPAA, Catalog: storage.NewCatalog(fastStore(), nil),
		Profile: statesize.Profile{Smax: 500, Smin: 100}})
	c.TriggerCheckpoint()
	c.TriggerCheckpoint()
	st := c.ExportState()
	if st.Epoch != 2 || st.Profile.Smax != 500 {
		t.Fatalf("export = %+v", st)
	}

	c2 := New(Config{Scheme: spe.MSSrcAPAA, Catalog: storage.NewCatalog(fastStore(), nil)})
	c2.ImportState(st)
	if c2.Epoch() != 2 || c2.InstalledProfile().Smax != 500 {
		t.Fatal("import incomplete")
	}
	// Stale import must not roll the epoch back.
	c2.TriggerCheckpoint() // epoch 3
	c2.ImportState(st)
	if c2.Epoch() != 3 {
		t.Fatal("stale import rolled the epoch back")
	}
}

func TestStandbyPromotionContinuesEpochs(t *testing.T) {
	cat := storage.NewCatalog(fastStore(), nil)
	cfg := Config{Scheme: spe.MSSrcAP, Catalog: cat, Period: time.Hour}
	primary := New(cfg)
	primary.SetHAUs(map[string]*spe.HAU{"a": nil})
	primary.TriggerCheckpoint()
	primary.TriggerCheckpoint()
	primary.TriggerCheckpoint()

	standby := NewStandby(cfg)
	standby.Sync(primary)
	if got := standby.Promote().Epoch(); got != 3 {
		t.Fatalf("synced epoch = %d", got)
	}

	// Primary dies; the standby takes over and continues numbering.
	promoted := standby.Promote()
	ep := promoted.TriggerCheckpoint()
	if ep != 4 {
		t.Fatalf("promoted controller issued epoch %d, want 4", ep)
	}
}

func TestStandbySyncKeepsNewest(t *testing.T) {
	cfg := Config{Scheme: spe.MSSrcAP, Catalog: storage.NewCatalog(fastStore(), nil)}
	fresh := New(cfg)
	fresh.TriggerCheckpoint()
	stale := New(cfg)

	standby := NewStandby(cfg)
	standby.Sync(fresh)
	standby.Sync(stale) // a lagging replica source must not regress state
	if got := standby.Promote().Epoch(); got != 1 {
		t.Fatalf("stale sync regressed epoch to %d", got)
	}
}

func TestPromotedControllerRuns(t *testing.T) {
	cfg := Config{Scheme: spe.MSSrcAP, Catalog: storage.NewCatalog(fastStore(), nil), Period: 20 * time.Millisecond}
	primary := New(cfg)
	standby := NewStandby(cfg)
	standby.Sync(primary)
	promoted := standby.Promote()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go promoted.Run(ctx)
	deadline := time.Now().Add(2 * time.Second)
	for promoted.Epoch() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if promoted.Epoch() == 0 {
		t.Fatal("promoted controller did not schedule checkpoints")
	}
	cancel()
	<-promoted.Done()
}
