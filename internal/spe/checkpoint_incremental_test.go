package spe

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"meteorshower/internal/operator"
	"meteorshower/internal/storage"
	"meteorshower/internal/tuple"
)

// failSnapOp snapshots successfully failAfter times, then fails forever.
type failSnapOp struct {
	operator.Base
	failAfter int
	calls     int
}

func (o *failSnapOp) OnTuple(_ int, _ *tuple.Tuple, _ operator.Emitter) error { return nil }

func (o *failSnapOp) Snapshot() ([]byte, error) {
	o.calls++
	if o.calls > o.failAfter {
		return nil, errors.New("snapshot failed")
	}
	return []byte("ok"), nil
}

// TestCheckpointAbortsOnSnapshotFailure is the regression for the historical
// behaviour where a failed op.Snapshot() was encoded as a zero-length
// section and the torn epoch still completed in the catalog. A snapshot
// failure must abort the individual checkpoint: nothing saved, the epoch
// never complete, the HAU fail-stopped.
func TestCheckpointAbortsOnSnapshotFailure(t *testing.T) {
	cat := storage.NewCatalog(storage.NewStore(storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond}), []string{"H"})
	h, err := New(Config{
		ID: "H", Scheme: MSSrcAP,
		Ops:     []operator.Operator{&failSnapOp{Base: operator.Base{OpName: "f"}, failAfter: 1}},
		Out:     []*Edge{NewEdge("H", "z", 0)},
		Catalog: cat,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.Start(ctx)

	// Epoch 1: the snapshot succeeds and the epoch completes.
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if e, ok := cat.MostRecentComplete(); ok && e == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch 1 never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Epoch 2: the snapshot fails. The HAU must fail-stop without saving.
	h.Command(Command{Kind: CmdCheckpoint, Epoch: 2})
	select {
	case <-h.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("HAU did not stop after snapshot failure")
	}
	if h.Err() == nil {
		t.Fatal("snapshot failure not surfaced via Err")
	}
	if saved, _ := cat.EpochProgress(2); saved != 0 {
		t.Fatalf("torn epoch has %d saves; want 0", saved)
	}
	if e, _ := cat.MostRecentComplete(); e != 1 {
		t.Fatalf("most recent complete epoch = %d, want 1", e)
	}
}

// TestPooledSectionAliasing pins the refcounting contract: a snapshot
// captured before an operator mutation must flatten to the same bytes even
// if the flatten happens after later captures re-encoded the operator into
// new pooled buffers.
func TestPooledSectionAliasing(t *testing.T) {
	h := mkRestorable(t)
	c := h.cfg.Ops[0].(*operator.Counter)
	drop := func(int, *tuple.Tuple) {}
	if err := c.OnTuple(0, tuple.New(1, "S", "a", nil), drop); err != nil {
		t.Fatal(err)
	}

	snap1, err := h.captureState()
	if err != nil {
		t.Fatal(err)
	}
	want := snap1.flatten()

	// Mutate the operator and capture twice more; the second capture is
	// clean and must share the op section with the first by reference.
	if err := c.OnTuple(0, tuple.New(2, "S", "b", nil), drop); err != nil {
		t.Fatal(err)
	}
	snap2, err := h.captureState()
	if err != nil {
		t.Fatal(err)
	}
	snap3, err := h.captureState()
	if err != nil {
		t.Fatal(err)
	}
	if snap2.sections[1] != snap3.sections[1] {
		t.Fatal("clean capture did not reuse the cached op section")
	}
	if snap3.dirty >= snap2.dirty {
		t.Fatalf("clean capture dirty=%d, dirty capture dirty=%d", snap3.dirty, snap2.dirty)
	}

	// The late flatten of the pre-mutation snapshot must be byte-identical
	// to its early flatten: the re-encodes above must not have scribbled
	// over snap1's pooled buffers.
	if got := snap1.flatten(); !bytes.Equal(want, got) {
		t.Fatal("pre-mutation snapshot changed after later captures")
	}
	snap1.release()
	snap2.release()
	snap3.release()

	// A post-release capture after another mutation still restores cleanly.
	if err := c.OnTuple(0, tuple.New(3, "S", "c", nil), drop); err != nil {
		t.Fatal(err)
	}
	blob := h.SnapshotNow()
	h2 := mkRestorable(t)
	if err := h2.RestoreFrom(blob); err != nil {
		t.Fatal(err)
	}
	c2 := h2.cfg.Ops[0].(*operator.Counter)
	for _, k := range []string{"a", "b", "c"} {
		if c2.Count(k) != 1 {
			t.Fatalf("restored count[%s] = %d, want 1", k, c2.Count(k))
		}
	}
}

// TestRestoreFromRejectsHeaderlessBlob hand-encodes the retired
// headerless layout (runtime section, u32 nOps, length-prefixed operator
// snapshots). RestoreFrom decodes only the section-table layout, so it must
// return an error rather than read the blob some other way.
func TestRestoreFromRejectsHeaderlessBlob(t *testing.T) {
	src := mkRestorable(t)
	src.outSeq[0] = 11
	src.lastInSeq[0] = 7
	src.lastSrcID[0]["S"] = 42
	src.localEpoch = 3
	c := src.cfg.Ops[0].(*operator.Counter)
	drop := func(int, *tuple.Tuple) {}
	for i, k := range []string{"x", "y", "x"} {
		if err := c.OnTuple(0, tuple.New(uint64(i+1), "S", k, nil), drop); err != nil {
			t.Fatal(err)
		}
	}

	blob := src.appendRuntimeState(nil)
	opSnap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob = binary.LittleEndian.AppendUint32(blob, 1)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(opSnap)))
	blob = append(blob, opSnap...)

	if err := mkRestorable(t).RestoreFrom(blob); err == nil {
		t.Fatal("headerless blob accepted")
	}
}
