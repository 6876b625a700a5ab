package main

import (
	"testing"

	"meteorshower/internal/apps"
	"meteorshower/internal/operator"
	"meteorshower/internal/tuple"
)

// fakeOp is an operator with no optional interfaces; the types below add
// them one combination at a time.
type fakeOp struct {
	operator.Base
	ticks int
}

func (f *fakeOp) OnTuple(port int, t *tuple.Tuple, emit operator.Emitter) error {
	emit(port, t)
	return nil
}

type incOp struct{ *fakeOp }

func (incOp) AppendSnapshot(buf []byte) ([]byte, bool, error) { return append(buf, 'i'), true, nil }

type partOp struct{ *fakeOp }

func (partOp) PartitionSlots() int { return 42 }

type tickOp struct{ *fakeOp }

func (o tickOp) OnTick(int64, operator.Emitter) error { o.ticks++; return nil }

type incPartOp struct {
	incOp
	partM2
}
type partM2 struct{}

func (partM2) PartitionSlots() int { return 42 }

type tickM2 struct{ f *fakeOp }

func (m tickM2) OnTick(int64, operator.Emitter) error { m.f.ticks++; return nil }

type incTickOp struct {
	incOp
	tickM2
}
type partTickOp struct {
	partOp
	tickM2
}
type incPartTickOp struct {
	incOp
	partM2
	tickM2
}

func optional(op operator.Operator) (inc, part, tick bool) {
	_, inc = op.(operator.IncrementalSnapshotter)
	_, part = op.(operator.PartitionedState)
	_, tick = op.(operator.Ticker)
	return
}

func TestWrapperExposesExactlyTheWrappedInterfaces(t *testing.T) {
	base := func() *fakeOp { return &fakeOp{Base: operator.Base{OpName: "x"}} }
	ops := []operator.Operator{
		base(),
		incOp{base()},
		partOp{base()},
		tickOp{base()},
		incPartOp{incOp: incOp{base()}},
		func() operator.Operator { f := base(); return incTickOp{incOp{f}, tickM2{f}} }(),
		func() operator.Operator { f := base(); return partTickOp{partOp{f}, tickM2{f}} }(),
		func() operator.Operator { f := base(); return incPartTickOp{incOp{f}, partM2{}, tickM2{f}} }(),
		apps.NewPairOp("P0"),
		apps.NewRefSpeedOp("M0", 2),
		apps.NewKMeansOp("A0", 2, 1e6, 1),
		operator.NewPassthrough("G0", 1),
		operator.NewSink("K", nil),
		operator.NewCounter("C"),
	}
	seen := map[[3]bool]bool{}
	for _, op := range ops {
		w := wrapOperator(op, newTracer(), &opStats{})
		i0, p0, t0 := optional(op)
		i1, p1, t1 := optional(w)
		if i0 != i1 || p0 != p1 || t0 != t1 {
			t.Errorf("%T: wrapped exposes (inc %v, part %v, tick %v), want (%v, %v, %v)", op, i1, p1, t1, i0, p0, t0)
		}
		seen[[3]bool{i0, p0, t0}] = true
		if p0 && w.(operator.PartitionedState).PartitionSlots() != op.(operator.PartitionedState).PartitionSlots() {
			t.Errorf("%T: PartitionSlots not forwarded", op)
		}
		if i0 {
			// The first capture through the wrapper must reach the wrapped
			// operator: it reports dirty and appends the state.
			got, dirty, err := w.(operator.IncrementalSnapshotter).AppendSnapshot(nil)
			if err != nil || !dirty || len(got) == 0 {
				t.Errorf("%T: wrapped AppendSnapshot = %d bytes, dirty %v, err %v", op, len(got), dirty, err)
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of the 8 interface combinations", len(seen))
	}
}

func TestWrapperTimesOnTupleAndForwardsEmits(t *testing.T) {
	st := &opStats{}
	w := wrapOperator(&fakeOp{Base: operator.Base{OpName: "x"}}, nil, st)
	var got []int
	for i := 0; i < 3; i++ {
		if err := w.OnTuple(i, &tuple.Tuple{}, func(port int, _ *tuple.Tuple) { got = append(got, port) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("emits forwarded to ports %v, want [0 1 2]", got)
	}
	if st.calls.Load() != 3 || st.selfNS.Load() < 0 {
		t.Fatalf("stats calls=%d self=%d", st.calls.Load(), st.selfNS.Load())
	}
}
