package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
)

// tmiConfig is the benchmark's job: bounded sources, Audit mode, fixed
// rate, no collector (the sink is built by the instrument instead).
func tmiConfig(w workload, limit uint64, seed int64) apps.TMIConfig {
	return apps.TMIConfig{
		Sources: sources, Pairs: pairs, Groups: groups,
		RatePerMS: rate, RecordPad: recordPad, PhonesPerSource: w.phones,
		Window: time.Second, K: 4, Seed: seed,
		SourceLimit: limit, Audit: true,
	}
}

// expectedDeliveries is the closed-form output count: each PairOp sees
// every tuple of its source and emits a speed for every report of a phone
// but its first, and Audit mode passes each speed to the sink once.
func expectedDeliveries(phones int, limit uint64) uint64 {
	return pairs * (limit - uint64(phones))
}

// opKinds maps the first letter of a TMI HAU id to its per-layer name.
var opKinds = map[byte]string{'P': "pair", 'M': "refspeed", 'G': "passthrough", 'A': "passthrough", 'K': "sink"}

// instrument wraps AppSpec.NewOperators. It always builds the sink with
// the benchmark's own latency recorder and remembers the live sink; with
// full set (the traced run) it also wraps every non-source operator and
// hooks each source's Payload function to measure generation lag.
type instrument struct {
	rec      *recorder
	identity bool // sink exactly-once oracle (untimed pass only)
	full     bool
	tr       *tracer
	stats    map[string]*opStats
	lag      atomic.Pointer[Histogram] // non-nil while lag is measured

	mu   sync.Mutex
	live *operator.Sink
}

func newInstrument(tr *tracer, full, identity bool) *instrument {
	in := &instrument{rec: &recorder{}, identity: identity, full: full, tr: tr, stats: map[string]*opStats{}}
	for _, k := range opKinds {
		if in.stats[k] == nil {
			in.stats[k] = &opStats{}
		}
	}
	return in
}

func (in *instrument) spec(cfg apps.TMIConfig) cluster.AppSpec {
	spec := apps.TMI(cfg)
	inner := spec.NewOperators
	spec.NewOperators = func(id string) []operator.Operator {
		if id == "K" {
			s := operator.NewSink(id, in.rec)
			s.TrackIdentity = in.identity
			in.mu.Lock()
			in.live = s
			in.mu.Unlock()
			if !in.full {
				return []operator.Operator{s}
			}
			return []operator.Operator{wrapOperator(s, in.tr, in.stats["sink"])}
		}
		ops := inner(id)
		if !in.full {
			return ops
		}
		if src, ok := ops[0].(*operator.RateSource); ok {
			// Sources stay unwrapped: the runtime type-asserts
			// *operator.RateSource to skip replayed ids.
			in.hookSource(src)
			return ops
		}
		for i, op := range ops {
			ops[i] = wrapOperator(op, in.tr, in.stats[opKinds[id[0]]])
		}
		return ops
	}
	return spec
}

// sink returns the live sink instance.
func (in *instrument) sink() *operator.Sink {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.live
}

// hookSource measures how late each tuple is generated against the fixed
// schedule anchored at the instance's first generated tuple. Payload runs
// once per generated tuple on the source's HAU goroutine.
func (in *instrument) hookSource(src *operator.RateSource) {
	inner := src.Payload
	nsPerTuple := 1e6 / src.RatePerMS
	var t0 time.Time
	var id0 uint64
	src.Payload = func(id uint64, rng *rand.Rand) (string, []byte) {
		now := time.Now()
		if t0.IsZero() {
			t0, id0 = now, id
		} else if h := in.lag.Load(); h != nil {
			due := t0.Add(time.Duration(float64(id-id0) * nsPerTuple))
			h.Record(int64(now.Sub(due)))
		}
		return inner(id, rng)
	}
}

// listener is the cluster's extra spe.Listener. It counts HAUs that stop
// with an error outside a kill or reconfiguration, and in the traced run
// records each individual checkpoint's breakdown as spans.
type listener struct {
	tr       *tracer
	full     bool
	inEvent  atomic.Bool
	stopErrs atomic.Int64
}

func (l *listener) CheckpointDone(hau string, epoch uint64, b spe.CheckpointBreakdown) {
	if !l.full {
		return
	}
	end := time.Now().UnixNano()
	start := end - int64(b.Total())
	parent := l.tr.add(Span{Name: "spe.checkpoint", Key: hau, Start: start, End: end, Val: b.StateBytes, Count: int64(epoch)})
	child := func(name string, from int64, d time.Duration, val int64) int64 {
		l.tr.add(Span{Parent: parent, Name: name, Key: hau, Start: from, End: from + int64(d), Val: val, Count: int64(epoch)})
		return from + int64(d)
	}
	child("spe.align_stall", start, b.AlignStallMax, 0)
	t := child("spe.token_wait", start, b.TokenWait, 0)
	t = child("spe.freeze", t, b.Serialize, b.DirtyBytes)
	t = child("spe.writer", t, b.Flatten+b.Diff, 0)
	child("spe.disk_write", t, b.DiskIO, b.StateBytes)
}

func (l *listener) TurningPoint(string, int64, int64, float64, bool) {}

func (l *listener) Stopped(hau string, err error) {
	if err != nil && !l.inEvent.Load() {
		l.stopErrs.Add(1)
	}
}
