package main

import (
	"fmt"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/operator"
	"meteorshower/internal/tuple"
)

// referenceRun pushes the bounded job through the same operators on one
// goroutine, in topological order, with no HAUs, edges or checkpoints. It
// returns the sink's delivery count — what the cluster run must deliver —
// and the wall time it took.
func referenceRun(cfg apps.TMIConfig) (uint64, time.Duration, error) {
	start := time.Now()
	in := newInstrument(nil, false, false)
	spec := in.spec(cfg)
	g := spec.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return 0, 0, err
	}
	ops := make(map[string]operator.Operator, len(order))
	for _, id := range order {
		chain := spec.NewOperators(id)
		if len(chain) != 1 {
			return 0, 0, fmt.Errorf("reference: %s has %d operators, want 1", id, len(chain))
		}
		ops[id] = chain[0]
	}
	var firstErr error
	var process func(id string, port int, t *tuple.Tuple)
	emitters := make(map[string]operator.Emitter, len(order))
	for _, id := range order {
		from, downs := id, g.Downstream(id)
		emitters[id] = func(port int, t *tuple.Tuple) {
			if port < 0 || port >= len(downs) {
				if firstErr == nil {
					firstErr = fmt.Errorf("reference: %s emitted to invalid port %d", from, port)
				}
				return
			}
			process(downs[port], g.PortOf(from, downs[port]), t)
		}
	}
	process = func(id string, port int, t *tuple.Tuple) {
		if firstErr != nil {
			return
		}
		if err := ops[id].OnTuple(port, t, emitters[id]); err != nil {
			firstErr = err
		}
	}
	for _, id := range g.Sources() {
		src, ok := ops[id].(*operator.RateSource)
		if !ok || src.Limit == 0 {
			return 0, 0, fmt.Errorf("reference: source %s is not a bounded RateSource", id)
		}
		downs := g.Downstream(id)
		for now := int64(0); !src.Exhausted() && firstErr == nil; {
			now += int64(time.Millisecond)
			for _, t := range src.Generate(now) {
				for p := range downs {
					out := t
					if p < len(downs)-1 {
						out = t.Retain()
					}
					emitters[id](p, out)
				}
			}
		}
	}
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return in.sink().Delivered(), time.Since(start), nil
}
