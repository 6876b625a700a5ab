// Package operator defines the stream operator abstraction and a library
// of reusable operators. An operator is "executed repeatedly to process the
// incoming data" (paper §II-A); whenever it finishes processing a unit of
// input it emits output tuples downstream.
//
// Operators are single-goroutine objects owned by their HAU; they need no
// internal locking. Everything an operator keeps between invocations is its
// *state*, which must be exposed through StateSize (the paper generates
// state_size() with a precompiler; Go operators implement it directly) and
// must round-trip through Snapshot/Restore for checkpointing.
package operator

import (
	"encoding/binary"
	"errors"
	"sort"

	"meteorshower/internal/partition"
	"meteorshower/internal/tuple"
)

// Emitter delivers an output tuple to one of the operator's output ports.
// Port numbering follows the query network's downstream order.
type Emitter func(port int, t *tuple.Tuple)

// Operator is the unit of stream processing logic.
type Operator interface {
	// Name identifies the operator for diagnostics.
	Name() string
	// OnTuple processes one data tuple arriving on the given input port.
	OnTuple(port int, t *tuple.Tuple, emit Emitter) error
	// StateSize returns the operator's current state footprint in bytes
	// (statesize.Sizer).
	StateSize() int64
	// Snapshot serializes the operator state for a checkpoint.
	Snapshot() ([]byte, error)
	// Restore rebuilds the operator state from a snapshot.
	Restore([]byte) error
}

// Ticker is implemented by operators that need time-driven execution, e.g.
// window flushes. The HAU calls OnTick periodically with the current time.
type Ticker interface {
	OnTick(now int64, emit Emitter) error
}

// IncrementalSnapshotter is an optional checkpoint fast path for operators
// that track their own dirtiness. AppendSnapshot appends the encoded state
// to buf and reports whether the bytes differ from the previous
// AppendSnapshot call; when it reports false it must append nothing, and
// the caller reuses its cached copy of the previous encoding. The contract:
//
//   - The first call after construction MUST append and report true.
//   - Restore MUST mark the operator dirty, so the call after a restore
//     re-encodes (the caller's cache is gone).
//   - Reporting false promises the previously appended bytes are still
//     byte-identical — the encoding must be deterministic.
//
// Implement this on concrete operator types only, never on an embedded
// helper like Base: an embedded implementation would silently satisfy the
// interface for every operator that embeds it, capturing empty state.
type IncrementalSnapshotter interface {
	Operator
	AppendSnapshot(buf []byte) ([]byte, bool, error)
}

// PartitionedState is implemented by operators whose keyed state can be
// re-sharded across HAU replicas. The contract: Snapshot/AppendSnapshot
// encode the state as a partition slot table (partition.AppendTable) with
// PartitionSlots slots — each slot holding the state of exactly the keys
// with partition.SlotOf(key, PartitionSlots()) == slot — and Restore
// accepts any such table, including carved ones where foreign slots are
// empty. Non-keyed state (identity counters, models) goes in the table's
// residue, which a split copies to every replica and a merge takes from the
// first.
//
// PartitionSlots may return 0 for operators with no keyed state at all
// (residue-only); they are splittable because every replica just gets a
// residue copy.
//
// With this contract a split is "carve slots out of the drained blob" and a
// merge is slot-table concatenation — no operator-level re-encode.
type PartitionedState interface {
	Operator
	// PartitionSlots returns the slot-ring size of the snapshot encoding
	// (normally partition.DefaultSlots), or 0 for residue-only state.
	PartitionSlots() int
}

// Source is implemented by source operators: instead of consuming inputs
// they generate tuples. Generate is called by the HAU's clock; it returns
// the next batch (possibly empty). Generated tuples must carry fresh IDs so
// preservation and replay can identify them.
type Source interface {
	Operator
	Generate(now int64) []*tuple.Tuple
}

// Base provides Name and empty-state defaults for stateless operators.
type Base struct {
	OpName string
}

// Name returns the operator name.
func (b *Base) Name() string { return b.OpName }

// StateSize is zero for stateless operators.
func (b *Base) StateSize() int64 { return 0 }

// Snapshot of a stateless operator is empty.
func (b *Base) Snapshot() ([]byte, error) { return nil, nil }

// Restore of a stateless operator accepts any snapshot.
func (b *Base) Restore([]byte) error { return nil }

// ---------------------------------------------------------------------------

// Map applies a pure function to each tuple. A nil result drops the tuple
// (making Map double as a filter).
type Map struct {
	Base
	Fn func(*tuple.Tuple) *tuple.Tuple
}

// NewMap returns a stateless map/filter operator.
func NewMap(name string, fn func(*tuple.Tuple) *tuple.Tuple) *Map {
	return &Map{Base: Base{OpName: name}, Fn: fn}
}

// OnTuple applies Fn and forwards non-nil results to port 0.
func (m *Map) OnTuple(_ int, t *tuple.Tuple, emit Emitter) error {
	if out := m.Fn(t); out != nil {
		emit(0, out)
	}
	return nil
}

// Passthrough forwards every input tuple to every output port — the
// paper's Group operators (fan-in) and broadcast stages.
type Passthrough struct {
	Base
	Fanout int // number of output ports; 0 means 1
}

// NewPassthrough returns a fan-in/fan-out relay.
func NewPassthrough(name string, fanout int) *Passthrough {
	if fanout <= 0 {
		fanout = 1
	}
	return &Passthrough{Base: Base{OpName: name}, Fanout: fanout}
}

// OnTuple forwards t to all output ports.
func (p *Passthrough) OnTuple(_ int, t *tuple.Tuple, emit Emitter) error {
	for port := 0; port < p.Fanout; port++ {
		if port == p.Fanout-1 {
			emit(port, t)
		} else {
			emit(port, t.Clone())
		}
	}
	return nil
}

// Counter counts tuples per key — a simple stateful aggregate used in
// tests and the quickstart example.
type Counter struct {
	Base
	counts map[string]uint64
	clean  bool // true while counts match the last AppendSnapshot encoding
}

// NewCounter returns an empty per-key counter.
func NewCounter(name string) *Counter {
	return &Counter{Base: Base{OpName: name}, counts: make(map[string]uint64)}
}

// OnTuple increments the count for t.Key and emits a copy annotated with
// nothing (the running count stays internal).
func (c *Counter) OnTuple(_ int, t *tuple.Tuple, emit Emitter) error {
	c.counts[t.Key]++
	c.clean = false
	emit(0, t)
	return nil
}

// Count returns the current count for key.
func (c *Counter) Count(key string) uint64 { return c.counts[key] }

// Total returns the sum over all keys.
func (c *Counter) Total() uint64 {
	var n uint64
	for _, v := range c.counts {
		n += v
	}
	return n
}

// StateSize reports the map footprint.
func (c *Counter) StateSize() int64 {
	var n int64
	for k := range c.counts {
		n += int64(len(k)) + 8
	}
	return n
}

// PartitionSlots implements PartitionedState: counts are sharded over the
// default slot ring so a Counter HAU can be split across replicas.
func (c *Counter) PartitionSlots() int { return partition.DefaultSlots }

// Snapshot serializes the counts as a partition slot table. Keys are sorted
// within each slot so identical states produce identical bytes — a
// requirement for delta-checkpointing to find unchanged blocks.
func (c *Counter) Snapshot() ([]byte, error) {
	return c.appendState(nil), nil
}

// AppendSnapshot implements IncrementalSnapshotter: counts unchanged since
// the previous call encode as zero bytes.
func (c *Counter) AppendSnapshot(buf []byte) ([]byte, bool, error) {
	if c.clean {
		return buf, false, nil
	}
	c.clean = true
	return c.appendState(buf), true, nil
}

func (c *Counter) appendState(buf []byte) []byte {
	keys := make([]string, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	slots := make([][]byte, partition.DefaultSlots)
	for _, k := range keys {
		s := partition.SlotOf(k, len(slots))
		slots[s] = binary.LittleEndian.AppendUint16(slots[s], uint16(len(k)))
		slots[s] = append(slots[s], k...)
		slots[s] = binary.LittleEndian.AppendUint64(slots[s], c.counts[k])
	}
	return partition.AppendTable(buf, nil, slots)
}

// Restore rebuilds the counts from a slot table (possibly carved, with
// foreign slots empty) or the legacy flat encoding.
func (c *Counter) Restore(buf []byte) error {
	c.clean = false
	if partition.IsTable(buf) {
		_, slots, err := partition.ParseTable(buf)
		if err != nil {
			return err
		}
		c.counts = make(map[string]uint64)
		for _, sl := range slots {
			for len(sl) > 0 {
				if len(sl) < 2 {
					return errors.New("counter: truncated snapshot")
				}
				kl := int(binary.LittleEndian.Uint16(sl))
				sl = sl[2:]
				if len(sl) < kl+8 {
					return errors.New("counter: truncated snapshot")
				}
				c.counts[string(sl[:kl])] = binary.LittleEndian.Uint64(sl[kl:])
				sl = sl[kl+8:]
			}
		}
		return nil
	}
	if len(buf) < 4 {
		return errors.New("counter: short snapshot")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	c.counts = make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return errors.New("counter: truncated snapshot")
		}
		kl := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < kl+8 {
			return errors.New("counter: truncated snapshot")
		}
		k := string(buf[:kl])
		v := binary.LittleEndian.Uint64(buf[kl:])
		buf = buf[kl+8:]
		c.counts[k] = v
	}
	return nil
}
