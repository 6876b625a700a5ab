// Package partition implements keyed-state sharding for operator
// re-partitioning: a fixed ring of virtual slots over tuple keys, a
// slots->replica assignment table with minimal-move rescaling, a concurrent
// KeyRouter installed on upstream output ports, and a slot-table snapshot
// codec that lets the cluster carve one HAU's checkpoint into per-replica
// blobs (split) or concatenate replica blobs back together (merge) without
// re-encoding operator state.
//
// The design follows the re-partitioning literature (consistent virtual
// sharding as in Flink/Dataflow key groups): the slot count is fixed for
// the life of the application, keys hash onto slots with FNV-1a, and only
// the slot->replica table changes during a rescale. A key's slot never
// changes, so "which replica owns key k" is always derivable from the
// table alone, and state moves in whole slots.
package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSlots is the virtual-slot ring size. 256 slots bound table size
// (one byte-sized owner per slot) while still spreading hot key ranges over
// many more shards than any realistic replica count.
const DefaultSlots = 256

// SlotOf maps a tuple key onto the slot ring with FNV-1a — the same hash
// the operator library's Dispatch uses, so routing is deterministic across
// processes and replays.
func SlotOf(key string, slots int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(slots))
}

// ReplicaID names the tag-th replica incarnation of a base HAU. Tags are
// never reused within one split generation, so incarnation ids stay unique
// per epoch.
func ReplicaID(base string, tag int) string {
	return base + "~" + strconv.Itoa(tag)
}

// BaseID strips the replica tag, returning the graph-level HAU id.
func BaseID(id string) string {
	if i := strings.IndexByte(id, '~'); i >= 0 {
		return id[:i]
	}
	return id
}

// IsReplica reports whether id names a replica incarnation rather than a
// graph-level HAU.
func IsReplica(id string) bool { return strings.IndexByte(id, '~') >= 0 }

// Assignment is the slots->replica table: Owner(slot) is the index of the
// replica that owns the slot. The zero replica count is invalid; use
// NewAssignment.
type Assignment struct {
	owner    []int
	replicas int
}

// NewAssignment returns a table with every slot owned by replica 0.
func NewAssignment(slots int) *Assignment {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return &Assignment{owner: make([]int, slots), replicas: 1}
}

// Slots returns the ring size.
func (a *Assignment) Slots() int { return len(a.owner) }

// Replicas returns the current replica count.
func (a *Assignment) Replicas() int { return a.replicas }

// Owner returns the replica index owning slot.
func (a *Assignment) Owner(slot int) int { return a.owner[slot] }

// SlotsOf returns the slots owned by replica r, ascending.
func (a *Assignment) SlotsOf(r int) []int {
	var out []int
	for s, o := range a.owner {
		if o == r {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns an independent copy.
func (a *Assignment) Clone() *Assignment {
	return &Assignment{owner: append([]int(nil), a.owner...), replicas: a.replicas}
}

// targets returns the balanced per-replica slot quota for n replicas: the
// first slots%n replicas take one extra slot.
func targets(slots, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = slots / n
		if i < slots%n {
			t[i]++
		}
	}
	return t
}

// Rescale rebalances the table to n replicas with minimal movement: a slot
// moves only when its current owner is over the new balanced quota (grow)
// or no longer exists (shrink). Unmoved slots keep their owner — the
// stability property the router tests assert. Returns the moved slots.
func (a *Assignment) Rescale(n int) []int {
	if n <= 0 {
		n = 1
	}
	slots := len(a.owner)
	tgt := targets(slots, n)
	count := make([]int, n)
	var moved []int
	// First pass: credit every slot whose owner survives and is under quota.
	for s, o := range a.owner {
		if o < n && count[o] < tgt[o] {
			count[o]++
		} else {
			moved = append(moved, s)
		}
	}
	// Second pass: hand the moved slots to under-quota replicas in order.
	r := 0
	for _, s := range moved {
		for count[r] >= tgt[r] {
			r++
		}
		a.owner[s] = r
		count[r]++
	}
	a.replicas = n
	return moved
}

// loadShards spreads the per-slot load counters across independent banks so
// concurrent upstream HAUs routing the same hot slot don't serialize
// on one atomic word. Must be a power of two (shard pick masks a cheap
// per-goroutine random draw).
const loadShards = 8

// Router is the KeyRouter installed on upstream output ports: it resolves a
// tuple key to the replica index that owns its slot. Reads are lock-cheap
// (RWMutex read path); Update swaps the table during a rescale. Every Route
// also bumps a sharded per-slot counter, so the observed tuple distribution
// is available as Weights for skew-aware reassignment.
type Router struct {
	mu    sync.RWMutex
	slots int
	owner []int32
	loads []int64 // loadShards contiguous banks of per-slot counters
}

// NewRouter returns a router over the assignment's current table.
func NewRouter(a *Assignment) *Router {
	r := &Router{}
	r.Update(a)
	return r
}

// Slots returns the ring size.
func (r *Router) Slots() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.slots
}

// Route returns the replica index owning key's slot and counts the tuple
// against that slot's load.
func (r *Router) Route(key string) int {
	r.mu.RLock()
	slot := SlotOf(key, r.slots)
	idx := int(r.owner[slot])
	atomic.AddInt64(&r.loads[int(rand.Uint64()&(loadShards-1))*r.slots+slot], 1)
	r.mu.RUnlock()
	return idx
}

// Loads returns the tuples routed per slot since this router (or its
// current ring size) was installed. The snapshot is point-in-time:
// concurrent routing keeps counting while it runs.
func (r *Router) Loads() Weights {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w := make(Weights, r.slots)
	for sh := 0; sh < loadShards; sh++ {
		base := sh * r.slots
		for s := 0; s < r.slots; s++ {
			w[s] += atomic.LoadInt64(&r.loads[base+s])
		}
	}
	return w
}

// RouteSlot returns the replica index owning slot.
func (r *Router) RouteSlot(slot int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int(r.owner[slot])
}

// Update installs the assignment's current table. Load counters survive an
// update at the same ring size (the slots are the same slots); a ring-size
// change resets them.
func (r *Router) Update(a *Assignment) {
	owner := make([]int32, a.Slots())
	for s := range owner {
		owner[s] = int32(a.Owner(s))
	}
	r.mu.Lock()
	if r.slots != a.Slots() || r.loads == nil {
		r.loads = make([]int64, loadShards*a.Slots())
	}
	r.slots = a.Slots()
	r.owner = owner
	r.mu.Unlock()
}

// --- slot-table snapshot codec ----------------------------------------------
//
// Operators implementing operator.PartitionedState encode Snapshot() in this
// format (little endian):
//
//	u32 magic 0x4d535054 ("MSPT")
//	u32 nSlots (0 allowed: residue-only state)
//	u32 residueLen; residue bytes
//	nSlots x u32 slotLen
//	slot payloads, concatenated
//
// The residue is whatever per-operator state is not keyed (identity
// counters, models); a split copies it to every replica and a merge takes
// the first replica's. Slot payloads are self-contained per-slot state, so
// Carve and Merge are pure length-table surgery.

const tableMagic = 0x4d535054

var errShortTable = errors.New("partition: short slot table")

// AppendTable encodes a slot table onto buf.
func AppendTable(buf []byte, residue []byte, slots [][]byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, tableMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(slots)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(residue)))
	buf = append(buf, residue...)
	for _, s := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	}
	for _, s := range slots {
		buf = append(buf, s...)
	}
	return buf
}

// IsTable reports whether buf starts with the slot-table magic.
func IsTable(buf []byte) bool {
	return len(buf) >= 4 && binary.LittleEndian.Uint32(buf) == tableMagic
}

// ParseTable decodes a slot table. The returned slices alias buf.
func ParseTable(buf []byte) (residue []byte, slots [][]byte, err error) {
	if len(buf) < 12 {
		return nil, nil, errShortTable
	}
	if binary.LittleEndian.Uint32(buf) != tableMagic {
		return nil, nil, errors.New("partition: not a slot table")
	}
	nSlots := int(binary.LittleEndian.Uint32(buf[4:]))
	resLen := int(binary.LittleEndian.Uint32(buf[8:]))
	buf = buf[12:]
	if len(buf) < resLen {
		return nil, nil, errShortTable
	}
	residue = buf[:resLen]
	buf = buf[resLen:]
	if len(buf) < 4*nSlots {
		return nil, nil, errShortTable
	}
	lens := make([]int, nSlots)
	total := 0
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(buf[4*i:]))
		total += lens[i]
	}
	buf = buf[4*nSlots:]
	if len(buf) != total {
		return nil, nil, fmt.Errorf("%w: table wants %d payload bytes, have %d", errShortTable, total, len(buf))
	}
	slots = make([][]byte, nSlots)
	off := 0
	for i, n := range lens {
		slots[i] = buf[off : off+n]
		off += n
	}
	return residue, slots, nil
}

// Carve returns a new slot table keeping only the slots keep reports true
// for; dropped slots become empty. The residue is always kept. This is how
// a split carves one replica's share out of the drained base snapshot.
func Carve(buf []byte, keep func(slot int) bool) ([]byte, error) {
	residue, slots, err := ParseTable(buf)
	if err != nil {
		return nil, err
	}
	kept := make([][]byte, len(slots))
	for s, payload := range slots {
		if keep(s) {
			kept[s] = payload
		}
	}
	return AppendTable(nil, residue, kept), nil
}

// Merge concatenates the slot tables of all replicas back into one: slot s
// takes the unique non-empty payload across tables, and the residue comes
// from the first table. Two tables claiming the same slot is a protocol
// violation (the assignment is disjoint) and errors out.
func Merge(tables [][]byte) ([]byte, error) {
	if len(tables) == 0 {
		return nil, errors.New("partition: merge of zero tables")
	}
	var residue []byte
	var slots [][]byte
	for i, t := range tables {
		res, sl, err := ParseTable(t)
		if err != nil {
			return nil, fmt.Errorf("partition: table %d: %w", i, err)
		}
		if i == 0 {
			residue = res
			slots = make([][]byte, len(sl))
		} else if len(sl) != len(slots) {
			return nil, fmt.Errorf("partition: table %d has %d slots, want %d", i, len(sl), len(slots))
		}
		for s, payload := range sl {
			if len(payload) == 0 {
				continue
			}
			if len(slots[s]) != 0 {
				return nil, fmt.Errorf("partition: slot %d owned by two replicas", s)
			}
			slots[s] = payload
		}
	}
	return AppendTable(nil, residue, slots), nil
}
