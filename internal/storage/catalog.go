package storage

import (
	"fmt"
	"sync"
	"time"

	"meteorshower/internal/delta"
)

// Catalog tracks application checkpoints on a Store. An application
// checkpoint for epoch e is complete once every member HAU has saved its
// individual checkpoint for e (paper §III-A: "an application's checkpoint
// contains the individual checkpoints of all HAUs"). Recovery always uses
// the Most Recent *Complete* Checkpoint: a failure can strike mid-epoch, in
// which case the half-written epoch must be ignored.
type Catalog struct {
	store *Store

	mu       sync.Mutex
	members  map[string]bool
	done     map[uint64]map[string]bool
	complete []uint64 // ascending epochs with all members saved
	// deltaBase records, for delta-checkpointed entries, the epoch the
	// delta was computed against: deltaBase[epoch][hau] = base epoch.
	deltaBase map[uint64]map[string]uint64
}

// NewCatalog returns a catalog over store for an application whose HAU ids
// are members.
func NewCatalog(store *Store, members []string) *Catalog {
	m := make(map[string]bool, len(members))
	for _, id := range members {
		m[id] = true
	}
	return &Catalog{
		store:     store,
		members:   m,
		done:      make(map[uint64]map[string]bool),
		deltaBase: make(map[uint64]map[string]uint64),
	}
}

// Store returns the backing store.
func (c *Catalog) Store() *Store { return c.store }

// SetMembers replaces the member set — a rescale changes which incarnations
// an application checkpoint must contain. Epochs already marked complete
// stay complete; in-flight epochs are judged against the new membership, so
// callers must quiesce checkpointing across the change.
func (c *Catalog) SetMembers(members []string) {
	m := make(map[string]bool, len(members))
	for _, id := range members {
		m[id] = true
	}
	c.mu.Lock()
	c.members = m
	c.mu.Unlock()
}

// Members returns the current member ids (unordered).
func (c *Catalog) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.members))
	for id := range c.members {
		out = append(out, id)
	}
	return out
}

func stateKey(epoch uint64, hau string) string {
	return fmt.Sprintf("ckpt/%016d/%s", epoch, hau)
}

// SaveState persists one HAU's individual checkpoint for epoch and records
// progress toward epoch completion. It returns the modelled write duration
// and whether this save completed the application checkpoint. The caller
// keeps ownership of state.
func (c *Catalog) SaveState(epoch uint64, hau string, state []byte) (time.Duration, bool, error) {
	return c.saveState(epoch, hau, state, false)
}

// SaveStateOwned is SaveState with ownership transfer: state is stored
// without a defensive copy and the caller must not mutate it afterwards.
func (c *Catalog) SaveStateOwned(epoch uint64, hau string, state []byte) (time.Duration, bool, error) {
	return c.saveState(epoch, hau, state, true)
}

func (c *Catalog) saveState(epoch uint64, hau string, state []byte, owned bool) (time.Duration, bool, error) {
	c.mu.Lock()
	if !c.members[hau] {
		c.mu.Unlock()
		return 0, false, fmt.Errorf("catalog: unknown HAU %q", hau)
	}
	c.mu.Unlock()

	var d time.Duration
	var err error
	if owned {
		d, err = c.store.PutOwned(stateKey(epoch, hau), state)
	} else {
		d, err = c.store.Put(stateKey(epoch, hau), state)
	}
	if err != nil {
		return d, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.done[epoch]
	if set == nil {
		set = make(map[string]bool)
		c.done[epoch] = set
	}
	set[hau] = true
	if len(set) == len(c.members) {
		c.complete = append(c.complete, epoch)
		// Keep ascending order; epochs normally arrive in order but a
		// slow writer can complete an older epoch late.
		for i := len(c.complete) - 1; i > 0 && c.complete[i] < c.complete[i-1]; i-- {
			c.complete[i], c.complete[i-1] = c.complete[i-1], c.complete[i]
		}
		return d, true, nil
	}
	return d, false, nil
}

// SaveStateDelta persists one HAU's checkpoint as a delta against its
// checkpoint for base (delta-checkpointing, paper §V). Progress tracking
// matches SaveState; recovery resolves the chain transparently.
func (c *Catalog) SaveStateDelta(epoch uint64, hau string, diff []byte, base uint64) (time.Duration, bool, error) {
	return c.saveStateDelta(epoch, hau, diff, base, false)
}

// SaveStateDeltaOwned is SaveStateDelta with ownership transfer of diff.
func (c *Catalog) SaveStateDeltaOwned(epoch uint64, hau string, diff []byte, base uint64) (time.Duration, bool, error) {
	return c.saveStateDelta(epoch, hau, diff, base, true)
}

func (c *Catalog) saveStateDelta(epoch uint64, hau string, diff []byte, base uint64, owned bool) (time.Duration, bool, error) {
	c.mu.Lock()
	if !c.members[hau] {
		c.mu.Unlock()
		return 0, false, fmt.Errorf("catalog: unknown HAU %q", hau)
	}
	if c.done[base] == nil || !c.done[base][hau] {
		c.mu.Unlock()
		return 0, false, fmt.Errorf("catalog: delta base epoch %d missing for %q", base, hau)
	}
	m := c.deltaBase[epoch]
	if m == nil {
		m = make(map[string]uint64)
		c.deltaBase[epoch] = m
	}
	m[hau] = base
	c.mu.Unlock()
	return c.saveState(epoch, hau, diff, owned)
}

// LoadState reads one HAU's individual checkpoint for epoch, resolving
// delta chains back to the most recent full save. The returned duration
// accumulates every read in the chain — delta recovery really does cost
// extra reads, which the Fig. 16 ablation measures.
func (c *Catalog) LoadState(epoch uint64, hau string) ([]byte, time.Duration, error) {
	blob, dur, err := c.store.Get(stateKey(epoch, hau))
	if err != nil {
		return nil, dur, err
	}
	c.mu.Lock()
	base, isDelta := c.deltaBase[epoch][hau]
	c.mu.Unlock()
	if !isDelta {
		return blob, dur, nil
	}
	baseBlob, baseDur, err := c.LoadState(base, hau)
	if err != nil {
		return nil, dur + baseDur, fmt.Errorf("catalog: delta base for epoch %d: %w", epoch, err)
	}
	full, err := delta.Apply(baseBlob, blob)
	if err != nil {
		return nil, dur + baseDur, fmt.Errorf("catalog: epoch %d hau %s: %w", epoch, hau, err)
	}
	return full, dur + baseDur, nil
}

// MostRecentComplete returns the highest epoch whose application checkpoint
// is complete, and false if no complete checkpoint exists yet (in which
// case recovery restarts the application from scratch).
func (c *Catalog) MostRecentComplete() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.complete) == 0 {
		return 0, false
	}
	return c.complete[len(c.complete)-1], true
}

// WaitForEpoch polls until an application checkpoint at or above epoch
// is complete, and fails once timeout elapses first.
func (c *Catalog) WaitForEpoch(epoch uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e, ok := c.MostRecentComplete(); ok && e >= epoch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("catalog: epoch %d did not complete within %s", epoch, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// CompleteEpochs returns every complete epoch, newest first. Recovery
// walks this list when the newest complete checkpoint turns out to be
// unloadable (lost or corrupted blobs) and an older one must serve.
func (c *Catalog) CompleteEpochs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.complete))
	for i, e := range c.complete {
		out[len(c.complete)-1-i] = e
	}
	return out
}

// LatestEpochFor returns the highest epoch hau has saved an individual
// checkpoint for. Baseline recovery uses per-HAU latest checkpoints since
// its HAUs checkpoint independently rather than per application epoch.
func (c *Catalog) LatestEpochFor(hau string) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best uint64
	found := false
	for e, set := range c.done {
		if set[hau] && (!found || e > best) {
			best = e
			found = true
		}
	}
	return best, found
}

// EpochProgress reports how many members have saved epoch.
func (c *Catalog) EpochProgress(epoch uint64) (saved, total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done[epoch]), len(c.members)
}

// GC removes all checkpoint blobs older than keep, freeing simulated
// storage. The epoch `keep` itself, anything newer, and any older epochs
// that a retained delta chain still needs as bases all survive.
func (c *Catalog) GC(keep uint64) {
	c.mu.Lock()
	// Walk delta chains from every retained epoch down to their bases.
	minNeeded := keep
	for e := range c.done {
		if e < keep {
			continue
		}
		cur := e
		for {
			bases, ok := c.deltaBase[cur]
			if !ok || len(bases) == 0 {
				break
			}
			var lowest uint64
			first := true
			for _, b := range bases {
				if first || b < lowest {
					lowest = b
					first = false
				}
			}
			if lowest >= cur {
				break
			}
			cur = lowest
			if cur < minNeeded {
				minNeeded = cur
			}
		}
	}
	keep = minNeeded
	var drop []uint64
	for e := range c.done {
		if e < keep {
			drop = append(drop, e)
		}
	}
	for _, e := range drop {
		delete(c.deltaBase, e)
	}
	for _, e := range drop {
		delete(c.done, e)
	}
	kept := c.complete[:0]
	for _, e := range c.complete {
		if e >= keep {
			kept = append(kept, e)
		}
	}
	c.complete = kept
	members := make([]string, 0, len(c.members))
	for id := range c.members {
		members = append(members, id)
	}
	c.mu.Unlock()

	for _, e := range drop {
		for _, id := range members {
			_ = c.store.Delete(stateKey(e, id))
		}
	}
}
