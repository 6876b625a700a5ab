package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrNotFound reports a missing blob.
var ErrNotFound = errors.New("storage: not found")

// ErrUnavailable reports that the store (or the network path to it) is
// down, e.g. a node disconnected from the shared storage system.
var ErrUnavailable = errors.New("storage: unavailable")

// Store is a simulated blob store backed by a Disk. A Store stands in for
// either a node's local disk filesystem or the shared storage system; both
// expose the same interface so HAU recovery can fall back from local disk
// to shared storage transparently (paper §III-A: checkpoints are "saved in
// the shared storage system, and optionally saved again in the local
// disks").
type Store struct {
	disk *Disk

	mu    sync.RWMutex
	blobs map[string][]byte
	down  bool
}

// NewStore returns an empty store on a fresh disk with the given spec.
func NewStore(spec DiskSpec) *Store {
	return &Store{disk: NewDisk(spec), blobs: make(map[string][]byte)}
}

// Disk exposes the underlying disk for stats inspection.
func (s *Store) Disk() *Disk { return s.disk }

// SetDown marks the store unavailable (true) or available (false). While
// down, every operation fails with ErrUnavailable and costs nothing.
func (s *Store) SetDown(down bool) {
	s.mu.Lock()
	s.down = down
	s.mu.Unlock()
}

// Put stores a copy of data under key, charging disk write cost, and
// returns the modelled duration of the write. The caller keeps ownership of
// data and may mutate it afterwards.
func (s *Store) Put(key string, data []byte) (time.Duration, error) {
	s.mu.RLock()
	down := s.down
	s.mu.RUnlock()
	if down {
		return 0, ErrUnavailable
	}
	return s.PutOwned(key, append([]byte(nil), data...))
}

// PutOwned stores data under key without a defensive copy: ownership of the
// slice transfers to the store, and the caller must not mutate it
// afterwards (concurrent reads of the now-immutable bytes are fine).
// Checkpoint writers hand over freshly flattened blobs through this path so
// a checkpoint is copied at most once end-to-end.
func (s *Store) PutOwned(key string, data []byte) (time.Duration, error) {
	s.mu.RLock()
	down := s.down
	s.mu.RUnlock()
	if down {
		return 0, ErrUnavailable
	}
	d := s.disk.Write(int64(len(data)))
	s.mu.Lock()
	s.blobs[key] = data
	s.mu.Unlock()
	return d, nil
}

// Get retrieves the blob under key, charging disk read cost.
func (s *Store) Get(key string) ([]byte, time.Duration, error) {
	s.mu.RLock()
	down := s.down
	data, ok := s.blobs[key]
	s.mu.RUnlock()
	if down {
		return nil, 0, ErrUnavailable
	}
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	d := s.disk.Read(int64(len(data)))
	return append([]byte(nil), data...), d, nil
}

// Delete removes key if present. Deleting a missing key is a no-op, so
// buffer-trim acks can be idempotent.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrUnavailable
	}
	delete(s.blobs, key)
	return nil
}

// Has reports whether key exists (no disk cost: metadata lookup). A
// stored zero-byte blob exists: presence is a map lookup, not a nil
// check, so empty values (an operator with no state yet) are not
// mistaken for missing ones.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.down {
		return false
	}
	_, ok := s.blobs[key]
	return ok
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.blobs {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Size returns the stored byte total (no disk cost).
func (s *Store) Size() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blobs {
		n += int64(len(b))
	}
	return n
}
