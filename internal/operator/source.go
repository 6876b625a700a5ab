package operator

import (
	"encoding/binary"
	"errors"
	"math/rand"

	"meteorshower/internal/tuple"
)

// PayloadFn builds the payload and key for the i-th tuple of a source. Its
// source calls it from one goroutine, so a PayloadFn may keep unlocked
// state; give each source its own.
type PayloadFn func(id uint64, rng *rand.Rand) (key string, data []byte)

// RateSource generates tuples at a fixed average rate. It models the
// paper's data sources (base stations, cameras, on-vehicle sensors,
// iPhones): "a large number of data sources and at each data source the
// input data rate is low".
//
// Generation is deterministic given the seed and tuple id, so a restarted
// source regenerates the identical stream — required for recovery to be
// exact.
type RateSource struct {
	Base
	ID        string  // source HAU id stamped into tuples
	RatePerMS float64 // average tuples per simulated millisecond
	Payload   PayloadFn
	Seed      int64
	// CatchUpCap bounds how many tuples one Generate call may emit, so a
	// recovering application drains its backlog gradually ("it can
	// process the replayed tuples faster than usual to catch up").
	CatchUpCap int
	// MaxRate makes the source elastic: every Generate call offers
	// CatchUpCap tuples and downstream backpressure does the pacing —
	// modelling the paper's evaluation sources, which replay recorded
	// datasets as fast as the system absorbs them.
	MaxRate bool
	// Limit, when non-zero, stops generation once the cursor reaches it:
	// the source emits exactly the ids [0, Limit). A bounded stream gives
	// the chaos harness and the replay-equivalence tests a quiescent end
	// state to compare against.
	Limit uint64
	// RateFn, when set, makes the rate time-varying: it is evaluated at
	// every Generate call with the current clock and overrides RatePerMS.
	// Workload scenarios (diurnal curves, flash crowds) shape load with it;
	// tuple CONTENT stays a pure function of id, so bounded runs remain
	// replay-identical — only the emission timing moves.
	RateFn func(nowNS int64) float64

	nextID  uint64
	started bool
	credit  float64 // fractional tuples carried between calls
	lastNS  int64
	rng     *rand.Rand // reused across tuples, re-seeded per tuple

	snapped bool   // an AppendSnapshot encoding exists
	snapID  uint64 // cursor value it captured
}

// NewRateSource returns a source emitting ratePerMS tuples per millisecond.
func NewRateSource(id string, ratePerMS float64, seed int64, payload PayloadFn) *RateSource {
	return &RateSource{
		Base:       Base{OpName: id},
		ID:         id,
		RatePerMS:  ratePerMS,
		Payload:    payload,
		Seed:       seed,
		CatchUpCap: 256,
	}
}

// OnTuple is never called on a source (sources have no inputs).
func (s *RateSource) OnTuple(int, *tuple.Tuple, Emitter) error {
	return errors.New("source: received input tuple")
}

// Generate emits the tuples scheduled between the previous call and now.
func (s *RateSource) Generate(now int64) []*tuple.Tuple {
	if !s.started {
		s.started = true
		s.lastNS = now
		return nil
	}
	elapsedMS := float64(now-s.lastNS) / 1e6
	s.lastNS = now
	var n int
	if s.MaxRate {
		n = s.CatchUpCap
		if n <= 0 {
			n = 1
		}
	} else {
		rate := s.RatePerMS
		if s.RateFn != nil {
			rate = s.RateFn(now)
		}
		s.credit += elapsedMS * rate
		n = int(s.credit)
		if n <= 0 {
			return nil
		}
		if s.CatchUpCap > 0 && n > s.CatchUpCap {
			n = s.CatchUpCap
		}
		s.credit -= float64(n)
	}
	if s.Limit > 0 {
		if s.nextID >= s.Limit {
			return nil
		}
		if left := s.Limit - s.nextID; uint64(n) > left {
			n = int(left)
		}
	}
	if s.rng == nil {
		s.rng = rand.New(new(splitmix64))
	}
	out := make([]*tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		id := s.nextID
		s.nextID++
		// Re-keying the generator per tuple keeps regeneration
		// deterministic from any id, and splitmix64 makes the reseed O(1)
		// (math/rand's own source refills a 607-word table per Seed).
		s.rng.Seed(s.Seed ^ int64(id*2654435761))
		key, data := s.Payload(id, s.rng)
		out = append(out, tuple.NewAt(id, s.ID, key, now, data))
	}
	return out
}

// splitmix64 is a tiny rand.Source64 whose Seed is a single word store.
// Sources re-key it for every tuple, so constant-time seeding matters far
// more than period; splitmix64 passes BigCrush and is the standard
// seeder/stream-splitter for exactly this use.
type splitmix64 struct{ s uint64 }

func (m *splitmix64) Seed(seed int64) { m.s = uint64(seed) }

func (m *splitmix64) Uint64() uint64 {
	m.s += 0x9E3779B97F4A7C15
	z := m.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (m *splitmix64) Int63() int64 { return int64(m.Uint64() >> 1) }

// SkipPast advances the generator cursor past lastID. Recovery calls this
// after replaying preserved tuples so the source does not regenerate them.
func (s *RateSource) SkipPast(lastID uint64) {
	if lastID+1 > s.nextID {
		s.nextID = lastID + 1
	}
}

// NextID returns the id the next generated tuple will carry.
func (s *RateSource) NextID() uint64 { return s.nextID }

// Exhausted reports whether a bounded source has emitted its whole stream.
func (s *RateSource) Exhausted() bool { return s.Limit > 0 && s.nextID >= s.Limit }

// StateSize of a source is its fixed cursor block.
func (s *RateSource) StateSize() int64 { return 32 }

// Snapshot serializes the generation cursor.
func (s *RateSource) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, 24)
	buf = binary.LittleEndian.AppendUint64(buf, s.nextID)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.lastNS))
	return buf, nil
}

// AppendSnapshot implements IncrementalSnapshotter. Only the cursor
// survives a restore (Restore resets the clock fields), so the incremental
// encoding zeroes them: a source that generated nothing since the previous
// epoch is byte-identical and contributes no freeze cost.
func (s *RateSource) AppendSnapshot(buf []byte) ([]byte, bool, error) {
	if s.snapped && s.snapID == s.nextID {
		return buf, false, nil
	}
	s.snapped = true
	s.snapID = s.nextID
	buf = binary.LittleEndian.AppendUint64(buf, s.nextID)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, 0) // clock field, reset on restore
	return buf, true, nil
}

// Restore rebuilds the cursor. The time fields are reset so a restarted
// source resumes cleanly on the recovering node's clock.
func (s *RateSource) Restore(buf []byte) error {
	s.snapped = false
	if len(buf) < 24 {
		return errors.New("source: short snapshot")
	}
	s.nextID = binary.LittleEndian.Uint64(buf)
	s.started = false
	s.lastNS = 0
	s.credit = 0
	return nil
}

// BytePayload returns a PayloadFn producing fixed-size opaque payloads with
// a key drawn from nKeys buckets. Each key name is built once, on first
// use, so a tuple costs one allocation: its payload.
func BytePayload(size, nKeys int) PayloadFn {
	keys := make([]string, nKeys)
	return func(id uint64, rng *rand.Rand) (string, []byte) {
		data := make([]byte, size)
		rng.Read(data)
		k := int(id) % nKeys
		if keys[k] == "" {
			keys[k] = "k" + itoa(k)
		}
		return keys[k], data
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
