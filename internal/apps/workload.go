package apps

import (
	"math/rand"
	"sync"

	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/vision"
)

// SinkRef tracks the live sink instance of an application. Recovery
// replaces operator instances, so tests and benchmarks read the sink
// through this indirection.
type SinkRef struct {
	mu   sync.Mutex
	sink *operator.Sink
}

// Set installs the current sink instance.
func (r *SinkRef) Set(s *operator.Sink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Get returns the current sink instance (nil before the app is built).
func (r *SinkRef) Get() *operator.Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// PositionPayload generates phone position reports for TMI: each source
// serves `phones` phones walking randomly; the report timestamp is the
// tuple id, which is strictly increasing per phone. pad appends raw call
// detail record bytes beyond the position fields (cell ids, signal
// metadata) — the paper's records are full anonymized CDRs, not bare
// coordinates, and preservation pays for the whole record. Each phone's
// name is built once, on its first report, so a report costs one
// allocation: its payload. Building the names lazily keeps them off
// recovery's critical path, which constructs every source again.
func PositionPayload(srcIdx, phones, pad int) operator.PayloadFn {
	prefix := "ph" + itoa(srcIdx) + "-"
	names := make([]string, phones)
	return func(id uint64, rng *rand.Rand) (string, []byte) {
		data := make([]byte, positionSize+pad)
		Position{
			X:    rng.Float64() * 1000,
			Y:    rng.Float64() * 1000,
			TsMS: int64(id),
		}.put(data)
		if pad > 0 {
			rng.Read(data[positionSize:])
		}
		k := int(id) % phones
		if names[k] == "" {
			names[k] = prefix + itoa(k)
		}
		return names[k], data
	}
}

// ImagePayload generates synthetic camera frames: w x h grayscale images
// with up to maxBlobs people/lights, keyed round-robin over `keys` cameras
// or intersections.
func ImagePayload(srcIdx, keys, w, h, maxBlobs int) operator.PayloadFn {
	return ImagePayloadPadded(srcIdx, keys, w, h, maxBlobs, 0)
}

// ImagePayloadPadded appends pad bytes of raw full-resolution frame after
// the analysis thumbnail: operators decode only the thumbnail, but the
// tuple carries (and preservation pays for) the whole frame — how a real
// vision pipeline ships frames alongside downsampled working copies.
func ImagePayloadPadded(srcIdx, keys, w, h, maxBlobs, pad int) operator.PayloadFn {
	return func(id uint64, rng *rand.Rand) (string, []byte) {
		key := "cam" + itoa(srcIdx) + "-" + itoa(int(id)%keys)
		im := vision.Synthesize(vision.SynthesizeOpts{
			W: w, H: h,
			Blobs:    rng.Intn(maxBlobs + 1),
			BlobSize: 4, // small blobs so modest frames fit MaxBlobs people
			Seed:     int64(id) ^ int64(srcIdx)<<32,
		})
		data := im.Marshal()
		if pad > 0 {
			raw := make([]byte, pad)
			rng.Read(raw)
			data = append(data, raw...)
		}
		return key, data
	}
}

// SensorPayload generates scalar sensor readings in [0, max) with
// occasional out-of-range noise (filtered by BCP's noise filter).
func SensorPayload(srcIdx, keys int, max float64) operator.PayloadFn {
	return func(id uint64, rng *rand.Rand) (string, []byte) {
		key := "bus" + itoa(srcIdx) + "-" + itoa(int(id)%keys)
		v := rng.Float64() * max
		if rng.Intn(20) == 0 {
			v = max * 10 // noise spike
		}
		return key, Reading{Value: v, TsMS: int64(id)}.Encode()
	}
}

// newSink builds the application sink wired to col and registered in ref.
func newSink(name string, col *metrics.Collector, ref *SinkRef, trackIdentity bool) *operator.Sink {
	s := operator.NewSink(name, col)
	s.TrackIdentity = trackIdentity
	if ref != nil {
		ref.Set(s)
	}
	return s
}
