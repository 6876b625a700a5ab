// Package apps implements the paper's three evaluation applications —
// Transportation Mode Inference (TMI), Bus Capacity Prediction (BCP) and
// SignalGuru — as query networks over the operator library, with synthetic
// workload generators shaped to reproduce the published state-size
// behaviour (Fig. 5).
//
// All derived tuples are stamped with the emitting operator's own identity
// (Src = operator name, ID = monotonic counter) so baseline recovery's
// per-source duplicate suppression stays sound for derived streams.
package apps

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"time"

	"meteorshower/internal/kmeans"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/svm"
	"meteorshower/internal/tuple"
	"meteorshower/internal/vision"
)

// identity stamps derived tuples with a stable per-operator identity.
type identity struct {
	name string
	next uint64
}

func (id *identity) stamp(t *tuple.Tuple) *tuple.Tuple {
	id.next++
	t.Src = id.name
	t.ID = id.next
	return t
}

func (id *identity) snapshot() []byte {
	return binary.LittleEndian.AppendUint64(nil, id.next)
}

func (id *identity) restore(buf []byte) error {
	if len(buf) < 8 {
		return errors.New("apps: short identity snapshot")
	}
	id.next = binary.LittleEndian.Uint64(buf)
	return nil
}

// --- payload encodings -----------------------------------------------------

func putF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func getF64(buf []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// Position is a phone position report (TMI source payload).
type Position struct {
	X, Y float64
	TsMS int64
}

// positionSize is the encoded length of a Position.
const positionSize = 24

// Encode serializes p.
func (p Position) Encode() []byte {
	buf := make([]byte, positionSize)
	p.put(buf)
	return buf
}

// put writes p's encoding into buf[:positionSize].
func (p Position) put(buf []byte) {
	binary.LittleEndian.PutUint64(buf, math.Float64bits(p.X))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
	binary.LittleEndian.PutUint64(buf[16:], uint64(p.TsMS))
}

// DecodePosition parses a Position payload.
func DecodePosition(buf []byte) (Position, error) {
	if len(buf) < positionSize {
		return Position{}, errors.New("apps: short position payload")
	}
	return Position{
		X:    getF64(buf),
		Y:    getF64(buf[8:]),
		TsMS: int64(binary.LittleEndian.Uint64(buf[16:])),
	}, nil
}

// Speed is a derived speed observation (TMI pair output).
type Speed struct {
	V        float64
	RefSpeed float64 // filled in by the GoogleMap operator
}

// Encode serializes s.
func (s Speed) Encode() []byte {
	return s.append(make([]byte, 0, 16))
}

// append appends s's 16-byte encoding to buf.
func (s Speed) append(buf []byte) []byte {
	return putF64(putF64(buf, s.V), s.RefSpeed)
}

// speedTuple is a Speed output tuple and its payload in one allocation.
// The payload array lives inside the object, and tuple.Put resets only the
// header, so a recycled header never rewrites bytes another holder may
// still reference.
type speedTuple struct {
	t   tuple.Tuple
	buf [16]byte
}

// newSpeedTuple returns a tuple carrying s's encoding under key, stamped ts.
func newSpeedTuple(key string, ts int64, s Speed) *tuple.Tuple {
	st := &speedTuple{}
	st.t = tuple.Tuple{Key: key, Ts: ts, Data: s.append(st.buf[:0])}
	return &st.t
}

// DecodeSpeed parses a Speed payload.
func DecodeSpeed(buf []byte) (Speed, error) {
	if len(buf) < 16 {
		return Speed{}, errors.New("apps: short speed payload")
	}
	return Speed{V: getF64(buf), RefSpeed: getF64(buf[8:])}, nil
}

// Reading is a scalar sensor observation (BCP infrared, SignalGuru phase).
type Reading struct {
	Value float64
	TsMS  int64
}

// Encode serializes r.
func (r Reading) Encode() []byte {
	buf := make([]byte, 0, 16)
	buf = putF64(buf, r.Value)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TsMS))
	return buf
}

// DecodeReading parses a Reading payload.
func DecodeReading(buf []byte) (Reading, error) {
	if len(buf) < 16 {
		return Reading{}, errors.New("apps: short reading payload")
	}
	return Reading{Value: getF64(buf), TsMS: int64(binary.LittleEndian.Uint64(buf[8:]))}, nil
}

// --- TMI operators ----------------------------------------------------------

// PairOp is TMI's Pair operator: "calculating speed from position data". It
// keeps the previous position per phone and emits a Speed tuple for each
// consecutive pair. Its keyed state is sharded over the partition slot ring
// (operator.PartitionedState) so a hot Pair HAU can be split across
// replicas.
type PairOp struct {
	id   identity
	last map[string]Position

	// WorkNS models a compute-bound operator: every tuple costs WorkNS
	// nanoseconds of service time on the replica's own (simulated) node.
	// Used by the rescale benchmark to show throughput scaling with
	// replica count. Zero in production topologies.
	WorkNS int64
	// debt is unserved WorkNS time; it is paid in ~1ms timer sleeps
	// (yielding the simulation host) rather than busy-spins, so host core
	// count does not serialize the simulated replicas.
	debt int64
}

// NewPairOp returns an empty pair operator.
func NewPairOp(name string) *PairOp {
	return &PairOp{id: identity{name: name}, last: make(map[string]Position)}
}

// Name implements operator.Operator.
func (p *PairOp) Name() string { return p.id.name }

// OnTuple pairs the position with the phone's previous one.
func (p *PairOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	pos, err := DecodePosition(t.Data)
	if err != nil {
		return err
	}
	if p.WorkNS > 0 {
		p.debt += p.WorkNS
		if p.debt >= int64(time.Millisecond) {
			start := time.Now()
			time.Sleep(time.Duration(p.debt))
			p.debt -= time.Since(start).Nanoseconds() // oversleep is credit
		}
	}
	prev, ok := p.last[t.Key]
	p.last[t.Key] = pos
	if !ok || pos.TsMS <= prev.TsMS {
		return nil
	}
	dx, dy := pos.X-prev.X, pos.Y-prev.Y
	v := math.Sqrt(dx*dx+dy*dy) / float64(pos.TsMS-prev.TsMS)
	emit(0, p.id.stamp(newSpeedTuple(t.Key, t.Ts, Speed{V: v})))
	return nil
}

// StateSize reports the per-phone position map.
func (p *PairOp) StateSize() int64 {
	var n int64
	for k := range p.last {
		n += int64(len(k)) + 32
	}
	return n
}

// PartitionSlots implements operator.PartitionedState.
func (p *PairOp) PartitionSlots() int { return partition.DefaultSlots }

// Snapshot serializes the map as a partition slot table; the identity
// counter rides in the residue so every replica of a split continues the
// numbering (downstream operators restamp, so replica overlap is harmless).
func (p *PairOp) Snapshot() ([]byte, error) {
	slots := make([][]byte, partition.DefaultSlots)
	for _, k := range sortedKeys(p.last) {
		s := partition.SlotOf(k, len(slots))
		slots[s] = binary.LittleEndian.AppendUint16(slots[s], uint16(len(k)))
		slots[s] = append(slots[s], k...)
		slots[s] = append(slots[s], p.last[k].Encode()...)
	}
	return partition.AppendTable(nil, p.id.snapshot(), slots), nil
}

// Restore rebuilds the map from a slot table (possibly carved) or the
// legacy flat encoding.
func (p *PairOp) Restore(buf []byte) error {
	if partition.IsTable(buf) {
		residue, slots, err := partition.ParseTable(buf)
		if err != nil {
			return err
		}
		if err := p.id.restore(residue); err != nil {
			return err
		}
		p.last = make(map[string]Position)
		for _, sl := range slots {
			for len(sl) > 0 {
				if len(sl) < 2 {
					return errors.New("apps: truncated pair snapshot")
				}
				kl := int(binary.LittleEndian.Uint16(sl))
				sl = sl[2:]
				if len(sl) < kl+24 {
					return errors.New("apps: truncated pair snapshot")
				}
				pos, err := DecodePosition(sl[kl:])
				if err != nil {
					return err
				}
				p.last[string(sl[:kl])] = pos
				sl = sl[kl+24:]
			}
		}
		return nil
	}
	if err := p.id.restore(buf); err != nil {
		return err
	}
	buf = buf[8:]
	if len(buf) < 4 {
		return errors.New("apps: short pair snapshot")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	p.last = make(map[string]Position, n)
	for i := 0; i < n; i++ {
		if len(buf) < 2 {
			return errors.New("apps: truncated pair snapshot")
		}
		kl := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		if len(buf) < kl+24 {
			return errors.New("apps: truncated pair snapshot")
		}
		k := string(buf[:kl])
		pos, err := DecodePosition(buf[kl:])
		if err != nil {
			return err
		}
		buf = buf[kl+24:]
		p.last[k] = pos
	}
	return nil
}

// RefSpeedOp is TMI's GoogleMap operator: it annotates each Speed with the
// reference speed for the phone's current road (derived deterministically
// from the key — the paper downloads it from Google Maps) and broadcasts
// the result to all Group operators.
type RefSpeedOp struct {
	id     identity
	Fanout int
}

// NewRefSpeedOp returns a reference-speed annotator with the given fanout.
func NewRefSpeedOp(name string, fanout int) *RefSpeedOp {
	if fanout <= 0 {
		fanout = 1
	}
	return &RefSpeedOp{id: identity{name: name}, Fanout: fanout}
}

// Name implements operator.Operator.
func (m *RefSpeedOp) Name() string { return m.id.name }

// OnTuple annotates and routes to the Group operator chosen by key hash.
// (Each GoogleMap connects to all Groups; any single tuple goes to the
// group that owns its phone.)
func (m *RefSpeedOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	sp, err := DecodeSpeed(t.Data)
	if err != nil {
		return err
	}
	sp.RefSpeed = refSpeedFor(t.Key)
	emit(int(hash(t.Key)%uint64(m.Fanout)), m.id.stamp(newSpeedTuple(t.Key, t.Ts, sp)))
	return nil
}

func refSpeedFor(key string) float64 {
	return 5 + float64(hash(key)%90) // 5..95 "km/h" per road
}

// StateSize is zero (stateless annotator).
func (m *RefSpeedOp) StateSize() int64 { return 0 }

// Snapshot carries only the identity counter.
func (m *RefSpeedOp) Snapshot() ([]byte, error) { return m.id.snapshot(), nil }

// Restore rebuilds the identity counter.
func (m *RefSpeedOp) Restore(buf []byte) error { return m.id.restore(buf) }

// KMeansOp is TMI's k-means operator: it pools Speed tuples for a window,
// clusters them at the window boundary, emits one tuple per cluster, then
// discards the pool — producing the sawtooth state of Fig. 5a.
type KMeansOp struct {
	id       identity
	K        int
	WindowNS int64
	Seed     int64

	pool    []kmeans.Point
	poolB   int64
	firstAt int64
	lastAt  int64
}

// NewKMeansOp returns a k-means operator over windowNS windows.
func NewKMeansOp(name string, k int, windowNS int64, seed int64) *KMeansOp {
	return &KMeansOp{id: identity{name: name}, K: k, WindowNS: windowNS, Seed: seed}
}

// Name implements operator.Operator.
func (a *KMeansOp) Name() string { return a.id.name }

// OnTuple pools the speed observation.
func (a *KMeansOp) OnTuple(_ int, t *tuple.Tuple, _ operator.Emitter) error {
	sp, err := DecodeSpeed(t.Data)
	if err != nil {
		return err
	}
	if len(a.pool) == 0 {
		a.firstAt = t.Ts
	}
	if t.Ts > a.lastAt {
		a.lastAt = t.Ts
	}
	a.pool = append(a.pool, kmeans.Point{sp.V, sp.RefSpeed})
	a.poolB += 16 + 24 // vector + slice overhead: mirrors retained tuples
	return nil
}

// OnTick clusters and flushes at the window boundary.
func (a *KMeansOp) OnTick(now int64, emit operator.Emitter) error {
	if len(a.pool) == 0 || now-a.firstAt < a.WindowNS {
		return nil
	}
	k := a.K
	if k > len(a.pool) {
		k = len(a.pool)
	}
	res, err := kmeans.Cluster(a.pool, kmeans.Config{K: k, Seed: a.Seed, MaxIter: 10})
	if err != nil {
		return err
	}
	for i, c := range res.Centroids {
		out := &tuple.Tuple{
			Key: "cluster" + itoa(i),
			// Carry the newest pooled observation's event time so the
			// sink's end-to-end latency reflects pipeline delays rather
			// than resetting at every window boundary.
			Ts:   a.lastAt,
			Data: Speed{V: c[0], RefSpeed: c[1]}.Encode(),
		}
		emit(0, a.id.stamp(out))
	}
	a.pool = nil
	a.poolB = 0
	return nil
}

// PoolLen returns the number of pooled observations.
func (a *KMeansOp) PoolLen() int { return len(a.pool) }

// StateSize reports the pooled bytes — the sawtooth.
func (a *KMeansOp) StateSize() int64 { return a.poolB }

// Snapshot serializes the pool.
func (a *KMeansOp) Snapshot() ([]byte, error) {
	buf := a.id.snapshot()
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.firstAt))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.lastAt))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.pool)))
	for _, p := range a.pool {
		buf = putF64(buf, p[0])
		buf = putF64(buf, p[1])
	}
	return buf, nil
}

// Restore rebuilds the pool.
func (a *KMeansOp) Restore(buf []byte) error {
	if err := a.id.restore(buf); err != nil {
		return err
	}
	buf = buf[8:]
	if len(buf) < 20 {
		return errors.New("apps: short kmeans snapshot")
	}
	a.firstAt = int64(binary.LittleEndian.Uint64(buf))
	a.lastAt = int64(binary.LittleEndian.Uint64(buf[8:]))
	n := int(binary.LittleEndian.Uint32(buf[16:]))
	buf = buf[20:]
	if len(buf) < n*16 {
		return errors.New("apps: truncated kmeans snapshot")
	}
	a.pool = make([]kmeans.Point, n)
	a.poolB = 0
	for i := 0; i < n; i++ {
		a.pool[i] = kmeans.Point{getF64(buf), getF64(buf[8:])}
		buf = buf[16:]
		a.poolB += 16 + 24
	}
	return nil
}

// --- BCP operators ----------------------------------------------------------

// CountPeopleOp is BCP's Counter: it decodes a camera image and counts the
// people in it via connected components.
type CountPeopleOp struct {
	id identity
}

// NewCountPeopleOp returns a people counter.
func NewCountPeopleOp(name string) *CountPeopleOp {
	return &CountPeopleOp{id: identity{name: name}}
}

// Name implements operator.Operator.
func (c *CountPeopleOp) Name() string { return c.id.name }

// OnTuple counts blobs and emits the count. Only the analysis thumbnail at
// the front of the payload is decoded.
func (c *CountPeopleOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	im, _, err := vision.UnmarshalImagePrefix(t.Data)
	if err != nil {
		return err
	}
	n := vision.CountBlobs(im, 150, 4)
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: float64(n), TsMS: t.Ts / 1e6}.Encode()}
	emit(0, c.id.stamp(out))
	return nil
}

// StateSize is zero.
func (c *CountPeopleOp) StateSize() int64 { return 0 }

// Snapshot carries only the identity counter.
func (c *CountPeopleOp) Snapshot() ([]byte, error) { return c.id.snapshot(), nil }

// Restore rebuilds the identity counter.
func (c *CountPeopleOp) Restore(buf []byte) error { return c.id.restore(buf) }

// HistoryOp is BCP's Historical image processing operator: it saves the
// recent images of each camera (to disambiguate occluded people), and
// discards a camera's images upon bus arrival — every ArriveEvery images —
// producing the fluctuating state of Fig. 5b. On each arrival it emits the
// stationary-person count derived from the history.
type HistoryOp struct {
	id          identity
	ArriveEvery int

	frames map[string][]*vision.Image
	counts map[string]int
	bytes  int64
}

// NewHistoryOp returns a historical-image operator; a bus "arrives" at a
// camera after every arriveEvery frames.
func NewHistoryOp(name string, arriveEvery int) *HistoryOp {
	if arriveEvery <= 0 {
		arriveEvery = 16
	}
	return &HistoryOp{
		id:          identity{name: name},
		ArriveEvery: arriveEvery,
		frames:      make(map[string][]*vision.Image),
		counts:      make(map[string]int),
	}
}

// Name implements operator.Operator.
func (h *HistoryOp) Name() string { return h.id.name }

// OnTuple stores the frame; on bus arrival it analyses and clears the
// camera's history.
func (h *HistoryOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	im, _, err := vision.UnmarshalImagePrefix(t.Data)
	if err != nil {
		return err
	}
	h.frames[t.Key] = append(h.frames[t.Key], im)
	h.bytes += im.ByteSize()
	h.counts[t.Key]++
	if h.counts[t.Key]%h.ArriveEvery != 0 {
		return nil
	}
	// Bus arrival: waiting people are those present across frames.
	mask, err := vision.StationaryBright(h.frames[t.Key], 150, 0.6)
	if err != nil {
		return err
	}
	n := vision.CountBlobs(mask, 150, 4)
	for _, f := range h.frames[t.Key] {
		h.bytes -= f.ByteSize()
	}
	delete(h.frames, t.Key)
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: float64(n), TsMS: t.Ts / 1e6}.Encode()}
	emit(0, h.id.stamp(out))
	return nil
}

// FrameCount returns the stored frame total.
func (h *HistoryOp) FrameCount() int {
	n := 0
	for _, fs := range h.frames {
		n += len(fs)
	}
	return n
}

// StateSize reports stored image bytes.
func (h *HistoryOp) StateSize() int64 { return h.bytes }

// Snapshot serializes the per-camera histories.
func (h *HistoryOp) Snapshot() ([]byte, error) {
	buf := h.id.snapshot()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.frames)))
	for _, k := range sortedKeys(h.frames) {
		fs := h.frames[k]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.counts[k]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fs)))
		for _, f := range fs {
			enc := f.Marshal()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(enc)))
			buf = append(buf, enc...)
		}
	}
	// Cameras with counts but no pending frames.
	var rest []string
	for _, k := range sortedKeys(h.counts) {
		if _, ok := h.frames[k]; !ok {
			rest = append(rest, k)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rest)))
	for _, k := range rest {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.counts[k]))
	}
	return buf, nil
}

// Restore rebuilds the histories.
func (h *HistoryOp) Restore(buf []byte) error {
	if err := h.id.restore(buf); err != nil {
		return err
	}
	buf = buf[8:]
	r := bufReader{buf: buf}
	nCam, err := r.u32()
	if err != nil {
		return err
	}
	h.frames = make(map[string][]*vision.Image, nCam)
	h.counts = make(map[string]int)
	h.bytes = 0
	for i := uint32(0); i < nCam; i++ {
		k, err := r.str16()
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		h.counts[k] = int(cnt)
		nf, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nf; j++ {
			enc, err := r.bytes()
			if err != nil {
				return err
			}
			im, err := vision.UnmarshalImage(enc)
			if err != nil {
				return err
			}
			h.frames[k] = append(h.frames[k], im)
			h.bytes += im.ByteSize()
		}
	}
	nRest, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nRest; i++ {
		k, err := r.str16()
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		h.counts[k] = int(cnt)
	}
	return nil
}

// EMAPredictOp is a one-value-per-key exponential-moving-average predictor
// — BCP's boarding (B), bus-arrival (A) and alighting (L) prediction
// models. It emits its updated prediction for the key on every input.
type EMAPredictOp struct {
	id    identity
	Alpha float64
	ema   map[string]float64
}

// NewEMAPredictOp returns an EMA predictor with smoothing alpha.
func NewEMAPredictOp(name string, alpha float64) *EMAPredictOp {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EMAPredictOp{id: identity{name: name}, Alpha: alpha, ema: make(map[string]float64)}
}

// Name implements operator.Operator.
func (e *EMAPredictOp) Name() string { return e.id.name }

// OnTuple updates the EMA and emits the prediction.
func (e *EMAPredictOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	rd, err := DecodeReading(t.Data)
	if err != nil {
		return err
	}
	prev, ok := e.ema[t.Key]
	if !ok {
		prev = rd.Value
	}
	cur := e.Alpha*rd.Value + (1-e.Alpha)*prev
	e.ema[t.Key] = cur
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: cur, TsMS: rd.TsMS}.Encode()}
	emit(0, e.id.stamp(out))
	return nil
}

// Prediction returns the current EMA for key.
func (e *EMAPredictOp) Prediction(key string) (float64, bool) {
	v, ok := e.ema[key]
	return v, ok
}

// StateSize reports the EMA map.
func (e *EMAPredictOp) StateSize() int64 {
	var n int64
	for k := range e.ema {
		n += int64(len(k)) + 8
	}
	return n
}

// Snapshot serializes the EMA map.
func (e *EMAPredictOp) Snapshot() ([]byte, error) {
	buf := e.id.snapshot()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.ema)))
	for _, k := range sortedKeys(e.ema) {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = putF64(buf, e.ema[k])
	}
	return buf, nil
}

// Restore rebuilds the EMA map.
func (e *EMAPredictOp) Restore(buf []byte) error {
	if err := e.id.restore(buf); err != nil {
		return err
	}
	r := bufReader{buf: buf[8:]}
	n, err := r.u32()
	if err != nil {
		return err
	}
	e.ema = make(map[string]float64, n)
	for i := uint32(0); i < n; i++ {
		k, err := r.str16()
		if err != nil {
			return err
		}
		v, err := r.f64()
		if err != nil {
			return err
		}
		e.ema[k] = v
	}
	return nil
}

// RangeFilterOp drops readings outside [Lo, Hi] — BCP's noise filter (N).
// In-range readings are forwarded to every output port (BCP's N feeds both
// the arrival and the alighting predictors).
type RangeFilterOp struct {
	id     identity
	Lo, Hi float64
	Fanout int
}

// NewRangeFilterOp returns a band filter for sensor readings.
func NewRangeFilterOp(name string, lo, hi float64, fanout int) *RangeFilterOp {
	if fanout <= 0 {
		fanout = 1
	}
	return &RangeFilterOp{id: identity{name: name}, Lo: lo, Hi: hi, Fanout: fanout}
}

// Name implements operator.Operator.
func (f *RangeFilterOp) Name() string { return f.id.name }

// OnTuple forwards in-range readings to all output ports.
func (f *RangeFilterOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	rd, err := DecodeReading(t.Data)
	if err != nil {
		return err
	}
	if rd.Value < f.Lo || rd.Value > f.Hi {
		return nil
	}
	out := f.id.stamp(&tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: t.Data})
	for port := 0; port < f.Fanout; port++ {
		if port == f.Fanout-1 {
			emit(port, out)
		} else {
			emit(port, out.Clone())
		}
	}
	return nil
}

// StateSize is zero.
func (f *RangeFilterOp) StateSize() int64 { return 0 }

// Snapshot carries only the identity counter.
func (f *RangeFilterOp) Snapshot() ([]byte, error) { return f.id.snapshot(), nil }

// Restore rebuilds the identity counter.
func (f *RangeFilterOp) Restore(buf []byte) error { return f.id.restore(buf) }

// CombineOp is BCP's crowdedness predictor (P) and Join (J): it keeps the
// latest value per key from each of two input streams and emits their
// combination whenever either side updates and both are known.
type CombineOp struct {
	id      identity
	Combine func(a, b float64) float64
	sides   [2]map[string]float64
}

// NewCombineOp returns a two-stream combiner.
func NewCombineOp(name string, combine func(a, b float64) float64) *CombineOp {
	c := &CombineOp{id: identity{name: name}, Combine: combine}
	c.sides[0] = make(map[string]float64)
	c.sides[1] = make(map[string]float64)
	return c
}

// Name implements operator.Operator.
func (c *CombineOp) Name() string { return c.id.name }

// OnTuple records the side's value and emits the combination.
func (c *CombineOp) OnTuple(port int, t *tuple.Tuple, emit operator.Emitter) error {
	if port < 0 || port > 1 {
		return errors.New("apps: combine op has two ports")
	}
	rd, err := DecodeReading(t.Data)
	if err != nil {
		return err
	}
	c.sides[port][t.Key] = rd.Value
	other, ok := c.sides[1-port][t.Key]
	if !ok {
		return nil
	}
	a, b := rd.Value, other
	if port == 1 {
		a, b = other, rd.Value
	}
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: c.Combine(a, b), TsMS: rd.TsMS}.Encode()}
	emit(0, c.id.stamp(out))
	return nil
}

// StateSize reports both sides.
func (c *CombineOp) StateSize() int64 {
	var n int64
	for s := 0; s < 2; s++ {
		for k := range c.sides[s] {
			n += int64(len(k)) + 8
		}
	}
	return n
}

// Snapshot serializes both sides.
func (c *CombineOp) Snapshot() ([]byte, error) {
	buf := c.id.snapshot()
	for s := 0; s < 2; s++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.sides[s])))
		for _, k := range sortedKeys(c.sides[s]) {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
			buf = append(buf, k...)
			buf = putF64(buf, c.sides[s][k])
		}
	}
	return buf, nil
}

// Restore rebuilds both sides.
func (c *CombineOp) Restore(buf []byte) error {
	if err := c.id.restore(buf); err != nil {
		return err
	}
	r := bufReader{buf: buf[8:]}
	for s := 0; s < 2; s++ {
		n, err := r.u32()
		if err != nil {
			return err
		}
		c.sides[s] = make(map[string]float64, n)
		for i := uint32(0); i < n; i++ {
			k, err := r.str16()
			if err != nil {
				return err
			}
			v, err := r.f64()
			if err != nil {
				return err
			}
			c.sides[s][k] = v
		}
	}
	return nil
}

// FrameDispatchOp is the camera/phone Dispatcher (D) of BCP and
// SignalGuru: it routes each frame to one of Workers parallel pipelines by
// camera key, and — when CopyPort >= 0 — also hands a copy to the
// historical processing operator on that port.
type FrameDispatchOp struct {
	id       identity
	Workers  int
	CopyPort int // -1 = no history copy
}

// NewFrameDispatchOp returns a dispatcher over `workers` pipelines with an
// optional extra copy port.
func NewFrameDispatchOp(name string, workers int, copyPort int) *FrameDispatchOp {
	if workers <= 0 {
		workers = 1
	}
	return &FrameDispatchOp{id: identity{name: name}, Workers: workers, CopyPort: copyPort}
}

// Name implements operator.Operator.
func (d *FrameDispatchOp) Name() string { return d.id.name }

// OnTuple routes by key hash; the original tuple's source identity is
// preserved so per-edge FIFO-per-source dedup remains valid.
func (d *FrameDispatchOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	if d.CopyPort >= 0 {
		emit(d.CopyPort, t.Clone())
	}
	emit(int(hash(t.Key)%uint64(d.Workers)), t)
	return nil
}

// StateSize is zero.
func (d *FrameDispatchOp) StateSize() int64 { return 0 }

// Snapshot carries only the identity counter.
func (d *FrameDispatchOp) Snapshot() ([]byte, error) { return d.id.snapshot(), nil }

// Restore rebuilds the identity counter.
func (d *FrameDispatchOp) Restore(buf []byte) error { return d.id.restore(buf) }

// --- SignalGuru operators ----------------------------------------------------

// BandFilterOp is SignalGuru's color filter (C): it band-passes the image
// so only signal-lamp-intensity pixels survive. It keeps a per-camera
// frame count (the paper's filters expose per-stream statistics for the
// dispatcher's load feedback), which makes it the fan-out topologies'
// keyed re-partition target: the count map shards over the slot ring, so
// a hot filter can be split across HAU replicas.
type BandFilterOp struct {
	id     identity
	Lo, Hi uint8
	// MaxKeys caps the counter map; zero means bandFilterMaxKeys. When the
	// map outgrows the cap every count is halved and zeroes are evicted, so
	// hot cameras keep (decayed) counts while one-off keys age out and the
	// state stays bounded under arbitrarily skewed key churn.
	MaxKeys int
	seen    map[string]uint64
}

// bandFilterMaxKeys bounds the per-camera counter map: past this many
// distinct keys the counts decay (halve, evict zeroes) until the map fits.
const bandFilterMaxKeys = 4096

// NewBandFilterOp returns an intensity band filter.
func NewBandFilterOp(name string, lo, hi uint8) *BandFilterOp {
	return &BandFilterOp{id: identity{name: name}, Lo: lo, Hi: hi, seen: make(map[string]uint64)}
}

// Name implements operator.Operator.
func (b *BandFilterOp) Name() string { return b.id.name }

// OnTuple filters the thumbnail and forwards the raw frame untouched.
func (b *BandFilterOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	im, n, err := vision.UnmarshalImagePrefix(t.Data)
	if err != nil {
		return err
	}
	b.seen[t.Key]++
	if len(b.seen) > b.maxKeys() {
		b.decay()
	}
	data := vision.BandPass(im, b.Lo, b.Hi).Marshal()
	data = append(data, t.Data[n:]...)
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: data}
	emit(0, b.id.stamp(out))
	return nil
}

// Seen returns the number of frames filtered for key (tests).
func (b *BandFilterOp) Seen(key string) uint64 { return b.seen[key] }

func (b *BandFilterOp) maxKeys() int {
	if b.MaxKeys > 0 {
		return b.MaxKeys
	}
	return bandFilterMaxKeys
}

// decay halves every count and evicts keys that reach zero, repeating until
// the map fits under the cap. Counts only shrink, so the loop terminates,
// and the result depends only on the tuple order — a recovered replica
// replaying the same stream decays identically, which keeps the chaos
// harness's reference-replay state oracle valid.
func (b *BandFilterOp) decay() {
	for max := b.maxKeys(); len(b.seen) > max; {
		for k, v := range b.seen {
			v >>= 1
			if v == 0 {
				delete(b.seen, k)
			} else {
				b.seen[k] = v
			}
		}
	}
}

// StateSize reports the per-camera counter map.
func (b *BandFilterOp) StateSize() int64 {
	var n int64
	for k := range b.seen {
		n += int64(len(k)) + 8
	}
	return n
}

// PartitionSlots implements operator.PartitionedState.
func (b *BandFilterOp) PartitionSlots() int { return partition.DefaultSlots }

// Snapshot serializes the counter map as a partition slot table; the
// identity counter rides in the residue (downstream filters restamp, so
// replica overlap is harmless).
func (b *BandFilterOp) Snapshot() ([]byte, error) {
	slots := make([][]byte, partition.DefaultSlots)
	for _, k := range sortedKeys(b.seen) {
		s := partition.SlotOf(k, len(slots))
		slots[s] = binary.LittleEndian.AppendUint16(slots[s], uint16(len(k)))
		slots[s] = append(slots[s], k...)
		slots[s] = binary.LittleEndian.AppendUint64(slots[s], b.seen[k])
	}
	return partition.AppendTable(nil, b.id.snapshot(), slots), nil
}

// Restore rebuilds the counters from a slot table (possibly carved) or the
// legacy residue-only encoding.
func (b *BandFilterOp) Restore(buf []byte) error {
	if partition.IsTable(buf) {
		residue, slots, err := partition.ParseTable(buf)
		if err != nil {
			return err
		}
		if err := b.id.restore(residue); err != nil {
			return err
		}
		b.seen = make(map[string]uint64)
		for _, sl := range slots {
			for len(sl) > 0 {
				if len(sl) < 2 {
					return errors.New("apps: truncated band-filter snapshot")
				}
				kl := int(binary.LittleEndian.Uint16(sl))
				sl = sl[2:]
				if len(sl) < kl+8 {
					return errors.New("apps: truncated band-filter snapshot")
				}
				b.seen[string(sl[:kl])] = binary.LittleEndian.Uint64(sl[kl:])
				sl = sl[kl+8:]
			}
		}
		return nil
	}
	if err := b.id.restore(buf); err != nil {
		return err
	}
	b.seen = make(map[string]uint64)
	return nil
}

// ShapeFilterOp is SignalGuru's shape filter (A): it zeroes blobs whose
// aspect ratio cannot be a signal housing.
type ShapeFilterOp struct {
	id     identity
	Lo, Hi float64
}

// NewShapeFilterOp returns a shape filter keeping ratios in [lo, hi].
func NewShapeFilterOp(name string, lo, hi float64) *ShapeFilterOp {
	return &ShapeFilterOp{id: identity{name: name}, Lo: lo, Hi: hi}
}

// Name implements operator.Operator.
func (s *ShapeFilterOp) Name() string { return s.id.name }

// OnTuple keeps only shape-plausible blobs in the thumbnail and forwards
// the raw frame untouched.
func (s *ShapeFilterOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	im, n, err := vision.UnmarshalImagePrefix(t.Data)
	if err != nil {
		return err
	}
	keep := vision.FilterByShape(vision.Blobs(im, 150, 2), s.Lo, s.Hi)
	out := vision.NewImage(im.W, im.H)
	for _, b := range keep {
		for y := b.MinY; y <= b.MaxY; y++ {
			for x := b.MinX; x <= b.MaxX; x++ {
				out.Set(x, y, im.At(x, y))
			}
		}
	}
	data := out.Marshal()
	data = append(data, t.Data[n:]...)
	res := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: data}
	emit(0, s.id.stamp(res))
	return nil
}

// StateSize is zero.
func (s *ShapeFilterOp) StateSize() int64 { return 0 }

// PartitionSlots implements operator.PartitionedState (residue-only).
func (s *ShapeFilterOp) PartitionSlots() int { return 0 }

// Snapshot carries only the identity counter (as slot-table residue).
func (s *ShapeFilterOp) Snapshot() ([]byte, error) {
	return partition.AppendTable(nil, s.id.snapshot(), nil), nil
}

// Restore rebuilds the identity counter.
func (s *ShapeFilterOp) Restore(buf []byte) error {
	if partition.IsTable(buf) {
		residue, _, err := partition.ParseTable(buf)
		if err != nil {
			return err
		}
		return s.id.restore(residue)
	}
	return s.id.restore(buf)
}

// MotionFilterOp is SignalGuru's motion filter (M): it preserves all
// pictures taken by a phone at an intersection until the vehicle leaves
// (every DwellFrames frames, 10–40 s in the paper), then intersects them to
// find the stationary lights and reports the detected count — producing the
// large fluctuating state of Fig. 5c.
type MotionFilterOp struct {
	id          identity
	DwellFrames int

	// frames holds the raw preserved payloads (analysis thumbnail plus
	// full-resolution frame bytes): "the preserved images become the
	// operator's state as long as the vehicle remains in the vicinity of
	// an intersection" — so the big raw frames dominate state size.
	frames map[string][][]byte
	bytes  int64
}

// NewMotionFilterOp returns a motion filter; a vehicle leaves after
// dwellFrames frames.
func NewMotionFilterOp(name string, dwellFrames int) *MotionFilterOp {
	if dwellFrames <= 0 {
		dwellFrames = 24
	}
	return &MotionFilterOp{
		id:          identity{name: name},
		DwellFrames: dwellFrames,
		frames:      make(map[string][][]byte),
	}
}

// Name implements operator.Operator.
func (m *MotionFilterOp) Name() string { return m.id.name }

// OnTuple stores the frame; when the vehicle leaves, detect and clear.
func (m *MotionFilterOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	if _, _, err := vision.UnmarshalImagePrefix(t.Data); err != nil {
		return err
	}
	raw := append([]byte(nil), t.Data...)
	m.frames[t.Key] = append(m.frames[t.Key], raw)
	m.bytes += int64(len(raw))
	if len(m.frames[t.Key]) < m.DwellFrames {
		return nil
	}
	thumbs := make([]*vision.Image, 0, len(m.frames[t.Key]))
	for _, enc := range m.frames[t.Key] {
		im, _, err := vision.UnmarshalImagePrefix(enc)
		if err != nil {
			return err
		}
		thumbs = append(thumbs, im)
	}
	mask, err := vision.StationaryBright(thumbs, 150, 0.7)
	if err != nil {
		return err
	}
	n := vision.CountBlobs(mask, 150, 2)
	for _, enc := range m.frames[t.Key] {
		m.bytes -= int64(len(enc))
	}
	delete(m.frames, t.Key)
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: float64(n), TsMS: t.Ts / 1e6}.Encode()}
	emit(0, m.id.stamp(out))
	return nil
}

// StateSize reports preserved image bytes.
func (m *MotionFilterOp) StateSize() int64 { return m.bytes }

// Snapshot serializes the preserved frames.
func (m *MotionFilterOp) Snapshot() ([]byte, error) {
	buf := m.id.snapshot()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.frames)))
	for _, k := range sortedKeys(m.frames) {
		fs := m.frames[k]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fs)))
		for _, enc := range fs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(enc)))
			buf = append(buf, enc...)
		}
	}
	return buf, nil
}

// Restore rebuilds the preserved frames.
func (m *MotionFilterOp) Restore(buf []byte) error {
	if err := m.id.restore(buf); err != nil {
		return err
	}
	r := bufReader{buf: buf[8:]}
	n, err := r.u32()
	if err != nil {
		return err
	}
	m.frames = make(map[string][][]byte, n)
	m.bytes = 0
	for i := uint32(0); i < n; i++ {
		k, err := r.str16()
		if err != nil {
			return err
		}
		nf, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nf; j++ {
			enc, err := r.bytes()
			if err != nil {
				return err
			}
			m.frames[k] = append(m.frames[k], append([]byte(nil), enc...))
			m.bytes += int64(len(enc))
		}
	}
	return nil
}

// VotingOp is SignalGuru's voting operator (V): it collects detection
// counts per intersection and emits the majority count every VoteSize
// observations.
type VotingOp struct {
	id       identity
	VoteSize int
	votes    map[string][]float64
}

// NewVotingOp returns a majority voter over voteSize observations.
func NewVotingOp(name string, voteSize int) *VotingOp {
	if voteSize <= 0 {
		voteSize = 3
	}
	return &VotingOp{id: identity{name: name}, VoteSize: voteSize, votes: make(map[string][]float64)}
}

// Name implements operator.Operator.
func (v *VotingOp) Name() string { return v.id.name }

// OnTuple collects and, at quorum, emits the plurality value.
func (v *VotingOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	rd, err := DecodeReading(t.Data)
	if err != nil {
		return err
	}
	v.votes[t.Key] = append(v.votes[t.Key], rd.Value)
	if len(v.votes[t.Key]) < v.VoteSize {
		return nil
	}
	counts := make(map[float64]int)
	best, bestN := 0.0, 0
	for _, val := range v.votes[t.Key] {
		counts[val]++
		if counts[val] > bestN {
			best, bestN = val, counts[val]
		}
	}
	delete(v.votes, t.Key)
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: best, TsMS: rd.TsMS}.Encode()}
	emit(0, v.id.stamp(out))
	return nil
}

// StateSize reports pending votes.
func (v *VotingOp) StateSize() int64 {
	var n int64
	for k, vs := range v.votes {
		n += int64(len(k)) + int64(len(vs))*8
	}
	return n
}

// Snapshot serializes pending votes.
func (v *VotingOp) Snapshot() ([]byte, error) {
	buf := v.id.snapshot()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.votes)))
	for _, k := range sortedKeys(v.votes) {
		vs := v.votes[k]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
		for _, val := range vs {
			buf = putF64(buf, val)
		}
	}
	return buf, nil
}

// Restore rebuilds pending votes.
func (v *VotingOp) Restore(buf []byte) error {
	if err := v.id.restore(buf); err != nil {
		return err
	}
	r := bufReader{buf: buf[8:]}
	n, err := r.u32()
	if err != nil {
		return err
	}
	v.votes = make(map[string][]float64, n)
	for i := uint32(0); i < n; i++ {
		k, err := r.str16()
		if err != nil {
			return err
		}
		nv, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < nv; j++ {
			val, err := r.f64()
			if err != nil {
				return err
			}
			v.votes[k] = append(v.votes[k], val)
		}
	}
	return nil
}

// SVMPredictOp is SignalGuru's prediction model (P): a pre-trained linear
// SVM classifying whether the signal will switch within the advisory
// horizon, from (detected count, time-of-cycle) features.
type SVMPredictOp struct {
	id    identity
	model *svm.Model
}

// NewSVMPredictOp returns a predictor with a deterministic pre-trained
// model (the paper trains offline from historical transitions).
func NewSVMPredictOp(name string, seed int64) *SVMPredictOp {
	x, y := trainingSet(seed)
	model, err := svm.Train(x, y, svm.Config{Seed: seed, Epochs: 15})
	if err != nil {
		// Training on the deterministic synthetic set cannot fail.
		panic(err)
	}
	return &SVMPredictOp{id: identity{name: name}, model: model}
}

func trainingSet(seed int64) ([][]float64, []float64) {
	// Deterministic separable set: switch soon iff phase > count.
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		phase := float64((i*7 + int(seed)) % 20)
		count := float64(i % 10)
		label := 1.0
		if count >= phase {
			label = -1
		}
		x = append(x, []float64{phase, count})
		y = append(y, label)
	}
	return x, y
}

// Name implements operator.Operator.
func (p *SVMPredictOp) Name() string { return p.id.name }

// OnTuple emits 1 (switch imminent) or -1.
func (p *SVMPredictOp) OnTuple(_ int, t *tuple.Tuple, emit operator.Emitter) error {
	rd, err := DecodeReading(t.Data)
	if err != nil {
		return err
	}
	phase := float64(rd.TsMS % 20)
	pred := p.model.Predict([]float64{phase, rd.Value})
	out := &tuple.Tuple{Key: t.Key, Ts: t.Ts, Data: Reading{Value: pred, TsMS: rd.TsMS}.Encode()}
	emit(0, p.id.stamp(out))
	return nil
}

// StateSize covers the (fixed) model weights.
func (p *SVMPredictOp) StateSize() int64 { return int64(len(p.model.W))*8 + 8 }

// Snapshot serializes the model and identity.
func (p *SVMPredictOp) Snapshot() ([]byte, error) {
	buf := p.id.snapshot()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.model.W)))
	for _, w := range p.model.W {
		buf = putF64(buf, w)
	}
	buf = putF64(buf, p.model.B)
	return buf, nil
}

// Restore rebuilds the model.
func (p *SVMPredictOp) Restore(buf []byte) error {
	if err := p.id.restore(buf); err != nil {
		return err
	}
	r := bufReader{buf: buf[8:]}
	n, err := r.u32()
	if err != nil {
		return err
	}
	w := make([]float64, n)
	for i := range w {
		if w[i], err = r.f64(); err != nil {
			return err
		}
	}
	b, err := r.f64()
	if err != nil {
		return err
	}
	p.model = &svm.Model{W: w, B: b}
	return nil
}

// --- helpers -----------------------------------------------------------------

type bufReader struct {
	buf []byte
}

var errShort = errors.New("apps: short snapshot")

func (r *bufReader) u32() (uint32, error) {
	if len(r.buf) < 4 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v, nil
}

func (r *bufReader) f64() (float64, error) {
	if len(r.buf) < 8 {
		return 0, errShort
	}
	v := getF64(r.buf)
	r.buf = r.buf[8:]
	return v, nil
}

func (r *bufReader) str16() (string, error) {
	if len(r.buf) < 2 {
		return "", errShort
	}
	n := int(binary.LittleEndian.Uint16(r.buf))
	r.buf = r.buf[2:]
	if len(r.buf) < n {
		return "", errShort
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

func (r *bufReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if len(r.buf) < int(n) {
		return nil, errShort
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

// sortedKeys returns the map keys sorted, so snapshots are deterministic
// (identical state -> identical bytes), which delta-checkpointing needs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
