// Package metrics collects the two quantities the paper evaluates —
// end-to-end throughput ("the number of tuples processed by the
// application within a 10-minute time window") and latency ("the average
// processing time of these tuples") — plus the instantaneous-latency
// series used for Fig. 15.
package metrics

import (
	"sort"
	"sync"
	"time"
)

// Point is one latency observation.
type Point struct {
	At  int64 // ns timestamp of delivery
	Lat time.Duration
}

// Recovery is one whole-application recovery broken into the phases the
// paper's recovery-time analysis distinguishes (§VI-C): reloading
// checkpoint blobs from the shared store, disk I/O, deserializing state,
// and reconnecting/restarting the dataflow.
type Recovery struct {
	At          int64  // ns timestamp of recovery completion
	App         string // application id ("" until multi-tenant callers tag it)
	Epoch       uint64
	HAUs        int // HAUs rebuilt
	Reload      time.Duration
	DiskIO      time.Duration
	Deserialize time.Duration
	Reconnect   time.Duration
	ReplayFetch time.Duration // source-log fetch; not part of Total (Fig. 16 stops before replay)
	Total       time.Duration
}

// Checkpoint is one individual checkpoint's cost decomposition. Serialize
// is the on-loop freeze window (the only phase that stalls the stream under
// asynchronous schemes); Flatten, Diff and DiskIO run on the HAU's
// checkpoint writer. DirtyBytes is how much state the capture re-encoded —
// the quantity the freeze window scales with.
type Checkpoint struct {
	At        int64  // ns timestamp of checkpoint durability
	App       string // application id ("" until multi-tenant callers tag it)
	HAU       string
	Epoch     uint64
	TokenWait time.Duration
	Serialize time.Duration // on-loop freeze window
	Flatten   time.Duration // writer-side section flatten
	Diff      time.Duration // writer-side block-delta computation
	DiskIO    time.Duration
	// AlignStallMax/AlignStallSum are how long tokened input ports sat
	// paused waiting for the slowest token (max over ports / sum across
	// ports); zero for baseline and unaligned checkpoints.
	AlignStallMax time.Duration
	AlignStallSum time.Duration
	StateBytes    int64 // bytes written (delta when Delta is set)
	DirtyBytes    int64 // bytes re-encoded during capture
	// ChannelBytes is the encoded size of in-flight channel tuples logged
	// into the blob — the snapshot-size overhead of unaligned checkpoints.
	ChannelBytes int64
	Delta        bool
	Async        bool
}

// Migration is one live HAU migration: the token-aligned drain of the old
// incarnation, the handoff downtime (neither incarnation processing), and
// the state restore on the destination node.
type Migration struct {
	At         int64  // ns timestamp of migration completion
	App        string // application id ("" until multi-tenant callers tag it)
	HAU        string
	From, To   int
	MovedBytes int64
	Drain      time.Duration // divert command -> state handoff
	Downtime   time.Duration // old incarnation stopped -> new one started
	Restore    time.Duration // state deserialization at the destination
}

// Rescale is one keyed-state re-partitioning (split or merge) of an
// operator across HAU replicas, decomposed Fig. 16-style: the token-aligned
// drain of the old incarnations, the slot-level re-shard of their state, and
// the restore/start of the new incarnations. Downtime is the window where no
// incarnation of the operator was processing.
type Rescale struct {
	At       int64         // ns timestamp of rescale completion
	App      string        // application id ("" until multi-tenant callers tag it)
	HAU      string        // base operator id
	From, To int           // replica counts before and after
	Bytes    int64         // state bytes re-sharded
	Drain    time.Duration // divert commands sent -> last state blob handed over
	Reshard  time.Duration // slot carve/merge of the drained blobs
	Restore  time.Duration // new incarnations built, restored and started
	Downtime time.Duration // old incarnations stopped -> new ones started
}

// Skew is one observation of how a split operator's load spreads across
// its replicas: Shares are the per-replica load fractions, Ratio is
// max/mean (1.0 balanced, Replicas worst case). Action records what the
// observation is: "observe" for a watermark evaluation that found skew,
// "rebalance" for slots shifted between the existing replicas, and
// "split:weighted"/"merge:weighted" for weighted replica-count changes
// (these report the projected post-action spread under the weights that
// drove the action).
type Skew struct {
	At       int64  // ns timestamp of the observation
	App      string // application id ("" until multi-tenant callers tag it)
	HAU      string
	Replicas int
	Shares   []float64
	Ratio    float64
	Action   string
	Moved    int // slots moved by the action, 0 for observations
}

// Failover is one standby promotion: a protected HAU's primary died and
// the cluster switched the live stream to its standby instead of rolling
// the application back. Wait is detection-to-promotion prep (draining the
// dead primary's edges), Switch is the single-edge switchover itself
// (tee swap + promote command) — the availability gap a protected failure
// costs, to compare against Recovery.Total.
type Failover struct {
	At       int64  // ns timestamp of failover completion
	App      string // application id ("" until multi-tenant callers tag it)
	HAU      string
	From, To int // primary node, standby node
	Wait     time.Duration
	Switch   time.Duration
	// RingTuples is how many suppressed output tuples the standby
	// re-emitted at promotion (downstream dedup drops the overlap).
	RingTuples int
}

// Collector accumulates sink-side observations. Safe for concurrent use —
// multiple sink HAUs may share one collector.
type Collector struct {
	mu          sync.Mutex
	count       uint64
	latSum      time.Duration
	points      []Point
	recoveries  []Recovery
	migrations  []Migration
	rescales    []Rescale
	checkpoints []Checkpoint
	failovers   []Failover
	skews       []Skew
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// RecordLatency implements operator.LatencyRecorder.
func (c *Collector) RecordLatency(at int64, lat time.Duration) {
	c.mu.Lock()
	c.count++
	c.latSum += lat
	c.points = append(c.points, Point{At: at, Lat: lat})
	c.mu.Unlock()
}

// Count returns the number of tuples delivered — the throughput numerator.
func (c *Collector) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// MeanLatency returns the average end-to-end latency.
func (c *Collector) MeanLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count == 0 {
		return 0
	}
	return c.latSum / time.Duration(c.count)
}

// Quantile returns the p-quantile (0 <= p <= 1) of all recorded latencies.
func (c *Collector) Quantile(p float64) time.Duration {
	c.mu.Lock()
	lats := make([]time.Duration, len(c.points))
	for i, pt := range c.points {
		lats[i] = pt.Lat
	}
	c.mu.Unlock()
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p * float64(len(lats)-1))
	return lats[idx]
}

// Bucket is a time bucket of the instantaneous-latency series.
type Bucket struct {
	Start   int64
	Count   int
	MeanLat time.Duration
	MaxLat  time.Duration
}

// InstantSeries groups observations into fixed-width buckets — the
// instantaneous latency ("the processing time of each tuple during a
// checkpoint", Fig. 15). Empty buckets between observations are included
// with zero counts so plots keep their time base.
func (c *Collector) InstantSeries(width time.Duration) []Bucket {
	c.mu.Lock()
	points := append([]Point(nil), c.points...)
	c.mu.Unlock()
	if len(points) == 0 || width <= 0 {
		return nil
	}
	sort.Slice(points, func(i, j int) bool { return points[i].At < points[j].At })
	start := points[0].At
	end := points[len(points)-1].At
	n := int((end-start)/int64(width)) + 1
	buckets := make([]Bucket, n)
	for i := range buckets {
		buckets[i].Start = start + int64(i)*int64(width)
	}
	sums := make([]time.Duration, n)
	for _, p := range points {
		i := int((p.At - start) / int64(width))
		buckets[i].Count++
		sums[i] += p.Lat
		if p.Lat > buckets[i].MaxLat {
			buckets[i].MaxLat = p.Lat
		}
	}
	for i := range buckets {
		if buckets[i].Count > 0 {
			buckets[i].MeanLat = sums[i] / time.Duration(buckets[i].Count)
		}
	}
	return buckets
}

// WindowStats summarizes the deliveries inside one time window.
type WindowStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Window returns latency statistics for deliveries with since <= At < until
// (until <= 0 means no upper bound). The matching latencies are copied out
// under the lock and sorted outside it, so timeline samplers can call this
// concurrently with live collection.
func (c *Collector) Window(since, until int64) WindowStats {
	c.mu.Lock()
	var lats []time.Duration
	for _, p := range c.points {
		if p.At >= since && (until <= 0 || p.At < until) {
			lats = append(lats, p.Lat)
		}
	}
	c.mu.Unlock()
	var ws WindowStats
	if len(lats) == 0 {
		return ws
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	ws.Count = uint64(len(lats))
	ws.Mean = sum / time.Duration(len(lats))
	ws.P50 = lats[int(0.50*float64(len(lats)-1))]
	ws.P99 = lats[int(0.99*float64(len(lats)-1))]
	ws.Max = lats[len(lats)-1]
	return ws
}

// CountSince returns deliveries with At >= since.
func (c *Collector) CountSince(since int64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, p := range c.points {
		if p.At >= since {
			n++
		}
	}
	return n
}

// RecordRecovery appends one recovery's phase timings.
func (c *Collector) RecordRecovery(r Recovery) {
	c.mu.Lock()
	c.recoveries = append(c.recoveries, r)
	c.mu.Unlock()
}

// Recoveries returns every recorded recovery, oldest first.
func (c *Collector) Recoveries() []Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Recovery(nil), c.recoveries...)
}

// RecordCheckpoint appends one individual checkpoint's cost breakdown.
func (c *Collector) RecordCheckpoint(ck Checkpoint) {
	c.mu.Lock()
	c.checkpoints = append(c.checkpoints, ck)
	c.mu.Unlock()
}

// Checkpoints returns every recorded checkpoint, oldest first.
func (c *Collector) Checkpoints() []Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Checkpoint(nil), c.checkpoints...)
}

// RecordMigration appends one live migration's timings.
func (c *Collector) RecordMigration(m Migration) {
	c.mu.Lock()
	c.migrations = append(c.migrations, m)
	c.mu.Unlock()
}

// Migrations returns every recorded live migration, oldest first.
func (c *Collector) Migrations() []Migration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Migration(nil), c.migrations...)
}

// RecordRescale appends one split/merge re-partitioning's timings.
func (c *Collector) RecordRescale(r Rescale) {
	c.mu.Lock()
	c.rescales = append(c.rescales, r)
	c.mu.Unlock()
}

// Rescales returns every recorded re-partitioning, oldest first.
func (c *Collector) Rescales() []Rescale {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Rescale(nil), c.rescales...)
}

// RecordSkew appends one replica-load skew observation.
func (c *Collector) RecordSkew(s Skew) {
	c.mu.Lock()
	c.skews = append(c.skews, s)
	c.mu.Unlock()
}

// Skews returns every recorded skew observation, oldest first.
func (c *Collector) Skews() []Skew {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Skew(nil), c.skews...)
}

// RecordFailover appends one standby promotion's timings.
func (c *Collector) RecordFailover(f Failover) {
	c.mu.Lock()
	c.failovers = append(c.failovers, f)
	c.mu.Unlock()
}

// Failovers returns every recorded standby promotion, oldest first.
func (c *Collector) Failovers() []Failover {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Failover(nil), c.failovers...)
}

// MaxGap returns the largest interval between consecutive deliveries with
// since <= At < until (until <= 0 means no upper bound) — the sink-output
// gap an availability benchmark scores a failure by. The window edges
// count as virtual deliveries, so an outage running into the window's end
// is measured, but a delivery-free window returns the full window (or 0
// when unbounded).
func (c *Collector) MaxGap(since, until int64) time.Duration {
	c.mu.Lock()
	var ats []int64
	for _, p := range c.points {
		if p.At >= since && (until <= 0 || p.At < until) {
			ats = append(ats, p.At)
		}
	}
	c.mu.Unlock()
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	if until > 0 {
		ats = append(ats, until)
	}
	var gap time.Duration
	prev := since
	for _, at := range ats {
		if d := time.Duration(at - prev); d > gap {
			gap = d
		}
		prev = at
	}
	return gap
}

// RecoveriesFor returns the recoveries tagged with the given application
// id, oldest first. The empty id matches records from single-tenant
// clusters, which never tag.
func (c *Collector) RecoveriesFor(app string) []Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Recovery
	for _, r := range c.recoveries {
		if r.App == app {
			out = append(out, r)
		}
	}
	return out
}

// CheckpointsFor returns the checkpoints tagged with the given application
// id, oldest first.
func (c *Collector) CheckpointsFor(app string) []Checkpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Checkpoint
	for _, ck := range c.checkpoints {
		if ck.App == app {
			out = append(out, ck)
		}
	}
	return out
}

// Reset clears all observations.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.count = 0
	c.latSum = 0
	c.points = nil
	c.recoveries = nil
	c.migrations = nil
	c.rescales = nil
	c.checkpoints = nil
	c.failovers = nil
	c.skews = nil
	c.mu.Unlock()
}
