package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"meteorshower/internal/apps"
	"meteorshower/internal/cluster"
	"meteorshower/internal/controller"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

const (
	setupRuns = 7           // set-ups per run; setup_s is their median
	warmup    = time.Second // after the first delivery, before timing
	slack     = time.Second // source ids beyond the timed window, absorbing outages
	drainWait = 30 * time.Second
)

// deployment is one running cluster with its instrumentation.
type deployment struct {
	cl     *cluster.Cluster
	in     *instrument
	lis    *listener
	cancel context.CancelFunc
	ctx    context.Context
}

// deploy builds and starts the job and returns once the sink has delivered
// its first tuple, with the program's share of the time that took. A PairOp
// emits a phone's first speed on its second report, so the first delivery
// waits for source id phones, which the fixed-rate schedule releases
// phones/rate after the sources start; that wait is the input's, not the
// program's, and is subtracted from cluster.New through the first delivery.
func deploy(tr *tracer, full, identity bool, w workload, cfg apps.TMIConfig) (*deployment, time.Duration, error) {
	in := newInstrument(tr, full, identity)
	lis := &listener{tr: tr, full: full}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	cl, err := cluster.New(cluster.Config{
		App:           in.spec(cfg),
		Scheme:        spe.MSSrcAP,
		Nodes:         nodes,
		LocalDiskSpec: storage.DefaultLocalDisk(),
		SharedSpec:    storage.DiskSpec{BandwidthBps: 100 << 20, Latency: 2 * time.Millisecond, TimeScale: 1, Stripes: 8},
		TickEvery:     tickEvery,
		CkptPeriod:    period,
		SourceFlush:   64 << 10,
		Seed:          cfg.Seed,
		Listener:      lis,
	})
	if err != nil {
		cancel()
		return nil, 0, err
	}
	if err := cl.Start(ctx); err != nil {
		cl.StopAll()
		cancel()
		return nil, 0, err
	}
	cl.StartController(ctx)
	d := &deployment{cl: cl, in: in, lis: lis, cancel: cancel, ctx: ctx}
	deadline := start.Add(30 * time.Second)
	for d.delivered() == 0 {
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("no sink delivery within 30 s of start")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, time.Since(start) - scheduleWait(w), nil
}

// scheduleWait is how long after the sources start their schedule releases
// the first tuple that can reach the sink.
func scheduleWait(w workload) time.Duration {
	return time.Duration(float64(w.phones) / rate * float64(time.Millisecond))
}

func (d *deployment) delivered() uint64 {
	if s := d.in.sink(); s != nil {
		return s.Delivered()
	}
	return 0
}

// stop shuts the cluster down and waits for its HAUs and controller.
func (d *deployment) stop() {
	d.lis.inEvent.Store(true)
	d.cl.StopAll()
	d.cancel()
	<-d.cl.Controller().Done()
}

// settledEpochs returns the controller's epochs once every epoch triggered
// in [lo, hi] has completed, or after a few checkpoint periods.
func (d *deployment) settledEpochs(lo, hi time.Time) []controller.EpochStat {
	deadline := time.Now().Add(4 * period)
	for {
		epochs := d.cl.Controller().EpochStats()
		pending := false
		for _, e := range epochs {
			pending = pending || (!e.Complete && e.Started >= lo.UnixNano() && e.Started <= hi.UnixNano())
		}
		if !pending || time.Now().After(deadline) {
			return epochs
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// drain waits until the bounded stream has delivered want tuples and then
// stays there, so the count is checked only after the stream is done.
func (d *deployment) drain(want uint64) error {
	deadline := time.Now().Add(drainWait)
	for {
		got := d.delivered()
		if got > want {
			return fmt.Errorf("sink delivered %d, want %d", got, want)
		}
		if got == want {
			time.Sleep(300 * time.Millisecond)
			if got = d.delivered(); got != want {
				return fmt.Errorf("sink delivered %d after settling, want %d", got, want)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sink delivered %d of %d within %v", got, want, drainWait)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// run is one benchmark run: set-ups, a timed window of fault-free, kill and
// reconfiguration phases, the output check, the untimed exactly-once pass
// and the single-threaded reference run.
type run struct {
	w       workload
	seed    int64
	timed   time.Duration
	full    bool
	tr      *tracer
	d       *deployment
	ops     opCounter
	notes   []string
	killWin [][2]int64 // [kill-1s, recovered] windows: epochs there may be abandoned

	setups []float64
	// steadies holds one fault-free phase per set-up; the last belongs to
	// the kept deployment, which then runs the kill and reconfiguration
	// phases.
	steadies             []steadyStats
	timedStart, timedEnd time.Time // the kept deployment's event phases
	timedDur             time.Duration
	timedDelivered       uint64
	heapPeak             uint64
	epochs               []controller.EpochStat // the kept deployment's
	refCount             uint64
	refTime              time.Duration
}

// opCounter counts operations attempted and failed.
type opCounter struct{ attempted, failed int }

func (r *run) check(what string, err error) {
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		r.notes = append(r.notes, fmt.Sprintf("%s: %v", what, err))
	}
}

func (r *run) execute() error {
	// Each set-up runs its own share of the fault-free phase: a deployment
	// settles into its own latency regime (HAU goroutine and tick
	// placement), so the fault-free metrics are medians across set-ups. The
	// kept deployment's stream covers its warm-up, its share, the event
	// phases and the slack.
	steady := max(time.Second, time.Duration(steadyShare*float64(r.timed)/setupRuns))
	rest := max(0, r.timed-setupRuns*steady)
	limit := uint64(r.w.phones) + uint64(rate*float64((warmup+steady+rest+slack)/time.Millisecond))
	cfg := tmiConfig(r.w, limit, r.seed)
	heap := startHeapSampler()
	for i := 0; i < setupRuns; i++ {
		last := i == setupRuns-1
		tr := r.tr
		if !last {
			tr = nil // earlier set-ups run the same program but keep no spans
		}
		d, took, err := deploy(tr, r.full, false, r.w, cfg)
		if err != nil {
			heap.finish()
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, took.Seconds())
		r.d = d
		time.Sleep(warmup)
		heap.on.Store(true)
		s := r.steadyPhase(steady)
		heap.on.Store(false)
		if last {
			r.steadies = append(r.steadies, s)
			break
		}
		epochs := d.settledEpochs(s.start, s.end)
		s.ckpt = ckptTimes(epochs, s)
		r.steadies = append(r.steadies, s)
		r.countEpochs(d, epochs, s.start, s.end)
		d.stop()
		r.checkStops(d)
		runtime.GC()
	}
	heap.on.Store(true)
	r.timedStart = time.Now()
	del0 := r.d.delivered()
	r.repeat(r.timedStart.Add(time.Duration(r.w.killShare*float64(rest))), r.kill)
	r.repeat(r.timedStart.Add(rest), r.reconfigure)
	r.timedEnd = time.Now()
	r.heapPeak = heap.finish()
	r.timedDelivered = r.d.delivered() - del0
	r.timedDur = r.timedEnd.Sub(r.timedStart)
	for _, s := range r.steadies {
		r.timedDelivered += s.delivered
		r.timedDur += s.end.Sub(s.start)
	}
	r.tr.add(Span{Name: "bench.events", Start: r.timedStart.UnixNano(), End: r.timedEnd.UnixNano()})

	r.check("output count", r.d.drain(expectedDeliveries(r.w.phones, limit)))
	r.epochs = r.d.cl.Controller().EpochStats()
	r.d.stop()
	r.steadies[len(r.steadies)-1].ckpt = ckptTimes(r.epochs, r.kept())
	r.countEpochs(r.d, r.epochs, r.kept().start, r.timedEnd)
	r.checkStops(r.d)
	runtime.GC()
	r.check("exactly-once pass", r.identityPass())
	var err error
	r.refCount, r.refTime, err = referenceRun(cfg)
	if err == nil && r.refCount != expectedDeliveries(r.w.phones, limit) {
		err = fmt.Errorf("reference delivered %d, closed form %d", r.refCount, expectedDeliveries(r.w.phones, limit))
	}
	r.check("reference run", err)
	return nil
}

// heapSampler records the peak HeapInuse while it is on, sampling every
// 50 ms. It reads runtime/metrics, whose two heap classes sum to
// HeapInuse, because runtime.ReadMemStats stops the world, and twenty stops
// a second would stall every HAU inside the latency being measured.
type heapSampler struct {
	on   atomic.Bool
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		inuse := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		var peak uint64
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
			if h.on.Load() {
				metrics.Read(inuse)
				peak = max(peak, inuse[0].Value.Uint64()+inuse[1].Value.Uint64())
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// ckptTimes returns the trigger-to-complete times of the epochs triggered
// during a fault-free phase.
func ckptTimes(epochs []controller.EpochStat, s steadyStats) []float64 {
	var out []float64
	for _, e := range epochs {
		if e.Complete && e.Started >= s.start.UnixNano() && e.Started <= s.end.UnixNano() {
			out = append(out, ms(e.WallTime()))
		}
	}
	return out
}

// repeat runs event at least once, then again while one more event as long
// as the last one still fits before end.
func (r *run) repeat(end time.Time, event func()) {
	for {
		start := time.Now()
		event()
		if time.Now().Add(time.Since(start)).After(end) {
			return
		}
	}
}

// steadyStats are the fault-free phase's boundary counters.
type steadyStats struct {
	start, end   time.Time
	delivered    uint64
	cpu          time.Duration
	lat          *Histogram // creation stamp to sink delivery, ns
	lag          *Histogram
	mem0, mem1   runtime.MemStats
	disk0, disk1 storage.DiskStats
	proc0, proc1 map[string]uint64
	ops0, ops1   map[string][2]int64
	preserved    int
	ckpt         []float64 // trigger-to-complete ms of the phase's epochs
}

// steadyPhase measures a fault-free phase of length d.
func (r *run) steadyPhase(d time.Duration) steadyStats {
	s := steadyStats{lat: new(Histogram)}
	cl := r.d.cl
	runtime.ReadMemStats(&s.mem0)
	s.disk0 = cl.SharedStore().Disk().Stats()
	s.proc0 = r.processed()
	s.ops0 = r.opCounts()
	if r.full {
		s.lag = new(Histogram)
		r.d.in.lag.Store(s.lag)
	}
	cpu0 := cpuTime()
	del0 := r.d.delivered()
	r.d.in.rec.cur.Store(s.lat)
	s.start = time.Now()
	end := s.start.Add(d)
	for time.Now().Before(end) {
		if r.full {
			s.preserved = max(s.preserved, r.preserved())
		}
		time.Sleep(min(50*time.Millisecond, time.Until(end)))
	}
	r.d.in.rec.cur.Store(nil)
	s.end = time.Now()
	s.delivered = r.d.delivered() - del0
	s.cpu = cpuTime() - cpu0
	r.d.in.lag.Store(nil)
	runtime.ReadMemStats(&s.mem1)
	s.disk1 = cl.SharedStore().Disk().Stats()
	s.proc1 = r.processed()
	s.ops1 = r.opCounts()
	r.tr.add(Span{Name: "bench.steady", Start: s.start.UnixNano(), End: s.end.UnixNano(), Val: int64(s.delivered)})
	return s
}

// processed sums HAU.ProcessedCount per operator kind (first id letter).
// Recovery rebuilds HAUs and resets the counts, so only the fault-free
// phase uses them.
func (r *run) processed() map[string]uint64 {
	out := map[string]uint64{}
	for _, id := range r.d.cl.GraphNodes() {
		if h := r.d.cl.HAU(id); h != nil {
			out[id[:1]] += h.ProcessedCount()
		}
	}
	return out
}

func (r *run) opCounts() map[string][2]int64 {
	out := map[string][2]int64{}
	for k, s := range r.d.in.stats {
		out[k] = [2]int64{s.calls.Load(), s.selfNS.Load()}
	}
	return out
}

func (r *run) preserved() int {
	n := 0
	for i := 0; i < sources; i++ {
		if l := r.d.cl.SourceLog(fmt.Sprintf("S%d", i)); l != nil {
			n += l.PreservedCount()
		}
	}
	return n
}

// kill fails the node hosting the victim, recovers the whole application
// at once, revives the node and lets the job settle.
func (r *run) kill() {
	cl, d := r.d.cl, r.d
	d.lis.inEvent.Store(true)
	defer d.lis.inEvent.Store(false)
	node := cl.NodeOf(victim)
	disk0 := cl.SharedStore().Disk().Stats()
	d.in.rec.resetGap()
	d.in.rec.watch()
	start := time.Now()
	cl.KillNode(node)
	replay := cl.ReplayableTuples()
	st, err := cl.RecoverAll(d.ctx)
	end := time.Now()
	d.in.rec.unwatch()
	r.check("RecoverAll", err)
	cl.ReviveNode(node)
	disk1 := cl.SharedStore().Disk().Stats()
	time.Sleep(killSettle)
	r.killWin = append(r.killWin, [2]int64{start.Add(-time.Second).UnixNano(), end.UnixNano()})
	if err != nil {
		return
	}
	ev := r.tr.add(Span{Name: "bench.kill", Start: start.UnixNano(), End: time.Now().UnixNano(), Val: int64(d.in.rec.gap())})
	rec := r.tr.add(Span{Parent: ev, Name: "bench.recover", Start: start.UnixNano(), End: end.UnixNano(), Val: int64(replay), Count: disk1.BytesRead - disk0.BytesRead})
	t := start.UnixNano()
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"cluster.recover_reload", st.Reload},
		{"cluster.recover_diskio", st.DiskIO},
		{"cluster.recover_deserialize", st.Deserialize},
		{"cluster.recover_reconnect", st.Reconnect},
		{"cluster.replay_fetch", st.ReplayFetch},
	} {
		r.tr.add(Span{Parent: rec, Name: p.name, Start: t, End: t + int64(p.d)})
		t += int64(p.d)
	}
}

// reconfigure migrates the victim to the next node, splits it in two and
// merges it back, settling after each step.
func (r *run) reconfigure() {
	cl, d := r.d.cl, r.d
	d.lis.inEvent.Store(true)
	defer d.lis.inEvent.Store(false)
	evStart := time.Now()
	ev := r.tr.id()
	step := func(name string, f func() (cluster.RescaleStats, cluster.MigrationStats, error)) {
		start := time.Now()
		rs, ms, err := f()
		end := time.Now()
		r.check(name, err)
		if err == nil {
			id := r.tr.add(Span{Parent: ev, Name: name, Start: start.UnixNano(), End: end.UnixNano(), Val: rs.Bytes + ms.MovedBytes})
			phases := []struct {
				name string
				d    time.Duration
			}{{"drain", rs.Drain + ms.Drain}, {"reshard", rs.Reshard}, {"restore", rs.Restore + ms.Restore}, {"downtime", rs.Downtime + ms.Downtime}}
			for _, p := range phases {
				r.tr.add(Span{Parent: id, Name: name + "_" + p.name, Start: start.UnixNano(), End: start.UnixNano() + int64(p.d)})
			}
		}
		time.Sleep(stepSettle)
	}
	step("cluster.migrate", func() (cluster.RescaleStats, cluster.MigrationStats, error) {
		ms, err := cl.MigrateHAU(d.ctx, victim, (cl.NodeOf(victim)+1)%nodes)
		return cluster.RescaleStats{}, ms, err
	})
	step("cluster.split", func() (cluster.RescaleStats, cluster.MigrationStats, error) {
		rs, err := cl.SplitHAU(d.ctx, victim, 2)
		return rs, cluster.MigrationStats{}, err
	})
	step("cluster.merge", func() (cluster.RescaleStats, cluster.MigrationStats, error) {
		rs, err := cl.MergeHAU(d.ctx, victim)
		return rs, cluster.MigrationStats{}, err
	})
	r.tr.add(Span{ID: ev, Name: "bench.reconfig", Start: evStart.UnixNano(), End: time.Now().UnixNano()})
}

// kept returns the kept deployment's fault-free phase.
func (r *run) kept() steadyStats { return r.steadies[len(r.steadies)-1] }

// countEpochs fails every epoch d triggered in [from, to] that never
// completed, unless a kill could have abandoned it.
func (r *run) countEpochs(d *deployment, epochs []controller.EpochStat, from, to time.Time) {
	lo, hi := from.UnixNano(), to.UnixNano()
	var missing []string
outer:
	for _, e := range epochs {
		if e.Started < lo || e.Started > hi {
			continue
		}
		for _, k := range r.killWin {
			if e.Started >= k[0] && e.Started <= k[1] {
				continue outer
			}
		}
		r.ops.attempted++
		if !e.Complete {
			var absent []string
			for _, id := range d.cl.GraphNodes() {
				for _, inc := range d.cl.Replicas(id) {
					if _, ok := e.Breakdown[inc]; !ok {
						absent = append(absent, inc)
					}
				}
			}
			missing = append(missing, fmt.Sprintf("%d (triggered at +%.3fs, not checkpointed by %v)",
				e.Epoch, float64(e.Started-lo)/1e9, absent))
		}
	}
	if len(missing) > 0 {
		r.ops.failed += len(missing)
		r.notes = append(r.notes, fmt.Sprintf("epochs never completed: %v", missing))
	}
}

// checkStops fails the HAUs of the stopped deployment d that stopped with an
// error outside a kill.
func (r *run) checkStops(d *deployment) {
	if n := d.lis.stopErrs.Load(); n > 0 {
		r.check("HAU stops", fmt.Errorf("%d HAUs stopped with an error outside a kill", n))
	}
}

// identityPass reruns a short bounded version of the job, kills and
// reconfigurations included, with the sink's exactly-once oracle on, and
// requires no gaps, no duplicates and the closed-form count.
func (r *run) identityPass() error {
	limit := uint64(r.w.phones) + uint64(rate*3000)
	cfg := tmiConfig(r.w, limit, r.seed)
	d, _, err := deploy(nil, false, true, r.w, cfg)
	if err != nil {
		return err
	}
	defer d.stop()
	sub := &run{w: r.w, d: d}
	time.Sleep(500 * time.Millisecond)
	sub.kill()
	sub.reconfigure()
	want := expectedDeliveries(r.w.phones, limit)
	drainErr := d.drain(want)
	if sub.ops.failed > 0 {
		return fmt.Errorf("%v", sub.notes)
	}
	rep := d.in.sink().Report()
	var seen uint64
	for _, sr := range rep {
		seen += sr.Delivered
	}
	if v := rep.TotalViolations(); drainErr != nil || v > 0 || seen != want {
		return fmt.Errorf("%v; oracle: %d distinct of %d, %d gaps+duplicates\n%s", drainErr, seen, want, v, rep)
	}
	return nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
