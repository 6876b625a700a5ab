// Package controller implements Meteor Shower's central controller (paper
// §III): it schedules checkpoint epochs, broadcasts token commands,
// profiles application state size, runs the alert-mode state machine for
// application-aware checkpointing, detects failures by pinging, and
// garbage-collects completed epochs.
//
// The controller "runs on the same node as the shared storage system"; here
// it is a goroutine colocated with the simulated shared store.
package controller

import (
	"context"
	"sync"
	"time"

	"meteorshower/internal/buffer"
	"meteorshower/internal/spe"
	"meteorshower/internal/statesize"
	"meteorshower/internal/storage"
)

// Config assembles a controller.
type Config struct {
	Scheme  spe.Scheme
	HAUs    map[string]*spe.HAU
	Sources []string // ids of source HAUs (token origin under MS-src)
	Catalog *storage.Catalog
	// SourceLogs are pruned when an epoch completes.
	SourceLogs map[string]*buffer.SourceLog

	// Period is the checkpoint period T. Under MS-src/MS-src+ap a
	// checkpoint fires every Period; under MS-src+ap+aa the period bounds
	// the application-aware window (§III-C3: "in the rare case where the
	// total state size is never below smax during a period, a checkpoint
	// will be performed anyway at the end of the period").
	Period time.Duration
	// Dynamic lists the dynamic HAUs (profiling output). If nil, the
	// controller discovers them during Profile.
	Dynamic []string
	// Profile from a prior profiling phase (MS-src+ap+aa). Zero value
	// means "not profiled yet".
	Profile statesize.Profile

	// RetainEpochs keeps the newest N complete checkpoints — and the
	// preserved source tuples needed to replay from the oldest of them —
	// instead of garbage-collecting everything below the MRC. N <= 1
	// retains only the MRC. Retention is what lets whole-application
	// recovery fall back to an older epoch when the newest one's blobs
	// turn out to be lost or corrupted.
	RetainEpochs int

	// Loops are the fleet policy loops (rebalancer, autoscaler,
	// elasticity, HA planner, fair-share arbiter) the Run loop drives.
	Loops []Loop

	// PingEvery is the failure-detection poll interval.
	PingEvery time.Duration
	// IsAlive reports whether an HAU's node currently responds to pings.
	IsAlive func(hau string) bool
	// OnFailure is invoked (once per incident) when a failure is
	// detected. The cluster layer performs the actual recovery.
	OnFailure func(dead []string)

	Now func() int64
}

// Loop is one periodic fleet policy. Run gives each loop with a positive
// Every and a non-nil Step its own goroutine, which calls Step once per
// tick. A tick is skipped while a failure incident is open or when
// checkpoints were already paused as it fired, and a tick that lands while
// Step is still running is dropped: a step may block for a live
// migration's drain, and failure pings and checkpoint triggers keep
// flowing meanwhile. A failed step is retried from fresh measurements on
// the next tick.
type Loop struct {
	Every time.Duration
	Step  func() (int, error)
}

// EpochStat aggregates one application checkpoint for reporting (Fig. 14).
type EpochStat struct {
	Epoch     uint64
	Started   int64 // controller clock, ns
	Finished  int64
	Breakdown map[string]spe.CheckpointBreakdown
	Complete  bool
}

// SlowestBreakdown returns the individual checkpoint with the largest
// critical path — the number Fig. 14 reports for the parallel schemes.
func (e *EpochStat) SlowestBreakdown() spe.CheckpointBreakdown {
	var worst spe.CheckpointBreakdown
	for _, b := range e.Breakdown {
		if b.Total() > worst.Total() {
			worst = b
		}
	}
	return worst
}

// WallTime returns trigger-to-last-done duration — the number reported for
// MS-src, where token propagation and individual checkpoints overlap.
func (e *EpochStat) WallTime() time.Duration {
	return time.Duration(e.Finished - e.Started)
}

// Controller coordinates checkpointing and failure detection.
type Controller struct {
	cfg Config

	// trigMu serializes TriggerCheckpoint from epoch allocation through
	// the broadcast, so every HAU receives checkpoint commands in epoch
	// order. Taken before mu; never held under a cluster lock.
	trigMu     sync.Mutex
	mu         sync.Mutex
	haus       map[string]*spe.HAU
	epoch      uint64
	epochs     map[uint64]*EpochStat
	alert      bool
	alertEpoch bool // a checkpoint has fired in the current period
	agg        *statesize.Aggregator
	dynamic    map[string]bool
	profiling  bool
	profAgg    *statesize.Aggregator
	lastPrune  uint64
	failed     bool
	paused     int       // PauseCheckpoints nesting depth
	pausedAt   time.Time // when the outermost pause began

	tpCh chan tpEvent
	done chan struct{}
}

type tpEvent struct {
	hau    string
	at     int64
	size   int64
	icr    float64
	halved bool
}

// New returns a controller; call Run to start it.
func New(cfg Config) *Controller {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.PingEvery <= 0 {
		cfg.PingEvery = 50 * time.Millisecond
	}
	c := &Controller{
		cfg:     cfg,
		haus:    make(map[string]*spe.HAU),
		epochs:  make(map[uint64]*EpochStat),
		agg:     statesize.NewAggregator(),
		dynamic: make(map[string]bool),
		tpCh:    make(chan tpEvent, 1024),
		done:    make(chan struct{}),
	}
	for _, id := range cfg.Dynamic {
		c.dynamic[id] = true
	}
	for id, h := range cfg.HAUs {
		c.haus[id] = h
	}
	return c
}

// SetHAUs installs (or replaces after recovery) the live HAU instances the
// controller commands and pings. The map is copied.
func (c *Controller) SetHAUs(haus map[string]*spe.HAU) {
	c.mu.Lock()
	c.haus = make(map[string]*spe.HAU, len(haus))
	for id, h := range haus {
		c.haus[id] = h
	}
	c.mu.Unlock()
}

// hauSnapshot returns a copy of the live HAU map.
func (c *Controller) hauSnapshot() map[string]*spe.HAU {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]*spe.HAU, len(c.haus))
	for id, h := range c.haus {
		out[id] = h
	}
	return out
}

// Epoch returns the most recently triggered epoch number.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// EpochStats returns a snapshot of all epoch statistics.
func (c *Controller) EpochStats() []EpochStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EpochStat, 0, len(c.epochs))
	for _, e := range c.epochs {
		cp := *e
		cp.Breakdown = make(map[string]spe.CheckpointBreakdown, len(e.Breakdown))
		for k, v := range e.Breakdown {
			cp.Breakdown[k] = v
		}
		out = append(out, cp)
	}
	return out
}

// Stat returns the stats for one epoch.
func (c *Controller) Stat(epoch uint64) (EpochStat, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.epochs[epoch]
	if !ok {
		return EpochStat{}, false
	}
	// Deep-copy the breakdown map: the shallow copy would alias the live
	// map CheckpointDone keeps mutating, racing with the caller's reads.
	cp := *e
	cp.Breakdown = make(map[string]spe.CheckpointBreakdown, len(e.Breakdown))
	for k, v := range e.Breakdown {
		cp.Breakdown[k] = v
	}
	return cp, ok
}

// InAlertMode reports the alert-mode flag (tests / diagnostics).
func (c *Controller) InAlertMode() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alert
}

// PauseCheckpoints suspends scheme-driven checkpoint triggers — the
// periodic tick and alert-mode firing — until the matching
// ResumeCheckpoints. Calls nest. Manual TriggerCheckpoint calls still
// work: the live-migration engine pauses the scheduler, then drives one
// explicit epoch to quiesce any in-flight alignment before it drains, so
// migration tokens never interleave with checkpoint tokens.
func (c *Controller) PauseCheckpoints() {
	c.mu.Lock()
	if c.paused == 0 {
		c.pausedAt = time.Now()
	}
	c.paused++
	c.mu.Unlock()
}

// ResumeCheckpoints re-enables scheme-driven checkpoint triggers.
func (c *Controller) ResumeCheckpoints() {
	c.mu.Lock()
	if c.paused > 0 {
		c.paused--
	}
	c.mu.Unlock()
}

// CheckpointsPaused reports whether scheme-driven triggers are suspended.
func (c *Controller) CheckpointsPaused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.paused > 0
}

// TriggerCheckpoint starts the next checkpoint epoch immediately and
// returns its number. MS-src sends the command to source HAUs, which
// checkpoint and trickle cascading tokens; MS-src+ap(+aa) broadcasts 1-hop
// token commands to every HAU (§III-B, Fig. 7: "the controller sends a
// token command to every HAU simultaneously"). Concurrent triggers
// broadcast in the order they allocate epochs: an HAU handed epoch N+1
// before N skips N as stale, and N can never complete.
func (c *Controller) TriggerCheckpoint() uint64 {
	c.trigMu.Lock()
	defer c.trigMu.Unlock()
	c.mu.Lock()
	c.epoch++
	ep := c.epoch
	c.epochs[ep] = &EpochStat{
		Epoch:     ep,
		Started:   c.cfg.Now(),
		Breakdown: make(map[string]spe.CheckpointBreakdown),
	}
	c.alertEpoch = true
	if c.alert {
		c.alert = false // alert mode is dismissed once a checkpoint fires
		c.broadcastLocked(spe.Command{Kind: spe.CmdAlertOff})
	}
	c.mu.Unlock()

	cmd := spe.Command{Kind: spe.CmdCheckpoint, Epoch: ep}
	if c.cfg.Scheme.OneHopTokens() {
		c.broadcast(cmd)
	} else {
		haus := c.hauSnapshot()
		for _, id := range c.cfg.Sources {
			if h := haus[id]; h != nil {
				h.Command(cmd)
			}
		}
	}
	return ep
}

func (c *Controller) broadcast(cmd spe.Command) {
	for _, h := range c.hauSnapshot() {
		if h != nil {
			h.Command(cmd)
		}
	}
}

// broadcastLocked sends to dynamic HAUs only; callers hold c.mu.
func (c *Controller) broadcastLocked(cmd spe.Command) {
	for id := range c.dynamic {
		if h := c.haus[id]; h != nil {
			h.Command(cmd)
		}
	}
}

// CheckpointDone implements spe.Listener.
func (c *Controller) CheckpointDone(hau string, epoch uint64, b spe.CheckpointBreakdown) {
	c.mu.Lock()
	st := c.epochs[epoch]
	if st == nil {
		st = &EpochStat{Epoch: epoch, Breakdown: make(map[string]spe.CheckpointBreakdown)}
		c.epochs[epoch] = st
	}
	st.Breakdown[hau] = b
	st.Finished = c.cfg.Now()
	complete := len(st.Breakdown) == len(c.haus)
	st.Complete = complete
	c.mu.Unlock()

	if complete {
		c.onEpochComplete(epoch)
	}
}

func (c *Controller) onEpochComplete(epoch uint64) {
	// Preserved tuples from before the retention horizon can never be
	// replayed again: prune source logs and GC older checkpoints. The
	// horizon is the oldest retained epoch, not the MRC, so a fallback
	// recovery from any retained epoch still finds its replay tuples.
	if _, ok := c.cfg.Catalog.MostRecentComplete(); ok {
		keep := c.retentionHorizon()
		c.mu.Lock()
		doPrune := keep > c.lastPrune
		if doPrune {
			c.lastPrune = keep
		}
		c.mu.Unlock()
		if doPrune {
			for _, l := range c.cfg.SourceLogs {
				l.Prune(keep)
			}
			c.cfg.Catalog.GC(keep)
		}
	}
}

// retentionHorizon returns the oldest epoch that must survive GC: the
// RetainEpochs-th newest complete epoch (the MRC when retention is off).
func (c *Controller) retentionHorizon() uint64 {
	eps := c.cfg.Catalog.CompleteEpochs() // newest-first
	if len(eps) == 0 {
		return 0
	}
	n := c.cfg.RetainEpochs
	if n < 1 {
		n = 1
	}
	if n > len(eps) {
		n = len(eps)
	}
	return eps[n-1]
}

// TurningPoint implements spe.Listener: HAU state-size reports flow here.
func (c *Controller) TurningPoint(hau string, at int64, size int64, icr float64, halved bool) {
	select {
	case c.tpCh <- tpEvent{hau, at, size, icr, halved}:
	default:
		// Drop under backlog; reports are advisory.
	}
}

// Stopped implements spe.Listener.
func (c *Controller) Stopped(string, error) {}

// Run drives periodic checkpoints, alert mode and failure detection until
// ctx is cancelled.
func (c *Controller) Run(ctx context.Context) {
	defer close(c.done)
	var periodTick, pingTick *time.Ticker
	if c.cfg.Period > 0 {
		periodTick = time.NewTicker(c.cfg.Period)
		defer periodTick.Stop()
	} else {
		periodTick = time.NewTicker(time.Hour)
		defer periodTick.Stop()
	}
	pingTick = time.NewTicker(c.cfg.PingEvery)
	defer pingTick.Stop()
	for _, l := range c.cfg.Loops {
		if l.Every > 0 && l.Step != nil {
			go c.runLoop(ctx, l)
		}
	}

	aa := c.cfg.Scheme.ApplicationAware()
	if aa {
		c.mu.Lock()
		c.alertEpoch = false
		c.mu.Unlock()
		c.maybeEnterAlert() // period start check
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-periodTick.C:
			if c.cfg.Scheme == spe.Baseline {
				continue // baseline HAUs checkpoint on their own timers
			}
			if c.CheckpointsPaused() {
				continue // a live migration is draining
			}
			if aa {
				c.mu.Lock()
				fired := c.alertEpoch
				c.alertEpoch = false
				c.mu.Unlock()
				if !fired {
					// State never dropped below smax this period.
					c.TriggerCheckpoint()
					c.mu.Lock()
					c.alertEpoch = false
					c.mu.Unlock()
				}
				c.maybeEnterAlert()
			} else {
				c.TriggerCheckpoint()
			}
		case ev := <-c.tpCh:
			c.onTurningPoint(ev)
		case <-pingTick.C:
			c.pingNodes()
		}
	}
}

// runLoop drives one policy loop until ctx is cancelled. Step runs inline,
// so no tick that lands while it is still running starts another step.
func (c *Controller) runLoop(ctx context.Context, l Loop) {
	tick := time.NewTicker(l.Every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case at := <-tick.C:
			// A tick is judged by the state it fired into: a pause that a
			// sibling loop's step began after that, on the same tick, does
			// not skip it, whichever goroutine runs first.
			c.mu.Lock()
			skip := c.failed || (c.paused > 0 && !c.pausedAt.After(at))
			c.mu.Unlock()
			if skip || ctx.Err() != nil {
				continue // a tick racing cancellation starts no step
			}
			_, _ = l.Step()
			// Drop the tick that landed while Step ran.
			select {
			case <-tick.C:
			default:
			}
		}
	}
}

// Done is closed when Run exits.
func (c *Controller) Done() <-chan struct{} { return c.done }

func (c *Controller) onTurningPoint(ev tpEvent) {
	if !c.cfg.Scheme.ApplicationAware() {
		return
	}
	c.mu.Lock()
	if c.profiling {
		c.profAgg.Report(ev.hau, ev.at, ev.size, ev.icr)
		c.mu.Unlock()
		return
	}
	if !c.dynamic[ev.hau] {
		c.mu.Unlock()
		return
	}
	inAlert := c.alert
	fired := c.alertEpoch
	c.mu.Unlock()

	switch {
	case inAlert:
		// §III-C3: in alert mode HAUs report every turning point with
		// ICR; a positive aggregate ICR means the total size is about to
		// grow — checkpoint now.
		c.mu.Lock()
		c.agg.Report(ev.hau, ev.at, ev.size, ev.icr)
		total := c.agg.TotalICR()
		paused := c.paused > 0
		c.mu.Unlock()
		if total > 0 && !paused {
			c.TriggerCheckpoint()
		}
	case ev.halved && !fired:
		// Passive mode: a dynamic HAU noticed its state halved — query
		// everyone and maybe enter alert mode.
		c.maybeEnterAlert()
	}
}

// maybeEnterAlert queries dynamic HAU sizes and arms alert mode when the
// total is below smax.
func (c *Controller) maybeEnterAlert() {
	c.mu.Lock()
	if c.alert || c.cfg.Profile.Smax == 0 {
		c.mu.Unlock()
		return
	}
	var total int64
	now := c.cfg.Now()
	for id := range c.dynamic {
		if h := c.haus[id]; h != nil {
			sz := h.CachedStateSize()
			total += sz
			c.agg.Report(id, now, sz, 0)
		}
	}
	enter := total < c.cfg.Profile.Smax
	if enter {
		c.alert = true
		c.broadcastLocked(spe.Command{Kind: spe.CmdAlertOn})
	}
	c.mu.Unlock()
}

// SetOnFailure installs (or replaces) the failure callback.
func (c *Controller) SetOnFailure(fn func(dead []string)) {
	c.mu.Lock()
	c.cfg.OnFailure = fn
	c.mu.Unlock()
}

func (c *Controller) pingNodes() {
	c.mu.Lock()
	onFailure := c.cfg.OnFailure
	c.mu.Unlock()
	if c.cfg.IsAlive == nil || onFailure == nil {
		return
	}
	var dead []string
	for id := range c.hauSnapshot() {
		if !c.cfg.IsAlive(id) {
			dead = append(dead, id)
		}
	}
	if len(dead) == 0 {
		return
	}
	c.mu.Lock()
	already := c.failed
	c.failed = true
	c.mu.Unlock()
	if !already {
		onFailure(dead)
	}
}

// ClearFailure re-arms failure detection after a recovery.
func (c *Controller) ClearFailure() {
	c.mu.Lock()
	c.failed = false
	c.mu.Unlock()
}

// FailurePending reports whether an un-cleared failure incident is open:
// pings found dead HAUs and no recovery has re-armed detection since. The
// chaos harness polls this to know the detector's view converged.
func (c *Controller) FailurePending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// ProfileApplication runs the profiling phase (§III-C2) for dur: every HAU
// reports all turning points; afterwards dynamic HAUs are identified from
// their size series and the alert threshold smax is derived. The resulting
// profile is installed on the controller and returned.
func (c *Controller) ProfileApplication(ctx context.Context, dur time.Duration) statesize.Profile {
	c.mu.Lock()
	c.profiling = true
	c.profAgg = statesize.NewAggregator()
	c.mu.Unlock()
	c.broadcast(spe.Command{Kind: spe.CmdReportAll})

	start := c.cfg.Now()
	timer := time.NewTimer(dur)
	defer timer.Stop()
	for keep := true; keep; {
		select {
		case <-ctx.Done():
			keep = false
		case ev := <-c.tpCh:
			c.onTurningPoint(ev)
		case <-timer.C:
			keep = false
		}
	}
	c.broadcast(spe.Command{Kind: spe.CmdReportNormal})
	end := c.cfg.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.profiling = false
	agg := c.profAgg
	c.profAgg = nil

	// Step 1: find dynamic HAUs — min size below half the average.
	c.dynamic = make(map[string]bool)
	for id := range c.haus {
		pl := perHAUPolyline(agg, id)
		if pl != nil && statesize.IsDynamic(pl.Points()) {
			c.dynamic[id] = true
		}
	}
	// Step 2+3: rebuild the aggregate polyline and derive smax.
	f := agg.AggregatePolyline()
	prof := statesize.BuildProfile(f, start, end, int64(c.cfg.Period))
	c.cfg.Profile = prof
	return prof
}

// Dynamic returns the ids classified as dynamic HAUs.
func (c *Controller) Dynamic() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.dynamic))
	for id := range c.dynamic {
		out = append(out, id)
	}
	return out
}

// InstalledProfile returns the active profile.
func (c *Controller) InstalledProfile() statesize.Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Profile
}

func perHAUPolyline(agg *statesize.Aggregator, id string) *statesize.Polyline {
	// The aggregator keeps per-HAU polylines internally; rebuilding via
	// report replay would duplicate state, so expose through a helper.
	return agg.Line(id)
}
