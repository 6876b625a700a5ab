package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/partition"
	"meteorshower/internal/spe"
)

// Live topology changes (DESIGN.md "Live topology changes"). Migration,
// rescale and standby protection are one idea, the §III checkpoint token
// reused as an in-band fence aimed at the incarnations being changed:
// reconfigure runs it, and MigrateHAU, rescaleHAU and ProtectHAU are plans
// that fill in a change.

// opGuard is the abort contract of every live topology operation: capture
// the recovery generation under cl.mu after validating, re-check it at
// every commit point (a rollback that bumped it rebuilt the HAUs, so the
// operation's captured instances are stale), and wrap every give-up in the
// operation's sentinel error. App-scoped guards (appGuardLocked) track one
// application, so a co-tenant's rollback neither aborts the change nor
// wedges its quiesce; reconfigure uses them. Fleet-scoped guards
// (guardLocked) track the global generation; node drains, which span apps,
// use them only to supersede and wrap errors.
type opGuard struct {
	cl    *Cluster
	app   *appState // nil for fleet-scoped guards
	gen0  uint64
	abort error // the operation's sentinel (ErrMigrationAborted, ...)
}

const (
	quiesceTimeout = 5 * time.Second
	drainTimeout   = 10 * time.Second
)

// guardLocked captures the current fleet recovery generation. Held lock:
// cl.mu.
func (cl *Cluster) guardLocked(abort error) opGuard {
	return opGuard{cl: cl, gen0: cl.gen, abort: abort}
}

// appGuardLocked captures app a's recovery generation: only a rollback of
// THIS app supersedes the operation. Held lock: cl.mu.
func (cl *Cluster) appGuardLocked(a *appState, abort error) opGuard {
	return opGuard{cl: cl, app: a, gen0: a.gen, abort: abort}
}

// supersededLocked reports whether a recovery has bumped the guarded
// generation since the guard was captured. Held lock: cl.mu.
func (g opGuard) supersededLocked() bool {
	if g.app != nil {
		return g.app.gen != g.gen0
	}
	return g.cl.gen != g.gen0
}

// errf wraps a give-up reason in the operation's sentinel.
func (g opGuard) errf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{g.abort}, args...)...)
}

// quiesce drives one FRESH checkpoint epoch of the guarded app to
// completion and returns it. Waiting on an existing epoch would wedge: an
// epoch abandoned by a failure never completes. With the controller's own
// triggers paused, completion means no token alignment is in flight.
func (g opGuard) quiesce(ctx context.Context) (uint64, error) {
	ep := g.app.ctrl.TriggerCheckpoint()
	deadline := time.After(quiesceTimeout)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		if mrc, ok := g.app.catalog.MostRecentComplete(); ok && mrc >= ep {
			return ep, nil
		}
		if len(g.cl.deadHAUsOf(g.app)) > 0 {
			// A member HAU's node is down: the epoch can never complete.
			return ep, g.errf("node failure during quiesce")
		}
		select {
		case <-ctx.Done():
			return ep, g.errf("%v", ctx.Err())
		case <-deadline:
			return ep, g.errf("quiesce epoch %d did not complete", ep)
		case <-tick.C:
		}
	}
}

// drainBlob waits for incarnation h to hand its state blob over on reply
// after a token-barrier drain (CmdMigrateSnap / CmdStandbySnap), or to
// acknowledge a CmdAddInPort once its old input ports have drained. The
// incarnation may reply and exit in the same instant — Done and the
// buffered reply can both be ready, and select picks arbitrarily — so the
// blob is preferred whenever it was handed over.
func (g opGuard) drainBlob(ctx context.Context, h *spe.HAU, reply <-chan []byte, deadline <-chan time.Time) ([]byte, error) {
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case blob := <-reply:
			return blob, nil
		case <-h.Done():
			select {
			case blob := <-reply:
				return blob, nil
			default:
			}
			// Killed mid-drain: the failure detector or chaos harness
			// drives a recovery that re-places it consistently.
			return nil, g.errf("incarnation %q died mid-drain", h.ID())
		case <-ctx.Done():
			return nil, g.errf("%v", ctx.Err())
		case <-deadline:
			return nil, g.errf("drain timed out")
		case <-tick.C:
			// An upstream's node died: its fence token never arrives.
			if len(g.cl.deadHAUsOf(g.app)) > 0 {
				return nil, g.errf("node failure during drain")
			}
		}
	}
}

// change is one live topology change as its plan fills it in, under cl.mu
// at pre-flight. pins are the graph ids held in cl.busy until reconfigure
// returns (the target id unless the plan says more). drain lists the
// incarnations to drain and snap the command they get: CmdMigrateSnap
// retires them (they reply and exit), CmdStandbySnap clones them (they
// reply and keep running). The hooks run at the step of reconfigure named
// beside them; those marked optional may be nil.
type change struct {
	grd   opGuard
	pins  []string
	drain []*spe.HAU
	snap  spe.CommandKind

	divert      func() ([]order, error)                         // 4, under cl.mu: the fence commands, in send order
	reshape     func(blobs [][]byte) error                      // 5, off the lock, optional
	commit      func(blobs [][]byte) ([]launch, []order, error) // 6, under cl.mu: new incarnations, acknowledged post-commit commands
	commitEpoch func(ep uint64)                                 // 6, under cl.mu unless superseded, optional
	abandon     func()                                          // any give-up from 4 until 6 succeeds, optional

	drained  time.Duration // divert commands sent -> last blob handed over
	down, up time.Time     // last blob handed over; new incarnations running
}

// order is one command reconfigure sends; reply, set on every
// post-commit command, is the receive side of its Reply.
type order struct {
	h     *spe.HAU
	cmd   spe.Command
	reply chan []byte
}

// launch is a new incarnation installed at commit, started once cl.mu is
// released.
type launch struct {
	h   *spe.HAU
	ctx context.Context
}

// errNoChange is a plan's verdict that the change is a no-op;
// reconfigure then reports success without touching the topology.
var errNoChange = errors.New("cluster: nothing to change")

// installLocked places incarnation inc on node with input grid in, builds
// it from blob and registers it; the second result is the state
// deserialization time. Held lock: cl.mu.
func (cl *Cluster) installLocked(inc string, node int, in [][]*spe.Edge, blob []byte) (launch, time.Duration, error) {
	cl.hauNode[inc] = node
	cl.inEdges[inc] = in
	h, _, restore, err := cl.buildHAU(inc, blob)
	if err != nil {
		return launch{}, 0, err
	}
	hctx, cancel := context.WithCancel(cl.rootCtx)
	cl.haus[inc], cl.cancels[inc] = h, cancel
	return launch{h, hctx}, restore, nil
}

// upstreamOrdersLocked builds one divert command per incarnation of every
// upstream of id, from id's input port p fed by that upstream, the
// incarnation's column k in the input grid, and the upstream's output port
// toward id. Held lock: cl.mu.
func (cl *Cluster) upstreamOrdersLocked(grd opGuard, id string, mk func(p, k, outPort int) spe.Command) ([]order, error) {
	g := cl.graph
	var out []order
	for p, up := range g.Upstream(id) {
		outPort := g.OutPortOf(up, id)
		for k, uinc := range cl.expandedLocked(up) {
			uh := cl.haus[uinc]
			if uh == nil {
				return nil, grd.errf("upstream incarnation %q not running", uinc)
			}
			out = append(out, order{h: uh, cmd: mk(p, k, outPort)})
		}
	}
	return out, nil
}

// movableLocked reports whether MigrateHAU could take incarnation id now:
// an unsplit operator no live topology change holds and active-standby
// replication does not pin. Held lock: cl.mu.
func (cl *Cluster) movableLocked(id string) bool {
	return !partition.IsReplica(id) && cl.parts[id] == nil && !cl.busy[id] && !cl.haPinnedLocked(id)
}

// staleLocked reports whether a recovery superseded the change or a
// drained incarnation is no longer the registered one. Held lock: cl.mu.
func (c *change) staleLocked(cl *Cluster) bool {
	for _, h := range c.drain {
		if cl.haus[h.ID()] != h {
			return true
		}
	}
	return c.grd.supersededLocked()
}

// reconfigure runs one live topology change of graph id (named op in
// errors) through six steps; DESIGN.md "Live topology changes" gives the
// reasons for each.
//
//  1. Pre-flight under cl.mu: started, a known base operator, a token
//     scheme, not pinned by active-standby replication; then plan.
//  2. Pin c.pins in cl.busy, refusing the change if one is held already.
//  3. Pause the app's checkpoint triggers until return, and quiesce.
//  4. Unless stale, send c.divert's commands.
//  5. Drain every incarnation in c.drain against one deadline; c.reshape.
//  6. Unless stale, cancel and unregister the retired incarnations and
//     c.commit under cl.mu; start the new ones, send the post-commit
//     commands, await their replies, and hand c.commitEpoch a fresh epoch.
//
// Every give-up returns an error wrapping the operation's sentinel (or a
// plain error when the request itself is invalid or a restore fails);
// c.abandon runs on a give-up between steps 4 and 6. The pins and the
// checkpoint pause are released on every path.
func (cl *Cluster) reconfigure(ctx context.Context, op, id string, abort error, plan func(c *change) error) (*change, error) {
	if cl.cfg.Scheme == spe.Baseline {
		return nil, fmt.Errorf("cluster: %s requires a token scheme (not Baseline)", op)
	}
	if partition.IsReplica(id) {
		return nil, fmt.Errorf("cluster: %s targets the base operator, not replica %q", op, id)
	}
	cl.mu.Lock()
	c, err := cl.pinLocked(op, id, abort, plan)
	cl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	defer func() {
		cl.mu.Lock()
		for _, p := range c.pins {
			delete(cl.busy, p)
		}
		cl.mu.Unlock()
	}()
	grd := c.grd
	grd.app.ctrl.PauseCheckpoints()
	defer grd.app.ctrl.ResumeCheckpoints()
	if _, err := grd.quiesce(ctx); err != nil {
		return c, err
	}

	cl.mu.Lock()
	var orders []order
	if c.staleLocked(cl) {
		err = grd.errf("superseded before divert")
	} else {
		orders, err = c.divert()
	}
	cl.mu.Unlock()
	if err != nil {
		return c, err
	}
	drainStart := time.Now()
	for _, o := range orders {
		o.h.Command(o.cmd)
	}
	launches, after, err := cl.drainAndCommit(ctx, c, drainStart)
	if err != nil {
		if c.abandon != nil {
			c.abandon()
		}
		return c, err
	}
	for _, l := range launches {
		l.h.Start(l.ctx)
	}
	for _, o := range after {
		o.h.Command(o.cmd)
	}
	c.up = time.Now()

	deadline := time.After(drainTimeout)
	for _, o := range after {
		if _, err := grd.drainBlob(ctx, o.h, o.reply, deadline); err != nil {
			return c, fmt.Errorf("commit epoch: %w", err)
		}
	}
	if c.commitEpoch != nil {
		ep, err := grd.quiesce(ctx)
		if err != nil {
			// The new topology is live without a durable epoch: a recovery
			// before the next one restores the old topology, consistently.
			return c, fmt.Errorf("commit epoch: %w", err)
		}
		cl.mu.Lock()
		if !grd.supersededLocked() {
			c.commitEpoch(ep)
		}
		cl.mu.Unlock()
	}
	return c, nil
}

// pinLocked is reconfigure's pre-flight and pin. Held lock: cl.mu.
func (cl *Cluster) pinLocked(op, id string, abort error, plan func(c *change) error) (*change, error) {
	if !cl.started {
		return nil, errors.New("cluster: not started")
	}
	if !cl.graph.Has(id) {
		return nil, fmt.Errorf("cluster: unknown HAU %q", id)
	}
	if cl.haPinnedLocked(id) {
		return nil, fmt.Errorf("cluster: HAU %q is pinned by active-standby replication (protected or adjacent to a protected HAU); demote first", id)
	}
	c := &change{grd: cl.appGuardLocked(cl.appOf(id), abort), pins: []string{id}}
	if err := plan(c); err != nil {
		return nil, err
	}
	for _, h := range c.drain {
		if h == nil {
			return nil, fmt.Errorf("cluster: an incarnation of %q is not running", id)
		}
	}
	for _, p := range c.pins {
		if cl.busy[p] {
			return nil, fmt.Errorf("cluster: HAU %q is mid-change (migration, rescale or protection); %s refused", p, op)
		}
	}
	for _, p := range c.pins {
		cl.busy[p] = true
	}
	return c, nil
}

// drainAndCommit is reconfigure's steps 5 and 6 up to the start of the new
// incarnations.
func (cl *Cluster) drainAndCommit(ctx context.Context, c *change, drainStart time.Time) ([]launch, []order, error) {
	replies := make([]chan []byte, len(c.drain))
	for i, h := range c.drain {
		replies[i] = make(chan []byte, 1)
		h.Command(spe.Command{Kind: c.snap, Reply: replies[i]})
	}
	blobs := make([][]byte, len(c.drain))
	deadline := time.After(drainTimeout)
	for i, h := range c.drain {
		var err error
		if blobs[i], err = c.grd.drainBlob(ctx, h, replies[i], deadline); err != nil {
			return nil, nil, err
		}
	}
	c.drained = time.Since(drainStart)
	c.down = time.Now()
	if c.reshape != nil {
		if err := c.reshape(blobs); err != nil {
			return nil, nil, err
		}
	}

	cl.mu.Lock()
	defer cl.mu.Unlock()
	if c.staleLocked(cl) {
		return nil, nil, c.grd.errf("superseded during drain")
	}
	retire := c.snap == spe.CmdMigrateSnap
	if retire {
		for _, h := range c.drain {
			inc := h.ID()
			if cancel := cl.cancels[inc]; cancel != nil {
				cancel() // release the exited incarnation's context
			}
			delete(cl.cancels, inc)
			delete(cl.haus, inc)
			delete(cl.hauNode, inc)
			delete(cl.inEdges, inc)
		}
	}
	launches, after, err := c.commit(blobs)
	if err == nil && retire {
		cl.installControllerHAUs()
	}
	return launches, after, err
}
