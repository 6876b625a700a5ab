package cluster

import (
	"context"
	"fmt"
	"time"

	"meteorshower/internal/spe"
)

// Every live topology operation — migration, rescale, drain, failover —
// shares one abort contract: capture the recovery generation under cl.mu
// after validating, re-check it at every commit point (a whole-application
// rollback bumping the generation rebuilt every HAU, so the operation's
// captured instances are stale), and surface every give-up wrapped in the
// operation's sentinel error. opGuard is that contract, shared so the
// quiesce epoch and the token-barrier blob drain are written once instead
// of once per operation.
//
// Guards come in two scopes. App-scoped guards (appGuardLocked) track one
// application's recovery generation and poll only that app's controller,
// catalog and liveness — a co-tenant's rollback neither aborts the
// operation nor wedges its quiesce. Fleet-scoped guards (guardLocked)
// track the global generation and are used by operations that span apps
// (node drains).
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

// deadHAUs returns the failure probe scoped like the guard: only the
// guarded app's HAUs, or every app's for fleet guards.
func (g opGuard) deadHAUs() []string {
	if g.app != nil {
		return g.cl.deadHAUsOf(g.app)
	}
	return g.cl.DeadHAUs()
}

// mostRecentComplete consults the guarded app's catalog (fleet guards use
// the anchor app's — they only exist in single-app flows).
func (g opGuard) mostRecentComplete() (uint64, bool) {
	if g.app != nil {
		return g.app.catalog.MostRecentComplete()
	}
	return g.cl.catalog.MostRecentComplete()
}

// quiesce drives one fresh checkpoint epoch to completion and returns it.
// Waiting on an EXISTING epoch would wedge: an epoch abandoned by a
// failure never completes. A fresh epoch triggered while the application
// is healthy completes quickly; if it does not, something is already wrong
// and the caller aborts. Callers pause the controller's own triggers
// first, so completion means no token alignment is in flight afterwards.
func (g opGuard) quiesce(ctx context.Context) (uint64, error) {
	ctrl := g.cl.ctrl
	if g.app != nil {
		ctrl = g.app.ctrl
	}
	ep := ctrl.TriggerCheckpoint()
	deadline := time.After(quiesceTimeout)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		if mrc, ok := g.mostRecentComplete(); ok && mrc >= ep {
			return ep, nil
		}
		if len(g.deadHAUs()) > 0 {
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

// drainBlob waits for incarnation id to hand its state blob over on reply
// after a token-barrier drain (CmdMigrateSnap / CmdStandbySnap), or to
// acknowledge a CmdAddInPort once its old input ports have drained. The
// incarnation may reply and exit in the same instant — Done and the
// buffered reply can both be ready, and select picks arbitrarily — so the
// blob is preferred whenever it was handed over. deadline is shared by
// callers draining several incarnations against one clock.
func (g opGuard) drainBlob(ctx context.Context, id string, h *spe.HAU, reply <-chan []byte, deadline <-chan time.Time) ([]byte, error) {
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
			// It died before handing its state over (node killed
			// mid-drain). The failure detector / chaos harness drives a
			// whole-application recovery that re-places it consistently.
			return nil, g.errf("incarnation %q died mid-drain", id)
		case <-ctx.Done():
			return nil, g.errf("%v", ctx.Err())
		case <-deadline:
			return nil, g.errf("drain timed out")
		case <-tick.C:
			// An upstream's node died: its migration token will never
			// arrive, so the drain cannot complete. Bail out now rather
			// than burning the whole timeout — recovery is coming anyway.
			if len(g.deadHAUs()) > 0 {
				return nil, g.errf("node failure during drain")
			}
		}
	}
}
