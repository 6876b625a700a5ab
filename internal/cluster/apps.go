// Multi-tenancy: the app registry. A Cluster historically ran exactly one
// application (cfg.App); this file generalizes it to a registry of
// applications sharing the fleet. Each application keeps its own namespaced
// graph, checkpoint catalog, source logs, geometry journal, controller (its
// own checkpoint epochs and failure pings) and recovery generation — so one
// tenant's whole-application rollback never touches a co-tenant. The
// weighted fair-share arbiter (internal/tenant) plans bounded migrations
// that segregate tenants onto disjoint node sets sized by their fairness
// weights.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"meteorshower/internal/buffer"
	"meteorshower/internal/controller"
	"meteorshower/internal/graph"
	"meteorshower/internal/operator"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tenant"
)

// appState is everything one application owns on the shared fleet. The
// immutable identity fields (spec, name, prefix, weight, graph, catalog,
// sourceLogs map identity, ctrl) are set before the state is published; the
// mutable fields (geom, gen, ctrlCancel) are guarded by cl.mu.
type appState struct {
	spec   AppSpec
	name   string
	prefix string // id namespace; "" for the legacy single-app cluster
	weight float64
	// graph is the spec's query network with every id namespaced by prefix.
	graph *graph.Graph
	// catalog tracks this application's checkpoint epochs on the shared
	// store. Blob keys embed namespaced HAU ids, so co-tenant catalogs
	// never collide.
	catalog *storage.Catalog
	// ctrl runs this application's checkpoint ticks and failure pings over
	// its own HAUs only — per-app failure detection is what makes recovery
	// isolation real. Fleet-wide loops (rebalance, elastic, HA, arbiter)
	// ride on the first app's controller.
	ctrl       *controller.Controller
	ctrlCancel context.CancelFunc
	sourceLogs map[string]*buffer.SourceLog
	// geom journals this application's partition geometry per commit epoch
	// (see geomEntry); gen counts this application's recoveries — the
	// per-app half of the opGuard abort contract.
	geom []geomEntry
	gen  uint64
}

// validateAppSpec rejects specs the registry cannot host.
func validateAppSpec(spec AppSpec, named bool) error {
	if spec.Graph == nil || spec.NewOperators == nil {
		return errors.New("cluster: incomplete app spec")
	}
	if named {
		if spec.Name == "" {
			return errors.New("cluster: multi-tenant apps need a name")
		}
		if strings.Contains(spec.Name, tenant.Sep) || strings.Contains(spec.Name, "~") {
			return fmt.Errorf("cluster: app name %q may not contain %q or %q", spec.Name, tenant.Sep, "~")
		}
	}
	if err := spec.Graph.Validate(); err != nil {
		return fmt.Errorf("cluster: app %q: %w", spec.Name, err)
	}
	return nil
}

// newAppState builds the per-app state for spec under the given id prefix
// ("" keeps bare ids — byte-compatible with every single-app checkpoint).
func (cl *Cluster) newAppState(spec AppSpec, prefix string) *appState {
	g := spec.Graph.Renamed(func(id string) string { return tenant.Qualify(prefix, id) })
	return &appState{
		spec:       spec,
		name:       spec.Name,
		prefix:     prefix,
		weight:     tenant.Spec{Name: spec.Name, Weight: spec.Weight}.NormWeight(),
		graph:      g,
		catalog:    storage.NewCatalog(cl.shared, g.Nodes()),
		sourceLogs: make(map[string]*buffer.SourceLog),
	}
}

// appCtrlCfg assembles the per-app controller configuration: the app's own
// sources, catalog and source logs, shared cadence and liveness plumbing.
// Fleet hooks are layered on by New for the first app only.
func (cl *Cluster) appCtrlCfg(a *appState) controller.Config {
	return controller.Config{
		Scheme:       cl.cfg.Scheme,
		Sources:      a.graph.Sources(),
		Catalog:      a.catalog,
		SourceLogs:   a.sourceLogs,
		Period:       cl.cfg.CkptPeriod,
		RetainEpochs: cl.cfg.RetainEpochs,
		IsAlive:      cl.hauAlive,
		Now:          cl.cfg.Now,
	}
}

// appsSnapshot copies the registry slice. Safe under cl.mu (lock order is
// cl.mu then appMu) or lock-free.
func (cl *Cluster) appsSnapshot() []*appState {
	cl.appMu.RLock()
	defer cl.appMu.RUnlock()
	return append([]*appState(nil), cl.apps...)
}

// appOf resolves the application owning HAU id by its namespace prefix.
// Bare ids (and any id whose prefix is unknown, e.g. a legacy single-app id
// that happens to contain the separator) resolve to the first app.
func (cl *Cluster) appOf(id string) *appState {
	cl.appMu.RLock()
	defer cl.appMu.RUnlock()
	if a := cl.appByPrefix[tenant.AppOf(id)]; a != nil {
		return a
	}
	return cl.apps[0]
}

// newOperators builds a fresh operator chain for incarnation id of app a.
// Namespaced apps see their local id (the spec never learns its prefix);
// the legacy unnamed app sees the id verbatim.
func (cl *Cluster) newOperators(a *appState, id string) []operator.Operator {
	if a.prefix == "" {
		return a.spec.NewOperators(id)
	}
	return a.spec.NewOperators(tenant.LocalID(id))
}

// incarnationsLocked returns every live incarnation id across all apps,
// graph order then replica order. Held lock: cl.mu.
func (cl *Cluster) incarnationsLocked() []string {
	var out []string
	for _, id := range cl.graph.Nodes() {
		out = append(out, cl.expandedLocked(id)...)
	}
	return out
}

// incarnationsOfLocked returns app a's live incarnation ids, graph order
// then replica order — a's catalog membership set. Held lock: cl.mu.
func (cl *Cluster) incarnationsOfLocked(a *appState) []string {
	var out []string
	for _, id := range a.graph.Nodes() {
		out = append(out, cl.expandedLocked(id)...)
	}
	return out
}

// deadOfLocked returns app a's incarnations whose node is dead or that have
// no placement. Held lock: cl.mu.
func (cl *Cluster) deadOfLocked(a *appState) []string {
	var out []string
	for _, id := range a.graph.Nodes() {
		for _, inc := range cl.expandedLocked(id) {
			n, ok := cl.hauNode[inc]
			if !ok || !cl.nodes[n].alive.Load() {
				out = append(out, inc)
			}
		}
	}
	return out
}

// deadHAUsOf is deadOfLocked with locking — the per-app failure probe the
// quiesce/drain guards poll so a co-tenant's failure never aborts this
// app's operation.
func (cl *Cluster) deadHAUsOf(a *appState) []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.deadOfLocked(a)
}

// AppNames lists the registered applications in registry order.
func (cl *Cluster) AppNames() []string {
	cl.appMu.RLock()
	defer cl.appMu.RUnlock()
	out := make([]string, len(cl.apps))
	for i, a := range cl.apps {
		out[i] = a.name
	}
	return out
}

// AppOfHAU returns the name of the application owning HAU id.
func (cl *Cluster) AppOfHAU(id string) string { return cl.appOf(id).name }

// AppController exposes the controller of the named application (nil for an
// unknown name). Tests drive per-app checkpoint epochs through it.
func (cl *Cluster) AppController(name string) *controller.Controller {
	cl.appMu.RLock()
	defer cl.appMu.RUnlock()
	for _, a := range cl.apps {
		if a.name == name {
			return a.ctrl
		}
	}
	return nil
}

// AppCatalog exposes the checkpoint catalog of the named application.
func (cl *Cluster) AppCatalog(name string) *storage.Catalog {
	cl.appMu.RLock()
	defer cl.appMu.RUnlock()
	for _, a := range cl.apps {
		if a.name == name {
			return a.catalog
		}
	}
	return nil
}

// ProcessedOf sums ProcessedCount over the named application's live HAUs —
// the per-tenant throughput numerator.
func (cl *Cluster) ProcessedOf(name string) uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var n uint64
	for id, h := range cl.haus {
		if cl.appOf(id).name == name {
			n += h.ProcessedCount()
		}
	}
	return n
}

// ArbiterShares returns the fair shares the arbiter computed on its latest
// step (app name -> fraction of fleet capacity); nil before the first step
// or when arbitration is off.
func (cl *Cluster) ArbiterShares() map[string]float64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.lastShares == nil {
		return nil
	}
	out := make(map[string]float64, len(cl.lastShares))
	for k, v := range cl.lastShares {
		out[k] = v
	}
	return out
}

// SetAppFailureHandler installs per-app failure callbacks: when an
// application's own ping loop detects dead HAUs, fn receives that app's
// name and the dead ids. Co-tenants keep running — the caller typically
// responds with RecoverApp(ctx, app), not a fleet-wide rollback.
func (cl *Cluster) SetAppFailureHandler(fn func(app string, dead []string)) {
	for _, a := range cl.appsSnapshot() {
		a := a
		a.ctrl.SetOnFailure(func(dead []string) { fn(a.name, dead) })
	}
}

// AddApp registers a new application on a running (or not-yet-started)
// fleet: its graph is namespaced and unioned into the cluster topology, a
// controller is created (and started when the fleet's controllers already
// run), its HAUs are placed by the active policy and started when the
// cluster is live. Weights take effect on the arbiter's next step.
func (cl *Cluster) AddApp(ctx context.Context, spec AppSpec) error {
	if err := validateAppSpec(spec, true); err != nil {
		return err
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.appMu.RLock()
	dup := cl.appByPrefix[spec.Name] != nil
	for _, a := range cl.apps {
		if a.name == spec.Name {
			dup = true
		}
	}
	cl.appMu.RUnlock()
	if dup {
		return fmt.Errorf("cluster: app %q already registered", spec.Name)
	}
	a := cl.newAppState(spec, spec.Name)
	union, err := graph.Union(cl.graph, a.graph)
	if err != nil {
		return fmt.Errorf("cluster: app %q: %w", spec.Name, err)
	}
	a.ctrl = controller.New(cl.appCtrlCfg(a))
	cl.graph = union
	cl.appMu.Lock()
	cl.apps = append(cl.apps, a)
	cl.appByPrefix[a.prefix] = a
	cl.appMu.Unlock()

	ids := a.graph.Nodes()
	placed := cl.policy.Assign(ids, cl.viewLocked(nil))
	for i, id := range ids {
		n, ok := placed[id]
		if !ok || n < 0 || n >= len(cl.nodes) || !cl.nodes[n].schedulable() {
			n = cl.firstHealthyLocked()
			if n < 0 {
				n = i % len(cl.nodes)
			}
		}
		cl.hauNode[id] = n
	}
	if cl.started {
		if err := cl.launchFreshLocked(ids); err != nil {
			return fmt.Errorf("cluster: app %q: %w", spec.Name, err)
		}
	}
	if cl.ctrlCtx != nil {
		actx, cancel := context.WithCancel(cl.ctrlCtx)
		a.ctrlCancel = cancel
		go a.ctrl.Run(actx)
	}
	return nil
}

// RemoveApp unregisters an application: its HAUs and standbys stop, its
// bookkeeping is dropped, and its nodes become free capacity for the
// remaining tenants. The first app anchors the fleet control loops
// (rebalance, elasticity, HA, arbitration) and cannot be removed.
func (cl *Cluster) RemoveApp(name string) error {
	cl.mu.Lock()
	cl.appMu.RLock()
	var a *appState
	idx := -1
	for i, x := range cl.apps {
		if x.name == name {
			a, idx = x, i
			break
		}
	}
	cl.appMu.RUnlock()
	if a == nil {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: unknown app %q", name)
	}
	if idx == 0 {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: app %q anchors the fleet control loops and cannot be removed", name)
	}

	var cancels []context.CancelFunc
	var wait []*spe.HAU
	own := func(id string) bool { return cl.appOf(id) == a }
	for id, h := range cl.haus {
		if !own(id) {
			continue
		}
		if c := cl.cancels[id]; c != nil {
			cancels = append(cancels, c)
		}
		wait = append(wait, h)
		delete(cl.haus, id)
		delete(cl.cancels, id)
		delete(cl.inEdges, id)
		delete(cl.hauNode, id)
		delete(cl.preservers, id)
	}
	for id, sb := range cl.standbys {
		if !own(id) {
			continue
		}
		cancels = append(cancels, sb.cancel)
		wait = append(wait, sb.h)
		delete(cl.standbys, id)
	}
	for _, id := range a.graph.Nodes() {
		delete(cl.parts, id)
		delete(cl.nextTag, id)
		delete(cl.busy, id)
		delete(cl.lastRescale, id)
		delete(cl.lastLoads, id)
		delete(cl.skewHits, id)
		delete(cl.lastSkewAct, id)
	}
	cl.appMu.Lock()
	cl.apps = append(cl.apps[:idx], cl.apps[idx+1:]...)
	delete(cl.appByPrefix, a.prefix)
	rest := make([]*graph.Graph, len(cl.apps))
	for i, x := range cl.apps {
		rest[i] = x.graph
	}
	cl.appMu.Unlock()
	union, err := graph.Union(rest...)
	if err == nil { // disjoint by construction; defensive
		cl.graph = union
	}
	if cl.started {
		cl.installControllerHAUs()
	}
	ctrlCancel := a.ctrlCancel
	cl.mu.Unlock()

	for _, c := range cancels {
		c()
	}
	for _, h := range wait {
		<-h.Done()
	}
	if ctrlCancel != nil {
		ctrlCancel()
	}
	return nil
}

// RecoverApp performs whole-application rollback recovery for one named
// application only: its HAUs restart from its Most Recent Complete
// Checkpoint and its sources replay — co-tenant applications keep running
// untouched. This is the recovery-isolation half of multi-tenancy.
func (cl *Cluster) RecoverApp(ctx context.Context, name string) (RecoveryStats, error) {
	cl.appMu.RLock()
	var a *appState
	for _, x := range cl.apps {
		if x.name == name {
			a = x
			break
		}
	}
	cl.appMu.RUnlock()
	if a == nil {
		return RecoveryStats{}, fmt.Errorf("cluster: unknown app %q", name)
	}
	return cl.recoverApp(ctx, a)
}

// arbiterStep is the controller's arbitration tick (installed when
// ArbiterEvery is set and at least two apps share the fleet at build time).
// It snapshots per-app demand — CPU busy approximated from processed-tuple
// deltas times the per-tuple service cost, cached state bytes, queued
// backlog — computes weighted max-min fair shares against the fleet's
// capacity over the elapsed interval, and executes the arbiter's bounded
// migration plan toward the fair node partition.
func (cl *Cluster) arbiterStep() (int, error) {
	cl.mu.Lock()
	if !cl.started || cl.arb == nil {
		cl.mu.Unlock()
		return 0, nil
	}
	apps := cl.appsSnapshot()
	if len(apps) < 2 {
		cl.mu.Unlock()
		return 0, nil
	}
	now := time.Unix(0, cl.cfg.Now())
	var v tenant.View
	for i, n := range cl.nodes {
		if n.schedulable() {
			v.Nodes = append(v.Nodes, i)
		}
	}
	demands := make(map[string]*tenant.Demand, len(apps))
	procOf := make(map[string]uint64, len(apps))
	for _, a := range apps {
		demands[a.prefix] = &tenant.Demand{App: a.name, Weight: a.weight}
	}
	for id, nd := range cl.hauNode {
		a := cl.appOf(id)
		d := demands[a.prefix]
		if d == nil {
			continue
		}
		d.HAUs++
		if h := cl.haus[id]; h != nil {
			d.StateBytes += h.CachedStateSize()
			procOf[a.prefix] += h.ProcessedCount()
		}
		for _, row := range cl.inEdges[id] {
			for _, e := range row {
				d.Backlog += e.Queued()
			}
		}
		v.HAUs = append(v.HAUs, tenant.HAUView{ID: id, App: a.name, Node: nd, Movable: cl.movableLocked(id)})
	}
	elapsed := now.Sub(cl.arbPrevAt)
	primed := cl.arbPrimed
	for p, cur := range procOf {
		if prev, ok := cl.arbPrevProc[p]; ok && cur >= prev {
			demands[p].CPUBusy = time.Duration(cur-prev) * cl.cfg.PerTupleDelay
		}
		cl.arbPrevProc[p] = cur
	}
	cl.arbPrevAt, cl.arbPrimed = now, true
	if !primed || elapsed <= 0 {
		cl.mu.Unlock()
		return 0, nil // first tick only primes the CPU deltas
	}
	cores := cl.cfg.NodeCores
	if cores <= 0 {
		cores = 1
	}
	v.Capacity = float64(len(v.Nodes)) * cores * float64(elapsed)
	for _, a := range apps {
		v.Demands = append(v.Demands, *demands[a.prefix])
	}
	cl.lastShares = cl.arb.Shares(v)
	acts := cl.arb.Step(now, v)
	ctx := cl.rootCtx
	cl.mu.Unlock()

	moved := 0
	for _, act := range acts {
		if _, err := cl.MigrateHAU(ctx, act.HAU, act.To); err != nil {
			// Lost a race (recovery, concurrent rescale); the next tick
			// replans from fresh observations.
			cl.logf("cluster: arbiter move of %q -> node %d: %v", act.HAU, act.To, err)
			return moved, nil
		}
		moved++
	}
	return moved, nil
}

// rankDrainCandidates orders scale-in candidates by cross-app disruption:
// fewest distinct applications hosted first, then fewest HAUs, then least
// state. Draining a single-tenant node disturbs one tenant's placement;
// draining a shared node churns several.
func (cl *Cluster) rankDrainCandidates(cands []int) []int {
	type load struct {
		apps  int
		haus  int
		state int64
	}
	cl.mu.Lock()
	loads := make(map[int]*load, len(cands))
	for _, n := range cands {
		loads[n] = &load{}
	}
	seen := make(map[int]map[string]bool, len(cands))
	for id, nd := range cl.hauNode {
		l := loads[nd]
		if l == nil {
			continue
		}
		l.haus++
		if h := cl.haus[id]; h != nil {
			l.state += h.CachedStateSize()
		}
		if seen[nd] == nil {
			seen[nd] = make(map[string]bool)
		}
		app := cl.appOf(id).name
		if !seen[nd][app] {
			seen[nd][app] = true
			l.apps++
		}
	}
	cl.mu.Unlock()
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := loads[cands[i]], loads[cands[j]]
		if a.apps != b.apps {
			return a.apps < b.apps
		}
		if a.haus != b.haus {
			return a.haus < b.haus
		}
		return a.state < b.state
	})
	return cands
}
