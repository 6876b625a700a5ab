package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/elastic"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// ErrDrainAborted means a scale-in drain lost a race and gave up: the node
// died, a whole-application recovery superseded the drain (the gen counter
// moved, mirroring the migration abort contract), or a destination ran
// out. The node is left un-drained and schedulable again; the caller
// retries from fresh samples if it still wants the node gone.
var ErrDrainAborted = errors.New("cluster: drain aborted")

// AddNode grows the fleet by one schedulable node and returns its index.
// A retired slot is reincarnated first — replacement hardware arrives with
// a blank disk and a fresh CPU gate — before the node array grows (which
// also re-derives the rack topology from the configured geometry).
func (cl *Cluster) AddNode() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, n := range cl.nodes {
		if n.retired.Load() {
			n.disk = storage.NewDisk(cl.cfg.LocalDiskSpec)
			if cl.cfg.NodeCores > 0 {
				n.cpu = spe.NewCPUGate(cl.cfg.NodeCores)
			}
			n.draining.Store(false)
			n.alive.Store(true)
			n.retired.Store(false)
			return n.index
		}
	}
	n := &node{index: len(cl.nodes), disk: storage.NewDisk(cl.cfg.LocalDiskSpec)}
	if cl.cfg.NodeCores > 0 {
		n.cpu = spe.NewCPUGate(cl.cfg.NodeCores)
	}
	n.alive.Store(true)
	cl.nodes = append(cl.nodes, n)
	cl.topo = placement.NewTopology(len(cl.nodes), cl.cfg.NodesPerRack)
	return n.index
}

// DrainNode scales in node idx: it is marked draining (no longer a
// placement target), every hosted HAU is live-migrated to a policy-chosen
// destination via MigrateHAU (so scale-in inherits migration's
// exactly-once guarantees), and the emptied node is retired.
//
// The drain mirrors the migration gen-counter abort contract: a
// whole-application recovery bumping cl.gen supersedes the drain — the
// rollback already re-placed every HAU consistently, so continuing to move
// them (or double-recovering them) would race it. Any abort unmarks
// draining and returns ErrDrainAborted; the node stays in the fleet.
func (cl *Cluster) DrainNode(ctx context.Context, idx int) error {
	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return errors.New("cluster: not started")
	}
	if idx < 0 || idx >= len(cl.nodes) {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: no node %d", idx)
	}
	n := cl.nodes[idx]
	if n.retired.Load() {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: node %d already retired", idx)
	}
	if !n.alive.Load() {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: node %d is dead", idx)
	}
	if n.draining.Load() {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: node %d already draining", idx)
	}
	others := 0
	for i, m := range cl.nodes {
		if i != idx && m.schedulable() {
			others++
		}
	}
	if others == 0 {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: draining node %d would leave no schedulable node", idx)
	}
	n.draining.Store(true)
	grd := cl.guardLocked(ErrDrainAborted)
	cl.mu.Unlock()

	abort := func(err error) error {
		n.draining.Store(false)
		return err
	}
	for {
		cl.mu.Lock()
		if grd.supersededLocked() {
			cl.mu.Unlock()
			return abort(grd.errf("superseded by recovery"))
		}
		if !n.alive.Load() {
			cl.mu.Unlock()
			return abort(grd.errf("node %d died while draining", idx))
		}
		// Next hosted incarnation, in deterministic graph/replica order.
		var id string
		for _, inc := range cl.incarnationsLocked() {
			if cl.hauNode[inc] == idx {
				id = inc
				break
			}
		}
		if id == "" {
			cl.mu.Unlock()
			break
		}
		placed := cl.policy.Assign([]string{id}, cl.viewLocked(map[string]bool{id: true}))
		dest, ok := placed[id]
		if !ok || dest < 0 || dest >= len(cl.nodes) || dest == idx || !cl.nodes[dest].schedulable() {
			dest = -1 // policy bug: any schedulable node keeps the drain alive
			for i, m := range cl.nodes {
				if i != idx && m.schedulable() {
					dest = i
					break
				}
			}
		}
		obs := cl.drainObs
		cl.mu.Unlock()
		if dest < 0 {
			return abort(grd.errf("no live destination for %q", id))
		}
		if obs != nil {
			obs(id, idx, dest)
		}
		if _, err := cl.MigrateHAU(ctx, id, dest); err != nil {
			return abort(grd.errf("migrating %q to node %d: %v", id, dest, err))
		}
	}

	cl.mu.Lock()
	defer cl.mu.Unlock()
	if grd.supersededLocked() {
		// A recovery slipped in after the last migration; it may have
		// re-placed HAUs onto this node, so retiring it now would strand
		// them. The recovery owns placement — give up.
		return abort(grd.errf("superseded by recovery"))
	}
	for _, inc := range cl.incarnationsLocked() {
		if cl.hauNode[inc] == idx {
			return abort(grd.errf("%q reappeared on node %d", inc, idx))
		}
	}
	n.draining.Store(false)
	n.retired.Store(true)
	return nil
}

// elasticDrain adapts DrainNode for the elasticity engine (no ctx).
func (cl *Cluster) elasticDrain(idx int) error {
	cl.mu.Lock()
	ctx := cl.rootCtx
	cl.mu.Unlock()
	if ctx == nil {
		return errors.New("cluster: not started")
	}
	return cl.DrainNode(ctx, idx)
}

// CanDrain reports whether node idx could be drained right now: it is
// schedulable, another schedulable node exists to receive its HAUs, and
// every hosted incarnation is live-migratable (replica incarnations and
// split bases are pinned — MigrateHAU rejects them — so a node hosting
// one has no migration path and must never be recommended for scale-in).
func (cl *Cluster) CanDrain(idx int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if idx < 0 || idx >= len(cl.nodes) || !cl.nodes[idx].schedulable() {
		return false
	}
	others := 0
	for i, m := range cl.nodes {
		if i != idx && m.schedulable() {
			others++
		}
	}
	if others == 0 {
		return false
	}
	// A node hosting a standby cannot drain: standbys are not migratable
	// incarnations (they exist to pin a failure domain), so the drain
	// could never empty the node.
	for _, sb := range cl.standbys {
		if sb.node == idx {
			return false
		}
	}
	for id, nd := range cl.hauNode {
		if nd != idx {
			continue
		}
		if !cl.movableLocked(id) {
			return false
		}
	}
	return true
}

// FleetSize returns the number of non-retired nodes (dead ones included:
// they are fleet members awaiting recovery, not scaled-in capacity).
func (cl *Cluster) FleetSize() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, nd := range cl.nodes {
		if !nd.retired.Load() {
			n++
		}
	}
	return n
}

// NumNodes returns the node-slot count, retired slots included; node
// indices are always in [0, NumNodes).
func (cl *Cluster) NumNodes() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.nodes)
}

// NodeDraining reports whether node idx is mid-scale-in.
func (cl *Cluster) NodeDraining(idx int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return idx >= 0 && idx < len(cl.nodes) && cl.nodes[idx].draining.Load()
}

// NodeRetired reports whether node idx has been scaled in.
func (cl *Cluster) NodeRetired(idx int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return idx >= 0 && idx < len(cl.nodes) && cl.nodes[idx].retired.Load()
}

// SetDrainObserver installs fn to be called just before each per-HAU
// migration a DrainNode performs (nil uninstalls). The chaos harness uses
// it to aim kills at the in-flight migration's destination.
func (cl *Cluster) SetDrainObserver(fn func(id string, from, to int)) {
	cl.mu.Lock()
	cl.drainObs = fn
	cl.mu.Unlock()
}

// elasticSample assembles the per-node counters the elasticity engine
// derives utilization from. Everything read here is either guarded by
// cl.mu or atomic (edge queue depths, gate busy totals), so sampling is
// safe while checkpoints, migrations and rescales run.
func (cl *Cluster) elasticSample() elastic.Sample {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	s := elastic.Sample{
		At:    time.Unix(0, cl.cfg.Now()),
		Nodes: make([]elastic.NodeStat, len(cl.nodes)),
	}
	for i, n := range cl.nodes {
		s.Nodes[i] = elastic.NodeStat{
			Node:     i,
			Alive:    n.alive.Load(),
			Draining: n.draining.Load(),
			Retired:  n.retired.Load(),
			CPUBusy:  n.cpu.BusyTotal(),
		}
	}
	for id, nd := range cl.hauNode {
		if nd < 0 || nd >= len(s.Nodes) {
			continue
		}
		st := &s.Nodes[nd]
		st.HAUs++
		if cl.movableLocked(id) {
			st.CanMove++
		}
		if h := cl.haus[id]; h != nil {
			st.State += h.CachedStateSize()
		}
		for _, row := range cl.inEdges[id] {
			for _, e := range row {
				st.Queue += e.Queued()
			}
		}
	}
	// Standbys occupy their host like any HAU (duplicate execution burns
	// real capacity) but are never migration candidates.
	for _, sb := range cl.standbys {
		if sb.node < 0 || sb.node >= len(s.Nodes) {
			continue
		}
		st := &s.Nodes[sb.node]
		st.HAUs++
		st.State += sb.h.CachedStateSize()
		st.Queue += sb.mirror.Queued()
	}
	// Per-app aggregates for the multi-tenant trigger: the fleet scales on
	// the SUM of every tenant's backlog, not any single app's.
	if len(cl.apps) > 1 {
		agg := make(map[*appState]*elastic.AppStat, len(cl.apps))
		for _, a := range cl.apps {
			agg[a] = &elastic.AppStat{App: a.name, Weight: a.weight}
		}
		for id, nd := range cl.hauNode {
			if nd < 0 || nd >= len(s.Nodes) {
				continue
			}
			st := agg[cl.appOf(id)]
			if st == nil {
				continue
			}
			st.HAUs++
			if h := cl.haus[id]; h != nil {
				st.State += h.CachedStateSize()
			}
			for _, row := range cl.inEdges[id] {
				for _, e := range row {
					st.Queue += e.Queued()
				}
			}
		}
		for _, a := range cl.apps {
			s.Apps = append(s.Apps, *agg[a])
		}
	}
	return s
}
