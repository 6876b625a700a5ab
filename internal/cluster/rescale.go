// Keyed-state re-partitioning: splitting a hot operator's key space across
// several HAU replicas and merging cold replicas back, live and
// exactly-once. The mechanism composes three existing pieces — the quiesce
// epoch and migration-token barrier from live migration, the slot-table
// state layout from the partition package, and the blob-v2 per-operator
// sections from incremental checkpointing — so a split never re-encodes
// operator state: it carves the drained slot tables by owner, and a merge
// concatenates them.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/spe"
)

// ErrRescaleAborted marks a split/merge that could not complete — an
// incarnation died mid-drain, a whole-application recovery superseded it,
// or the quiesce/drain timed out. When the abort happens after the divert
// commands were sent, upstream output ports already feed the new (never
// started) incarnations, so the application needs a whole-application
// recovery to heal; the failure detector or chaos harness drives one in
// every abort path that matters (a node died). The pre-divert abort paths
// leave the topology untouched.
var ErrRescaleAborted = errors.New("cluster: rescale aborted")

// partState is the live partition geometry of one split operator.
type partState struct {
	Base     string
	Replicas []string // incarnation ids, replica order = slot-owner index
	Assign   *partition.Assignment
	Router   *partition.Router
	// StateBytes is the per-slot state-byte estimate measured from the
	// drained slot tables at the last re-shard — the skew signal available
	// before any traffic has been routed under the new geometry.
	StateBytes partition.Weights
}

// geomEntry journals the partition geometry as of one checkpoint epoch:
// blobs saved at or after epoch (until the next entry) were written by the
// incarnations this geometry names. Recovery picks the newest entry at or
// below the epoch it restores.
type geomEntry struct {
	epoch uint64
	parts map[string]*partState
}

// RescaleStats decomposes one re-partitioning, Fig. 16-style.
type RescaleStats struct {
	HAU      string
	From, To int // replica counts before and after
	Moved    int // slots that changed owner
	Bytes    int64
	Drain    time.Duration // divert commands sent -> last state blob handed over
	Reshard  time.Duration // slot carve/merge of the drained blobs
	Restore  time.Duration // new incarnations built, restored and started
	Downtime time.Duration // old incarnations stopped -> new ones started
	Replicas []string      // the new incarnation ids
}

// expandedLocked returns the live incarnation ids of graph node id, in
// replica order. Unsplit operators expand to themselves. Held lock: cl.mu.
func (cl *Cluster) expandedLocked(id string) []string {
	if ps := cl.parts[id]; ps != nil {
		return ps.Replicas
	}
	return []string{id}
}

// freshInGridLocked allocates the input-edge grid for one incarnation of
// graph node base under the CURRENT partition geometry. Held lock: cl.mu.
func (cl *Cluster) freshInGridLocked(base, inc string) [][]*spe.Edge {
	g := cl.graph
	ups := g.Upstream(base)
	grid := make([][]*spe.Edge, len(ups))
	for p, up := range ups {
		upIncs := cl.expandedLocked(up)
		grid[p] = make([]*spe.Edge, len(upIncs))
		for k, uinc := range upIncs {
			grid[p][k] = spe.NewEdgeBatch(uinc, inc, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
		}
	}
	return grid
}

// snapshotPartsLocked deep-copies app a's live geometry for its journal.
// Routers are rebuilt on adoption, not stored. Held lock: cl.mu.
func (cl *Cluster) snapshotPartsLocked(a *appState) map[string]*partState {
	out := make(map[string]*partState)
	for id, ps := range cl.parts {
		if cl.appOf(id) != a {
			continue
		}
		out[id] = &partState{
			Base:       id,
			Replicas:   append([]string(nil), ps.Replicas...),
			Assign:     ps.Assign.Clone(),
			StateBytes: append(partition.Weights(nil), ps.StateBytes...),
		}
	}
	return out
}

// adoptGeometryLocked installs the partition geometry app a journalled for
// epoch (the newest entry at or below it), resets a's catalog membership to
// match, and prunes bookkeeping for a's incarnations the adopted geometry
// does not name. Co-tenant geometry and bookkeeping are untouched. Held
// lock: cl.mu.
func (cl *Cluster) adoptGeometryLocked(a *appState, epoch uint64) {
	var best *geomEntry
	for i := range a.geom { // entries are appended in ascending epoch order
		if a.geom[i].epoch <= epoch {
			best = &a.geom[i]
		}
	}
	for id := range cl.parts {
		if cl.appOf(id) == a {
			delete(cl.parts, id)
		}
	}
	if best != nil {
		for id, ps := range best.parts {
			as := ps.Assign.Clone()
			cl.parts[id] = &partState{
				Base:       id,
				Replicas:   append([]string(nil), ps.Replicas...),
				Assign:     as,
				Router:     partition.NewRouter(as),
				StateBytes: append(partition.Weights(nil), ps.StateBytes...),
			}
		}
	}
	members := cl.incarnationsOfLocked(a)
	valid := make(map[string]bool, len(members))
	for _, inc := range members {
		valid[inc] = true
	}
	a.catalog.SetMembers(members)
	for inc := range cl.hauNode {
		if cl.appOf(inc) != a {
			continue
		}
		if !valid[inc] {
			delete(cl.haus, inc)
			delete(cl.cancels, inc)
			delete(cl.inEdges, inc)
			delete(cl.hauNode, inc)
		}
	}
}

// Replicas returns the live incarnation ids of operator id (itself when
// unsplit).
func (cl *Cluster) Replicas(id string) []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]string(nil), cl.expandedLocked(id)...)
}

// probeSlots checks that a fresh operator chain for the rescale target can
// partition its state, and returns the slot-ring size its keyed operators
// agree on.
func probeSlots(ops []operator.Operator) (int, error) {
	slots := 0
	for _, op := range ops {
		ps, ok := op.(operator.PartitionedState)
		if !ok {
			return 0, fmt.Errorf("cluster: operator %q does not partition its state", op.Name())
		}
		n := ps.PartitionSlots()
		if n == 0 {
			continue // residue-only: replicated to every incarnation
		}
		if slots == 0 {
			slots = n
		} else if slots != n {
			return 0, fmt.Errorf("cluster: operators disagree on slot-ring size: %d vs %d", slots, n)
		}
	}
	if slots == 0 {
		return 0, errors.New("cluster: no keyed state to re-partition")
	}
	return slots, nil
}

// SplitHAU splits operator id across n >= 2 replicas: upstream output ports
// grow a key router over the slot ring, the operator's keyed state is
// carved by slot owner, and each replica runs as its own HAU placed in a
// distinct failure domain where the topology allows.
func (cl *Cluster) SplitHAU(ctx context.Context, id string, n int) (RescaleStats, error) {
	if n < 2 {
		return RescaleStats{}, fmt.Errorf("cluster: split needs at least 2 replicas, got %d", n)
	}
	return cl.RescaleHAU(ctx, id, n)
}

// SplitHAUWeighted is SplitHAU with per-slot load weights: the new slot
// assignment equalizes weighted load across the replicas instead of slot
// counts. Nil weights fall back to the operator's observed load (tuples
// routed, else state bytes), which for a first split of an unobserved
// operator degrades to the count-balanced assignment.
func (cl *Cluster) SplitHAUWeighted(ctx context.Context, id string, n int, w partition.Weights) (RescaleStats, error) {
	if n < 2 {
		return RescaleStats{}, fmt.Errorf("cluster: split needs at least 2 replicas, got %d", n)
	}
	if w == nil {
		cl.mu.Lock()
		w = cl.observedWeightsLocked(id)
		cl.mu.Unlock()
	}
	return cl.rescaleHAU(ctx, id, n, w, false)
}

// MergeHAU merges a split operator back into a single HAU: the replicas'
// slot tables are concatenated and the key routers removed.
func (cl *Cluster) MergeHAU(ctx context.Context, id string) (RescaleStats, error) {
	return cl.RescaleHAU(ctx, id, 1)
}

// RebalanceHAU redistributes slots between a split operator's EXISTING
// replicas to fix observed load skew: the replica count stays the same, a
// fresh incarnation set drains and restores through the usual quiesce +
// token-barrier + carve machinery, and only the hot slots change owner. It
// is the cheap answer to a drifting hotspot — a low-ms drain instead of a
// split. Nil weights use the operator's observed load (tuples routed under
// the current geometry, else the state-byte estimate from the last
// re-shard). A table the weights cannot improve returns a zero-move
// no-op without disturbing the running replicas.
func (cl *Cluster) RebalanceHAU(ctx context.Context, id string, w partition.Weights) (RescaleStats, error) {
	if w == nil {
		cl.mu.Lock()
		w = cl.observedWeightsLocked(id)
		cl.mu.Unlock()
	}
	return cl.rescaleHAU(ctx, id, 0, w, true)
}

// observedWeightsLocked returns the per-slot load observed for operator id
// under its current geometry: tuples routed since its router was installed,
// falling back to the state-byte estimate from the last re-shard when no
// traffic has been routed yet. Unsplit operators have no observations.
// Held lock: cl.mu.
func (cl *Cluster) observedWeightsLocked(id string) partition.Weights {
	ps := cl.parts[id]
	if ps == nil {
		return nil
	}
	if ps.Router != nil {
		if w := ps.Router.Loads(); w.Total() > 0 {
			return w
		}
	}
	return ps.StateBytes
}

// LoadShares returns the per-replica load fractions and imbalance ratio
// of a split operator under weights w (nil = the observed load: tuples
// routed under the current geometry, else state bytes). The ratio is
// max/mean — 1.0 is perfectly balanced. Unsplit or unknown operators
// report nil shares and a ratio of 1.
func (cl *Cluster) LoadShares(id string, w partition.Weights) ([]float64, float64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	ps := cl.parts[id]
	if ps == nil || ps.Assign == nil {
		return nil, 1
	}
	if w == nil {
		w = cl.observedWeightsLocked(id)
	}
	loads := ps.Assign.LoadOf(w)
	return partition.Shares(loads), partition.ImbalanceRatio(loads)
}

// RescaleHAU re-partitions operator id to n replicas, live and
// exactly-once:
//
//  1. Quiesce: checkpoint triggers pause, then one fresh epoch is driven to
//     completion so no token alignment is in flight.
//  2. Divert: every upstream incarnation gets CmdRescaleOut — it flushes a
//     migration token onto each OLD edge of the port, then swaps the port
//     to fresh edges feeding the new incarnations, routed by the new slot
//     assignment.
//  3. Drain: each old incarnation processes up to the tokens, flushes its
//     outputs, hands its state blob over, and exits.
//  4. Re-shard: the drained blob-v2 sections are slot tables — a split
//     carves each table by slot owner, a merge concatenates the replicas'
//     tables. No operator-level re-encode happens.
//  5. Restore: the new incarnations start from synthesized blobs (fresh
//     runtime section, carved operator sections); downstream incarnations
//     attach the new input ports once the old ports hang up, which orders
//     old-incarnation output strictly before new-incarnation output.
//  6. Commit: a forced checkpoint epoch records the new membership, and
//     the geometry journal maps that epoch to the new replica set so a
//     later recovery rebuilds the matching topology.
//
// Under the unaligned scheme the quiesce and commit epochs complete without
// stalling (captures log channel tuples instead of pausing ports), and any
// capture still armed when a CmdRescaleOut migration token reaches an HAU is
// force-sealed (aborted) by the HAU itself — once upstreams divert to fresh
// edges the capture's remaining tokens may never arrive, and the drain must
// not wait on a never-pausing port. A capture that can never seal surfaces
// as a quiesce timeout wrapped in ErrRescaleAborted.
func (cl *Cluster) RescaleHAU(ctx context.Context, id string, n int) (RescaleStats, error) {
	return cl.rescaleHAU(ctx, id, n, nil, false)
}

// rescaleHAU is the shared core behind RescaleHAU, SplitHAUWeighted and
// RebalanceHAU. Weights (when non-empty) drive the new slot assignment so
// replicas equalize load rather than slot counts; rebalance keeps the
// replica count (n is ignored) and only shifts slot ownership between
// fresh incarnations of the existing replica set.
func (cl *Cluster) rescaleHAU(ctx context.Context, id string, n int, w partition.Weights, rebalance bool) (RescaleStats, error) {
	var stats RescaleStats
	if cl.cfg.Scheme == spe.Baseline {
		return stats, errors.New("cluster: rescale requires a token scheme (not Baseline)")
	}
	if !rebalance && n < 1 {
		return stats, fmt.Errorf("cluster: rescale to %d replicas", n)
	}
	if partition.IsReplica(id) {
		return stats, fmt.Errorf("cluster: rescale targets the base id, not replica %q", id)
	}

	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return stats, errors.New("cluster: not started")
	}
	g := cl.graph
	if len(g.Upstream(id)) == 0 || len(g.Downstream(id)) == 0 {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: only interior operators rescale, not %q", id)
	}
	oldIncs := append([]string(nil), cl.expandedLocked(id)...)
	m := len(oldIncs)
	if rebalance {
		if m < 2 {
			cl.mu.Unlock()
			return stats, fmt.Errorf("cluster: rebalance of %q needs a split operator, have %d replica(s)", id, m)
		}
		n = m
	} else if m == n {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q already has %d replicas", id, n)
	}
	if cl.rescaling[id] || cl.migrating[id] {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q already rescaling or migrating", id)
	}
	if cl.haPinnedLocked(id) {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q is pinned by active-standby replication (protected or adjacent to a protected HAU); demote first", id)
	}
	app := cl.appOf(id)
	slots, err := probeSlots(cl.newOperators(app, id))
	if err != nil {
		cl.mu.Unlock()
		return stats, err
	}
	var oldAssign *partition.Assignment
	if ps := cl.parts[id]; ps != nil {
		oldAssign = ps.Assign.Clone()
	}
	if rebalance {
		// A table the weights cannot improve is a no-op: don't drain a
		// healthy replica set for nothing.
		if oldAssign == nil || len(oldAssign.Clone().Rebalance(w)) == 0 {
			cl.mu.Unlock()
			stats.HAU, stats.From, stats.To = id, m, m
			stats.Replicas = oldIncs
			return stats, nil
		}
	}
	cl.rescaling[id] = true
	grd := cl.appGuardLocked(app, ErrRescaleAborted)
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.rescaling, id)
		cl.mu.Unlock()
	}()
	stats.HAU, stats.From, stats.To = id, m, n

	// Phase 1: quiesce (see MigrateHAU for why a FRESH epoch is driven).
	app.ctrl.PauseCheckpoints()
	defer app.ctrl.ResumeCheckpoints()
	if _, err := grd.quiesce(ctx); err != nil {
		return stats, err
	}

	// Build the target geometry and all new edges under the lock, but do not
	// install any of it yet — the commit below re-checks the generation.
	cl.mu.Lock()
	if grd.supersededLocked() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded before divert")
	}
	assign := oldAssign
	if assign == nil {
		assign = partition.NewAssignment(slots)
	}
	var movedSlots []int
	switch {
	case rebalance:
		movedSlots = assign.Rebalance(w)
	case len(w) > 0:
		movedSlots = assign.RescaleWeighted(n, w)
	default:
		movedSlots = assign.Rescale(n)
	}
	stats.Moved = len(movedSlots)
	var newIncs []string
	if n == 1 {
		newIncs = []string{id}
	} else {
		tag := cl.nextTag[id]
		for j := 0; j < n; j++ {
			tag++
			newIncs = append(newIncs, partition.ReplicaID(id, tag))
		}
		cl.nextTag[id] = tag
	}
	router := partition.NewRouter(assign)

	// Place the new incarnations; the policy sees the cluster without the
	// old incarnations (rack-spread puts replicas in distinct domains).
	exclude := make(map[string]bool, m)
	for _, oinc := range oldIncs {
		exclude[oinc] = true
	}
	placed := cl.policy.Assign(newIncs, cl.viewLocked(exclude))
	nodeOf := make(map[string]int, n)
	for _, inc := range newIncs {
		nd, ok := placed[inc]
		if !ok || nd < 0 || nd >= len(cl.nodes) || !cl.nodes[nd].alive.Load() {
			nd = cl.firstHealthyLocked()
			if nd < 0 {
				cl.mu.Unlock()
				return stats, fmt.Errorf("%w: no healthy node for %q", ErrRescaleAborted, inc)
			}
		}
		nodeOf[inc] = nd
	}

	// Fresh input grids for the new incarnations. The upstream expansion
	// uses the CURRENT geometry — only this operator's own row structure
	// changes at commit.
	newInGrids := make(map[string][][]*spe.Edge, n)
	for _, inc := range newIncs {
		newInGrids[inc] = cl.freshInGridLocked(id, inc)
	}
	// Fresh rows replacing each downstream incarnation's input edges from
	// this operator: row[j] is the edge from new incarnation j, matching its
	// slot-owner index.
	type downRow struct {
		dinc string
		port int
		row  []*spe.Edge
	}
	var rows []downRow
	for _, down := range g.Downstream(id) {
		dp := g.PortOf(id, down)
		for _, dinc := range cl.expandedLocked(down) {
			row := make([]*spe.Edge, n)
			for j, ninc := range newIncs {
				row[j] = spe.NewEdgeBatch(ninc, dinc, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
			}
			rows = append(rows, downRow{dinc, dp, row})
		}
	}
	// Divert commands: every upstream incarnation swaps its out port for id
	// to the new edge set, routed by the new assignment.
	type divertCmd struct {
		h   *spe.HAU
		cmd spe.Command
	}
	var diverts []divertCmd
	for upPortIdx, up := range g.Upstream(id) {
		outPort := -1
		for p, d := range g.Downstream(up) {
			if d == id {
				outPort = p
				break
			}
		}
		if outPort < 0 {
			continue
		}
		for k, uinc := range cl.expandedLocked(up) {
			uh := cl.haus[uinc]
			if uh == nil {
				cl.mu.Unlock()
				return stats, fmt.Errorf("%w: upstream incarnation %q missing", ErrRescaleAborted, uinc)
			}
			edges := make([]*spe.Edge, n)
			for j, ninc := range newIncs {
				edges[j] = newInGrids[ninc][upPortIdx][k]
			}
			rt := spe.KeyRouter(router)
			if n == 1 {
				rt = nil // merged back: single downstream, no routing
			}
			diverts = append(diverts, divertCmd{uh, spe.Command{
				Kind: spe.CmdRescaleOut, Port: outPort, Edges: edges, Router: rt,
			}})
		}
	}
	oldHAUs := make([]*spe.HAU, m)
	for i, oinc := range oldIncs {
		oldHAUs[i] = cl.haus[oinc]
		if oldHAUs[i] == nil {
			cl.mu.Unlock()
			return stats, fmt.Errorf("%w: incarnation %q missing", ErrRescaleAborted, oinc)
		}
	}
	cl.mu.Unlock()

	// Phases 2+3: divert and drain every old incarnation in parallel. The
	// migration tokens flushed by CmdRescaleOut form per-edge barriers; each
	// old incarnation aligns on them, flushes, replies with its state, and
	// exits.
	drainStart := time.Now()
	for _, d := range diverts {
		d.h.Command(d.cmd)
	}
	replies := make([]chan []byte, m)
	for i, h := range oldHAUs {
		replies[i] = make(chan []byte, 1)
		h.Command(spe.Command{Kind: spe.CmdMigrateSnap, Reply: replies[i]})
	}
	blobs := make([][]byte, m)
	drainDeadline := time.After(drainTimeout)
	for i, h := range oldHAUs {
		var err error
		if blobs[i], err = grd.drainBlob(ctx, oldIncs[i], h, replies[i], drainDeadline); err != nil {
			return stats, err
		}
	}
	stats.Drain = time.Since(drainStart)
	// Every old incarnation has exited: the downtime window opens.
	downStart := time.Now()

	// Phase 4: re-shard. Split each blob into its runtime and per-operator
	// sections, merge the per-operator slot tables across the old replicas,
	// then carve by the new slot owners.
	reshardStart := time.Now()
	opsSecs := make([][][]byte, m)
	var localEpoch uint64
	for i, b := range blobs {
		rt, ops, err := spe.SplitBlob(b)
		if err != nil {
			return stats, fmt.Errorf("cluster: rescale of %q: blob of %q: %w", id, oldIncs[i], err)
		}
		if i == 0 {
			if localEpoch, err = spe.RuntimeEpoch(rt); err != nil {
				return stats, fmt.Errorf("cluster: rescale of %q: %w", id, err)
			}
		}
		opsSecs[i] = ops
		stats.Bytes += int64(len(b))
	}
	nOps := len(opsSecs[0])
	for i := 1; i < m; i++ {
		if len(opsSecs[i]) != nOps {
			return stats, fmt.Errorf("cluster: rescale of %q: replica blobs disagree on operator count", id)
		}
	}
	newOpSecs := make([][][]byte, n)
	var stateBytes partition.Weights
	for oi := 0; oi < nOps; oi++ {
		merged := opsSecs[0][oi]
		if m > 1 {
			tables := make([][]byte, m)
			for i := range opsSecs {
				tables[i] = opsSecs[i][oi]
			}
			var err error
			if merged, err = partition.Merge(tables); err != nil {
				return stats, fmt.Errorf("cluster: rescale of %q: merge op %d: %w", id, oi, err)
			}
		}
		// Per-slot state bytes, summed across the operator chain — the skew
		// estimate available to the next weighted action before any traffic
		// is routed under the new geometry.
		if n > 1 {
			if sb := partition.SlotBytes(merged); sb != nil {
				if stateBytes == nil {
					stateBytes = make(partition.Weights, len(sb))
				}
				for s := range sb {
					if s < len(stateBytes) {
						stateBytes[s] += sb[s]
					}
				}
			}
		}
		if n == 1 {
			newOpSecs[0] = append(newOpSecs[0], merged)
			continue
		}
		for j := 0; j < n; j++ {
			j := j
			piece, err := partition.Carve(merged, func(s int) bool { return assign.Owner(s) == j })
			if err != nil {
				return stats, fmt.Errorf("cluster: rescale of %q: carve op %d: %w", id, oi, err)
			}
			newOpSecs[j] = append(newOpSecs[j], piece)
		}
	}
	stats.Reshard = time.Since(reshardStart)

	// Phase 5: commit the new geometry and start the new incarnations.
	restoreStart := time.Now()
	cl.mu.Lock()
	if grd.supersededLocked() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded during drain")
	}
	for _, oinc := range oldIncs {
		if c := cl.cancels[oinc]; c != nil {
			c() // release the old incarnation's context
		}
		delete(cl.cancels, oinc)
		delete(cl.haus, oinc)
		delete(cl.hauNode, oinc)
		delete(cl.inEdges, oinc)
	}
	// Close the old rows feeding each downstream (their senders have
	// exited) and install the new rows. The hangup is what releases each
	// downstream's CmdAddInPort barrier.
	type attach struct {
		dinc  string
		h     *spe.HAU
		cmd   spe.Command
		reply chan []byte
	}
	var attaches []attach
	for _, dr := range rows {
		for _, e := range cl.inEdges[dr.dinc][dr.port] {
			e.Close()
		}
		cl.inEdges[dr.dinc][dr.port] = dr.row
		if dh := cl.haus[dr.dinc]; dh != nil {
			for _, e := range dr.row {
				reply := make(chan []byte, 1)
				attaches = append(attaches, attach{dr.dinc, dh, spe.Command{
					Kind: spe.CmdAddInPort, Edge: e, Logical: dr.port, AfterFrom: oldIncs, Reply: reply,
				}, reply})
			}
		}
	}
	if n == 1 {
		delete(cl.parts, id)
	} else {
		cl.parts[id] = &partState{Base: id, Replicas: newIncs, Assign: assign, Router: router, StateBytes: stateBytes}
	}
	for _, inc := range newIncs {
		cl.inEdges[inc] = newInGrids[inc]
		cl.hauNode[inc] = nodeOf[inc]
	}
	app.catalog.SetMembers(cl.incarnationsOfLocked(app))
	for j, inc := range newIncs {
		cfg, _ := cl.prepareHAU(inc)
		nOut := 0
		for _, op := range cfg.OutPorts {
			nOut += len(op.Edges)
		}
		blob := spe.BuildBlob(spe.NewRuntimeSection(nOut, localEpoch), newOpSecs[j])
		h, _, err := constructHAU(cfg, blob)
		if err != nil {
			cl.mu.Unlock()
			return stats, fmt.Errorf("cluster: rescale restore of %q: %w", inc, err)
		}
		cl.haus[inc] = h
		hctx, cancel := context.WithCancel(cl.rootCtx)
		cl.cancels[inc] = cancel
		h.Start(hctx)
	}
	cl.installControllerHAUs()
	cl.mu.Unlock()
	for _, a := range attaches {
		a.h.Command(a.cmd)
	}
	stats.Restore = time.Since(restoreStart)
	stats.Downtime = time.Since(downStart)
	stats.Replicas = newIncs

	// Phase 6: commit epoch. The first complete checkpoint under the new
	// membership; journal it so recovery rebuilds the matching topology.
	// Trigger it only once every downstream has attached the new ports: a
	// downstream still draining the old incarnations' backlog would cut
	// the epoch on their hang-ups alone, ahead of the new incarnations'
	// pre-token output, with a blob naming only the old ports (after a
	// merge, the stale pre-split port carries the reused base id).
	attachDeadline := time.After(drainTimeout)
	for _, a := range attaches {
		if _, err := grd.drainBlob(ctx, a.dinc, a.h, a.reply, attachDeadline); err != nil {
			return stats, fmt.Errorf("commit epoch: %w", err)
		}
	}
	commitEp, err := grd.quiesce(ctx)
	if err != nil {
		// The new geometry is live but has no durable epoch: a recovery
		// before the next complete checkpoint restores the pre-rescale
		// topology via the journal, which is consistent.
		return stats, fmt.Errorf("commit epoch: %w", err)
	}
	cl.mu.Lock()
	if !grd.supersededLocked() {
		app.geom = append(app.geom, geomEntry{epoch: commitEp, parts: cl.snapshotPartsLocked(app)})
	}
	cl.mu.Unlock()

	if cl.cfg.Metrics != nil {
		cl.cfg.Metrics.RecordRescale(metrics.Rescale{
			At:       cl.cfg.Now(),
			App:      app.name,
			HAU:      id,
			From:     m,
			To:       n,
			Bytes:    stats.Bytes,
			Drain:    stats.Drain,
			Reshard:  stats.Reshard,
			Restore:  stats.Restore,
			Downtime: stats.Downtime,
		})
		if len(w) > 0 && n > 1 {
			action := "split:weighted"
			if rebalance {
				action = "rebalance"
			} else if n < m {
				action = "merge:weighted"
			}
			loads := assign.LoadOf(w)
			cl.cfg.Metrics.RecordSkew(metrics.Skew{
				At:       cl.cfg.Now(),
				App:      app.name,
				HAU:      id,
				Replicas: n,
				Shares:   partition.Shares(loads),
				Ratio:    partition.ImbalanceRatio(loads),
				Action:   action,
				Moved:    stats.Moved,
			})
		}
	}
	return stats, nil
}

// autoscaleStep is the controller's split/merge detector: it compares each
// interior operator's aggregate cached state size against the hysteresis
// watermarks and performs at most one rescale per invocation — with a skew
// pass first, because shifting hot slots between existing replicas is
// cheaper than changing the replica count. Returns the number of rescales
// performed.
func (cl *Cluster) autoscaleStep() (int, error) {
	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return 0, nil
	}
	g := cl.graph
	ctx := cl.rootCtx
	maxRep := cl.cfg.MaxReplicas
	if maxRep <= 0 {
		maxRep = 4
	}
	cool := cl.cfg.RescaleCooldown
	if cool <= 0 {
		cool = 2 * cl.cfg.AutoscaleEvery
	}
	now := time.Now()

	// Skew pass: N-of-M violations of the imbalance watermark on a split
	// operator's per-tick routed load fire a rebalance, escalating to a
	// weighted split when the previous rebalance didn't stick.
	skewID, skewN, skewW := cl.skewStepLocked(now, cool, maxRep)
	if skewID != "" {
		cl.mu.Unlock()
		var err error
		if skewN > 0 {
			_, err = cl.rescaleHAU(ctx, skewID, skewN, skewW, false)
		} else {
			_, err = cl.rescaleHAU(ctx, skewID, 0, skewW, true)
		}
		if err != nil {
			return 0, err
		}
		cl.mu.Lock()
		cl.lastRescale[skewID] = now
		if skewN > 0 {
			cl.lastSkewAct[skewID] = "split"
		} else {
			cl.lastSkewAct[skewID] = "rebalance"
		}
		// The action installed a fresh router: stale snapshots and the
		// violation window would misjudge the new geometry.
		delete(cl.lastLoads, skewID)
		delete(cl.skewHits, skewID)
		cl.mu.Unlock()
		return 1, nil
	}

	var pickID string
	var pickN int
	for _, id := range g.Nodes() {
		if len(g.Upstream(id)) == 0 || len(g.Downstream(id)) == 0 {
			continue
		}
		if now.Sub(cl.lastRescale[id]) < cool {
			continue
		}
		incs := cl.expandedLocked(id)
		var agg int64
		for _, inc := range incs {
			if h := cl.haus[inc]; h != nil {
				agg += h.CachedStateSize()
			}
		}
		m := len(incs)
		switch {
		case cl.cfg.SplitAbove > 0 && agg > cl.cfg.SplitAbove && m < maxRep:
			pickN = m * 2
			if pickN > maxRep {
				pickN = maxRep
			}
			pickID = id
		case cl.cfg.MergeBelow > 0 && m > 1 && agg < cl.cfg.MergeBelow:
			pickID, pickN = id, 1
		}
		if pickID != "" {
			break
		}
	}
	cl.mu.Unlock()
	if pickID == "" {
		return 0, nil
	}
	if _, err := cl.RescaleHAU(ctx, pickID, pickN); err != nil {
		return 0, err
	}
	cl.mu.Lock()
	cl.lastRescale[pickID] = now
	cl.mu.Unlock()
	return 1, nil
}

// skewStepLocked evaluates the imbalance watermark for every split operator
// and picks at most one skew action: the per-tick routed-load delta gives
// each replica's share, N-of-M watermark violations (plus the per-operator
// cooldown) arm an action, and the action is a rebalance in place unless
// the previous rebalance didn't stick — then it escalates to a weighted
// split. Returns the chosen operator (empty for none), the split target (0
// means rebalance) and the weights driving the action. Held lock: cl.mu.
func (cl *Cluster) skewStepLocked(now time.Time, cool time.Duration, maxRep int) (string, int, partition.Weights) {
	if cl.cfg.ImbalanceAbove <= 1 {
		return "", 0, nil
	}
	win := cl.cfg.ImbalanceWindow
	if win <= 0 {
		win = 5
	}
	need := cl.cfg.ImbalanceViolations
	if need <= 0 {
		need = 3
	}
	if need > win {
		need = win
	}
	var pickID string
	var pickN int
	var pickW partition.Weights
	for _, id := range cl.graph.Nodes() {
		ps := cl.parts[id]
		if ps == nil || ps.Router == nil || len(ps.Replicas) < 2 {
			delete(cl.skewHits, id)
			continue
		}
		m := len(ps.Replicas)
		cur := ps.Router.Loads()
		delta := cur.Sub(cl.lastLoads[id])
		cl.lastLoads[id] = cur
		judged := delta.Total() >= int64(2*m) // enough traffic to judge this tick
		violated := false
		if judged {
			loads := ps.Assign.LoadOf(delta)
			ratio := partition.ImbalanceRatio(loads)
			violated = ratio > cl.cfg.ImbalanceAbove
			if !violated {
				// A genuinely balanced observation: the next skew episode
				// starts with a rebalance again.
				delete(cl.lastSkewAct, id)
			} else if cl.cfg.Metrics != nil {
				cl.cfg.Metrics.RecordSkew(metrics.Skew{
					At: cl.cfg.Now(), App: cl.appOf(id).name, HAU: id, Replicas: m,
					Shares: partition.Shares(loads), Ratio: ratio, Action: "observe",
				})
			}
		}
		hits := append(cl.skewHits[id], violated)
		if len(hits) > win {
			hits = hits[len(hits)-win:]
		}
		cl.skewHits[id] = hits
		if pickID != "" || now.Sub(cl.lastRescale[id]) < cool {
			continue
		}
		nHits := 0
		for _, h := range hits {
			if h {
				nHits++
			}
		}
		if nHits < need {
			continue
		}
		w := cl.observedWeightsLocked(id)
		if w.Total() <= 0 {
			continue
		}
		canMove := len(ps.Assign.Clone().Rebalance(w)) > 0
		switch {
		case canMove && cl.lastSkewAct[id] != "rebalance":
			pickID, pickN, pickW = id, 0, w
		case m < maxRep:
			n := m * 2
			if n > maxRep {
				n = maxRep
			}
			pickID, pickN, pickW = id, n, w
		case canMove:
			pickID, pickN, pickW = id, 0, w // at the replica cap: rebalance is all we have
		}
	}
	return pickID, pickN, pickW
}
