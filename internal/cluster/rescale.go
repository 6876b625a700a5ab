// Keyed-state re-partitioning: splitting a hot operator's key space across
// several HAU replicas and merging cold replicas back, live and
// exactly-once. A rescale is a plan for reconfigure (reconfig.go); its
// re-shard never re-encodes operator state, because the drained blob-v2
// sections are slot tables: a split carves them by owner, and a merge
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
	return cl.RescaleHAU(ctx, id, n, nil)
}

// MergeHAU merges a split operator back into a single HAU: the replicas'
// slot tables are concatenated and the key routers removed.
func (cl *Cluster) MergeHAU(ctx context.Context, id string) (RescaleStats, error) {
	return cl.RescaleHAU(ctx, id, 1, nil)
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
// exactly-once, as a plan for reconfigure. Nil w balances slot counts;
// per-slot weights w balance weighted load instead. Upstream incarnations
// get CmdRescaleOut, the old incarnations drain with CmdMigrateSnap, their
// slot tables are merged and carved by the new owners, the downstream
// incarnations attach the new ports (CmdAddInPort), and the commit epoch
// is journalled with the new geometry for recovery.
func (cl *Cluster) RescaleHAU(ctx context.Context, id string, n int, w partition.Weights) (RescaleStats, error) {
	return cl.rescaleHAU(ctx, id, n, w, false)
}

// rescale is one split, merge or rebalance in flight: the state
// rescaleHAU's plan hooks share.
type rescale struct {
	cl        *Cluster
	app       *appState
	id        string
	n         int
	w         partition.Weights
	rebalance bool
	stats     RescaleStats

	oldIncs, newIncs []string
	assign           *partition.Assignment // the new geometry, built at divert
	router           *partition.Router
	nodeOf           map[string]int
	inGrids          map[string][][]*spe.Edge // input grid of each new incarnation
	rows             []downRow
	opSecs           [][][]byte // per new incarnation, its carved operator sections
	localEpoch       uint64
	stateBytes       partition.Weights
	restoreStart     time.Time
}

// downRow replaces a downstream incarnation's input edges from the
// rescaled operator: row[j] is the edge from new incarnation j, matching
// its slot-owner index.
type downRow struct {
	dinc string
	port int
	row  []*spe.Edge
}

// rescaleHAU is the plan behind RescaleHAU and RebalanceHAU. Weights (when
// non-empty) drive the new slot assignment; rebalance keeps the replica
// count (n is ignored) and only shifts slot ownership between fresh
// incarnations of the existing replica set.
func (cl *Cluster) rescaleHAU(ctx context.Context, id string, n int, w partition.Weights, rebalance bool) (RescaleStats, error) {
	r := &rescale{cl: cl, id: id, n: n, w: w, rebalance: rebalance, stats: RescaleStats{HAU: id}}
	if !rebalance && n < 1 {
		return r.stats, fmt.Errorf("cluster: rescale to %d replicas", n)
	}
	c, err := cl.reconfigure(ctx, "rescale", id, ErrRescaleAborted, r.plan)
	if err == errNoChange {
		return r.stats, nil
	}
	if c != nil && !c.up.IsZero() {
		r.stats.Drain = c.drained
		r.stats.Restore = c.up.Sub(r.restoreStart)
		r.stats.Downtime = c.up.Sub(c.down)
		r.stats.Replicas = r.newIncs
	}
	if err != nil {
		return r.stats, err
	}
	r.record()
	return r.stats, nil
}

// plan is the rescale's pre-flight: it validates the target geometry and
// fills in the change. Held lock: cl.mu.
func (r *rescale) plan(c *change) error {
	cl, id := r.cl, r.id
	g := cl.graph
	if len(g.Upstream(id)) == 0 || len(g.Downstream(id)) == 0 {
		return fmt.Errorf("cluster: only interior operators rescale, not %q", id)
	}
	r.oldIncs = append([]string(nil), cl.expandedLocked(id)...)
	m := len(r.oldIncs)
	if r.rebalance {
		if m < 2 {
			return fmt.Errorf("cluster: rebalance of %q needs a split operator, have %d replica(s)", id, m)
		}
		r.n = m
	} else if m == r.n {
		return fmt.Errorf("cluster: HAU %q already has %d replicas", id, r.n)
	}
	r.stats.From, r.stats.To = m, r.n
	r.app = c.grd.app
	slots, err := probeSlots(cl.newOperators(r.app, id))
	if err != nil {
		return err
	}
	if ps := cl.parts[id]; ps != nil {
		r.assign = ps.Assign.Clone()
	} else {
		r.assign = partition.NewAssignment(slots)
	}
	// A table the weights cannot improve is a no-op: don't drain a healthy
	// replica set for nothing.
	if r.rebalance && len(r.assign.Clone().Rebalance(r.w)) == 0 {
		r.stats.Replicas = r.oldIncs
		return errNoChange
	}
	for _, oinc := range r.oldIncs {
		c.drain = append(c.drain, cl.haus[oinc])
	}
	c.snap = spe.CmdMigrateSnap
	c.divert = func() ([]order, error) { return r.divertLocked(c.grd) }
	c.reshape = r.reshard
	c.commit = r.commitLocked
	c.commitEpoch = func(ep uint64) {
		r.app.geom = append(r.app.geom, geomEntry{epoch: ep, parts: cl.snapshotPartsLocked(r.app)})
	}
	return nil
}

// divertLocked builds the target geometry and every new edge, and returns
// the CmdRescaleOut of each upstream incarnation. Nothing is installed
// yet: the commit re-checks the guard first. Held lock: cl.mu.
func (r *rescale) divertLocked(grd opGuard) ([]order, error) {
	cl, id, n := r.cl, r.id, r.n
	g := cl.graph
	var moved []int
	switch {
	case r.rebalance:
		moved = r.assign.Rebalance(r.w)
	case len(r.w) > 0:
		moved = r.assign.RescaleWeighted(n, r.w)
	default:
		moved = r.assign.Rescale(n)
	}
	r.stats.Moved = len(moved)
	if n == 1 {
		r.newIncs = []string{id}
	} else {
		tag := cl.nextTag[id]
		for j := 0; j < n; j++ {
			tag++
			r.newIncs = append(r.newIncs, partition.ReplicaID(id, tag))
		}
		cl.nextTag[id] = tag
	}
	r.router = partition.NewRouter(r.assign)

	// Place the new incarnations; the policy sees the cluster without the
	// old incarnations (rack-spread puts replicas in distinct domains).
	exclude := make(map[string]bool, len(r.oldIncs))
	for _, oinc := range r.oldIncs {
		exclude[oinc] = true
	}
	placed := cl.policy.Assign(r.newIncs, cl.viewLocked(exclude))
	r.nodeOf = make(map[string]int, n)
	for _, inc := range r.newIncs {
		nd, ok := placed[inc]
		if !ok || nd < 0 || nd >= len(cl.nodes) || !cl.nodes[nd].alive.Load() {
			if nd = cl.firstHealthyLocked(); nd < 0 {
				return nil, grd.errf("no healthy node for %q", inc)
			}
		}
		r.nodeOf[inc] = nd
	}

	// Fresh input grids for the new incarnations. The upstream expansion
	// uses the CURRENT geometry — only this operator's own row structure
	// changes at commit.
	r.inGrids = make(map[string][][]*spe.Edge, n)
	for _, inc := range r.newIncs {
		r.inGrids[inc] = cl.freshInGridLocked(id, inc)
	}
	for _, down := range g.Downstream(id) {
		dp := g.PortOf(id, down)
		for _, dinc := range cl.expandedLocked(down) {
			row := make([]*spe.Edge, n)
			for j, ninc := range r.newIncs {
				row[j] = spe.NewEdgeBatch(ninc, dinc, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
			}
			r.rows = append(r.rows, downRow{dinc, dp, row})
		}
	}
	return cl.upstreamOrdersLocked(grd, id, func(p, k, outPort int) spe.Command {
		edges := make([]*spe.Edge, n)
		for j, ninc := range r.newIncs {
			edges[j] = r.inGrids[ninc][p][k]
		}
		var rt spe.KeyRouter // none when merged back: a single downstream
		if n > 1 {
			rt = r.router
		}
		return spe.Command{Kind: spe.CmdRescaleOut, Port: outPort, Edges: edges, Router: rt}
	})
}

// reshard splits each drained blob into its runtime and per-operator
// sections, merges the per-operator slot tables across the old replicas,
// then carves them by the new slot owners.
func (r *rescale) reshard(blobs [][]byte) error {
	start := time.Now()
	defer func() { r.stats.Reshard = time.Since(start) }()
	id, n, m := r.id, r.n, len(blobs)
	opsSecs := make([][][]byte, m)
	for i, b := range blobs {
		rt, ops, err := spe.SplitBlob(b)
		if err != nil {
			return fmt.Errorf("cluster: rescale of %q: blob of %q: %w", id, r.oldIncs[i], err)
		}
		if i == 0 {
			if r.localEpoch, err = spe.RuntimeEpoch(rt); err != nil {
				return fmt.Errorf("cluster: rescale of %q: %w", id, err)
			}
		}
		opsSecs[i] = ops
		r.stats.Bytes += int64(len(b))
	}
	nOps := len(opsSecs[0])
	for i := 1; i < m; i++ {
		if len(opsSecs[i]) != nOps {
			return fmt.Errorf("cluster: rescale of %q: replica blobs disagree on operator count", id)
		}
	}
	r.opSecs = make([][][]byte, n)
	for oi := 0; oi < nOps; oi++ {
		merged := opsSecs[0][oi]
		if m > 1 {
			tables := make([][]byte, m)
			for i := range opsSecs {
				tables[i] = opsSecs[i][oi]
			}
			var err error
			if merged, err = partition.Merge(tables); err != nil {
				return fmt.Errorf("cluster: rescale of %q: merge op %d: %w", id, oi, err)
			}
		}
		if n == 1 {
			r.opSecs[0] = append(r.opSecs[0], merged)
			continue
		}
		// Per-slot state bytes, summed across the operator chain — the
		// skew estimate available to the next weighted action before any
		// traffic is routed under the new geometry.
		if sb := partition.SlotBytes(merged); sb != nil {
			if r.stateBytes == nil {
				r.stateBytes = make(partition.Weights, len(sb))
			}
			for s := range sb {
				if s < len(r.stateBytes) {
					r.stateBytes[s] += sb[s]
				}
			}
		}
		for j := 0; j < n; j++ {
			j := j
			piece, err := partition.Carve(merged, func(s int) bool { return r.assign.Owner(s) == j })
			if err != nil {
				return fmt.Errorf("cluster: rescale of %q: carve op %d: %w", id, oi, err)
			}
			r.opSecs[j] = append(r.opSecs[j], piece)
		}
	}
	return nil
}

// commitLocked installs the new geometry: the old rows feeding each
// downstream close (their senders have exited, and the hang-up is what
// releases each downstream's CmdAddInPort barrier), the new rows and
// incarnations go in, and every downstream incarnation gets a
// CmdAddInPort per new row edge. Held lock: cl.mu.
func (r *rescale) commitLocked([][]byte) ([]launch, []order, error) {
	cl, id := r.cl, r.id
	r.restoreStart = time.Now()
	var attaches []order
	for _, dr := range r.rows {
		for _, e := range cl.inEdges[dr.dinc][dr.port] {
			e.Close()
		}
		cl.inEdges[dr.dinc][dr.port] = dr.row
		if dh := cl.haus[dr.dinc]; dh != nil {
			for _, e := range dr.row {
				reply := make(chan []byte, 1)
				attaches = append(attaches, order{h: dh, reply: reply, cmd: spe.Command{
					Kind: spe.CmdAddInPort, Edge: e, Logical: dr.port, AfterFrom: r.oldIncs, Reply: reply,
				}})
			}
		}
	}
	if r.n == 1 {
		delete(cl.parts, id)
	} else {
		cl.parts[id] = &partState{Base: id, Replicas: r.newIncs, Assign: r.assign, Router: r.router, StateBytes: r.stateBytes}
	}
	r.app.catalog.SetMembers(cl.incarnationsOfLocked(r.app))
	nOut := 0
	for _, down := range cl.graph.Downstream(id) {
		nOut += len(cl.expandedLocked(down))
	}
	launches := make([]launch, 0, r.n)
	for j, inc := range r.newIncs {
		blob := spe.BuildBlob(spe.NewRuntimeSection(nOut, r.localEpoch), r.opSecs[j])
		l, _, err := cl.installLocked(inc, r.nodeOf[inc], r.inGrids[inc], blob)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: rescale restore of %q: %w", inc, err)
		}
		launches = append(launches, l)
	}
	return launches, attaches, nil
}

// record reports a committed rescale to the metrics collector.
func (r *rescale) record() {
	col := r.cl.cfg.Metrics
	if col == nil {
		return
	}
	col.RecordRescale(metrics.Rescale{
		At:       r.cl.cfg.Now(),
		App:      r.app.name,
		HAU:      r.id,
		From:     r.stats.From,
		To:       r.stats.To,
		Bytes:    r.stats.Bytes,
		Drain:    r.stats.Drain,
		Reshard:  r.stats.Reshard,
		Restore:  r.stats.Restore,
		Downtime: r.stats.Downtime,
	})
	if len(r.w) == 0 || r.n < 2 {
		return
	}
	action := "split:weighted"
	if r.rebalance {
		action = "rebalance"
	} else if r.n < r.stats.From {
		action = "merge:weighted"
	}
	loads := r.assign.LoadOf(r.w)
	col.RecordSkew(metrics.Skew{
		At:       r.cl.cfg.Now(),
		App:      r.app.name,
		HAU:      r.id,
		Replicas: r.n,
		Shares:   partition.Shares(loads),
		Ratio:    partition.ImbalanceRatio(loads),
		Action:   action,
		Moved:    r.stats.Moved,
	})
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
	cool := 2 * cl.cfg.AutoscaleEvery
	now := time.Now()

	// Skew pass: N-of-M violations of the imbalance watermark on a split
	// operator's per-tick routed load fire a rebalance, escalating to a
	// weighted split when the previous rebalance didn't stick.
	skewID, skewN, skewW := cl.skewStepLocked(now, cool, maxRep)
	if skewID != "" {
		cl.mu.Unlock()
		var err error
		if skewN > 0 {
			_, err = cl.RescaleHAU(ctx, skewID, skewN, skewW)
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
	if _, err := cl.RescaleHAU(ctx, pickID, pickN, nil); err != nil {
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
