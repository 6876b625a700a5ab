package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/metrics"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
	"meteorshower/internal/replica"
	"meteorshower/internal/spe"
	"meteorshower/internal/tuple"
)

// ErrFailoverAborted marks a standby promotion that could not complete —
// the standby (or its upstream) died mid-switchover, or a
// whole-application recovery superseded it. The caller falls back to
// rollback recovery; HybridRecover does exactly that.
var ErrFailoverAborted = errors.New("cluster: failover aborted")

// standbyState is one armed standby: a second incarnation of a protected
// HAU, running suppressed on another node, fed by a tee (mirror edge) off
// the single upstream output port.
type standbyState struct {
	h      *spe.HAU
	cancel context.CancelFunc
	node   int
	up     string // upstream incarnation feeding the tee
	upPort int    // upstream's logical out port toward the protected HAU
	mirror *spe.Edge
}

// ProtectStats decomposes one standby arm (ProtectHAU).
type ProtectStats struct {
	HAU              string
	Primary, Standby int
	RackDisjoint     bool
	CloneBytes       int64         // state blob copied to the standby
	Drain            time.Duration // tee cut -> state blob handed over
}

// FailoverStats decomposes one promotion (FailoverHAU): Wait is
// detection-to-switchover prep (waiting out the dead primary's goroutine,
// arming drainers on its dead edges), Switch is the single-edge
// switchover itself — tee swap at the upstream plus the standby's
// promote. The sum is the availability gap a protected failure costs,
// against RecoveryStats.Total for an unprotected one.
type FailoverStats struct {
	HAU        string
	From, To   int
	Wait       time.Duration
	Switch     time.Duration
	RingTuples int // suppressed tuples re-emitted at promotion (deduped downstream)
}

// drainEdge discards batches from e until it closes or ctx dies. Failover
// and tee teardown use it to keep an edge whose consumer is gone from
// backpressuring the upstream: the upstream may be wedged mid-Flush on
// the dead incarnation's full input edge, and it must get far enough to
// process the CmdTeeSwap/CmdTeeDrop that closes the edge and ends the
// drainer.
func drainEdge(ctx context.Context, e *spe.Edge) {
	for {
		b, ok := e.Recv(ctx)
		if !ok {
			return
		}
		tuple.PutBatch(b)
	}
}

// dropTee detaches a mirror edge (failed protect, demotion, standby
// death): a drainer bridges the gap until the upstream's CmdTeeDrop
// flushes and closes the mirror.
func (cl *Cluster) dropTee(ctx context.Context, uh *spe.HAU, port int, mirror *spe.Edge) {
	go drainEdge(ctx, mirror)
	uh.Command(spe.Command{Kind: spe.CmdTeeDrop, Port: port})
}

// logf emits a human-readable cluster warning (Config.Logf, if set).
func (cl *Cluster) logf(format string, args ...any) {
	if cl.cfg.Logf != nil {
		cl.cfg.Logf(format, args...)
	}
}

// haPinnedLocked reports whether id may not be migrated or rescaled
// because active-standby replication depends on its edges staying put:
// either id itself is protected (the standby shares its output edges and
// input tee) or a graph neighbour is (the tee lives in the upstream's
// output port; a standby's mirror array is not part of any state blob, so
// rebuilding a neighbour incarnation would silently sever it). Held lock:
// cl.mu.
func (cl *Cluster) haPinnedLocked(id string) bool {
	if len(cl.standbys) == 0 {
		return false
	}
	base := partition.BaseID(id)
	if cl.standbys[base] != nil {
		return true
	}
	g := cl.graph
	for _, up := range g.Upstream(base) {
		if cl.standbys[up] != nil {
			return true
		}
	}
	for _, dn := range g.Downstream(base) {
		if cl.standbys[dn] != nil {
			return true
		}
	}
	return false
}

// Protected reports whether HAU id currently has an armed standby.
func (cl *Cluster) Protected(id string) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.standbys[id] != nil
}

// ProtectedIDs returns the protected HAUs in deterministic graph order.
func (cl *Cluster) ProtectedIDs() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []string
	for _, id := range cl.graph.Nodes() {
		if cl.standbys[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// StandbyHAU exposes the armed standby incarnation for id (nil when
// unprotected) — tests assert on its suppression counters.
func (cl *Cluster) StandbyHAU(id string) *spe.HAU {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if sb := cl.standbys[id]; sb != nil {
		return sb.h
	}
	return nil
}

// StandbyNodeOf returns the node hosting id's standby.
func (cl *Cluster) StandbyNodeOf(id string) (int, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if sb := cl.standbys[id]; sb != nil {
		return sb.node, true
	}
	return -1, false
}

// MirrorBytesTotal sums the bytes every upstream has teed onto mirror
// edges — the network duplication cost of active-standby replication.
func (cl *Cluster) MirrorBytesTotal() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var n int64
	for _, h := range cl.haus {
		n += h.MirrorBytes()
	}
	return n
}

// CPUBusyTotal sums every node's CPU-gate busy time. Zero when the
// cluster runs ungated (Config.NodeCores == 0). The HA benchmark uses it
// to price the standby's duplicate execution against a standby-free run.
func (cl *Cluster) CPUBusyTotal() time.Duration {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var total time.Duration
	for _, n := range cl.nodes {
		total += n.cpu.BusyTotal()
	}
	return total
}

// SetFailoverObserver installs fn to be called at each FailoverHAU step
// ("swap" just before the upstream's tee swap, "promote" just before the
// standby's promote command); nil uninstalls. The chaos harness uses it
// to aim kills mid-promotion.
func (cl *Cluster) SetFailoverObserver(fn func(id, step string)) {
	cl.mu.Lock()
	cl.failObs = fn
	cl.mu.Unlock()
}

// ProtectHAU arms an active standby for HAU id — the replication half of
// hybrid fault tolerance:
//
//  1. Quiesce: like migration, one fresh checkpoint epoch is driven to
//     completion with the controller's triggers paused, so no token
//     alignment is in flight when the tee's cut token enters the stream.
//  2. Tee: the single upstream gets CmdTeeOut — it flushes its pending
//     batch plus a migration token to the main edge, then starts copying
//     every subsequent stamped tuple onto a fresh mirror edge. The token
//     is the cut: everything before it reaches only the primary,
//     everything after it reaches both.
//  3. Clone: the primary gets CmdStandbySnap — it drains to the token
//     barrier, serializes its state onto the reply channel, and KEEPS
//     RUNNING (unlike a migration drain).
//  4. Arm: a standby incarnation is restored from the blob on a
//     rack-disjoint node (placement.StandbyNode; a single-rack fleet
//     falls back to co-rack with a logged warning) with the mirror as its
//     only input and the SAME downstream edges. Because its restored
//     output sequence counters equal the primary's at the cut, it
//     executes the identical post-cut stream and would stamp identical
//     sequence numbers — so its output is suppressed into a bounded ring
//     and the downstream dedup that already guards recovery replay makes
//     an eventual promotion exactly-once with no rollback.
//
// Only single-input interior operators qualify (one unsplit upstream,
// at least one downstream — a standby sink would double-deliver to the
// world), no neighbour may be split or already protected, and load
// shedding must be off (a shed is a divergence between the two
// incarnations' streams).
func (cl *Cluster) ProtectHAU(ctx context.Context, id string) (ProtectStats, error) {
	var stats ProtectStats
	stats.HAU = id
	if !cl.cfg.Scheme.OneHopTokens() {
		return stats, errors.New("cluster: active-standby replication requires a one-hop token scheme (MS-src+ap)")
	}
	if cl.cfg.ShedWatermark > 0 {
		return stats, errors.New("cluster: active-standby replication requires exactly-once (disable load shedding)")
	}
	if partition.IsReplica(id) {
		return stats, fmt.Errorf("cluster: replica %q cannot be protected; protect the base operator", id)
	}

	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return stats, errors.New("cluster: not started")
	}
	h := cl.haus[id]
	if h == nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: unknown HAU %q", id)
	}
	g := cl.graph
	ups, downs := g.Upstream(id), g.Downstream(id)
	if len(ups) != 1 || len(downs) == 0 {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q is not a single-input interior operator", id)
	}
	up := ups[0]
	if cl.parts[id] != nil || cl.parts[up] != nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q or its upstream is split; merge before protecting", id)
	}
	for _, dn := range downs {
		if cl.parts[dn] != nil {
			cl.mu.Unlock()
			return stats, fmt.Errorf("cluster: downstream %q of %q is split; merge before protecting", dn, id)
		}
	}
	if cl.standbys[id] != nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q already protected", id)
	}
	if cl.haPinnedLocked(id) {
		// A neighbour is protected: its tee/mirror wiring would not
		// survive this HAU's own clone-and-rewire.
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q is adjacent to a protected HAU", id)
	}
	if cl.migrating[id] || cl.rescaling[id] || cl.migrating[up] || cl.rescaling[up] {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q or its upstream is mid-migration or mid-rescale", id)
	}
	uh := cl.haus[up]
	if uh == nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: upstream %q of %q not running", up, id)
	}
	primaryNode := cl.hauNode[id]
	sbNode, rackDisjoint := placement.StandbyNode(primaryNode, cl.viewLocked(nil))
	if sbNode < 0 {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: no node available to host a standby for %q", id)
	}
	upPort := g.PortOf(up, id)
	// Pin both ends of the tee against concurrent migrate/rescale/drain
	// for the duration of the arm; cl.standbys takes over on success.
	cl.migrating[id] = true
	cl.migrating[up] = true
	a := cl.appOf(id)
	grd := cl.appGuardLocked(a, ErrFailoverAborted)
	rootCtx := cl.rootCtx
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.migrating, id)
		delete(cl.migrating, up)
		cl.mu.Unlock()
	}()
	stats.Primary, stats.Standby, stats.RackDisjoint = primaryNode, sbNode, rackDisjoint
	if !rackDisjoint {
		cl.logf("cluster: standby for %q placed on node %d in the primary's rack (no alive node outside it) — a rack failure kills both", id, sbNode)
	}

	a.ctrl.PauseCheckpoints()
	defer a.ctrl.ResumeCheckpoints()
	if _, err := grd.quiesce(ctx); err != nil {
		return stats, err
	}

	cl.mu.Lock()
	if grd.supersededLocked() || cl.haus[id] != h || cl.haus[up] != uh || !cl.nodes[sbNode].alive.Load() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded before tee")
	}
	mirror := spe.NewEdgeBatch(up, id, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
	cl.mu.Unlock()

	drainStart := time.Now()
	uh.Command(spe.Command{Kind: spe.CmdTeeOut, Port: upPort, Edge: mirror})
	reply := make(chan []byte, 1)
	h.Command(spe.Command{Kind: spe.CmdStandbySnap, Reply: reply})
	blob, err := grd.drainBlob(ctx, id, h, reply, time.After(drainTimeout))
	if err != nil {
		cl.dropTee(rootCtx, uh, upPort, mirror)
		return stats, err
	}
	stats.Drain = time.Since(drainStart)
	stats.CloneBytes = int64(len(blob))

	cl.mu.Lock()
	if grd.supersededLocked() || cl.haus[id] != h || !cl.nodes[sbNode].alive.Load() {
		cl.mu.Unlock()
		cl.dropTee(rootCtx, uh, upPort, mirror)
		return stats, grd.errf("superseded during clone")
	}
	cfg, _ := cl.prepareHAU(id)
	cfg.In = []*spe.Edge{mirror}
	cfg.InLogical = []int{0}
	cfg.CPU = cl.nodes[sbNode].cpu
	cfg.Standby = true
	cfg.StandbyRing = cl.cfg.StandbyRing
	sb, _, err := constructHAU(cfg, blob)
	if err != nil {
		cl.mu.Unlock()
		cl.dropTee(rootCtx, uh, upPort, mirror)
		return stats, fmt.Errorf("cluster: standby restore of %q: %w", id, err)
	}
	sctx, cancel := context.WithCancel(rootCtx)
	cl.standbys[id] = &standbyState{h: sb, cancel: cancel, node: sbNode, up: up, upPort: upPort, mirror: mirror}
	cl.mu.Unlock()
	sb.Start(sctx)
	return stats, nil
}

// DemoteHAU disarms id's standby: the standby is stopped and the
// upstream's tee dropped. The primary is untouched — demotion needs no
// quiesce, the mirror simply stops being fed past the drop point.
func (cl *Cluster) DemoteHAU(id string) error {
	cl.mu.Lock()
	sb := cl.standbys[id]
	if sb == nil {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: HAU %q not protected", id)
	}
	if n, ok := cl.hauNode[id]; ok && !cl.nodes[n].alive.Load() {
		// The primary is dead: this standby is the only live copy of the
		// operator's state — promotion or rollback, not demotion.
		cl.mu.Unlock()
		return fmt.Errorf("cluster: primary of %q is dead; fail over instead of demoting", id)
	}
	delete(cl.standbys, id)
	uh := cl.haus[sb.up]
	rootCtx := cl.rootCtx
	cl.mu.Unlock()

	sb.cancel()
	<-sb.h.Done()
	if uh != nil {
		cl.dropTee(rootCtx, uh, sb.upPort, sb.mirror)
	}
	return nil
}

// FailoverHAU promotes id's standby after its primary's node died: the
// upstream swaps the dead main edge for the mirror (CmdTeeSwap) and the
// standby unsuppresses (CmdPromote), re-emitting its ring so the
// downstream's sequence dedup discards exactly the overlap with what the
// dead primary already delivered. No rollback, no replay, no other HAU
// is touched — the availability gap is one edge switchover.
//
// The promoted incarnation takes over the protected id; the HAU is then
// UNPROTECTED until the HA loop (or a caller) arms a fresh standby via
// ProtectHAU. Aborts (standby or upstream died too, or a recovery
// superseded the promotion) leave rollback as the fallback — see
// HybridRecover.
func (cl *Cluster) FailoverHAU(ctx context.Context, id string) (FailoverStats, error) {
	var stats FailoverStats
	stats.HAU = id
	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return stats, errors.New("cluster: not started")
	}
	sb := cl.standbys[id]
	if sb == nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q not protected", id)
	}
	primary := cl.haus[id]
	pNode := cl.hauNode[id]
	if cl.nodes[pNode].alive.Load() {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: primary of %q (node %d) is alive; failover is for dead primaries", id, pNode)
	}
	if !cl.nodes[sb.node].alive.Load() {
		cl.mu.Unlock()
		return stats, grdlessAbort("standby node %d died too", sb.node)
	}
	uh := cl.haus[sb.up]
	if uh == nil || !cl.nodes[cl.hauNode[sb.up]].alive.Load() {
		cl.mu.Unlock()
		return stats, grdlessAbort("upstream %q is dead; rollback must heal both", sb.up)
	}
	a := cl.appOf(id)
	grd := cl.appGuardLocked(a, ErrFailoverAborted)
	mainIn := cl.inEdges[id]
	rootCtx := cl.rootCtx
	obs := cl.failObs
	cl.mu.Unlock()
	stats.From, stats.To = pNode, sb.node

	// The primary's node is dead: KillNode already fired its cancel. Wait
	// for the goroutine to exit so nothing races the drainers below on
	// the main input edges.
	waitStart := time.Now()
	if primary != nil {
		<-primary.Done()
	}
	// The upstream may be wedged mid-Flush on the dead primary's full
	// main edge; drain it until the tee swap closes it.
	for _, row := range mainIn {
		for _, e := range row {
			go drainEdge(rootCtx, e)
		}
	}
	stats.Wait = time.Since(waitStart)

	switchStart := time.Now()
	if obs != nil {
		obs(id, "swap")
	}
	uh.Command(spe.Command{Kind: spe.CmdTeeSwap, Port: sb.upPort})
	if obs != nil {
		obs(id, "promote")
	}
	stats.RingTuples = int(sb.h.RingTuples())
	sb.h.Command(spe.Command{Kind: spe.CmdPromote})

	cl.mu.Lock()
	if grd.supersededLocked() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded by recovery")
	}
	if cur := cl.standbys[id]; cur != sb {
		// KillNode tore the standby down mid-promotion (or a demote
		// raced); the rollback path owns recovery now.
		cl.mu.Unlock()
		return stats, grd.errf("standby died mid-promotion")
	}
	if !cl.nodes[sb.node].alive.Load() {
		delete(cl.standbys, id)
		cl.mu.Unlock()
		return stats, grd.errf("standby node %d died mid-promotion", sb.node)
	}
	delete(cl.standbys, id)
	cl.haus[id] = sb.h
	cl.cancels[id] = sb.cancel
	cl.hauNode[id] = sb.node
	cl.inEdges[id] = [][]*spe.Edge{{sb.mirror}}
	cl.installControllerHAUs()
	deadLeft := len(cl.deadOfLocked(a)) > 0
	cl.mu.Unlock()
	stats.Switch = time.Since(switchStart)
	if !deadLeft {
		// Every HAU of the app is live again without any rollback: re-arm
		// its failure detection. Co-tenant failures are the co-tenant
		// controller's business.
		a.ctrl.ClearFailure()
	}
	if cl.cfg.Metrics != nil {
		cl.cfg.Metrics.RecordFailover(metrics.Failover{
			At:         cl.cfg.Now(),
			App:        a.name,
			HAU:        id,
			From:       stats.From,
			To:         stats.To,
			Wait:       stats.Wait,
			Switch:     stats.Switch,
			RingTuples: stats.RingTuples,
		})
	}
	return stats, nil
}

// grdlessAbort wraps ErrFailoverAborted before a guard exists (the
// pre-flight checks).
func grdlessAbort(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrFailoverAborted}, args...)...)
}

// HybridRecover heals a failure the hybrid way: when every dead HAU is
// protected, each is promoted onto its standby (sub-window availability
// gap); otherwise — or when any promotion aborts — the whole application
// rolls back via RecoverAllWithRetry, exactly as an unprotected
// deployment would. Returns how many HAUs failed over and whether a
// rollback ran.
func (cl *Cluster) HybridRecover(ctx context.Context) (failovers int, rolledBack bool, err error) {
	dead := cl.DeadHAUs()
	if len(dead) > 0 {
		allProtected := true
		for _, id := range dead {
			if !cl.Protected(id) {
				allProtected = false
				break
			}
		}
		if allProtected {
			ok := true
			for _, id := range dead {
				if _, ferr := cl.FailoverHAU(ctx, id); ferr != nil {
					ok = false
					break
				}
			}
			if ok {
				return len(dead), false, nil
			}
		}
	}
	_, rerr := cl.RecoverAllWithRetry(ctx, 10, 2*time.Millisecond)
	return 0, true, rerr
}

// haStep is the controller's HA tick: feed the replica planner the
// current per-HAU stats and execute at most one mode change. Installed as
// a controller.Loop when Config.HAEvery is set.
func (cl *Cluster) haStep() (int, error) {
	cl.mu.Lock()
	if !cl.started || cl.haPlanner == nil {
		cl.mu.Unlock()
		return 0, nil
	}
	ctx := cl.rootCtx
	g := cl.graph
	var rollback time.Duration
	if cl.cfg.Metrics != nil {
		if rs := cl.cfg.Metrics.Recoveries(); len(rs) > 0 {
			rollback = rs[len(rs)-1].Total
		}
	}
	var stats []replica.Stat
	for _, id := range g.Nodes() {
		ups, downs := g.Upstream(id), g.Downstream(id)
		if len(ups) != 1 || len(downs) == 0 {
			continue
		}
		if cl.parts[id] != nil || cl.parts[ups[0]] != nil {
			continue
		}
		h := cl.haus[id]
		if h == nil {
			continue
		}
		stats = append(stats, replica.Stat{
			HAU:         id,
			StateBytes:  h.CachedStateSize(),
			RecoverTime: rollback,
			Protected:   cl.standbys[id] != nil,
		})
	}
	now := time.Unix(0, cl.cfg.Now())
	act, ok := cl.haPlanner.Step(now, stats)
	cl.mu.Unlock()
	if !ok {
		return 0, nil
	}
	switch act.Mode {
	case replica.ModeStandby:
		if _, err := cl.ProtectHAU(ctx, act.HAU); err != nil {
			return 0, err
		}
	case replica.ModeCheckpoint:
		if err := cl.DemoteHAU(act.HAU); err != nil {
			return 0, err
		}
	}
	return 1, nil
}
