package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/metrics"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
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

// ProtectHAU arms an active standby for HAU id, as a plan for
// reconfigure. The single upstream gets CmdTeeOut (a fence token on the
// main edge, then every later tuple copied to a fresh mirror), and the
// primary drains with CmdStandbySnap and KEEPS RUNNING. The standby is
// restored from its blob on a rack-disjoint node when one is alive, fed by
// the mirror alone, with the primary's output edges and its output
// suppressed into a ring until FailoverHAU promotes it. A give-up after
// the tee drops the tee. Only single-input interior operators with no
// split neighbour qualify, and load shedding must be off (a shed makes
// the two incarnations' streams diverge). The change pins id and its
// upstream.
func (cl *Cluster) ProtectHAU(ctx context.Context, id string) (ProtectStats, error) {
	stats := ProtectStats{HAU: id}
	if !cl.cfg.Scheme.OneHopTokens() {
		return stats, errors.New("cluster: active-standby replication requires a one-hop token scheme (MS-src+ap)")
	}
	if cl.cfg.ShedWatermark > 0 {
		return stats, errors.New("cluster: active-standby replication requires exactly-once (disable load shedding)")
	}
	c, err := cl.reconfigure(ctx, "protection", id, ErrFailoverAborted, func(c *change) error {
		g := cl.graph
		ups, downs := g.Upstream(id), g.Downstream(id)
		if len(ups) != 1 || len(downs) == 0 {
			return fmt.Errorf("cluster: HAU %q is not a single-input interior operator", id)
		}
		up := ups[0]
		if cl.parts[id] != nil || cl.parts[up] != nil {
			return fmt.Errorf("cluster: HAU %q or its upstream is split; merge before protecting", id)
		}
		for _, dn := range downs {
			if cl.parts[dn] != nil {
				return fmt.Errorf("cluster: downstream %q of %q is split; merge before protecting", dn, id)
			}
		}
		uh := cl.haus[up]
		if uh == nil {
			return fmt.Errorf("cluster: upstream %q of %q not running", up, id)
		}
		stats.Primary = cl.hauNode[id]
		stats.Standby, stats.RackDisjoint = placement.StandbyNode(stats.Primary, cl.viewLocked(nil))
		if stats.Standby < 0 {
			return fmt.Errorf("cluster: no node available to host a standby for %q", id)
		}
		sbNode, upPort := stats.Standby, g.OutPortOf(up, id)
		c.pins = []string{id, up}
		c.drain, c.snap = []*spe.HAU{cl.haus[id]}, spe.CmdStandbySnap
		var mirror *spe.Edge
		c.divert = func() ([]order, error) {
			if cl.haus[up] != uh || !cl.nodes[sbNode].alive.Load() {
				return nil, c.grd.errf("upstream or standby node changed before the tee")
			}
			mirror = spe.NewEdgeBatch(up, id, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
			return []order{{h: uh, cmd: spe.Command{Kind: spe.CmdTeeOut, Port: upPort, Edge: mirror}}}, nil
		}
		rootCtx := cl.rootCtx
		c.abandon = func() { cl.dropTee(rootCtx, uh, upPort, mirror) }
		c.commit = func(blobs [][]byte) ([]launch, []order, error) {
			stats.CloneBytes = int64(len(blobs[0]))
			if !cl.nodes[sbNode].alive.Load() {
				return nil, nil, c.grd.errf("standby node %d died during the clone", sbNode)
			}
			cfg, _ := cl.prepareHAU(id)
			cfg.In = []*spe.Edge{mirror}
			cfg.InLogical = []int{0}
			cfg.CPU = cl.nodes[sbNode].cpu
			cfg.Standby = true
			cfg.StandbyRing = cl.cfg.StandbyRing
			sb, _, err := constructHAU(cfg, blobs[0])
			if err != nil {
				return nil, nil, fmt.Errorf("cluster: standby restore of %q: %w", id, err)
			}
			sctx, cancel := context.WithCancel(rootCtx)
			cl.standbys[id] = &standbyState{h: sb, cancel: cancel, node: sbNode, up: up, upPort: upPort, mirror: mirror}
			return []launch{{sb, sctx}}, nil, nil
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	if !stats.RackDisjoint {
		cl.logf("cluster: standby for %q placed on node %d in the primary's rack (no alive node outside it) — a rack failure kills both", id, stats.Standby)
	}
	stats.Drain = c.drained
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
// UNPROTECTED until a caller arms a fresh standby via ProtectHAU. Aborts (standby or upstream died too, or a recovery
// superseded the promotion) leave rollback as the fallback — see
// HybridRecover.
func (cl *Cluster) FailoverHAU(ctx context.Context, id string) (FailoverStats, error) {
	stats := FailoverStats{HAU: id}
	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return stats, errors.New("cluster: not started")
	}
	a := cl.appOf(id)
	grd := cl.appGuardLocked(a, ErrFailoverAborted)
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
		return stats, grd.errf("standby node %d died too", sb.node)
	}
	uh := cl.haus[sb.up]
	if uh == nil || !cl.nodes[cl.hauNode[sb.up]].alive.Load() {
		cl.mu.Unlock()
		return stats, grd.errf("upstream %q is dead; rollback must heal both", sb.up)
	}
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
