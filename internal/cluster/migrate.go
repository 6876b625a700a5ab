package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/metrics"
	"meteorshower/internal/partition"
	"meteorshower/internal/spe"
)

// ErrMigrationAborted marks a live migration that could not complete —
// the source incarnation died mid-drain, a whole-application recovery
// superseded the move, or the quiesce/drain timed out. The application is
// left in a state ordinary failure handling heals: either the old
// incarnation still runs, or the failure detector sees it gone and
// triggers recovery.
var ErrMigrationAborted = errors.New("cluster: migration aborted")

// MigrationStats decomposes one live migration.
type MigrationStats struct {
	HAU        string
	From, To   int
	MovedBytes int64
	Drain      time.Duration // divert commands sent -> state blob handed over
	Downtime   time.Duration // old incarnation stopped -> new one started
	Restore    time.Duration // state deserialization on the destination
}

// MigrateHAU live-migrates one HAU to another node with exactly-once
// semantics and no whole-application rollback:
//
//  1. Quiesce: scheme-driven checkpoint triggers are paused, then one
//     explicit checkpoint epoch is driven to completion so no token
//     alignment is in flight when migration tokens enter the streams.
//  2. Divert: every upstream gets CmdMigrateOut — it flushes its pending
//     batch plus a migration token to the OLD edge, then switches the
//     port to a fresh edge feeding the destination incarnation.
//  3. Drain: the old incarnation processes everything up to the tokens
//     (per-edge FIFO makes the token a barrier), flushes its outputs,
//     serializes its state onto the reply channel, and exits.
//  4. Restore: the destination incarnation is rebuilt from the blob with
//     the SAME downstream edges and the fresh input edges, so output
//     sequence numbers continue exactly where the old incarnation
//     stopped — downstream dedup state stays valid and nothing is
//     replayed or lost.
//
// Downstream HAUs are never rolled back, which is why step 3 must flush
// pending output before snapshotting: a dropped stamped tuple would be a
// permanent sequence gap. The Baseline scheme is rejected — its
// preserver/ack plumbing assumes single-HAU restart recovery, not
// token-barrier handoff.
//
// Under the unaligned scheme the quiesce epoch completes without stalling
// (captures log channel tuples instead of pausing ports), and any capture
// still armed when the migration token or CmdMigrateSnap reaches an HAU is
// force-sealed (aborted) by the HAU itself — its remaining tokens may never
// arrive once upstreams divert, and the drain must not wait on a
// never-pausing port. A capture that can never seal (e.g. its epoch was
// abandoned by a failure) instead surfaces as a quiesce timeout with
// ErrMigrationAborted.
func (cl *Cluster) MigrateHAU(ctx context.Context, id string, dest int) (MigrationStats, error) {
	var stats MigrationStats
	if cl.cfg.Scheme == spe.Baseline {
		return stats, errors.New("cluster: live migration requires a token scheme (not Baseline)")
	}

	if partition.IsReplica(id) {
		return stats, fmt.Errorf("cluster: replica %q moves via rescale, not migration", id)
	}

	cl.mu.Lock()
	if !cl.started {
		cl.mu.Unlock()
		return stats, errors.New("cluster: not started")
	}
	if cl.parts[id] != nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q is split; merge before migrating", id)
	}
	old := cl.haus[id]
	if old == nil {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: unknown HAU %q", id)
	}
	if dest < 0 || dest >= len(cl.nodes) {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: no such node %d", dest)
	}
	if !cl.nodes[dest].alive.Load() {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: destination node %d is dead", dest)
	}
	src := cl.hauNode[id]
	if src == dest {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q already on node %d", id, dest)
	}
	if cl.migrating[id] {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q already migrating", id)
	}
	if cl.haPinnedLocked(id) {
		cl.mu.Unlock()
		return stats, fmt.Errorf("cluster: HAU %q is pinned by active-standby replication (protected or adjacent to a protected HAU); demote first", id)
	}
	cl.migrating[id] = true
	a := cl.appOf(id)
	grd := cl.appGuardLocked(a, ErrMigrationAborted)
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.migrating, id)
		cl.mu.Unlock()
	}()
	stats.HAU, stats.From, stats.To = id, src, dest

	// Quiesce: no checkpoint alignment may be in flight while migration
	// tokens travel, or token ordering on the old edges would interleave.
	// Pausing first and then driving one fresh epoch to completion
	// guarantees it: completion means every HAU finished aligning, and the
	// pause stops new epochs until the move is done.
	a.ctrl.PauseCheckpoints()
	defer a.ctrl.ResumeCheckpoints()
	if _, err := grd.quiesce(ctx); err != nil {
		return stats, err
	}

	// The recovery generation must not have moved: a whole-application
	// rollback rebuilt every HAU and our captured instance is stale.
	cl.mu.Lock()
	if grd.supersededLocked() || cl.haus[id] != old || !cl.nodes[dest].alive.Load() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded before drain")
	}
	g := cl.graph
	ups := g.Upstream(id)
	// One fresh edge per upstream INCARNATION: a split upstream has several,
	// each diverted at the same logical out port.
	newGrid := make([][]*spe.Edge, len(ups))
	type divert struct {
		h    *spe.HAU
		port int
		edge *spe.Edge
	}
	var diverts []divert
	for i, up := range ups {
		outPort := -1
		for p, d := range g.Downstream(up) {
			if d == id {
				outPort = p
				break
			}
		}
		upIncs := cl.expandedLocked(up)
		newGrid[i] = make([]*spe.Edge, len(upIncs))
		for k, uinc := range upIncs {
			e := spe.NewEdgeBatch(uinc, id, cl.cfg.EdgeBuffer, cl.cfg.EdgeBatch)
			newGrid[i][k] = e
			if uh := cl.haus[uinc]; uh != nil && outPort >= 0 {
				diverts = append(diverts, divert{uh, outPort, e})
			}
		}
	}
	cl.mu.Unlock()

	drainStart := time.Now()
	for _, d := range diverts {
		d.h.Command(spe.Command{Kind: spe.CmdMigrateOut, Port: d.port, Edge: d.edge})
	}
	reply := make(chan []byte, 1)
	old.Command(spe.Command{Kind: spe.CmdMigrateSnap, Reply: reply})

	blob, err := grd.drainBlob(ctx, id, old, reply, time.After(drainTimeout))
	if err != nil {
		return stats, err
	}
	stats.Drain = time.Since(drainStart)
	stats.MovedBytes = int64(len(blob))

	// Handoff: the old incarnation has exited on its own; from here until
	// Start below, HAU id is not processing — the downtime window.
	downStart := time.Now()
	cl.mu.Lock()
	if grd.supersededLocked() {
		cl.mu.Unlock()
		return stats, grd.errf("superseded during drain")
	}
	if c := cl.cancels[id]; c != nil {
		c() // release the old incarnation's context
	}
	target := dest
	if !cl.nodes[target].alive.Load() {
		// Destination died during the drain: fall back to the source node —
		// the blob is the authoritative state either way.
		target = src
		if !cl.nodes[target].alive.Load() {
			cl.mu.Unlock()
			return stats, fmt.Errorf("%w: destination and source nodes both dead", ErrMigrationAborted)
		}
	}
	cl.inEdges[id] = newGrid
	cl.hauNode[id] = target
	h, _, restoreDur, err := cl.buildHAU(id, blob)
	if err != nil {
		cl.mu.Unlock()
		// The HAU is down until the failure detector notices; surface the
		// cause rather than masking it as an abort.
		return stats, fmt.Errorf("cluster: migration restore of %q: %w", id, err)
	}
	cl.haus[id] = h
	hctx, cancel := context.WithCancel(cl.rootCtx)
	cl.cancels[id] = cancel
	cl.installControllerHAUs()
	cl.mu.Unlock()
	h.Start(hctx)
	stats.To = target
	stats.Restore = restoreDur
	stats.Downtime = time.Since(downStart)

	if cl.cfg.Metrics != nil {
		cl.cfg.Metrics.RecordMigration(metrics.Migration{
			At:         cl.cfg.Now(),
			App:        a.name,
			HAU:        id,
			From:       stats.From,
			To:         stats.To,
			MovedBytes: stats.MovedBytes,
			Drain:      stats.Drain,
			Downtime:   stats.Downtime,
			Restore:    stats.Restore,
		})
	}
	return stats, nil
}
