package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"meteorshower/internal/metrics"
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

// MigrateHAU live-migrates one HAU to node dest with no rollback, as a
// plan for reconfigure: every upstream incarnation gets CmdMigrateOut, the
// HAU drains with CmdMigrateSnap, and the blob is restored on dest with
// fresh input edges and the SAME output edges, so its output sequence
// numbers continue where they stopped. A destination that dies during the
// drain falls back to the source node. Split operators move by rescale.
func (cl *Cluster) MigrateHAU(ctx context.Context, id string, dest int) (MigrationStats, error) {
	stats := MigrationStats{HAU: id, To: dest}
	c, err := cl.reconfigure(ctx, "live migration", id, ErrMigrationAborted, func(c *change) error {
		if cl.parts[id] != nil {
			return fmt.Errorf("cluster: HAU %q is split; merge before migrating", id)
		}
		if dest < 0 || dest >= len(cl.nodes) {
			return fmt.Errorf("cluster: no such node %d", dest)
		}
		if !cl.nodes[dest].alive.Load() {
			return fmt.Errorf("cluster: destination node %d is dead", dest)
		}
		stats.From = cl.hauNode[id]
		if stats.From == dest {
			return fmt.Errorf("cluster: HAU %q already on node %d", id, dest)
		}
		c.drain, c.snap = []*spe.HAU{cl.haus[id]}, spe.CmdMigrateSnap
		var grid [][]*spe.Edge
		c.divert = func() ([]order, error) {
			if !cl.nodes[dest].alive.Load() {
				return nil, c.grd.errf("destination node %d died before divert", dest)
			}
			// One fresh edge per upstream INCARNATION: a split upstream has
			// several, each diverted at the same logical out port.
			grid = cl.freshInGridLocked(id, id)
			return cl.upstreamOrdersLocked(c.grd, id, func(p, k, outPort int) spe.Command {
				return spe.Command{Kind: spe.CmdMigrateOut, Port: outPort, Edge: grid[p][k]}
			})
		}
		c.commit = func(blobs [][]byte) ([]launch, []order, error) {
			stats.MovedBytes = int64(len(blobs[0]))
			if !cl.nodes[stats.To].alive.Load() {
				// The blob is the authoritative state wherever it lands.
				stats.To = stats.From
				if !cl.nodes[stats.To].alive.Load() {
					return nil, nil, c.grd.errf("destination and source nodes both dead")
				}
			}
			l, restore, err := cl.installLocked(id, stats.To, grid, blobs[0])
			if err != nil {
				// The HAU is down until the failure detector notices;
				// surface the cause rather than masking it as an abort.
				return nil, nil, fmt.Errorf("cluster: migration restore of %q: %w", id, err)
			}
			stats.Restore = restore
			return []launch{l}, nil, nil
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.Drain = c.drained
	stats.Downtime = c.up.Sub(c.down)
	if cl.cfg.Metrics != nil {
		cl.cfg.Metrics.RecordMigration(metrics.Migration{
			At:         cl.cfg.Now(),
			App:        c.grd.app.name,
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
