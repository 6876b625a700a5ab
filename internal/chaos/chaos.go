// Package chaos is a seed-replayable fault-injection harness for the
// simulated cluster. A run boots a real application (chain, fan-in or
// fan-out topology in Audit mode with bounded sources), samples correlated
// burst-kill schedules from the failure model, injects the kills at
// adversarial instants — mid-alignment, mid-snapshot-drain, mid-recovery,
// back-to-back bursts — drives whole-application recovery, and then checks
// two oracles:
//
//  1. the exactly-once sequence oracle: the sink's per-source delivery
//     report must show zero gaps and zero duplicates;
//  2. the state-equivalence oracle: the terminal sink state must equal a
//     single-threaded reference replay of the same source streams.
//
// Every run is reproducible from its (topology, seed, rounds, nodes)
// tuple; a failing Result prints the exact mschaos command that replays
// it.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"meteorshower/internal/cluster"
	"meteorshower/internal/failure"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
)

// InjectionPoint names the instant within the checkpoint/recovery
// lifecycle at which a round's burst is injected.
type InjectionPoint string

const (
	// KillImmediate kills right after a complete checkpoint — the
	// textbook case, recovery from a fresh MRC.
	KillImmediate InjectionPoint = "immediate"
	// KillMidAlignment kills while checkpoint tokens are still
	// propagating, so the in-flight epoch never completes and recovery
	// must fall back to the previous cut.
	KillMidAlignment InjectionPoint = "mid-alignment"
	// KillMidDrain kills after at least one HAU has persisted its state
	// for the in-flight epoch but before the epoch is complete — the
	// shared store holds a torn cut that recovery must ignore.
	KillMidDrain InjectionPoint = "mid-snapshot-drain"
	// KillMidRecovery kills one more node while whole-application
	// recovery is running; the retry loop must converge instead of
	// wedging or leaving HAUs on a dead node.
	KillMidRecovery InjectionPoint = "mid-recovery"
	// KillBackToBack injects a second burst microseconds after the
	// first, before anything reacts — a rack failure cascading into a
	// router event.
	KillBackToBack InjectionPoint = "back-to-back"
	// KillMidMigration starts a live HAU migration, then kills the burst
	// plus the migration's source or destination node while the move is in
	// flight — quiesce, drain and handoff must all abort or complete
	// without breaking exactly-once. Only in the sample space when
	// Config.Migrations is set, so default schedules replay unchanged.
	KillMidMigration InjectionPoint = "mid-migration"
	// KillMidRescale starts a live split (or merge, when the victim is
	// already split), then kills the burst plus a node hosting one of the
	// victim's incarnations while the re-partition is in flight — the
	// drain, re-shard and replica restore must abort or commit without
	// breaking exactly-once. Only in the sample space when Config.Rescales
	// is set, so default schedules replay unchanged.
	KillMidRescale InjectionPoint = "mid-rescale"
	// KillMidRebalance starts a weighted slots-only rebalance of the
	// topology's keyed operator (splitting it 2-way first when whole), then
	// kills the burst plus a node hosting one of its incarnations while hot
	// slots are moving between the existing replicas — the drain, re-shard
	// and replica restore must abort (ErrRescaleAborted) or commit without
	// breaking exactly-once. Only in the sample space when Config.Rebalances
	// is set, so default schedules replay unchanged.
	KillMidRebalance InjectionPoint = "mid-rebalance"
	// KillMidScaleIn starts a scale-in drain (the node live-migrates every
	// hosted HAU off before retiring), then kills the burst plus the
	// draining node itself while moves are still in flight — the drain must
	// abort (the node died under it) or have already retired, and the
	// whole-application recovery must re-place its HAUs exactly once, never
	// twice. Only in the sample space when Config.Elastic is set, so default
	// schedules replay unchanged.
	KillMidScaleIn InjectionPoint = "mid-scale-in"
	// KillScaleInDest starts a scale-in drain and kills the burst plus the
	// DESTINATION node of the drain's in-flight migration — the handoff
	// target vanishes mid-move, so the migration and therefore the drain
	// must abort without losing or duplicating the HAU. Only in the sample
	// space when Config.Elastic is set, so default schedules replay
	// unchanged.
	KillScaleInDest InjectionPoint = "mid-scale-in-dest"
	// KillHAPrimary kills the protected primary's node alone — the
	// single-domain failure the standby was provisioned against — and
	// lands the correlated burst asynchronously while hybrid recovery
	// runs. HybridRecover must promote the standby (a single-edge
	// switchover, no rollback) when the primary's domain held only
	// protected HAUs, or roll back otherwise, and the late burst then
	// forces a second recovery on top of whichever path won; the oracles
	// must stay clean across the promotion boundary either way. Only in
	// the sample space when Config.HA is set, so default schedules replay
	// unchanged.
	KillHAPrimary InjectionPoint = "ha-primary"
	// KillHAStandbyMidPromote kills the protected primary's node alone so
	// a promotion can start, then kills the STANDBY's node synchronously
	// at the promote step — the operator's only live copy dies
	// mid-switchover. The failover must abort, the burst lands on top,
	// and whole-application rollback must heal everything without loss or
	// duplication. Only in the sample space when Config.HA is set, so
	// default schedules replay unchanged.
	KillHAStandbyMidPromote InjectionPoint = "ha-standby-mid-promote"
	// KillMidChannelLog triggers a checkpoint and kills while unaligned
	// captures are logging in-flight channel tuples — the store may hold
	// epochs whose blobs carry half the application's channel sections.
	// Recovery must either use a complete unaligned epoch (replaying its
	// channel state) or fall back past it. Only in the sample space when
	// the scheme is unaligned, so default schedules replay unchanged.
	KillMidChannelLog InjectionPoint = "mid-channel-log"
)

// injectionPoints is the default sample space for a round's injection
// draw. KillMidMigration is appended only when migrations are enabled.
var injectionPoints = []InjectionPoint{
	KillImmediate, KillMidAlignment, KillMidDrain, KillMidRecovery, KillBackToBack,
}

// Config parameterizes one chaos run. Zero values select defaults.
type Config struct {
	Topology    Topology
	Seed        int64
	Rounds      int             // kill/recover rounds; default 3
	Nodes       int             // worker nodes; default 4
	Scheme      spe.Scheme      // zero value selects spe.MSSrcAP; the harness drives whole-application recovery, so only the token schemes (aligned or unaligned) apply
	Profile     failure.Profile // default failure.GoogleDC()
	SourceLimit uint64          // ids per source; default 60
	Logf        func(format string, args ...any)

	// Placement names the placement policy (placement.Parse); "" keeps the
	// cluster default (round-robin, the historical schedule).
	Placement    string
	NodesPerRack int // failure-domain geometry; 0 = one rack
	// Migrations enables live-migration chaos: each round either performs
	// one migration before its kill or draws the mid-migration instant.
	Migrations bool
	// Rescales enables re-partition chaos: each round either splits or
	// merges the topology's keyed operator before its kill or draws the
	// mid-rescale instant.
	Rescales bool
	// Rebalances enables hot-slot rebalance chaos: each round either shifts
	// slots across the keyed operator's replicas cleanly before its kill
	// (splitting it once when whole) or draws the mid-rebalance instant.
	Rebalances bool
	// Elastic enables fleet-elasticity chaos: each round either performs one
	// clean grow-then-drain cycle (add a node, scale another one in) before
	// its kill, or draws one of the mid-scale-in instants.
	Elastic bool
	// HA enables hybrid fault-tolerance chaos: every round arms an active
	// standby on the topology's HA victim before its kill, recovery goes
	// through HybridRecover's promote-or-rollback decision instead of
	// unconditional rollback, and the sample space gains the primary-kill
	// and standby-mid-promotion instants.
	HA bool
	// Points overrides the injection sample space (tests force a single
	// instant with it). Empty selects the default space.
	Points []InjectionPoint
}

func (c *Config) defaults() {
	if c.Topology == "" {
		c.Topology = Chain
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Scheme == 0 {
		c.Scheme = spe.MSSrcAP
	}
	if c.Profile.Name == "" {
		c.Profile = failure.GoogleDC()
	}
	if c.SourceLimit == 0 {
		c.SourceLimit = 60
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if len(c.Points) == 0 {
		c.Points = append([]InjectionPoint(nil), injectionPoints...)
		if c.Migrations {
			c.Points = append(c.Points, KillMidMigration)
		}
		if c.Rescales {
			c.Points = append(c.Points, KillMidRescale)
		}
		if c.Rebalances {
			c.Points = append(c.Points, KillMidRebalance)
		}
		if c.Elastic {
			c.Points = append(c.Points, KillMidScaleIn, KillScaleInDest)
		}
		if c.HA {
			c.Points = append(c.Points, KillHAPrimary, KillHAStandbyMidPromote)
		}
		if c.Scheme.Unaligned() {
			c.Points = append(c.Points, KillMidChannelLog)
		}
	}
}

// Round records one injected failure and its recovery.
type Round struct {
	Burst          []int          // node indices killed
	SecondBurst    []int          // back-to-back only
	Point          InjectionPoint // when within the lifecycle the kill landed
	ExtraKill      int            // node killed mid-recovery; -1 if none
	RecoveredEpoch uint64         // epoch the cluster rolled back to
	Attempts       int            // RecoverAll attempts the round consumed

	Migrated     string // HAU live-migrated this round; "" if none
	MigratedFrom int
	MigratedTo   int
	MigrateKill  int // node killed while the migration was in flight; -1 if none

	Rescaled    string // operator split/merged this round; "" if none
	RescaleTo   int    // replica count the rescale targeted
	RescaleKill int    // node killed while the rescale was in flight; -1 if none

	Rebalanced    string // operator whose hot slots were rebalanced; "" if none
	RebalanceKill int    // node killed while the rebalance was in flight; -1 if none

	Added     int // node added this round (elastic mode); -1 if none
	Drained   int // node scale-in drained this round; -1 if none
	DrainKill int // draining node killed while its HAUs were mid-flight; -1 if none
	DestKill  int // drain-migration destination killed in flight; -1 if none

	Protected   string // HA-protected operator this round (HA mode); "" if none
	PrimaryKill int    // protected primary's node killed; -1 if none
	StandbyKill int    // standby's node killed mid-promotion; -1 if none
	Failovers   int    // standbys promoted in place of rollback this round
	RolledBack  bool   // an HA-mode recovery fell back to whole-application rollback
}

// Result is a finished chaos run plus both oracle verdicts.
type Result struct {
	// Config is the configuration the run used, defaults filled in.
	// Config.Rounds is the planned count; RoundList may be shorter if a
	// round errored.
	Config    Config
	RoundList []Round
	// Report is the chaos run's terminal sink state; Reference is the
	// single-threaded replay's.
	Report     operator.SinkReport
	Reference  operator.SinkReport
	StateDiffs []string // state-equivalence oracle; empty = equivalent
	Recoveries []metrics.Recovery
	// RescaleList holds every COMMITTED re-partition's phase breakdown
	// (aborted ones record nothing; the Round notes the attempt).
	RescaleList []metrics.Rescale
}

// Violations returns the sequence oracle's count: gaps plus duplicates
// across every source at the sink.
func (r *Result) Violations() uint64 { return r.Report.TotalViolations() }

// Err returns nil when both oracles pass, else one error naming every
// violation and the command that replays the run.
func (r *Result) Err() error {
	if r.Violations() == 0 && len(r.StateDiffs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: oracle violations (replay: %s)\n", r.ReplayCommand())
	if v := r.Violations(); v > 0 {
		fmt.Fprintf(&b, "sequence oracle: %d violations\n%s", v, r.Report)
	}
	for _, d := range r.StateDiffs {
		fmt.Fprintf(&b, "state oracle: %s\n", d)
	}
	return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
}

// ReplayCommand returns the CLI invocation reproducing this run's
// schedule: every Config field mschaos has a flag for, which is all of
// them but Logf and Points.
func (r *Result) ReplayCommand() string {
	c := r.Config
	cmd := fmt.Sprintf("go run ./cmd/mschaos -topology %s -seed %d -rounds %d -nodes %d",
		c.Topology, c.Seed, c.Rounds, c.Nodes)
	if c.Scheme != spe.MSSrcAP && c.Scheme != 0 {
		cmd += fmt.Sprintf(" -scheme %s", SchemeFlag(c.Scheme))
	}
	if c.SourceLimit != 0 {
		cmd += fmt.Sprintf(" -limit %d", c.SourceLimit)
	}
	if c.Profile.Name == failure.AbeCluster().Name {
		cmd += " -abe"
	}
	if c.Placement != "" {
		cmd += fmt.Sprintf(" -placement %s", c.Placement)
	}
	if c.NodesPerRack != 0 {
		cmd += fmt.Sprintf(" -nodes-per-rack %d", c.NodesPerRack)
	}
	if c.Migrations {
		cmd += " -migrate"
	}
	if c.Rescales {
		cmd += " -rescale"
	}
	if c.Rebalances {
		cmd += " -rebalance"
	}
	if c.Elastic {
		cmd += " -elastic"
	}
	if c.HA {
		cmd += " -ha"
	}
	return cmd
}

// SchemeFlag returns the CLI spelling of a scheme, as accepted by the
// msrun/mschaos -scheme flags and by ParseScheme.
func SchemeFlag(s spe.Scheme) string {
	switch s {
	case spe.Baseline:
		return "baseline"
	case spe.MSSrc:
		return "ms-src"
	case spe.MSSrcAPAA:
		return "ms-src+ap+aa"
	case spe.MSSrcAPU:
		return "ms-src+ap+unaligned"
	default:
		return "ms-src+ap"
	}
}

// ParseScheme resolves a -scheme flag value (long or short spelling).
func ParseScheme(s string) (spe.Scheme, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return spe.Baseline, nil
	case "ms-src", "src":
		return spe.MSSrc, nil
	case "ms-src+ap", "ap", "":
		return spe.MSSrcAP, nil
	case "ms-src+ap+aa", "aa":
		return spe.MSSrcAPAA, nil
	case "ms-src+ap+unaligned", "unaligned":
		return spe.MSSrcAPU, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q", s)
	}
}

// String summarizes the run for logs.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology=%s seed=%d nodes=%d rounds=%d", r.Config.Topology, r.Config.Seed, r.Config.Nodes, len(r.RoundList))
	for i, rd := range r.RoundList {
		fmt.Fprintf(&b, "\n  round %d: kill %v at %s", i, rd.Burst, rd.Point)
		if len(rd.SecondBurst) > 0 {
			fmt.Fprintf(&b, " then %v", rd.SecondBurst)
		}
		if rd.ExtraKill >= 0 {
			fmt.Fprintf(&b, " (+node %d mid-recovery)", rd.ExtraKill)
		}
		if rd.Migrated != "" {
			fmt.Fprintf(&b, " [migrate %s %d->%d", rd.Migrated, rd.MigratedFrom, rd.MigratedTo)
			if rd.MigrateKill >= 0 {
				fmt.Fprintf(&b, ", node %d killed in flight", rd.MigrateKill)
			}
			fmt.Fprintf(&b, "]")
		}
		if rd.Rescaled != "" {
			fmt.Fprintf(&b, " [rescale %s ->%d replica(s)", rd.Rescaled, rd.RescaleTo)
			if rd.RescaleKill >= 0 {
				fmt.Fprintf(&b, ", node %d killed in flight", rd.RescaleKill)
			}
			fmt.Fprintf(&b, "]")
		}
		if rd.Rebalanced != "" {
			fmt.Fprintf(&b, " [rebalance %s", rd.Rebalanced)
			if rd.RebalanceKill >= 0 {
				fmt.Fprintf(&b, ", node %d killed in flight", rd.RebalanceKill)
			}
			fmt.Fprintf(&b, "]")
		}
		if rd.Protected != "" {
			fmt.Fprintf(&b, " [ha %s", rd.Protected)
			if rd.PrimaryKill >= 0 {
				fmt.Fprintf(&b, " primary node %d killed", rd.PrimaryKill)
			}
			if rd.StandbyKill >= 0 {
				fmt.Fprintf(&b, ", standby node %d killed mid-promotion", rd.StandbyKill)
			}
			if rd.Failovers > 0 {
				fmt.Fprintf(&b, ", %d promoted", rd.Failovers)
			}
			if rd.RolledBack {
				fmt.Fprintf(&b, ", rolled back")
			}
			fmt.Fprintf(&b, "]")
		}
		if rd.Added >= 0 || rd.Drained >= 0 {
			fmt.Fprintf(&b, " [elastic")
			if rd.Added >= 0 {
				fmt.Fprintf(&b, " +node %d", rd.Added)
			}
			if rd.Drained >= 0 {
				fmt.Fprintf(&b, " drain node %d", rd.Drained)
			}
			if rd.DrainKill >= 0 {
				fmt.Fprintf(&b, ", drained node killed in flight")
			}
			if rd.DestKill >= 0 {
				fmt.Fprintf(&b, ", dest node %d killed in flight", rd.DestKill)
			}
			fmt.Fprintf(&b, "]")
		}
		fmt.Fprintf(&b, " -> recovered from epoch %d in %d attempt(s)", rd.RecoveredEpoch, rd.Attempts)
	}
	fmt.Fprintf(&b, "\n  sequence oracle: %d violations; state oracle: %d diffs",
		r.Violations(), len(r.StateDiffs))
	return b.String()
}

// Run executes one chaos run. The returned error covers harness failures
// (recovery wedged, checkpoint never completing); oracle verdicts live in
// the Result — check Result.Err().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.defaults()
	res := &Result{Config: cfg}
	var pol placement.Policy
	if cfg.Placement != "" {
		p, err := placement.Parse(cfg.Placement)
		if err != nil {
			return nil, err
		}
		pol = p
	}

	// Ground truth first: it is cheap, synchronous, and also tells the
	// harness how many distinct deliveries to wait for at quiescence.
	refSpec, _, refSink, err := buildSpec(cfg.Topology, cfg.Seed, cfg.SourceLimit)
	if err != nil {
		return nil, err
	}
	reference, err := referenceReplay(refSpec, refSink)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference replay: %w", err)
	}
	res.Reference = reference
	var refSeen int
	for _, sr := range reference {
		refSeen += int(sr.Delivered)
	}
	cfg.Logf("reference replay: %d distinct deliveries across %d sources", refSeen, len(reference))

	spec, col, sink, err := buildSpec(cfg.Topology, cfg.Seed, cfg.SourceLimit)
	if err != nil {
		return nil, err
	}
	disk := storage.DiskSpec{BandwidthBps: 1 << 30, Latency: time.Microsecond, TimeScale: 0}
	cl, err := cluster.New(cluster.Config{
		App:            spec,
		Scheme:         cfg.Scheme,
		Nodes:          cfg.Nodes,
		Placement:      pol,
		NodesPerRack:   cfg.NodesPerRack,
		LocalDiskSpec:  disk,
		SharedSpec:     disk,
		TickEvery:      time.Millisecond,
		PreserveMemCap: 1 << 20,
		SourceFlush:    256,
		RetainEpochs:   2,
		Seed:           cfg.Seed,
		Metrics:        col,
	})
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := cl.Start(runCtx); err != nil {
		return nil, err
	}
	defer cl.StopAll()

	h := &harness{cfg: cfg, cl: cl, rng: rand.New(rand.NewSource(cfg.Seed)), ids: cl.GraphNodes()}
	if err := h.waitCond(10*time.Second, "first delivery", func() bool {
		s := sink.Get()
		return s != nil && s.SeenCount() > 0
	}); err != nil {
		return nil, err
	}

	bursts := failure.SampleBursts(cfg.Profile, cfg.Nodes, cfg.Rounds, cfg.Seed)
	for i, burst := range bursts {
		rd, err := h.round(runCtx, burst)
		res.RoundList = append(res.RoundList, rd)
		if err != nil {
			return res, fmt.Errorf("chaos: round %d (%s, kill %v): %w (replay: %s)",
				i, rd.Point, rd.Burst, err, res.ReplayCommand())
		}
		cfg.Logf("round %d: killed %v at %s, recovered from epoch %d in %d attempt(s)",
			i, rd.Burst, rd.Point, rd.RecoveredEpoch, rd.Attempts)
	}

	// Quiescence: bounded sources run dry, so the chaos run must converge
	// to exactly the reference's distinct-delivery count. Converging short
	// means lost tuples; the report comparison below names them.
	deadline := time.Now().Add(30 * time.Second)
	lastSeen, stableSince := -1, time.Now()
	for time.Now().Before(deadline) {
		n := sink.Get().SeenCount()
		if n != lastSeen {
			lastSeen, stableSince = n, time.Now()
		} else if n >= refSeen && time.Since(stableSince) > 300*time.Millisecond {
			break
		} else if time.Since(stableSince) > 3*time.Second {
			break // quiesced short of the reference: report the gaps
		}
		time.Sleep(5 * time.Millisecond)
	}

	res.Report = sink.Get().Report()
	res.StateDiffs = diffReports(res.Report, reference)
	res.Recoveries = col.Recoveries()
	res.RescaleList = col.Rescales()
	return res, nil
}

// harness bundles the per-run state the round driver needs.
type harness struct {
	cfg     Config
	cl      *cluster.Cluster
	rng     *rand.Rand
	ids     []string // graph node ids, sorted — migration target draws
	rebFlip bool     // alternates the synthetic skew so every rebalance moves slots
}

// nextRebalanceWeights returns a deterministic skewed weight vector,
// alternating ascending and descending across calls: once a rebalance has
// equalized one gradient, the next call's reversed gradient re-creates the
// imbalance, so every clean-rebalance prelude and mid-rebalance kill
// exercises real slot movement. No rng draws — the kill schedule stays
// seed-replayable regardless of how many rebalances a run performs.
func (h *harness) nextRebalanceWeights() partition.Weights {
	w := make(partition.Weights, partition.DefaultSlots)
	for s := range w {
		if h.rebFlip {
			w[s] = int64(len(w) - s)
		} else {
			w[s] = int64(s + 1)
		}
	}
	h.rebFlip = !h.rebFlip
	return w
}

// drawMigration samples an (HAU, destination) pair for a live migration.
// The destination draw is bumped off the current node so the move is
// always a real one.
func (h *harness) drawMigration() (id string, dest int) {
	id = h.ids[h.rng.Intn(len(h.ids))]
	dest = h.rng.Intn(h.cfg.Nodes)
	if dest == h.cl.NodeOf(id) {
		dest = (dest + 1) % h.cfg.Nodes
	}
	return id, dest
}

// drawDrainVictim samples a node eligible for scale-in right now:
// schedulable, hosting at least one HAU, every hosted incarnation live-
// migratable, and at least one other schedulable node to receive them.
// Returns -1 when no node qualifies (the round degrades gracefully).
func (h *harness) drawDrainVictim() int {
	var cands []int
	for i := 0; i < h.cl.NumNodes(); i++ {
		if h.cl.CanDrain(i) && h.hostsHAU(i) {
			cands = append(cands, i)
		}
	}
	// Always consume exactly one draw so the rng stream — and with it the
	// rest of the schedule — stays seed-replayable even when the live
	// placement (which timing can shift) offers no candidate.
	r := h.rng.Intn(1 << 30)
	if len(cands) == 0 {
		return -1
	}
	return cands[r%len(cands)]
}

// hostsHAU reports whether node idx hosts at least one graph operator, so
// draining it is a real move and not a trivial retire of an empty node.
func (h *harness) hostsHAU(idx int) bool {
	for _, id := range h.ids {
		if h.cl.NodeOf(id) == idx {
			return true
		}
	}
	return false
}

// recover drives one recovery: plain whole-application rollback, or — in
// HA mode — HybridRecover's promote-or-rollback decision, which fails the
// dead HAUs over onto their standbys when every casualty is protected.
func (h *harness) recover(ctx context.Context, rd *Round) error {
	rd.Attempts++
	if h.cfg.HA {
		n, rolledBack, err := h.cl.HybridRecover(ctx)
		rd.Failovers += n
		rd.RolledBack = rd.RolledBack || rolledBack
		return err
	}
	stats, err := h.cl.RecoverAllWithRetry(ctx, 10, 2*time.Millisecond)
	if err == nil {
		rd.RecoveredEpoch = stats.Epoch
	}
	return err
}

// ensureProtected arms the topology's HA victim with an active standby if
// it is not already protected, returning the victim id ("" when the
// topology has no victim or arming failed — the round degrades to plain
// rollback chaos).
func (h *harness) ensureProtected(ctx context.Context) string {
	id := haVictim(h.cfg.Topology)
	if id == "" {
		return ""
	}
	if h.cl.Protected(id) {
		return id
	}
	if _, err := h.cl.ProtectHAU(ctx, id); err != nil {
		h.cfg.Logf("protect %s: %v", id, err)
		return ""
	}
	return id
}

// rescaleTarget picks the replica count the next rescale of id drives
// toward: split a whole operator to 2, merge a split one back to 1.
func (h *harness) rescaleTarget(id string) int {
	if len(h.cl.Replicas(id)) > 1 {
		return 1
	}
	return 2
}

func (h *harness) waitCond(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("chaos: timeout waiting for %s", what)
}

// ensureCheckpoint drives one complete checkpoint so the upcoming kill has
// an MRC to recover from.
func (h *harness) ensureCheckpoint(ctx context.Context) error {
	ep := h.cl.Controller().TriggerCheckpoint()
	return h.waitCond(10*time.Second, fmt.Sprintf("checkpoint epoch %d", ep), func() bool {
		e, ok := h.cl.Catalog().MostRecentComplete()
		return ok && e >= ep
	})
}

// round injects one burst at a sampled adversarial instant and drives
// recovery until the application is live again.
func (h *harness) round(ctx context.Context, burst []int) (Round, error) {
	rd := Round{
		Burst: burst, ExtraKill: -1, MigrateKill: -1, RescaleKill: -1,
		RebalanceKill: -1,
		Added:         -1, Drained: -1, DrainKill: -1, DestKill: -1,
		PrimaryKill: -1, StandbyKill: -1,
	}
	rd.Point = h.cfg.Points[h.rng.Intn(len(h.cfg.Points))]
	// In migration mode, every round that is not itself a mid-migration
	// kill performs one clean live migration first, so the kill lands on a
	// cluster whose placement has drifted from the initial assignment. An
	// aborted move (tiny clusters can draw an impossible route) is fine —
	// the round still runs.
	if h.cfg.Migrations && rd.Point != KillMidMigration {
		id, dest := h.drawMigration()
		rd.Migrated, rd.MigratedFrom, rd.MigratedTo = id, h.cl.NodeOf(id), dest
		if stats, err := h.cl.MigrateHAU(ctx, id, dest); err == nil {
			rd.MigratedTo = stats.To
		}
	}
	// In rescale mode, every round that is not itself a mid-rescale kill
	// re-partitions the victim cleanly first — splitting when it is whole,
	// merging when a previous round left it split — so the kill lands on
	// alternating replica geometries. An aborted rescale is fine — the
	// round still runs.
	if h.cfg.Rescales && rd.Point != KillMidRescale {
		if id := rescaleVictim(h.cfg.Topology); id != "" {
			rd.Rescaled, rd.RescaleTo = id, h.rescaleTarget(id)
			_, _ = h.cl.RescaleHAU(ctx, id, rd.RescaleTo, nil)
		}
	}
	// In rebalance mode, every round that is not itself a mid-rebalance kill
	// shifts hot slots across the victim's replicas cleanly first (splitting
	// it 2-way once when whole), so the kill lands on a slot table that has
	// drifted from the count-balanced default. An aborted or no-op rebalance
	// is fine — the round still runs.
	if h.cfg.Rebalances && rd.Point != KillMidRebalance {
		if id := rescaleVictim(h.cfg.Topology); id != "" {
			if len(h.cl.Replicas(id)) < 2 {
				_, _ = h.cl.RescaleHAU(ctx, id, 2, nil)
			}
			rd.Rebalanced = id
			_, _ = h.cl.RebalanceHAU(ctx, id, h.nextRebalanceWeights())
		}
	}
	// In elastic mode, every round that is not itself a mid-scale-in kill
	// performs one clean grow-then-drain cycle first — a node joins the
	// fleet, a loaded node scales in — so the kill lands on a fleet whose
	// membership has churned from the initial one. An aborted drain
	// (nothing drainable on tiny clusters) is fine — the round still runs.
	if h.cfg.Elastic && rd.Point != KillMidScaleIn && rd.Point != KillScaleInDest {
		rd.Added = h.cl.AddNode()
		if victim := h.drawDrainVictim(); victim >= 0 {
			rd.Drained = victim
			_ = h.cl.DrainNode(ctx, victim)
		}
	}
	// In HA mode, every round arms the topology's HA victim with an active
	// standby before its kill (a rollback in the previous round tears the
	// standby down, so each round re-arms). A failed arm (transient race
	// with the recovering application) is fine — the round degrades to
	// plain rollback chaos.
	if h.cfg.HA {
		rd.Protected = h.ensureProtected(ctx)
	}
	if err := h.ensureCheckpoint(ctx); err != nil {
		return rd, err
	}

	killerDone := make(chan struct{})
	close(killerDone) // non-mid-recovery rounds have no async killer
	switch rd.Point {
	case KillImmediate:
		h.cl.KillNodes(burst)
	case KillMidAlignment:
		h.cl.Controller().TriggerCheckpoint()
		time.Sleep(time.Duration(h.rng.Intn(1500)) * time.Microsecond)
		h.cl.KillNodes(burst)
	case KillMidChannelLog:
		// Unaligned captures snapshot on the first token and then log
		// in-flight channel tuples until every port seals. The capture
		// window is short, so kill quickly after the trigger — some HAUs
		// will have persisted blobs with channel sections, others nothing.
		h.cl.Controller().TriggerCheckpoint()
		time.Sleep(time.Duration(h.rng.Intn(600)) * time.Microsecond)
		h.cl.KillNodes(burst)
	case KillMidDrain:
		ep := h.cl.Controller().TriggerCheckpoint()
		// Wait for at least one HAU's state to hit the store; if the
		// epoch completes first the round degrades to KillImmediate,
		// which is still a valid schedule.
		_ = h.waitCond(2*time.Second, "first drain", func() bool {
			saved, _ := h.cl.Catalog().EpochProgress(ep)
			return saved >= 1
		})
		h.cl.KillNodes(burst)
	case KillBackToBack:
		second := failure.SampleBursts(h.cfg.Profile, h.cfg.Nodes, 1, h.rng.Int63())[0]
		rd.SecondBurst = second
		h.cl.KillNodes(burst)
		time.Sleep(time.Duration(h.rng.Intn(800)) * time.Microsecond)
		h.cl.KillNodes(second)
	case KillMidRecovery:
		extra := h.rng.Intn(h.cfg.Nodes)
		rd.ExtraKill = extra
		delay := time.Duration(h.rng.Intn(1200)) * time.Microsecond
		h.cl.KillNodes(burst)
		killerDone = make(chan struct{})
		go func() {
			defer close(killerDone)
			time.Sleep(delay)
			h.cl.KillNode(extra)
		}()
	case KillMidMigration:
		// Start a live migration, then kill the burst plus the move's
		// source or destination node while it is in flight. Whichever
		// phase the kill lands in — quiesce, drain, handoff, or after
		// completion — the exactly-once oracles must stay clean after the
		// whole-application recovery below.
		id, dest := h.drawMigration()
		from := h.cl.NodeOf(id)
		delay := time.Duration(h.rng.Intn(1500)) * time.Microsecond
		victim := from
		if h.rng.Intn(2) == 1 {
			victim = dest
		}
		rd.Migrated, rd.MigratedFrom, rd.MigratedTo, rd.MigrateKill = id, from, dest, victim
		migDone := make(chan struct{})
		go func() {
			defer close(migDone)
			_, _ = h.cl.MigrateHAU(ctx, id, dest)
		}()
		time.Sleep(delay)
		kills := append(append([]int(nil), burst...), victim)
		h.cl.KillNodes(kills)
		// The migration aborts (dead-host polling) or has already
		// finished; either way it must return before recovery rebuilds
		// the application, or its handoff could race the rebuild.
		<-migDone
	case KillMidRescale:
		// Start a live split (or merge), then kill the burst plus a node
		// hosting one of the victim's incarnations while the re-partition
		// is in flight. Whichever phase the kill lands in — quiesce,
		// drain, re-shard, replica restore, or just after commit — the
		// exactly-once oracles must stay clean after the
		// whole-application recovery below.
		id := rescaleVictim(h.cfg.Topology)
		incs := h.cl.Replicas(id)
		victim := h.cl.NodeOf(incs[h.rng.Intn(len(incs))])
		delay := time.Duration(h.rng.Intn(1500)) * time.Microsecond
		rd.Rescaled, rd.RescaleTo, rd.RescaleKill = id, h.rescaleTarget(id), victim
		rescDone := make(chan struct{})
		go func() {
			defer close(rescDone)
			_, _ = h.cl.RescaleHAU(ctx, id, rd.RescaleTo, nil)
		}()
		time.Sleep(delay)
		kills := append(append([]int(nil), burst...), victim)
		h.cl.KillNodes(kills)
		// The rescale aborts (dead-host polling) or has already committed;
		// either way it must return before recovery rebuilds the
		// application, or its replica restore could race the rebuild.
		<-rescDone
	case KillMidRebalance:
		// Split the victim cleanly first if whole (a rebalance needs >= 2
		// replicas), then start a weighted slots-only rebalance and kill the
		// burst plus a node hosting one of the victim's incarnations while
		// hot slots are moving. Whichever phase the kill lands in — quiesce,
		// drain, re-shard, replica restore, or just after commit — the
		// exactly-once oracles must stay clean after the whole-application
		// recovery below.
		id := rescaleVictim(h.cfg.Topology)
		if len(h.cl.Replicas(id)) < 2 {
			_, _ = h.cl.RescaleHAU(ctx, id, 2, nil)
		}
		w := h.nextRebalanceWeights()
		incs := h.cl.Replicas(id)
		victim := h.cl.NodeOf(incs[h.rng.Intn(len(incs))])
		delay := time.Duration(h.rng.Intn(1500)) * time.Microsecond
		rd.Rebalanced, rd.RebalanceKill = id, victim
		rebDone := make(chan struct{})
		go func() {
			defer close(rebDone)
			_, _ = h.cl.RebalanceHAU(ctx, id, w)
		}()
		time.Sleep(delay)
		kills := append(append([]int(nil), burst...), victim)
		h.cl.KillNodes(kills)
		// The rebalance aborts (dead-host polling) or has already
		// committed; either way it must return before recovery rebuilds the
		// application, or its replica restore could race the rebuild.
		<-rebDone
	case KillMidScaleIn:
		// Grow first so the drain has destination capacity, then start a
		// scale-in and kill the burst plus the DRAINING node itself while
		// its HAUs are mid-flight. The drain must abort (the node died
		// under it, or the recovery's gen bump supersedes it) or have
		// already retired the node — and recovery must re-place each of its
		// HAUs exactly once, never twice.
		rd.Added = h.cl.AddNode()
		victim := h.drawDrainVictim()
		delay := time.Duration(h.rng.Intn(1500)) * time.Microsecond
		if victim < 0 {
			h.cl.KillNodes(burst) // nothing drainable: degrade to immediate
			break
		}
		rd.Drained, rd.DrainKill = victim, victim
		drainDone := make(chan struct{})
		go func() {
			defer close(drainDone)
			_ = h.cl.DrainNode(ctx, victim)
		}()
		time.Sleep(delay)
		kills := append(append([]int(nil), burst...), victim)
		h.cl.KillNodes(kills)
		// The drain aborts (dead-host polling) or has already retired the
		// node; either way it must return before recovery rebuilds the
		// application, or its in-flight migration could race the rebuild.
		<-drainDone
	case KillScaleInDest:
		// Start a scale-in and aim the kill at the DESTINATION of the
		// drain's in-flight migration, observed through the drain observer.
		// The handoff target dies mid-move, so the migration — and with it
		// the drain — must abort without losing or duplicating the HAU.
		rd.Added = h.cl.AddNode()
		victim := h.drawDrainVictim()
		delay := time.Duration(h.rng.Intn(800)) * time.Microsecond
		if victim < 0 {
			h.cl.KillNodes(burst) // nothing drainable: degrade to immediate
			break
		}
		rd.Drained = victim
		destCh := make(chan int, 1)
		h.cl.SetDrainObserver(func(id string, from, to int) {
			select {
			case destCh <- to:
			default:
			}
		})
		drainDone := make(chan struct{})
		go func() {
			defer close(drainDone)
			_ = h.cl.DrainNode(ctx, victim)
		}()
		kills := append([]int(nil), burst...)
		select {
		case dest := <-destCh:
			rd.DestKill = dest
			time.Sleep(delay)
			kills = append(kills, dest)
		case <-drainDone:
			// The drain already finished (or aborted). If a migration did
			// start, still kill its destination — it hosts the moved HAU
			// now, so the kill exercises recovery of freshly-landed state.
			select {
			case dest := <-destCh:
				rd.DestKill = dest
				kills = append(kills, dest)
			default:
			}
		}
		h.cl.KillNodes(kills)
		<-drainDone
		h.cl.SetDrainObserver(nil)
	case KillHAPrimary:
		// Kill the protected primary's node alone, then land the burst
		// asynchronously while hybrid recovery runs. When the primary's
		// domain held only protected HAUs the recovery promotes the
		// standby — and the late burst then piles a rollback (or a
		// mid-promotion standby death) on top of the fresh switchover;
		// otherwise the recovery rolls back under fire. Both outcomes are
		// legal and both cross the promotion boundary the oracles check.
		// The delay draw happens unconditionally so the rng stream — and
		// with it the rest of the schedule — stays seed-replayable even
		// when protection (which timing can shift) failed to arm.
		delay := time.Duration(h.rng.Intn(1200)) * time.Microsecond
		if rd.Protected == "" {
			h.cl.KillNodes(burst) // protection unavailable: degrade to immediate
			break
		}
		rd.PrimaryKill = h.cl.NodeOf(rd.Protected)
		h.cl.KillNode(rd.PrimaryKill)
		killerDone = make(chan struct{})
		go func() {
			defer close(killerDone)
			time.Sleep(delay)
			h.cl.KillNodes(burst)
		}()
	case KillHAStandbyMidPromote:
		// Kill the primary's node alone so a promotion can start, then
		// kill the standby's node synchronously at the promote step: the
		// switchover loses the operator's only live copy mid-flight and
		// must abort. The burst lands after the aborted attempt, and the
		// whole-application rollback below heals everything.
		if rd.Protected == "" {
			h.cl.KillNodes(burst) // protection unavailable: degrade to immediate
			break
		}
		id := rd.Protected
		sbNode, hasSB := h.cl.StandbyNodeOf(id)
		rd.PrimaryKill = h.cl.NodeOf(id)
		h.cl.KillNode(rd.PrimaryKill)
		if hasSB && sbNode != rd.PrimaryKill {
			// The observer fires on the promoting goroutine — this one —
			// so the kill is strictly ordered between the tee swap and
			// the standby's install.
			killed := false
			h.cl.SetFailoverObserver(func(fid, step string) {
				if fid == id && step == "promote" {
					h.cl.KillNode(sbNode)
					killed = true
				}
			})
			if _, err := h.cl.FailoverHAU(ctx, id); err == nil {
				rd.Failovers++ // defensive: the install raced ahead of the kill — still a legal, clean promotion
			}
			h.cl.SetFailoverObserver(nil)
			if killed {
				rd.StandbyKill = sbNode
			}
		}
		h.cl.KillNodes(burst)
	}

	if err := h.recover(ctx, &rd); err != nil {
		<-killerDone
		return rd, fmt.Errorf("recovery: %w", err)
	}
	<-killerDone
	// The mid-recovery kill may have landed after recovery finished; if
	// any HAU died, drive recovery once more until the app is whole.
	if len(h.cl.DeadHAUs()) > 0 {
		if err := h.recover(ctx, &rd); err != nil {
			return rd, fmt.Errorf("post-kill recovery: %w", err)
		}
	}
	// Replacement nodes arrive: revive anything still marked dead so the
	// next round has full capacity.
	for _, idx := range h.cl.DeadNodes() {
		h.cl.ReviveNode(idx)
	}
	return rd, nil
}
