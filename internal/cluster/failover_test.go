package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
)

// chainApp builds S -> A -> K: A is a single-input interior operator, the
// shape active-standby replication protects.
func chainApp(col *metrics.Collector, reg *sinkRegistry) AppSpec {
	g := graph.New()
	for _, id := range []string{"S", "A", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S", "A")
	g.MustAddEdge("A", "K")
	return AppSpec{
		Name:  "chain",
		Graph: g,
		NewOperators: func(id string) []operator.Operator {
			switch id {
			case "S":
				return []operator.Operator{operator.NewRateSource("S", 3, 7, operator.BytePayload(16, 4))}
			case "A":
				return []operator.Operator{operator.NewPassthrough("A", 1)}
			default:
				s := operator.NewSink("K", col)
				s.TrackIdentity = true
				reg.set(s)
				return []operator.Operator{s}
			}
		},
	}
}

func newChainCluster(t *testing.T, nodes, perRack int) (*Cluster, *metrics.Collector, *sinkRegistry) {
	t.Helper()
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	cl, err := New(Config{
		App:           chainApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         nodes,
		NodesPerRack:  perRack,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		Seed:          1,
		Metrics:       col,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, col, reg
}

func TestProtectHAUValidation(t *testing.T) {
	cl, _, _ := newTestCluster(t, spe.MSSrcAP, 3) // S0,S1 -> M -> K
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := cl.ProtectHAU(ctx, "M"); err == nil {
		t.Fatal("protect before Start accepted")
	}
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	if _, err := cl.ProtectHAU(ctx, "M"); err == nil {
		t.Fatal("two-input operator accepted")
	}
	if _, err := cl.ProtectHAU(ctx, "S0"); err == nil {
		t.Fatal("source accepted")
	}
	if _, err := cl.ProtectHAU(ctx, "K"); err == nil {
		t.Fatal("sink accepted")
	}
	if _, err := cl.ProtectHAU(ctx, "nope"); err == nil {
		t.Fatal("unknown HAU accepted")
	}
}

func TestProtectHAURejectsBaselineAndShedding(t *testing.T) {
	cl, _, _ := newTestCluster(t, spe.Baseline, 3)
	ctx := context.Background()
	if _, err := cl.ProtectHAU(ctx, "M"); err == nil {
		t.Fatal("baseline scheme accepted")
	}
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	shedCl, err := New(Config{
		App:           chainApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         3,
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		ShedWatermark: 0.9,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shedCl.ProtectHAU(ctx, "A"); err == nil {
		t.Fatal("load shedding accepted")
	}
}

// protectStreaming starts a chain cluster, waits for flow, and arms A.
func protectStreaming(t *testing.T, nodes, perRack int) (*Cluster, *metrics.Collector, *sinkRegistry, ProtectStats, context.Context) {
	t.Helper()
	cl, col, reg := newChainCluster(t, nodes, perRack)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 50
	})
	stats, err := cl.ProtectHAU(ctx, "A")
	if err != nil {
		t.Fatalf("ProtectHAU: %v", err)
	}
	return cl, col, reg, stats, ctx
}

// TestStandbySuppressed is the satellite-2 regression: an armed standby
// executes the stream (its ring fills) but emits ZERO tuples downstream —
// the identity-tracking sink would report every leaked tuple as a
// duplicate violation.
func TestStandbySuppressed(t *testing.T) {
	cl, _, reg, stats, _ := protectStreaming(t, 4, 2)
	if stats.CloneBytes <= 0 || stats.Drain <= 0 {
		t.Fatalf("implausible protect stats: %+v", stats)
	}
	if !cl.Protected("A") {
		t.Fatal("A not marked protected")
	}
	sb := cl.StandbyHAU("A")
	if sb == nil || !sb.Standby() {
		t.Fatal("no suppressed standby incarnation")
	}
	// Let both incarnations process the same stream for a while.
	before := reg.get().Delivered()
	waitFor(t, 5*time.Second, "deliveries with standby armed", func() bool {
		return reg.get().Delivered() > before+200
	})
	waitFor(t, 5*time.Second, "standby executed the mirrored stream", func() bool {
		return sb.RingTuples() > 0
	})
	cl.StopAll()
	rep := reg.get().Report()
	if v := rep.TotalViolations(); v != 0 {
		t.Fatalf("standby leaked output downstream:\n%s", rep)
	}
}

// TestFailoverExactlyOnce kills the protected primary's node and promotes
// the standby: the stream must resume through the promoted incarnation
// with exactly-once delivery — the ring re-emission overlaps what the
// dead primary already delivered, and downstream dedup must drop exactly
// that overlap.
func TestFailoverExactlyOnce(t *testing.T) {
	cl, col, reg, _, ctx := protectStreaming(t, 4, 2)
	sbNode, ok := cl.StandbyNodeOf("A")
	if !ok {
		t.Fatal("no standby node")
	}
	pNode := cl.NodeOf("A")
	if sbNode == pNode {
		t.Fatalf("standby co-located with primary on node %d", pNode)
	}
	if cl.topo.RackOf(sbNode) == cl.topo.RackOf(pNode) {
		t.Fatalf("standby rack %d == primary rack %d", cl.topo.RackOf(sbNode), cl.topo.RackOf(pNode))
	}

	if _, err := cl.FailoverHAU(ctx, "A"); err == nil {
		t.Fatal("failover with a live primary accepted")
	}

	cl.KillNode(pNode)
	fstats, err := cl.FailoverHAU(ctx, "A")
	if err != nil {
		t.Fatalf("FailoverHAU: %v", err)
	}
	if fstats.From != pNode || fstats.To != sbNode {
		t.Fatalf("failover route %d->%d, want %d->%d", fstats.From, fstats.To, pNode, sbNode)
	}
	if cl.NodeOf("A") != sbNode {
		t.Fatalf("A on node %d after failover, want %d", cl.NodeOf("A"), sbNode)
	}
	if cl.Protected("A") {
		t.Fatal("A still marked protected after promotion consumed the standby")
	}
	// The stream must keep flowing through the promoted incarnation.
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-failover deliveries", func() bool {
		return reg.get().Delivered() > after+200
	})
	cl.StopAll()
	rep := reg.get().Report()
	if v := rep.TotalViolations(); v != 0 {
		t.Fatalf("exactly-once violated across promotion:\n%s", rep)
	}
	fos := col.Failovers()
	if len(fos) != 1 || fos[0].HAU != "A" || fos[0].From != pNode || fos[0].To != sbNode {
		t.Fatalf("metrics failovers = %+v, want one record for A", fos)
	}
}

// TestFailoverAfterQuiet promotes a standby whose primary delivered output
// the standby still holds suppressed: the stream is stopped from flowing
// new tuples first (kill the source node too would break the upstream —
// instead just verify ring overlap was re-emitted and deduped in the
// streaming test above; here assert the ring counter resets on promote).
func TestFailoverRingReset(t *testing.T) {
	cl, _, reg, _, ctx := protectStreaming(t, 4, 2)
	sb := cl.StandbyHAU("A")
	waitFor(t, 5*time.Second, "ring fills", func() bool { return sb.RingTuples() > 0 })
	cl.KillNode(cl.NodeOf("A"))
	if _, err := cl.FailoverHAU(ctx, "A"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "ring drained by promotion", func() bool {
		return sb.RingTuples() == 0 && !sb.Standby()
	})
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-promotion flow", func() bool {
		return reg.get().Delivered() > after+50
	})
	cl.StopAll()
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatal("exactly-once violated")
	}
}

// TestDemoteHAU disarms protection: the standby stops, the tee drops, the
// primary streams on undisturbed, and the HAU is migratable again.
func TestDemoteHAU(t *testing.T) {
	cl, _, reg, _, ctx := protectStreaming(t, 4, 2)
	if err := cl.DemoteHAU("A"); err != nil {
		t.Fatalf("DemoteHAU: %v", err)
	}
	if cl.Protected("A") {
		t.Fatal("still protected after demote")
	}
	if err := cl.DemoteHAU("A"); err == nil {
		t.Fatal("double demote accepted")
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-demote deliveries", func() bool {
		return reg.get().Delivered() > after+100
	})
	// Unpinned again: migration must work.
	from := cl.NodeOf("A")
	dest := (from + 1) % 4
	if _, err := cl.MigrateHAU(ctx, "A", dest); err != nil {
		t.Fatalf("MigrateHAU after demote: %v", err)
	}
	cl.StopAll()
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatal("exactly-once violated across demote+migrate")
	}
}

// TestProtectPinsNeighbours: while A is protected, neither A nor its
// tee-carrying upstream S (nor downstream K) may migrate or rescale, and
// nodes hosting the pair refuse to drain.
func TestProtectPinsNeighbours(t *testing.T) {
	cl, _, _, _, ctx := protectStreaming(t, 4, 2)
	defer cl.StopAll()
	for _, id := range []string{"S", "A", "K"} {
		dest := (cl.NodeOf(id) + 1) % 4
		if _, err := cl.MigrateHAU(ctx, id, dest); err == nil {
			t.Fatalf("migration of %q accepted while A is protected", id)
		}
	}
	if _, err := cl.ProtectHAU(ctx, "A"); err == nil {
		t.Fatal("double protect accepted")
	}
	sbNode, _ := cl.StandbyNodeOf("A")
	if cl.CanDrain(sbNode) {
		t.Fatal("standby host reported drainable")
	}
	if cl.CanDrain(cl.NodeOf("A")) {
		t.Fatal("protected primary's host reported drainable")
	}
}

// TestProtectTeesItsOwnPort protects A while its upstream S also feeds X on
// an earlier output port. The tee, and the swap at failover, must sit on
// S's port toward A: on X's port, X's stream would be the one mirrored and
// then cut off at the promotion.
func TestProtectTeesItsOwnPort(t *testing.T) {
	col := metrics.NewCollector()
	g := graph.New()
	for _, id := range []string{"S", "X", "A", "K"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("S", "X")
	g.MustAddEdge("S", "A")
	g.MustAddEdge("X", "K")
	g.MustAddEdge("A", "K")
	local, shared := fastSpecs()
	cl, err := New(Config{
		App: AppSpec{Name: "fan-out", Graph: g, NewOperators: func(id string) []operator.Operator {
			switch id {
			case "S":
				return []operator.Operator{operator.NewRateSource("S", 3, 7, operator.BytePayload(16, 4))}
			case "K":
				return []operator.Operator{operator.NewSink("K", col)}
			default:
				return []operator.Operator{operator.NewPassthrough(id, 1)}
			}
		}},
		Scheme:        spe.MSSrcAP,
		Nodes:         4,
		NodesPerRack:  2,
		Placement:     placement.RackSpread{},
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 5*time.Second, "initial flow", func() bool { return cl.HAU("K").ProcessedCount() > 100 })
	if _, err := cl.ProtectHAU(ctx, "A"); err != nil {
		t.Fatalf("ProtectHAU: %v", err)
	}
	pNode := cl.NodeOf("A")
	for _, id := range []string{"S", "X", "K"} {
		if cl.NodeOf(id) == pNode {
			t.Fatalf("placement put %s beside A on node %d; the kill below must take A alone", id, pNode)
		}
	}
	cl.KillNode(pNode)
	if _, err := cl.FailoverHAU(ctx, "A"); err != nil {
		t.Fatalf("FailoverHAU: %v", err)
	}
	x, a := cl.HAU("X").ProcessedCount(), cl.HAU("A").ProcessedCount()
	waitFor(t, 5*time.Second, "both branches flowing after the promotion", func() bool {
		return cl.HAU("X").ProcessedCount() > x+200 && cl.HAU("A").ProcessedCount() > a+200
	})
}

// TestHybridRecoverRollsBackUnprotected: when the dead set includes an
// unprotected HAU, HybridRecover must fall back to whole-app rollback.
func TestHybridRecoverRollsBackUnprotected(t *testing.T) {
	cl, _, reg, _, ctx := protectStreaming(t, 4, 2)
	cl.Controller().TriggerCheckpoint()
	waitFor(t, 5*time.Second, "a complete checkpoint", func() bool {
		_, ok := cl.Catalog().MostRecentComplete()
		return ok
	})
	// Kill the sink's node: K is unprotected, so rollback must run even
	// though A's standby is armed (and is torn down by the rollback).
	cl.KillNode(cl.NodeOf("K"))
	n, rolledBack, err := cl.HybridRecover(ctx)
	if err != nil {
		t.Fatalf("HybridRecover: %v", err)
	}
	if n != 0 || !rolledBack {
		t.Fatalf("HybridRecover = (%d, %v), want rollback", n, rolledBack)
	}
	if cl.Protected("A") {
		t.Fatal("standby survived a whole-application rollback")
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-rollback deliveries", func() bool {
		return reg.get().Delivered() > after+50
	})
	cl.StopAll()
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatal("exactly-once violated across rollback with armed standby")
	}
}

// TestStandbyPlacementRackDisjoint is the satellite-3 cluster-level
// check: with >= 2 racks the standby must land outside the primary's
// rack; on a single-rack fleet protection still arms, co-racked, with a
// logged warning.
func TestStandbyPlacementRackDisjoint(t *testing.T) {
	cl, _, reg, stats, _ := protectStreaming(t, 4, 2)
	defer cl.StopAll()
	_ = reg
	if !stats.RackDisjoint {
		t.Fatalf("standby not rack-disjoint: %+v", stats)
	}
	if cl.topo.RackOf(stats.Standby) == cl.topo.RackOf(stats.Primary) {
		t.Fatal("standby co-racked with primary despite RackDisjoint=true")
	}
}

func TestStandbyPlacementSingleRackFallback(t *testing.T) {
	col := metrics.NewCollector()
	reg := &sinkRegistry{}
	local, shared := fastSpecs()
	var mu sync.Mutex
	var warnings []string
	cl, err := New(Config{
		App:           chainApp(col, reg),
		Scheme:        spe.MSSrcAP,
		Nodes:         3, // NodesPerRack 0: one rack
		LocalDiskSpec: local,
		SharedSpec:    shared,
		TickEvery:     time.Millisecond,
		SourceFlush:   256,
		Seed:          1,
		Logf: func(format string, args ...any) {
			mu.Lock()
			warnings = append(warnings, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer cl.StopAll()
	waitFor(t, 5*time.Second, "initial deliveries", func() bool {
		s := reg.get()
		return s != nil && s.Delivered() > 50
	})
	stats, err := cl.ProtectHAU(ctx, "A")
	if err != nil {
		t.Fatalf("ProtectHAU on single-rack fleet: %v", err)
	}
	if stats.RackDisjoint {
		t.Fatal("single-rack fleet reported rack-disjoint placement")
	}
	if stats.Standby == stats.Primary || stats.Standby < 0 {
		t.Fatalf("bad fallback placement: %+v", stats)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "rack") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no co-rack warning logged; warnings = %q", warnings)
	}
}

// TestFailoverAbortsWhenStandbyDead: the standby's node dying first must
// abort the promotion with ErrFailoverAborted so HybridRecover falls back
// to rollback.
func TestFailoverAbortsWhenStandbyDead(t *testing.T) {
	cl, _, reg, _, ctx := protectStreaming(t, 4, 2)
	sbNode, _ := cl.StandbyNodeOf("A")
	cl.Controller().TriggerCheckpoint()
	waitFor(t, 5*time.Second, "a complete checkpoint", func() bool {
		_, ok := cl.Catalog().MostRecentComplete()
		return ok
	})
	cl.KillNode(sbNode)
	cl.KillNode(cl.NodeOf("A"))
	_, err := cl.FailoverHAU(ctx, "A")
	if err == nil {
		t.Fatal("failover with a dead standby accepted")
	}
	// KillNode already tore the standby entry down, so the failure
	// surfaces as "not protected" — either way rollback heals it.
	if _, rolledBack, err := cl.HybridRecover(ctx); err != nil || !rolledBack {
		t.Fatalf("HybridRecover = (rolledBack=%v, err=%v), want rollback", rolledBack, err)
	}
	after := reg.get().Delivered()
	waitFor(t, 5*time.Second, "post-rollback deliveries", func() bool {
		return reg.get().Delivered() > after+50
	})
	cl.StopAll()
	if v := reg.get().Report().TotalViolations(); v != 0 {
		t.Fatal("exactly-once violated")
	}
}

// TestDemoteRejectedWhenPrimaryDead: with the primary dead the standby is
// the only live copy of the state — demotion must be refused.
func TestDemoteRejectedWhenPrimaryDead(t *testing.T) {
	cl, _, _, _, ctx := protectStreaming(t, 4, 2)
	defer cl.StopAll()
	cl.KillNode(cl.NodeOf("A"))
	if err := cl.DemoteHAU("A"); err == nil {
		t.Fatal("demote of a dead primary's standby accepted")
	}
	if _, err := cl.FailoverHAU(ctx, "A"); err != nil {
		t.Fatalf("failover after rejected demote: %v", err)
	}
}

// TestFailoverSupersededByRecovery: a rollback racing the promotion must
// win — the failover aborts via the shared gen-counter contract.
func TestFailoverSupersededByRecovery(t *testing.T) {
	cl, _, _, _, ctx := protectStreaming(t, 4, 2)
	defer cl.StopAll()
	cl.Controller().TriggerCheckpoint()
	waitFor(t, 5*time.Second, "a complete checkpoint", func() bool {
		_, ok := cl.Catalog().MostRecentComplete()
		return ok
	})
	cl.KillNode(cl.NodeOf("A"))
	if _, err := cl.RecoverAllWithRetry(ctx, 10, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The rollback consumed the standby; a failover attempt now must not
	// find one.
	if _, err := cl.FailoverHAU(ctx, "A"); err == nil {
		t.Fatal("failover accepted after recovery superseded it")
	}
	if errors.Is(ErrFailoverAborted, ErrMigrationAborted) {
		t.Fatal("sentinels aliased")
	}
}
