// Package cluster simulates a commodity cluster running one stream
// application: nodes hosting HAUs, per-node local disks, a shared storage
// node with the controller, fail-stop failure injection (single node or
// correlated burst), and the two recovery procedures the paper evaluates —
// whole-application rollback for Meteor Shower and single-HAU restart for
// the baseline.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"meteorshower/internal/buffer"
	"meteorshower/internal/controller"
	"meteorshower/internal/elastic"
	"meteorshower/internal/graph"
	"meteorshower/internal/metrics"
	"meteorshower/internal/operator"
	"meteorshower/internal/partition"
	"meteorshower/internal/placement"
	"meteorshower/internal/spe"
	"meteorshower/internal/storage"
	"meteorshower/internal/tenant"
	"meteorshower/internal/tuple"
)

// AppSpec describes a stream application independent of the fault-tolerance
// scheme: its query network and how to build each HAU's operator chain.
type AppSpec struct {
	Name  string
	Graph *graph.Graph
	// NewOperators returns a *fresh* operator chain for HAU id. Recovery
	// rebuilds chains from scratch and restores their snapshots. On a
	// multi-tenant cluster the id passed in is the app-local id (the
	// namespace prefix is stripped).
	NewOperators func(id string) []operator.Operator
	// Weight is the application's fairness weight on a shared fleet: an
	// app with weight 3 is entitled to 3x the fleet share of a weight-1
	// app. Zero or negative counts as 1. Ignored single-tenant.
	Weight float64
}

// Config assembles a simulated cluster.
type Config struct {
	// App is the single application of a classic (single-tenant) cluster.
	// Ignored when Apps is set.
	App AppSpec
	// Apps, when non-empty, runs several applications on one shared fleet
	// (multi-tenancy). Each spec must carry a unique non-empty Name free
	// of the namespace separator; every HAU id is namespaced "Name/id".
	// Apps[0] additionally anchors the fleet-wide control loops
	// (rebalancer, autoscaler, elasticity, arbiter).
	Apps   []AppSpec
	Scheme spe.Scheme
	Nodes  int // worker nodes

	// Placement chooses which node hosts each HAU, both at startup and when
	// recovery must re-place the HAUs of dead nodes. nil defaults to
	// placement.RoundRobin — the historical behaviour (HAU i on node i mod
	// Nodes).
	Placement placement.Policy
	// NodesPerRack is the failure-domain geometry placement policies see.
	// 0 puts every node in one rack (rack-spread degenerates to balancing).
	NodesPerRack int

	// RebalanceEvery enables the controller's rebalancer loop: every
	// period it evaluates node load and live-migrates at most one HAU off
	// the hottest node when its score exceeds the mean by 25% (the
	// placement.RebalancerConfig defaults). 0 disables rebalancing.
	RebalanceEvery time.Duration

	LocalDiskSpec  storage.DiskSpec
	SharedSpec     storage.DiskSpec
	EdgeBuffer     int
	EdgeBatch      int // tuples per micro-batch on every edge (0 = default)
	TickEvery      time.Duration
	CkptPeriod     time.Duration // baseline per-HAU period / controller period
	PreserveMemCap int64         // baseline in-memory buffer cap (paper: 50 MB)
	SourceFlush    int64         // source-log group-commit threshold
	PerTupleDelay  time.Duration
	Seed           int64

	// RetainEpochs keeps the newest N complete checkpoints (plus their
	// replay tuples) instead of only the MRC, so RecoverAll can fall back
	// to an older epoch when the newest one's blobs are lost or corrupt.
	// 0 or 1 retains only the MRC (the paper's behavior).
	RetainEpochs int

	// DeltaCheckpoint enables block-delta checkpoint writes (paper §V).
	DeltaCheckpoint bool
	// ShedWatermark enables load shedding above this output-queue
	// occupancy fraction (0 = off). Shedding trades exactly-once for
	// bounded latency under long-term overload (paper §III).
	ShedWatermark float64

	// RestoreWorkers bounds how many HAUs are rebuilt concurrently during
	// whole-application recovery (spe.New + state deserialization). 0 or
	// less means runtime.GOMAXPROCS(0); 1 restores sequentially. Operator
	// construction and edge wiring stay under the cluster lock regardless.
	RestoreWorkers int

	// AutoscaleEvery enables the controller's split/merge autoscaler: every
	// period it compares each interior operator's aggregate state size
	// against the hysteresis watermarks and splits hot operators across
	// replicas (doubling, up to MaxReplicas) or merges cold ones back to
	// one. Zero disables autoscaling.
	AutoscaleEvery time.Duration
	// SplitAbove is the state-size watermark (bytes) above which an
	// operator is split. Zero disables splitting.
	SplitAbove int64
	// MergeBelow is the state-size watermark (bytes) below which a split
	// operator is merged back. Zero disables merging. Keep MergeBelow well
	// under SplitAbove or the detector oscillates.
	MergeBelow int64
	// MaxReplicas caps how many replicas a split may create (0 = 4). Two
	// rescales of the same operator are at least twice AutoscaleEvery
	// apart.
	MaxReplicas int
	// ImbalanceAbove arms the autoscaler's skew trigger: when a split
	// operator's max-replica-load / mean-replica-load ratio (from the
	// router's per-slot counters) exceeds this watermark on
	// ImbalanceViolations of the last ImbalanceWindow ticks, the controller
	// rebalances the hot slots between the existing replicas, escalating to
	// a weighted split when a rebalance already ran and the skew persists.
	// Values <= 1 disable the trigger (the ratio is never below 1).
	ImbalanceAbove float64
	// ImbalanceWindow is the tick window the skew trigger evaluates over
	// (0 = 5); ImbalanceViolations is how many violating ticks inside the
	// window fire an action (0 = 3, capped at the window).
	ImbalanceWindow     int
	ImbalanceViolations int

	// NodeCores enables the per-node CPU capacity model: every node gets a
	// spe.CPUGate with this many cores, and hosted HAUs charge
	// PerTupleDelay against the node's shared virtual busy clock instead
	// of sleeping independently. Co-located HAUs then contend for
	// capacity, and per-node utilization (busy-time growth over wall
	// clock) becomes observable — the elasticity trigger's CPU signal.
	// Zero keeps the historical independent per-HAU sleep.
	NodeCores float64

	// ElasticEvery enables the controller's elasticity loop: every period
	// the elastic engine samples per-node utilization and may add a node
	// (scale-out; the rebalancer spreads HAUs onto it) or drain one
	// (scale-in via live migration, then retirement). Zero disables it.
	ElasticEvery time.Duration
	// Elastic tunes the trigger (thresholds, window, fleet bounds). Zero
	// cooldowns default to 3x/6x ElasticEvery for out/in.
	Elastic elastic.Config

	// StandbyRing bounds each standby's suppressed-output ring (tuples);
	// 0 derives a default from the output edge capacity.
	StandbyRing int

	// ArbiterEvery enables the fair-share arbitration loop on a
	// multi-tenant cluster: every period the arbiter aggregates per-app
	// demand (CPU busy, state bytes, backlog), computes weighted max-min
	// fair shares of the fleet, and live-migrates at most ArbiterMaxMoves
	// HAUs toward a node partition sized by those shares. Zero (or a
	// single app) disables arbitration.
	ArbiterEvery time.Duration
	// ArbiterMaxMoves bounds migrations per arbiter step (0 = 1).
	ArbiterMaxMoves int
	// Logf, when set, receives human-readable cluster warnings (e.g. a
	// standby placed in its primary's rack on a single-rack fleet).
	Logf func(format string, args ...any)

	Listener spe.Listener // optional extra listener (controller is wired automatically)
	Now      func() int64
	// Metrics, when set, receives the per-phase timing of every successful
	// whole-application recovery (metrics.Recovery) and the cost breakdown
	// of every individual checkpoint (metrics.Checkpoint).
	Metrics *metrics.Collector
}

// node is one simulated worker machine.
type node struct {
	index int
	disk  *storage.Disk
	alive atomic.Bool
	// cpu is the node's shared compute gate (nil unless Config.NodeCores
	// is set). Hosted HAUs charge their per-tuple service time against it.
	cpu *spe.CPUGate
	// draining: the node is being scaled in — no new placements while its
	// HAUs live-migrate off. retired: the drain finished and the node left
	// the fleet. A retired node stays alive (it did not fail), it is just
	// no longer a placement target; AddNode reuses retired slots first.
	draining atomic.Bool
	retired  atomic.Bool
}

// schedulable reports whether the node can receive new HAU placements.
func (n *node) schedulable() bool {
	return n.alive.Load() && !n.draining.Load() && !n.retired.Load()
}

// RecoveryStats decomposes a recovery the way Fig. 16 does: "the recovery
// proceeds in four phases: 1) the recovery node reloads the operators; 2)
// the node reads the HAU's state from the shared storage; 3) the node
// deserializes the state and reconstructs the data structures; and 4) the
// controller reconnects the recovered HAUs."
type RecoveryStats struct {
	Reload      time.Duration // phase 1: reloading the operators
	DiskIO      time.Duration // phase 2: reading state from shared storage
	Deserialize time.Duration // phase 3: rebuilding operator data structures
	Reconnect   time.Duration // phase 4: controller reconnects the HAUs
	// ReplayFetch is the time to pull preserved tuples from the source
	// logs. The paper does NOT count replay in recovery time ("after
	// recovery, the source HAUs replay the preserved tuples ... we do not
	// further evaluate it"), so it is reported separately and excluded
	// from Total.
	ReplayFetch time.Duration
	Epoch       uint64
	HAUs        int
}

// Total returns the end-to-end recovery time (phases 1-4, excluding the
// tuple replay that follows).
func (r RecoveryStats) Total() time.Duration {
	return r.Reload + r.DiskIO + r.Deserialize + r.Reconnect
}

// Cluster is a running simulated deployment.
type Cluster struct {
	cfg Config

	shared *storage.Store
	// catalog and ctrl alias the first app's catalog/controller — the
	// single-tenant surface every existing caller uses.
	catalog *storage.Catalog
	ctrl    *controller.Controller

	// The app registry, fixed at New (see appState).
	apps        []*appState
	appByPrefix map[string]*appState
	// graph is the union of every app's namespaced graph — the topology
	// all edge wiring and incarnation walks consult.
	graph *graph.Graph

	mu      sync.Mutex
	nodes   []*node
	haus    map[string]*spe.HAU
	hauNode map[string]int
	cancels map[string]context.CancelFunc
	// inEdges is the input-edge grid of each incarnation, keyed by the
	// downstream incarnation id: inEdges[inc][p][k] is the edge from the
	// k-th incarnation of the p-th upstream (graph order). Unsplit
	// neighbours have single-entry rows.
	inEdges    map[string][][]*spe.Edge
	preservers map[string]*buffer.Preserver
	rng        *rand.Rand

	// Keyed-state re-partitioning: parts maps a split operator's base id to
	// its replica set and nextTag issues never-reused replica tags; each
	// app's geometry journal (appState.geom) maps its commit epochs to the
	// replica sets their blobs were written under.
	parts       map[string]*partState
	nextTag     map[string]int
	lastRescale map[string]time.Time
	// Skew-trigger bookkeeping: lastLoads snapshots each split operator's
	// cumulative router counters at the previous autoscale tick (per-tick
	// deltas feed the imbalance ratio), skewHits is the violation window,
	// and lastSkewAct remembers whether the previous skew action was a
	// rebalance (so persistent skew escalates to a weighted split).
	lastLoads   map[string]partition.Weights
	skewHits    map[string][]bool
	lastSkewAct map[string]string

	policy placement.Policy
	topo   placement.Topology
	rebal  *placement.Rebalancer
	// elastic is the fleet-sizing engine (nil unless ElasticEvery is set).
	// drainObs, when installed, observes each per-HAU move a DrainNode
	// performs just before the migration starts (chaos uses it to aim
	// kills at the migration destination).
	elastic  *elastic.Engine
	drainObs func(id string, from, to int)
	// gen counts topology-changing events (recoveries). A migration that
	// observes gen change mid-flight aborts: the whole-application rollback
	// that bumped it has already rebuilt the HAU somewhere consistent.
	gen uint64
	// busy holds the graph ids a live topology change (migrate, rescale,
	// protect) is changing; a second change touching any of them is
	// refused. See reconfig.go.
	busy map[string]bool

	// Active-standby replication (hybrid fault tolerance): standbys maps
	// each protected HAU to its armed standby, failObs observes failover
	// steps (chaos aims kills with it).
	standbys map[string]*standbyState
	failObs  func(id, step string)

	// Fair-share arbitration (multi-tenant): arb plans bounded migrations
	// toward the weighted fair node partition; arbPrevProc/arbPrevAt prime
	// the per-app CPU-busy deltas; lastShares caches the newest share map
	// for tooling.
	arb         *tenant.Arbiter
	arbPrevProc map[string]uint64
	arbPrevAt   time.Time
	arbPrimed   bool
	lastShares  map[string]float64

	rootCtx context.Context
	started bool
}

// New builds (but does not start) a cluster.
func New(cfg Config) (*Cluster, error) {
	multi := len(cfg.Apps) > 0
	specs := cfg.Apps
	if !multi {
		specs = []AppSpec{cfg.App}
	}
	names := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if err := validateAppSpec(spec, multi); err != nil {
			return nil, err
		}
		if multi {
			if names[spec.Name] {
				return nil, fmt.Errorf("cluster: duplicate app name %q", spec.Name)
			}
			names[spec.Name] = true
		}
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.PreserveMemCap <= 0 {
		cfg.PreserveMemCap = buffer.DefaultMemCap
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 2 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	cl := &Cluster{
		cfg:         cfg,
		shared:      storage.NewStore(cfg.SharedSpec),
		appByPrefix: make(map[string]*appState, len(specs)),
		haus:        make(map[string]*spe.HAU),
		hauNode:     make(map[string]int),
		cancels:     make(map[string]context.CancelFunc),
		inEdges:     make(map[string][][]*spe.Edge),
		preservers:  make(map[string]*buffer.Preserver),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		policy:      cfg.Placement,
		busy:        make(map[string]bool),
		parts:       make(map[string]*partState),
		nextTag:     make(map[string]int),
		lastRescale: make(map[string]time.Time),
		lastLoads:   make(map[string]partition.Weights),
		skewHits:    make(map[string][]bool),
		lastSkewAct: make(map[string]string),
		standbys:    make(map[string]*standbyState),
		arbPrevProc: make(map[string]uint64),
	}
	if cl.policy == nil {
		cl.policy = placement.RoundRobin{}
	}
	cl.topo = placement.NewTopology(cfg.Nodes, cfg.NodesPerRack)
	graphs := make([]*graph.Graph, 0, len(specs))
	for _, spec := range specs {
		prefix := ""
		if multi {
			prefix = spec.Name
		}
		a := cl.newAppState(spec, prefix)
		cl.apps = append(cl.apps, a)
		cl.appByPrefix[a.prefix] = a
		graphs = append(graphs, a.graph)
	}
	var err error
	if cl.graph, err = graph.Union(graphs...); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	cl.catalog = cl.apps[0].catalog
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{index: i, disk: storage.NewDisk(cfg.LocalDiskSpec)}
		if cfg.NodeCores > 0 {
			n.cpu = spe.NewCPUGate(cfg.NodeCores)
		}
		n.alive.Store(true)
		cl.nodes = append(cl.nodes, n)
	}
	ids := cl.graph.Nodes()
	initial := cl.policy.Assign(ids, cl.viewLocked(nil))
	for i, id := range ids {
		n, ok := initial[id]
		if !ok || n < 0 || n >= cfg.Nodes {
			n = i % cfg.Nodes // policy bug: fall back to round-robin
		}
		cl.hauNode[id] = n
	}
	// The first app's controller carries the fleet-wide loops; every app's
	// controller runs its own checkpoint epochs and failure pings.
	ctrlCfg := cl.appCtrlCfg(cl.apps[0])
	if cfg.RebalanceEvery > 0 {
		cl.rebal = placement.NewRebalancer(placement.RebalancerConfig{
			Policy:  cl.policy,
			View:    cl.PlacementView,
			Migrate: cl.rebalanceMigrate,
		})
		ctrlCfg.Loops = append(ctrlCfg.Loops, controller.Loop{Every: cfg.RebalanceEvery, Step: cl.rebal.Step})
	}
	if cfg.AutoscaleEvery > 0 {
		ctrlCfg.Loops = append(ctrlCfg.Loops, controller.Loop{Every: cfg.AutoscaleEvery, Step: cl.autoscaleStep})
	}
	if cfg.ElasticEvery > 0 {
		ecfg := cfg.Elastic
		if ecfg.CooldownOut <= 0 {
			ecfg.CooldownOut = 3 * cfg.ElasticEvery
		}
		if ecfg.CooldownIn <= 0 {
			ecfg.CooldownIn = 6 * cfg.ElasticEvery
		}
		hooks := elastic.Hooks{
			Sample:   cl.elasticSample,
			AddNode:  cl.AddNode,
			Drain:    cl.elasticDrain,
			CanDrain: cl.CanDrain,
			Now:      func() time.Time { return time.Unix(0, cfg.Now()) },
		}
		if multi {
			// Scale-in picks the node whose drain disrupts fewest tenants.
			hooks.RankDrain = cl.rankDrainCandidates
		}
		cl.elastic = elastic.NewEngine(ecfg, hooks)
		ctrlCfg.Loops = append(ctrlCfg.Loops, controller.Loop{Every: cfg.ElasticEvery, Step: cl.elastic.Step})
	}
	if cfg.ArbiterEvery > 0 && multi && len(cl.apps) > 1 {
		cl.arb = tenant.NewArbiter(tenant.Config{
			Cooldown: 2 * cfg.ArbiterEvery,
			MaxMoves: cfg.ArbiterMaxMoves,
			Logf:     cfg.Logf,
		})
		ctrlCfg.Loops = append(ctrlCfg.Loops, controller.Loop{Every: cfg.ArbiterEvery, Step: cl.arbiterStep})
	}
	for i, a := range cl.apps {
		if i == 0 {
			a.ctrl = controller.New(ctrlCfg)
			continue
		}
		a.ctrl = controller.New(cl.appCtrlCfg(a))
	}
	cl.ctrl = cl.apps[0].ctrl
	return cl, nil
}

// Elastic exposes the fleet-sizing engine (nil when ElasticEvery is 0).
func (cl *Cluster) Elastic() *elastic.Engine { return cl.elastic }

// rebalanceMigrate adapts MigrateHAU for the rebalancer (which has no ctx).
func (cl *Cluster) rebalanceMigrate(id string, dest int) error {
	cl.mu.Lock()
	ctx := cl.rootCtx
	cl.mu.Unlock()
	if ctx == nil {
		return errors.New("cluster: not started")
	}
	_, err := cl.MigrateHAU(ctx, id, dest)
	return err
}

// viewLocked assembles the placement view. Callers hold cl.mu, or pass the
// pre-start nil HAU map before concurrency begins. exclude (may be nil)
// names HAUs whose pinned placement should be hidden from the policy —
// the ids being (re-)placed.
func (cl *Cluster) viewLocked(exclude map[string]bool) placement.View {
	v := placement.View{
		Topo:     cl.topo,
		Alive:    make([]bool, len(cl.nodes)),
		HAUs:     make(map[string]placement.HAUInfo, len(cl.hauNode)),
		DiskBusy: make([]time.Duration, len(cl.nodes)),
	}
	for i, n := range cl.nodes {
		// Policies read Alive as "placement-eligible": draining and retired
		// nodes are alive machines but must not receive new HAUs.
		v.Alive[i] = n.schedulable()
		v.DiskBusy[i] = n.disk.Stats().BusyTime
	}
	for id, n := range cl.hauNode {
		if exclude[id] {
			continue
		}
		info := placement.HAUInfo{Node: n, Weight: cl.appOf(id).weight}
		if h := cl.haus[id]; h != nil {
			info.StateBytes = h.CachedStateSize()
			info.Processed = h.ProcessedCount()
		}
		v.HAUs[id] = info
	}
	return v
}

// PlacementView snapshots the cluster state placement policies consume:
// alive nodes, per-node disk busy time, and per-HAU node/state/throughput.
func (cl *Cluster) PlacementView() placement.View {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.viewLocked(nil)
}

// Catalog exposes the checkpoint catalog.
func (cl *Cluster) Catalog() *storage.Catalog { return cl.catalog }

// SharedStore exposes the shared storage node.
func (cl *Cluster) SharedStore() *storage.Store { return cl.shared }

// Controller exposes the controller.
func (cl *Cluster) Controller() *controller.Controller { return cl.ctrl }

// HAU returns the current instance for id.
func (cl *Cluster) HAU(id string) *spe.HAU {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.haus[id]
}

// NodeOf returns the node index hosting id.
func (cl *Cluster) NodeOf(id string) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.hauNode[id]
}

// reviveIfAllDeadLocked models replacement nodes when every node failed:
// the paper restarts HAUs "on other healthy nodes", so the old ones come
// back. Retired slots stay retired: they left the fleet by scale-in, not by
// failure, and AddNode is the only way back. Held lock: cl.mu.
func (cl *Cluster) reviveIfAllDeadLocked() {
	for _, n := range cl.nodes {
		if n.alive.Load() && !n.retired.Load() {
			return
		}
	}
	for _, n := range cl.nodes {
		if !n.retired.Load() {
			n.alive.Store(true)
		}
	}
}

// firstHealthyLocked returns the lowest-index schedulable node, falling
// back to any alive non-retired node (a draining one beats losing the
// HAU), then to any alive node at all; -1 when everything is dead. Held
// lock: cl.mu.
func (cl *Cluster) firstHealthyLocked() int {
	fallback := -1
	for i, n := range cl.nodes {
		if !n.alive.Load() {
			continue
		}
		if n.schedulable() {
			return i
		}
		if fallback < 0 || (!n.retired.Load() && cl.nodes[fallback].retired.Load()) {
			fallback = i
		}
	}
	return fallback
}

func (cl *Cluster) hauAlive(id string) bool {
	cl.mu.Lock()
	n, ok := cl.hauNode[id]
	if !ok {
		cl.mu.Unlock()
		return false
	}
	node := cl.nodes[n]
	cl.mu.Unlock()
	return node.alive.Load()
}

// Start builds every HAU, wires the query network, and launches the HAU
// goroutines. The controller's Run loop is NOT started automatically; call
// StartController for scheme-driven checkpointing or drive epochs manually.
//
// Every edge grid is built first: downstream in-edge rows define the
// upstreams' ports. The HAUs start in map order, not graph order: the order
// HAU goroutines start in shifts a deployment's steady-state latency (see
// EXPERIMENTS.md, "One driver for live topology changes").
func (cl *Cluster) Start(ctx context.Context) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.started {
		return errors.New("cluster: already started")
	}
	cl.rootCtx = ctx
	ids := cl.graph.Nodes()
	for _, id := range ids {
		cl.inEdges[id] = cl.freshInGridLocked(id, id)
	}
	launches := make(map[string]launch, len(ids))
	for _, id := range ids {
		l, _, err := cl.installLocked(id, cl.hauNode[id], cl.inEdges[id], nil)
		if err != nil {
			return err
		}
		launches[id] = l
	}
	cl.installControllerHAUs()
	for _, l := range launches {
		l.h.Start(l.ctx)
	}
	cl.started = true
	return nil
}

// StartController launches every application's controller loop (periodic
// checkpoints, alert mode, failure pings). On a single-tenant cluster this
// is exactly the historical single loop.
func (cl *Cluster) StartController(ctx context.Context) {
	for _, a := range cl.apps {
		go a.ctrl.Run(ctx)
	}
}

// buildHAU constructs an HAU instance for id. Held lock: cl.mu. The two
// returned durations are the operator-construction (reload) and state
// deserialization times, the Fig. 16 phases 1 and 3.
func (cl *Cluster) buildHAU(id string, restoreBlob []byte) (*spe.HAU, time.Duration, time.Duration, error) {
	cfg, opsDur := cl.prepareHAU(id)
	h, restoreDur, err := constructHAU(cfg, restoreBlob)
	if err != nil {
		return nil, 0, 0, err
	}
	return h, opsDur, restoreDur, nil
}

// prepareHAU runs the shared-state half of an HAU build for one incarnation:
// fresh operator chain, edge wiring, preserver/source-log installation. Held
// lock: cl.mu (it mutates cl.preservers and cl.sourceLogs and reads
// cl.inEdges and cl.parts). The returned duration is operator-construction
// (reload) time, Fig. 16 phase 1.
func (cl *Cluster) prepareHAU(id string) (spe.Config, time.Duration) {
	g := cl.graph
	a := cl.appOf(id)
	base := partition.BaseID(id)
	opsStart := time.Now()
	ops := cl.newOperators(a, id)
	opsDur := time.Since(opsStart)
	nd := cl.nodes[cl.hauNode[id]]

	// This incarnation's index among its siblings picks its column in every
	// downstream incarnation's input grid.
	selfIdx := 0
	for i, sib := range cl.expandedLocked(base) {
		if sib == id {
			selfIdx = i
			break
		}
	}
	outIDs := g.Downstream(base)
	outPorts := make([]spe.OutPort, len(outIDs))
	nPhysOut := 0
	for p, down := range outIDs {
		port := g.PortOf(base, down)
		downIncs := cl.expandedLocked(down)
		es := make([]*spe.Edge, len(downIncs))
		for j, dinc := range downIncs {
			es[j] = cl.inEdges[dinc][port][selfIdx]
		}
		outPorts[p] = spe.OutPort{Edges: es}
		if ps := cl.parts[down]; ps != nil {
			outPorts[p].Router = ps.Router
		}
		nPhysOut += len(es)
	}
	var in []*spe.Edge
	var inLogical []int
	for p, row := range cl.inEdges[id] {
		for _, e := range row {
			in = append(in, e)
			inLogical = append(inLogical, p)
		}
	}
	cfg := spe.Config{
		ID:              id,
		Scheme:          cl.cfg.Scheme,
		Ops:             ops,
		In:              in,
		OutPorts:        outPorts,
		InLogical:       inLogical,
		Catalog:         a.catalog,
		Listener:        cl.listenerFor(a),
		TickEvery:       cl.cfg.TickEvery,
		PerTupleDelay:   cl.cfg.PerTupleDelay,
		CPU:             nd.cpu,
		DeltaCheckpoint: cl.cfg.DeltaCheckpoint,
		ShedWatermark:   cl.cfg.ShedWatermark,
		Now:             cl.cfg.Now,
	}
	isSource := len(in) == 0
	if cl.cfg.Scheme == spe.Baseline {
		cfg.CkptPeriod = cl.cfg.CkptPeriod
		if cl.cfg.CkptPeriod > 0 {
			cfg.CkptPhase = time.Duration(cl.rng.Int63n(int64(cl.cfg.CkptPeriod)))
		}
		pres := buffer.NewPreserver(nPhysOut, cl.cfg.PreserveMemCap, nd.disk)
		cl.preservers[id] = pres
		cfg.Preserver = pres
		downID := id
		cfg.AckUpstream = func(inPort int, seq uint64) {
			cl.ackUpstream(downID, inPort, seq)
		}
	} else if isSource {
		log := a.sourceLogs[id]
		if log == nil {
			log = buffer.NewSourceLog(id, cl.shared, cl.cfg.SourceFlush)
			a.sourceLogs[id] = log
		}
		cfg.SourceLog = log
	}
	return cfg, opsDur
}

// constructHAU runs the lock-free half of an HAU build: spe.New plus state
// deserialization. It touches only the prepared config and the blob, so
// RecoverAll fans it out across a bounded worker pool — the returned
// duration is this HAU's deserialization time (Fig. 16 phase 3).
func constructHAU(cfg spe.Config, restoreBlob []byte) (*spe.HAU, time.Duration, error) {
	h, err := spe.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if restoreBlob == nil {
		return h, 0, nil
	}
	restoreStart := time.Now()
	if err := h.RestoreFrom(restoreBlob); err != nil {
		return nil, 0, restoreError{err}
	}
	return h, time.Since(restoreStart), nil
}

// restoreError marks a buildHAU failure as caused by an undecodable
// checkpoint blob (as opposed to operator construction failing, which no
// other epoch would fix). RecoverAll uses the distinction to fall back to
// an older complete epoch.
type restoreError struct{ error }

func (e restoreError) Unwrap() error { return e.error }

// listenerFor returns app a's fan-out listener: its own controller plus any
// extras (user-supplied listener, metrics recorder tagged with the app).
func (cl *Cluster) listenerFor(a *appState) spe.Listener {
	ls := fanOutListener{a.ctrl}
	if cl.cfg.Listener != nil {
		ls = append(ls, cl.cfg.Listener)
	}
	if cl.cfg.Metrics != nil {
		ls = append(ls, checkpointRecorder{m: cl.cfg.Metrics, now: cl.cfg.Now, app: a.name})
	}
	if len(ls) == 1 {
		return a.ctrl
	}
	return ls
}

// checkpointRecorder forwards per-checkpoint cost breakdowns to the
// metrics collector, keeping the on-loop freeze window (Serialize)
// distinguishable from the writer-side flatten/diff/IO phases.
type checkpointRecorder struct {
	m   *metrics.Collector
	now func() int64
	app string
}

func (r checkpointRecorder) CheckpointDone(hau string, epoch uint64, b spe.CheckpointBreakdown) {
	r.m.RecordCheckpoint(metrics.Checkpoint{
		At:            r.now(),
		App:           r.app,
		HAU:           hau,
		Epoch:         epoch,
		TokenWait:     b.TokenWait,
		Serialize:     b.Serialize,
		Flatten:       b.Flatten,
		Diff:          b.Diff,
		DiskIO:        b.DiskIO,
		AlignStallMax: b.AlignStallMax,
		AlignStallSum: b.AlignStallSum,
		StateBytes:    b.StateBytes,
		DirtyBytes:    b.DirtyBytes,
		ChannelBytes:  b.ChannelBytes,
		Delta:         b.Delta,
		Async:         b.Async,
	})
}

func (checkpointRecorder) TurningPoint(string, int64, int64, float64, bool) {}

func (checkpointRecorder) Stopped(string, error) {}

type fanOutListener []spe.Listener

func (f fanOutListener) CheckpointDone(hau string, epoch uint64, b spe.CheckpointBreakdown) {
	for _, l := range f {
		l.CheckpointDone(hau, epoch, b)
	}
}

func (f fanOutListener) TurningPoint(hau string, at int64, size int64, icr float64, halved bool) {
	for _, l := range f {
		l.TurningPoint(hau, at, size, icr, halved)
	}
}

func (f fanOutListener) Stopped(hau string, err error) {
	for _, l := range f {
		l.Stopped(hau, err)
	}
}

// ackUpstream routes a baseline checkpoint ack from downstream's input
// port to the upstream HAU's preserver.
func (cl *Cluster) ackUpstream(down string, inPort int, seq uint64) {
	g := cl.graph
	ups := g.Upstream(down)
	if inPort < 0 || inPort >= len(ups) {
		return
	}
	up := ups[inPort]
	cl.mu.Lock()
	pres := cl.preservers[up]
	cl.mu.Unlock()
	if pres == nil {
		return
	}
	if outPort := g.OutPortOf(up, down); outPort >= 0 {
		pres.Trim(outPort, seq)
	}
}

// installControllerHAUs hands each application's controller its own live
// HAUs (the single-tenant cluster hands everything to the one controller).
// Controllers copy the map, so this must be re-called after every mutation
// of cl.haus (recovery, migration, rescale).
func (cl *Cluster) installControllerHAUs() {
	if len(cl.apps) == 1 {
		cl.apps[0].ctrl.SetHAUs(cl.haus)
		return
	}
	split := make(map[*appState]map[string]*spe.HAU, len(cl.apps))
	for _, a := range cl.apps {
		split[a] = make(map[string]*spe.HAU)
	}
	for id, h := range cl.haus {
		if m := split[cl.appOf(id)]; m != nil {
			m[id] = h
		}
	}
	for _, a := range cl.apps {
		a.ctrl.SetHAUs(split[a])
	}
}

// KillNode fail-stops one node: its HAUs halt immediately and its disk
// becomes unreachable.
func (cl *Cluster) KillNode(idx int) {
	cl.mu.Lock()
	if idx < 0 || idx >= len(cl.nodes) {
		cl.mu.Unlock()
		return
	}
	cl.nodes[idx].alive.Store(false)
	var dead []string
	for id, n := range cl.hauNode {
		if n == idx {
			dead = append(dead, id)
		}
	}
	// Fence before cancelling: a checkpoint a dead HAU captured but has not
	// begun to save must not complete an epoch the recovery then restores.
	cancels := make([]context.CancelFunc, 0, len(dead))
	for _, id := range dead {
		if h := cl.haus[id]; h != nil {
			h.Fence()
		}
		if c := cl.cancels[id]; c != nil {
			cancels = append(cancels, c)
		}
	}
	// Standbys hosted on the dead node die with it. Drop their tees, or
	// the upstream eventually blocks on the unconsumed mirror; the entry
	// is removed so a later ProtectHAU can re-arm protection.
	type teeDrop struct {
		uh     *spe.HAU
		port   int
		mirror *spe.Edge
	}
	var drops []teeDrop
	rootCtx := cl.rootCtx
	for id, sb := range cl.standbys {
		if sb.node != idx {
			continue
		}
		sb.h.Fence()
		cancels = append(cancels, sb.cancel)
		if uh := cl.haus[sb.up]; uh != nil {
			drops = append(drops, teeDrop{uh, sb.upPort, sb.mirror})
		}
		delete(cl.standbys, id)
	}
	cl.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, d := range drops {
		cl.dropTee(rootCtx, d.uh, d.port, d.mirror)
	}
}

// ReviveNode models a replacement machine taking the dead node's slot:
// the slot accepts HAU placements again. The disk contents of the failed
// machine stay lost (replacement hardware arrives blank).
func (cl *Cluster) ReviveNode(idx int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if idx < 0 || idx >= len(cl.nodes) {
		return
	}
	cl.nodes[idx].alive.Store(true)
}

// DeadNodes returns the indices of nodes currently failed.
func (cl *Cluster) DeadNodes() []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []int
	for i, n := range cl.nodes {
		if !n.alive.Load() {
			out = append(out, i)
		}
	}
	return out
}

// DeadHAUs returns the incarnation ids of HAUs whose assigned node is dead —
// the set a recovery must re-place.
func (cl *Cluster) DeadHAUs() []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var out []string
	for _, id := range cl.graph.Nodes() {
		for _, inc := range cl.expandedLocked(id) {
			n, ok := cl.hauNode[inc]
			if !ok || !cl.nodes[n].alive.Load() {
				out = append(out, inc)
			}
		}
	}
	return out
}

// KillNodes fail-stops a set of nodes (a correlated burst).
func (cl *Cluster) KillNodes(idxs []int) {
	for _, i := range idxs {
		cl.KillNode(i)
	}
}

// KillAll fail-stops every worker node — the paper's worst case, "where
// all computing nodes on which a stream application runs fail".
func (cl *Cluster) KillAll() {
	cl.mu.Lock()
	n := len(cl.nodes)
	cl.mu.Unlock()
	for i := 0; i < n; i++ {
		cl.KillNode(i)
	}
}

// StopAll cancels every HAU without marking nodes dead (orderly shutdown).
func (cl *Cluster) StopAll() {
	cl.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(cl.cancels))
	haus := make([]*spe.HAU, 0, len(cl.haus))
	for id, c := range cl.cancels {
		cancels = append(cancels, c)
		haus = append(haus, cl.haus[id])
	}
	for _, sb := range cl.standbys {
		cancels = append(cancels, sb.cancel)
		haus = append(haus, sb.h)
	}
	cl.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, h := range haus {
		<-h.Done()
	}
}

// RecoverAll performs whole-application recovery from the Most Recent
// Complete Checkpoint: every HAU is restarted (on healthy nodes), state is
// read back from shared storage, sources replay their preserved tuples.
// Returns the phase breakdown (Fig. 16).
//
// When the newest complete epoch turns out to be unloadable (blobs lost or
// corrupted while the store itself is up), RecoverAll falls back to the
// next older complete epoch rather than failing; only when every complete
// epoch is unusable does it return the *MissingCheckpointError for the
// newest one. A store that is down (storage.ErrUnavailable) fails fast —
// older epochs live on the same store, so walking them is pointless.
func (cl *Cluster) RecoverAll(ctx context.Context) (RecoveryStats, error) {
	if len(cl.apps) == 1 {
		return cl.recoverApp(ctx, cl.apps[0])
	}
	// Multi-tenant: recover each application independently — one tenant's
	// unrecoverable checkpoint must not block a co-tenant's rollback.
	// Phase durations sum; the first error is reported after every app had
	// its chance.
	var total RecoveryStats
	var firstErr error
	for _, a := range cl.apps {
		stats, err := cl.recoverApp(ctx, a)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("app %q: %w", a.name, err)
			}
			continue
		}
		total.Reload += stats.Reload
		total.DiskIO += stats.DiskIO
		total.Deserialize += stats.Deserialize
		total.Reconnect += stats.Reconnect
		total.ReplayFetch += stats.ReplayFetch
		total.HAUs += stats.HAUs
		total.Epoch = stats.Epoch
	}
	return total, firstErr
}

// recoverApp is whole-application rollback scoped to one application: only
// a's HAUs (and standbys) stop, only a's checkpoint epochs and geometry
// journal are consulted, only a's sources replay — co-tenants are never
// touched, and their in-flight channel state survives intact.
func (cl *Cluster) recoverApp(ctx context.Context, a *appState) (RecoveryStats, error) {
	var stats RecoveryStats

	// Make sure every old instance OF THIS APP is dead and async writers
	// drained.
	cl.mu.Lock()
	var oldHAUs []*spe.HAU
	var cancels []context.CancelFunc
	for id, h := range cl.haus {
		if cl.appOf(id) != a {
			continue
		}
		oldHAUs = append(oldHAUs, h)
		if c := cl.cancels[id]; c != nil {
			cancels = append(cancels, c)
		}
	}
	// The app's standbys roll back with it: the rebuild below rewires its
	// every edge from scratch, so armed tees cannot survive; a later
	// ProtectHAU re-arms protection.
	for id, sb := range cl.standbys {
		if cl.appOf(id) != a {
			continue
		}
		oldHAUs = append(oldHAUs, sb.h)
		cancels = append(cancels, sb.cancel)
		delete(cl.standbys, id)
	}
	cl.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	for _, h := range oldHAUs {
		<-h.Done()
	}

	epochs := a.catalog.CompleteEpochs()
	if len(epochs) == 0 {
		return stats, ErrNoCheckpoint
	}

	// Restart dead nodes' HAUs on healthy nodes: reassign placements via
	// the active policy (round-robin over healthy nodes historically).
	cl.mu.Lock()
	cl.gen++ // invalidate in-flight fleet ops (drains)
	a.gen++  // invalidate this app's in-flight migrations and rescales
	g := a.graph
	cl.mu.Unlock()

	// Phase 2 plus phases 1+3: walk complete epochs newest-first. For each
	// candidate, adopt the partition geometry journalled for it (the replica
	// sets the epoch's blobs were written under), read all checkpoint blobs
	// (parallel readers contending on the shared store, like 55 nodes
	// hammering one storage node), then reload operators and deserialize
	// state. A blob that is missing or fails to decode condemns the whole
	// epoch — recovering a torn cut would violate consistency — so fall back
	// to the next older complete epoch. A store that is down fails fast
	// instead: older epochs live on the same store.
	var mrc uint64
	var newHAUs map[string]*spe.HAU
	var ids []string
	var diskIO time.Duration
	var firstErr error
epochs:
	for _, epoch := range epochs {
		cl.mu.Lock()
		// Checked under the lock that places the HAUs: a node killed
		// while recovery runs could otherwise leave no healthy node to
		// place on.
		cl.reviveIfAllDeadLocked()
		cl.adoptGeometryLocked(a, epoch)
		ids = cl.incarnationsOfLocked(a)
		// Re-place incarnations that are on dead nodes or (after adopting an
		// older geometry) have no placement yet.
		var dead []string
		for _, id := range ids {
			n, ok := cl.hauNode[id]
			if !ok || !cl.nodes[n].alive.Load() {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			exclude := make(map[string]bool, len(dead))
			for _, id := range dead {
				exclude[id] = true
			}
			placed := cl.policy.Assign(dead, cl.viewLocked(exclude))
			for _, id := range dead {
				n, ok := placed[id]
				if !ok || n < 0 || n >= len(cl.nodes) || !cl.nodes[n].alive.Load() {
					// Policy bug: any healthy node keeps recovery alive.
					n = cl.firstHealthyLocked()
				}
				cl.hauNode[id] = n
			}
		}
		// Fresh edge grids everywhere: in-flight tuples are rolled back.
		for _, gid := range g.Nodes() {
			for _, inc := range cl.expandedLocked(gid) {
				cl.inEdges[inc] = cl.freshInGridLocked(gid, inc)
			}
		}
		cl.mu.Unlock()

		diskStart := time.Now()
		blobs, err := cl.loadEpochBlobs(a.catalog, epoch, ids)
		diskIO += time.Since(diskStart)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if errors.Is(err, storage.ErrUnavailable) {
				return stats, firstErr
			}
			continue
		}
		// Phase 1 under the lock: operator chains and edge wiring mutate
		// shared maps. Phase 3 fans out over a bounded worker pool —
		// deserializing a wide application is embarrassingly parallel once
		// each HAU's config is assembled — so Deserialize is wall-clock,
		// not a per-HAU sum.
		workers := cl.cfg.RestoreWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		cfgs := make([]spe.Config, len(ids))
		var reload time.Duration
		cl.mu.Lock()
		for i, id := range ids {
			var opsDur time.Duration
			cfgs[i], opsDur = cl.prepareHAU(id)
			reload += opsDur
		}
		cl.mu.Unlock()

		built := make([]*spe.HAU, len(ids))
		buildErrs := make([]error, len(ids))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		deserStart := time.Now()
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				built[i], _, buildErrs[i] = constructHAU(cfgs[i], blobs[ids[i]])
			}(i)
		}
		wg.Wait()
		deserialize := time.Since(deserStart)

		haus := make(map[string]*spe.HAU, len(ids))
		condemned := false
		for i, id := range ids {
			if err := buildErrs[i]; err != nil {
				var re restoreError
				if !errors.As(err, &re) {
					// Operator construction failed: no epoch fixes that.
					return stats, err
				}
				if firstErr == nil {
					firstErr = &MissingCheckpointError{Epoch: epoch, HAU: id, Err: re.error}
				}
				condemned = true
				continue
			}
			haus[id] = built[i]
		}
		if condemned {
			continue epochs
		}
		mrc, newHAUs = epoch, haus
		stats.Reload, stats.Deserialize = reload, deserialize
		break
	}
	if newHAUs == nil {
		return stats, firstErr
	}
	stats.Epoch = mrc
	stats.DiskIO = diskIO
	// Drop journalled geometries newer than the epoch actually restored —
	// their incarnations no longer exist anywhere.
	cl.mu.Lock()
	keptGeom := a.geom[:0]
	for _, e := range a.geom {
		if e.epoch <= mrc {
			keptGeom = append(keptGeom, e)
		}
	}
	a.geom = keptGeom
	cl.mu.Unlock()

	// Source replay: re-feed everything preserved since the MRC. Counted
	// separately — the paper's recovery time stops before replay. Each
	// fetch flushes and reads the source's log on the shared store, so the
	// sources fetch concurrently, off the cluster lock, across the store's
	// stripes; the new HAUs are not running yet, so nothing else reads
	// their replay.
	replayStart := time.Now()
	type replay struct {
		id  string
		log *buffer.SourceLog
		ts  []*tuple.Tuple
		err error
	}
	cl.mu.Lock()
	replays := make([]replay, 0, len(a.sourceLogs))
	for id, log := range a.sourceLogs {
		replays = append(replays, replay{id: id, log: log})
	}
	cl.mu.Unlock()
	var fetches sync.WaitGroup
	for i := range replays {
		fetches.Add(1)
		go func(r *replay) {
			defer fetches.Done()
			r.ts, r.err = r.log.ReplaySince(mrc)
		}(&replays[i])
	}
	fetches.Wait()
	for _, r := range replays {
		if r.err != nil {
			return stats, r.err
		}
		newHAUs[r.id].SetSourceReplay(r.ts)
	}
	stats.ReplayFetch = time.Since(replayStart)

	// Phase 4: reconnect — swap the live map and start everything.
	reconnectStart := time.Now()
	cl.mu.Lock()
	for id, h := range newHAUs {
		cl.haus[id] = h
		hctx, cancel := context.WithCancel(cl.rootCtx)
		cl.cancels[id] = cancel
		h.Start(hctx)
	}
	cl.installControllerHAUs()
	// A node may have died while phases 1-3 ran: its KillNode fired the
	// *old* (already spent) cancel funcs, so the instances just started
	// above would keep running on a dead node. Cancel them here, under
	// the same lock KillNode serializes on, and report divergence so the
	// caller re-drives recovery.
	var diverged []context.CancelFunc
	for id := range newHAUs {
		if !cl.nodes[cl.hauNode[id]].alive.Load() {
			diverged = append(diverged, cl.cancels[id])
		}
	}
	cl.mu.Unlock()
	stats.Reconnect = time.Since(reconnectStart)
	stats.HAUs = len(ids)
	if len(diverged) > 0 {
		for _, c := range diverged {
			c()
		}
		return stats, fmt.Errorf("%w: %d HAUs placed on nodes that failed mid-recovery", ErrRecoveryDiverged, len(diverged))
	}
	a.ctrl.ClearFailure()
	if cl.cfg.Metrics != nil {
		cl.cfg.Metrics.RecordRecovery(metrics.Recovery{
			At:          cl.cfg.Now(),
			App:         a.name,
			Epoch:       stats.Epoch,
			HAUs:        stats.HAUs,
			Reload:      stats.Reload,
			DiskIO:      stats.DiskIO,
			Deserialize: stats.Deserialize,
			Reconnect:   stats.Reconnect,
			ReplayFetch: stats.ReplayFetch,
			Total:       stats.Total(),
		})
	}
	return stats, nil
}

// loadEpochBlobs reads every HAU's blob for one epoch in parallel. Any
// failure aborts the epoch with a *MissingCheckpointError naming the HAU
// whose blob was unusable.
func (cl *Cluster) loadEpochBlobs(cat *storage.Catalog, epoch uint64, ids []string) (map[string][]byte, error) {
	blobs := make(map[string][]byte, len(ids))
	var blobMu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, len(ids))
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, _, err := cat.LoadState(epoch, id)
			if err != nil {
				errCh <- &MissingCheckpointError{Epoch: epoch, HAU: id, Err: err}
				return
			}
			blobMu.Lock()
			blobs[id] = blob
			blobMu.Unlock()
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return blobs, nil
}

// RecoverAllWithRetry drives RecoverAll until the application is fully
// live, backing off between attempts. It retries the transient failures a
// correlated burst produces — the shared store briefly unreachable (a
// standby storage node also died and is being promoted), or nodes dying
// while a recovery is mid-flight — and gives up immediately on permanent
// ones (no checkpoint at all, or blobs lost from a healthy store). The
// backoff doubles per attempt, bounding the thundering-herd reload the
// paper warns about when 55 nodes hammer one storage node.
func (cl *Cluster) RecoverAllWithRetry(ctx context.Context, attempts int, backoff time.Duration) (RecoveryStats, error) {
	if attempts <= 0 {
		attempts = 1
	}
	var stats RecoveryStats
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 8*time.Second {
				backoff *= 2
			}
		}
		stats, err = cl.RecoverAll(ctx)
		if err == nil {
			return stats, nil
		}
		if errors.Is(err, ErrNoCheckpoint) {
			return stats, err
		}
		var miss *MissingCheckpointError
		if errors.As(err, &miss) && !errors.Is(miss.Err, storage.ErrUnavailable) {
			// The store answered and the blob is gone: retrying re-reads
			// the same missing data.
			return stats, err
		}
	}
	return stats, err
}

// RecoverHAU restarts a single failed HAU from its most recent individual
// checkpoint (the baseline's recovery procedure): upstream neighbours swap
// in fresh edges and replay their preserved tuples; downstream neighbours
// drop the duplicates they already processed by sequence number.
func (cl *Cluster) RecoverHAU(ctx context.Context, id string) (RecoveryStats, error) {
	var stats RecoveryStats
	cl.mu.Lock()
	old := cl.haus[id]
	cancel := cl.cancels[id]
	cl.mu.Unlock()
	if old == nil {
		return stats, fmt.Errorf("cluster: unknown HAU %q", id)
	}
	if cancel != nil {
		cancel()
	}
	<-old.Done()

	a := cl.appOf(id)
	epoch, ok := a.catalog.LatestEpochFor(id)
	if !ok {
		return stats, fmt.Errorf("cluster: no checkpoint for HAU %q", id)
	}
	stats.Epoch = epoch
	diskStart := time.Now()
	blob, _, err := a.catalog.LoadState(epoch, id)
	if err != nil {
		return stats, &MissingCheckpointError{Epoch: epoch, HAU: id, Err: err}
	}
	stats.DiskIO = time.Since(diskStart)

	// Move to a healthy node (chosen by the active policy) if the old one
	// is down.
	cl.mu.Lock()
	if !cl.nodes[cl.hauNode[id]].alive.Load() {
		placed := cl.policy.Assign([]string{id}, cl.viewLocked(map[string]bool{id: true}))
		if n, ok := placed[id]; ok && n >= 0 && n < len(cl.nodes) && cl.nodes[n].alive.Load() {
			cl.hauNode[id] = n
		} else if n := cl.firstHealthyLocked(); n >= 0 {
			cl.hauNode[id] = n
		}
	}
	// Fresh input edges (in-flight tuples on the dead node are gone).
	// Single-HAU restart is the baseline's procedure; the baseline never
	// splits operators, so every grid row has exactly one edge.
	g := cl.graph
	ups := g.Upstream(id)
	grid := cl.freshInGridLocked(id, id)
	cl.inEdges[id] = grid
	h, opsDur, restoreDur, err := cl.buildHAU(id, blob)
	if err != nil {
		cl.mu.Unlock()
		return stats, err
	}
	stats.Reload = opsDur
	stats.Deserialize = restoreDur
	reconnectStart := time.Now()
	cl.haus[id] = h
	hctx, hcancel := context.WithCancel(cl.rootCtx)
	cl.cancels[id] = hcancel
	cl.installControllerHAUs()
	upstreams := make([]*spe.HAU, len(ups))
	for i, up := range ups {
		upstreams[i] = cl.haus[up]
	}
	cl.mu.Unlock()

	h.Start(hctx)
	// Rewire upstream neighbours and replay their preserved output.
	for i, up := range ups {
		uh := upstreams[i]
		if uh == nil {
			continue
		}
		outPort := g.OutPortOf(up, id)
		if outPort < 0 {
			continue
		}
		uh.Command(spe.Command{Kind: spe.CmdSwapOutEdge, Port: outPort, Edge: grid[i][0]})
		uh.Command(spe.Command{Kind: spe.CmdReplayOutput, Port: outPort})
	}
	stats.Reconnect = time.Since(reconnectStart)
	stats.HAUs = 1
	a.ctrl.ClearFailure()
	return stats, nil
}

// SetFailureHandler installs the callback every app's controller invokes
// when its pings detect dead HAUs. Typical production wiring performs
// RecoverAll. Multi-tenant callers who need to know WHICH application
// failed should use SetAppFailureHandler instead.
func (cl *Cluster) SetFailureHandler(fn func(dead []string)) {
	for _, a := range cl.apps {
		a.ctrl.SetOnFailure(fn)
	}
}

// GraphNodes returns all HAU ids across every application.
func (cl *Cluster) GraphNodes() []string { return cl.graph.Nodes() }

// ProcessedTotal sums ProcessedCount over all live HAUs — the paper's
// throughput numerator ("the number of tuples processed by the application
// within a 10-minute time window").
func (cl *Cluster) ProcessedTotal() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var n uint64
	for _, h := range cl.haus {
		n += h.ProcessedCount()
	}
	return n
}

// SourceLog exposes the preservation log of a source (tests, tooling).
func (cl *Cluster) SourceLog(id string) *buffer.SourceLog {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.appOf(id).sourceLogs[id]
}

// Preserver exposes the input-preservation buffer of an HAU (baseline).
func (cl *Cluster) Preserver(id string) *buffer.Preserver {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.preservers[id]
}

// ReplayableTuples reports how many tuples the source logs currently hold.
func (cl *Cluster) ReplayableTuples() int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, a := range cl.apps {
		for _, l := range a.sourceLogs {
			n += l.PreservedCount()
		}
	}
	return n
}
