package main

import "time"

// The job: the paper's 55-HAU TMI topology (10 S, 12 P, 12 M, 10 G, 10 A,
// 1 K) in Audit mode, so every position pair reaches the sink and the
// output count has a closed form, fed by open-loop sources at a fixed rate.
const (
	sources   = 10
	pairs     = 12
	groups    = 10
	recordPad = 140
	nodes     = 4
	victim    = "P3" // the HAU whose node is killed and which is reconfigured

	period     = 500 * time.Millisecond // MS-src+ap checkpoint period
	killSettle = 600 * time.Millisecond // after ReviveNode, before the next event
	stepSettle = 200 * time.Millisecond // after each migrate, split and merge

	// tickEvery is every HAU's tick, so each source releases tickEvery×rate
	// tuples at once. At 8 ms the hot path works through those bursts and
	// per-tick wake-ups are a small share of the CPU; at 1 ms they
	// dominated, and latency and CPU per tuple followed the host's load
	// from run to run.
	tickEvery = 8 * time.Millisecond
	rate      = 2.0 // tuples per ms per source: about 23k sink tuples/s

	// steadyShare is the share of --seconds given to the fault-free phase;
	// the kill and reconfiguration phases share the rest.
	steadyShare = 0.6
)

// workload is one set of inputs the benchmark runs. Every workload runs
// all three phases — fault-free, kills, reconfigurations — because every
// end-to-end metric is reported on every workload; state size and how the
// event phases share their time are what set the workloads apart.
type workload struct {
	name, why string
	phones    int     // phones per source: PairOp keyed state
	killShare float64 // share of the event phases given to kills; reconfigurations get the rest
}

var workloads = []workload{
	{
		name:      "steady_small",
		why:       "40 phones per source (37 KB of state per epoch): the per-tuple path does the work and storage almost none, so hot-path changes show here and checkpoint-capture changes should not",
		phones:    40,
		killShare: 0.5,
	},
	{
		name:      "ckpt_recover_big",
		why:       "900 phones per source (0.38 MB of keyed state per epoch) and repeated kills of the node hosting P3: capture, the checkpoint writer, storage writes and reads, restore and replay do the work",
		phones:    900,
		killShare: 0.7,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by the
// untraced run. The bound is the share of the parent's median by which a
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher", 0.05}, // exactly-once sink deliveries per second over the timed phases
	{"latency_p50_ms", "ms", "lower", 0.25},   // creation stamp to sink, fault-free phases
	{"latency_p99_ms", "ms", "lower", 0.25},   // creation stamp to sink, fault-free phases
	{"ckpt_ms", "ms", "lower", 0.15},          // trigger to epoch complete, median over fault-free epochs
	{"recovery_ms", "ms", "lower", 0.15},      // KillNode until RecoverAll returns, median over kills
	{"outage_ms", "ms", "lower", 0.25},        // longest sink gap spanning a kill, median over kills
	{"migrate_ms", "ms", "lower", 0.15},       // MigrateHAU wall time, median
	{"rescale_ms", "ms", "lower", 0.15},       // SplitHAU plus MergeHAU wall time, median over cycles
	{"cpu_us_per_tuple", "us", "lower", 0.2},  // process CPU per sink delivery, fault-free phases
	{"peak_heap_mb", "MB", "lower", 0.2},      // peak HeapInuse over the timed phases
	{"setup_s", "s", "lower", 0.25},           // cluster.New to the first sink delivery less the source schedule's wait, median of set-ups
}

// perLayer are the traced run's metrics, each derived from spans and
// boundary counters recorded around the calls into one layer.
var perLayer = []metricDef{
	{Name: "operator.source_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "operator.pair_ns", Unit: "ns", Better: "lower"},
	{Name: "operator.refspeed_ns", Unit: "ns", Better: "lower"},
	{Name: "operator.passthrough_ns", Unit: "ns", Better: "lower"},
	{Name: "operator.sink_ns", Unit: "ns", Better: "lower"},
	{Name: "operator.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "operator.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "spe.processed_tps.S", Unit: "1/s", Better: "higher"},
	{Name: "spe.processed_tps.P", Unit: "1/s", Better: "higher"},
	{Name: "spe.processed_tps.M", Unit: "1/s", Better: "higher"},
	{Name: "spe.processed_tps.G", Unit: "1/s", Better: "higher"},
	{Name: "spe.processed_tps.A", Unit: "1/s", Better: "higher"},
	{Name: "spe.processed_tps.K", Unit: "1/s", Better: "higher"},
	{Name: "spe.token_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "spe.align_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "spe.freeze_ms", Unit: "ms", Better: "lower"},
	{Name: "spe.writer_ms", Unit: "ms", Better: "lower"},
	{Name: "spe.dirty_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.ckpt_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.write_ops", Unit: "1/s", Better: "lower"},
	{Name: "storage.read_bytes", Unit: "B", Better: "lower"},
	{Name: "storage.busy_ms", Unit: "ms/s", Better: "lower"},
	{Name: "controller.epoch_complete_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.preserved_tuples", Unit: "count", Better: "lower"},
	{Name: "buffer.replay_tuples", Unit: "count", Better: "lower"},
	{Name: "cluster.recover_reload_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.recover_diskio_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.recover_deserialize_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.recover_reconnect_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.replay_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.migrate_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.migrate_downtime_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.migrate_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.migrate_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.rescale_drain_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rescale_reshard_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rescale_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rescale_downtime_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.rescale_bytes", Unit: "B", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "reference.tps", Unit: "1/s", Better: "higher"},
	{Name: "trace.throughput_tps", Unit: "1/s", Better: "higher"},
	{Name: "trace.cpu_us_per_tuple", Unit: "us", Better: "lower"},
	{Name: "trace.latency_p99_ms", Unit: "ms", Better: "lower"},
}
