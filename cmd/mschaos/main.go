// Command mschaos runs the seed-replayable chaos harness: correlated
// burst kills injected at adversarial instants against a live simulated
// cluster, with whole-application recovery checked by the exactly-once
// sequence oracle and the reference-replay state oracle.
//
//	mschaos -seed 42                      # one run, chain topology
//	mschaos -topology all -seed 42        # every topology, same seed
//	mschaos -seed 42 -rounds 5 -nodes 6   # a longer, wider schedule
//	mschaos -seed 42 -placement rackspread -migrate
//	                                      # rack-spread placement + live-migration chaos
//	mschaos -seed 42 -placement rackspread -rescale
//	                                      # re-partition chaos: live splits/merges + mid-rescale kills
//	mschaos -seed 42 -placement rackspread -rebalance
//	                                      # hot-slot rebalance chaos: weighted slot moves + mid-rebalance kills
//	mschaos -seed 42 -elastic             # elasticity chaos: grow/drain cycles + mid-scale-in kills
//	mschaos -seed 42 -ha                  # hybrid fault tolerance: active standby on the victim + failover instants
//
// A failing run exits non-zero and prints the exact command that replays
// its schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"meteorshower/internal/chaos"
	"meteorshower/internal/failure"
)

func main() {
	base, tops, verbose, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	failed := false
	for _, top := range tops {
		cfg := base
		cfg.Topology = top
		if verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Printf("[%s] "+format+"\n", append([]any{top}, args...)...)
			}
		}
		res, err := chaos.Run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mschaos: %v\n", err)
			failed = true
			continue
		}
		fmt.Println(res)
		if err := res.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			failed = true
			continue
		}
		for _, rec := range res.Recoveries {
			fmt.Printf("  recovery epoch=%d haus=%d reload=%s diskio=%s deserialize=%s reconnect=%s total=%s replay=%s\n",
				rec.Epoch, rec.HAUs, rec.Reload, rec.DiskIO, rec.Deserialize, rec.Reconnect, rec.Total, rec.ReplayFetch)
		}
		for _, rs := range res.RescaleList {
			fmt.Printf("  rescale %s %d->%d bytes=%d drain=%s reshard=%s restore=%s downtime=%s\n",
				rs.HAU, rs.From, rs.To, rs.Bytes, rs.Drain, rs.Reshard, rs.Restore, rs.Downtime)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseFlags parses mschaos's command line into the run configuration
// (Topology left unset), the topologies to run it on and the -v setting.
// Result.ReplayCommand prints the flags this reads.
func parseFlags(args []string) (cfg chaos.Config, tops []chaos.Topology, verbose bool, err error) {
	fs := flag.NewFlagSet("mschaos", flag.ExitOnError)
	var (
		topology = fs.String("topology", "chain", `topology: "chain", "fanin", "fanout" or "all"`)
		scheme   = fs.String("scheme", "ms-src+ap", "checkpoint scheme: ms-src | ms-src+ap | ms-src+ap+aa | ms-src+ap+unaligned")
		abe      = fs.Bool("abe", false, "sample bursts from the Abe cluster profile instead of Google's DC")
	)
	fs.Int64Var(&cfg.Seed, "seed", 1, "schedule seed; a failing seed replays the identical schedule")
	fs.IntVar(&cfg.Rounds, "rounds", 3, "kill/recover rounds per run")
	fs.IntVar(&cfg.Nodes, "nodes", 4, "worker nodes")
	fs.Uint64Var(&cfg.SourceLimit, "limit", 60, "tuple ids emitted per source")
	fs.BoolVar(&verbose, "v", false, "log per-round progress")
	fs.StringVar(&cfg.Placement, "placement", "", `placement policy: "roundrobin", "rackspread" or "loadaware" ("" = cluster default)`)
	fs.IntVar(&cfg.NodesPerRack, "nodes-per-rack", 0, "failure-domain geometry (0 = one rack)")
	fs.BoolVar(&cfg.Migrations, "migrate", false, "enable live-migration chaos, including the mid-migration kill instant")
	fs.BoolVar(&cfg.Rescales, "rescale", false, "enable re-partition chaos: clean splits/merges plus the mid-rescale kill instant")
	fs.BoolVar(&cfg.Rebalances, "rebalance", false, "enable hot-slot rebalance chaos: clean weighted slot moves plus the mid-rebalance kill instant")
	fs.BoolVar(&cfg.Elastic, "elastic", false, "enable fleet-elasticity chaos: clean grow/drain cycles plus the mid-scale-in and scale-in-destination kill instants")
	fs.BoolVar(&cfg.HA, "ha", false, "enable hybrid fault-tolerance chaos: an active standby on each topology's HA victim, hybrid promote-or-rollback recovery, plus the primary-kill and standby-mid-promotion instants")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits the command

	if cfg.Scheme, err = chaos.ParseScheme(*scheme); err != nil {
		return cfg, nil, false, err
	}
	cfg.Profile = failure.GoogleDC()
	if *abe {
		cfg.Profile = failure.AbeCluster()
	}
	if *topology == "all" {
		tops = chaos.Topologies
	} else {
		tops = []chaos.Topology{chaos.Topology(*topology)}
	}
	return cfg, tops, verbose, nil
}
