package chaos

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestChaosElasticSmoke runs the full schedule with fleet-elasticity chaos
// enabled on every topology: each round either performs a clean
// grow-then-drain cycle before its kill or draws one of the mid-scale-in
// instants, and both oracles must still pass.
func TestChaosElasticSmoke(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					Elastic:  true,
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				churned := false
				for _, rd := range res.RoundList {
					churned = churned || rd.Added >= 0 || rd.Drained >= 0
				}
				if !churned {
					t.Fatal("elastic chaos enabled but no round churned the fleet")
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosMidScaleInKill forces every round onto the mid-scale-in
// instant: a node is added, another starts draining its HAUs off via live
// migration, and the burst plus the draining node itself is killed while
// moves are in flight. The drain must abort or have retired the node, and
// the whole-application recovery must re-place each HAU exactly once —
// the exactly-once and state-equivalence oracles check that the draining
// node's HAUs are neither lost nor double-recovered.
func TestChaosMidScaleInKill(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					Elastic:  true,
					Points:   []InjectionPoint{KillMidScaleIn},
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				for i, rd := range res.RoundList {
					if rd.Point != KillMidScaleIn {
						t.Fatalf("round %d ran %s, want forced %s", i, rd.Point, KillMidScaleIn)
					}
					if rd.Drained < 0 || rd.DrainKill < 0 {
						t.Fatalf("round %d recorded no mid-drain kill: %+v", i, rd)
					}
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosScaleInDestKill forces every round onto the scale-in
// destination-kill instant: a drain starts and the burst plus the
// DESTINATION node of its in-flight migration is killed — the handoff
// target vanishes mid-move. The migration and the drain must abort (or
// the freshly-landed HAU must recover) without breaking either oracle.
func TestChaosScaleInDestKill(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					Elastic:  true,
					Points:   []InjectionPoint{KillScaleInDest},
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				for i, rd := range res.RoundList {
					if rd.Point != KillScaleInDest {
						t.Fatalf("round %d ran %s, want forced %s", i, rd.Point, KillScaleInDest)
					}
					if rd.Drained < 0 || rd.DestKill < 0 {
						t.Fatalf("round %d recorded no destination kill: %+v", i, rd)
					}
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosElasticReproducible pins seed replayability for elastic mode:
// two runs with the same configuration must draw the identical kill
// schedule. (Drain victims are picked from the live placement, which
// timing can shift, so only the rng-driven parts are pinned — the victim
// draw consumes a fixed number of draws either way.)
func TestChaosElasticReproducible(t *testing.T) {
	type schedule struct {
		Burst       []int
		SecondBurst []int
		Point       InjectionPoint
		ExtraKill   int
	}
	extract := func(res *Result) []schedule {
		out := make([]schedule, 0, len(res.RoundList))
		for _, rd := range res.RoundList {
			out = append(out, schedule{rd.Burst, rd.SecondBurst, rd.Point, rd.ExtraKill})
		}
		return out
	}
	cfg := Config{Topology: FanIn, Seed: 11, Rounds: 3, Elastic: true}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := extract(a), extract(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("elastic mode: same seed produced different schedules:\n%+v\n%+v", sa, sb)
	}
}

// TestChaosElasticReplayCommand pins the replay invocation: an elastic
// run's failure output must name the -elastic flag, or the printed command
// would replay a different (smaller) sample space.
func TestChaosElasticReplayCommand(t *testing.T) {
	res := &Result{Config: Config{Topology: Chain, Seed: 5, Rounds: 3, Nodes: 4, Elastic: true}}
	cmd := res.ReplayCommand()
	if !strings.Contains(cmd, " -elastic") {
		t.Fatalf("replay command %q does not carry -elastic", cmd)
	}
}
