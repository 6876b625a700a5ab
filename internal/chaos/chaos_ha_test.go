package chaos

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestChaosHASmoke runs the full schedule with hybrid fault-tolerance
// chaos enabled on every topology: each round arms an active standby on
// the topology's HA victim before its kill, recovery goes through the
// promote-or-rollback decision, and both oracles must still pass —
// including across any promotion boundary, where the standby's re-emitted
// ring overlaps the primary's last deliveries and downstream dedup must
// absorb the overlap.
func TestChaosHASmoke(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					HA:       true,
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				protected := false
				for _, rd := range res.RoundList {
					protected = protected || rd.Protected != ""
				}
				if !protected {
					t.Fatal("HA chaos enabled but no round armed a standby")
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosHAPrimaryKill forces every round onto the primary-kill
// instant: the burst plus the protected primary's node is killed, and
// HybridRecover must either promote the standby (when the burst spared
// every unprotected HAU) or roll the whole application back — exactly one
// of the two, with both oracles clean either way.
func TestChaosHAPrimaryKill(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					HA:       true,
					Points:   []InjectionPoint{KillHAPrimary},
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				for i, rd := range res.RoundList {
					if rd.Point != KillHAPrimary {
						t.Fatalf("round %d ran %s, want forced %s", i, rd.Point, KillHAPrimary)
					}
					if rd.Protected == "" || rd.PrimaryKill < 0 {
						t.Fatalf("round %d never killed a protected primary: %+v", i, rd)
					}
					if rd.Failovers == 0 && !rd.RolledBack {
						t.Fatalf("round %d neither promoted nor rolled back: %+v", i, rd)
					}
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosHAStandbyMidPromoteKill forces every round onto the
// standby-mid-promotion instant: the primary's node dies alone, a
// promotion starts, and the standby's node is killed synchronously at the
// promote step — the switchover loses the operator's only live copy and
// must abort, leaving whole-application rollback to heal everything. The
// mid-promotion kill can degrade (the burst of a previous step or
// co-location can pre-empt it), so the forced schedule must land it at
// least once per run, and every round must end healed with clean oracles.
func TestChaosHAStandbyMidPromoteKill(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					HA:       true,
					Points:   []InjectionPoint{KillHAStandbyMidPromote},
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				landed := false
				for i, rd := range res.RoundList {
					if rd.Point != KillHAStandbyMidPromote {
						t.Fatalf("round %d ran %s, want forced %s", i, rd.Point, KillHAStandbyMidPromote)
					}
					if rd.Protected == "" || rd.PrimaryKill < 0 {
						t.Fatalf("round %d never killed a protected primary: %+v", i, rd)
					}
					landed = landed || rd.StandbyKill >= 0
				}
				if !landed {
					t.Fatal("no round killed the standby mid-promotion")
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosHAReproducible pins seed replayability for HA mode: two runs
// with the same configuration must draw the identical kill schedule (the
// rng-driven parts — protection arming and failover outcomes depend on
// live placement, which timing can shift).
func TestChaosHAReproducible(t *testing.T) {
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
	cfg := Config{Topology: Chain, Seed: 7, Rounds: 3, HA: true}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := extract(a), extract(b); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("HA mode: same seed produced different schedules:\n%+v\n%+v", sa, sb)
	}
}

// TestChaosHAReplayCommand pins the replay invocation: an HA run's
// failure output must name the -ha flag, or the printed command would
// replay a different (smaller) sample space.
func TestChaosHAReplayCommand(t *testing.T) {
	res := &Result{Config: Config{Topology: Chain, Seed: 5, Rounds: 3, Nodes: 4, HA: true}}
	cmd := res.ReplayCommand()
	if !strings.Contains(cmd, " -ha") {
		t.Fatalf("replay command %q does not carry -ha", cmd)
	}
}
