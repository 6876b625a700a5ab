package chaos

import (
	"context"
	"testing"

	"meteorshower/internal/spe"
)

// TestChaosUnalignedSmoke is the unaligned-checkpoint chaos gate: the full
// default schedule on every topology across three seeds, with the
// mid-channel-log instant in the sample space. Both the exactly-once
// sequence oracle and the reference-replay state oracle must hold when
// recovery restores operator snapshots AND replays logged channel tuples.
func TestChaosUnalignedSmoke(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					Scheme:   spe.MSSrcAPU,
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				if len(res.Recoveries) == 0 {
					t.Fatal("no recovery timings recorded")
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosUnalignedMidChannelLogKill forces every round onto the
// mid-channel-log instant: a checkpoint is triggered and the burst lands
// while unaligned captures are still logging in-flight channel tuples, so
// the store holds epochs with a partial set of channel-section blobs.
// Recovery must use a complete epoch (replaying its channel state) or fall
// back past the torn one without breaking either oracle.
func TestChaosUnalignedMidChannelLogKill(t *testing.T) {
	for _, top := range Topologies {
		for seed := int64(1); seed <= 3; seed++ {
			top, seed := top, seed
			t.Run(string(top)+"/seed="+string(rune('0'+seed)), func(t *testing.T) {
				res, err := Run(context.Background(), Config{
					Topology: top,
					Seed:     seed,
					Scheme:   spe.MSSrcAPU,
					Points:   []InjectionPoint{KillMidChannelLog},
				})
				if err != nil {
					t.Fatalf("harness: %v", err)
				}
				if err := res.Err(); err != nil {
					t.Fatal(err)
				}
				t.Logf("%s", res)
			})
		}
	}
}

// TestChaosUnalignedReplayCommand pins the replay invariant: a failing
// unaligned run must print a command that re-selects the unaligned scheme,
// or the schedule (whose sample space includes mid-channel-log) could not
// replay.
func TestChaosUnalignedReplayCommand(t *testing.T) {
	r := &Result{Config: Config{Topology: Chain, Seed: 7, Rounds: 3, Nodes: 4, Scheme: spe.MSSrcAPU}}
	cmd := r.ReplayCommand()
	want := "go run ./cmd/mschaos -topology chain -seed 7 -rounds 3 -nodes 4 -scheme ms-src+ap+unaligned"
	if cmd != want {
		t.Fatalf("replay command = %q, want %q", cmd, want)
	}
	if s, err := ParseScheme("unaligned"); err != nil || s != spe.MSSrcAPU {
		t.Fatalf("ParseScheme(unaligned) = %v, %v", s, err)
	}
	if s, err := ParseScheme(SchemeFlag(spe.MSSrcAPU)); err != nil || s != spe.MSSrcAPU {
		t.Fatalf("SchemeFlag round-trip = %v, %v", s, err)
	}
}
