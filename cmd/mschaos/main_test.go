package main

import (
	"reflect"
	"strings"
	"testing"

	"meteorshower/internal/chaos"
	"meteorshower/internal/failure"
	"meteorshower/internal/spe"
)

// TestReplayCommandRoundTrip checks that a failing run's replay line
// re-selects its whole configuration: with every flagged Config field set
// away from its default, parsing the printed arguments with mschaos's own
// flags must give back the same Config.
func TestReplayCommandRoundTrip(t *testing.T) {
	want := chaos.Config{
		Topology:     chaos.FanOut,
		Seed:         99,
		Rounds:       7,
		Nodes:        9,
		Scheme:       spe.MSSrcAPU,
		Profile:      failure.AbeCluster(),
		SourceLimit:  123,
		Placement:    "rackspread",
		NodesPerRack: 3,
		Migrations:   true,
		Rescales:     true,
		Rebalances:   true,
		Elastic:      true,
		HA:           true,
	}
	// Logf and Points have no flag; every other field must be set, so a
	// field added without a flag fails here.
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name != "Logf" && name != "Points" && v.Field(i).IsZero() {
			t.Fatalf("Config.%s is unset in the round-trip config", name)
		}
	}

	cmd := (&chaos.Result{Config: want}).ReplayCommand()
	const prefix = "go run ./cmd/mschaos "
	if !strings.HasPrefix(cmd, prefix) {
		t.Fatalf("replay command %q lacks %q", cmd, prefix)
	}
	got, tops, _, err := parseFlags(strings.Fields(strings.TrimPrefix(cmd, prefix)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 1 {
		t.Fatalf("replay selects topologies %v, want one", tops)
	}
	got.Topology = tops[0]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay %q parses to\n%+v\nwant\n%+v", cmd, got, want)
	}
}
