package failure

import (
	"testing"
	"time"
)

func TestNodeDowntimeMergesOverlaps(t *testing.T) {
	events := []Event{
		{At: 0, Nodes: []int{0}, Recovery: 10 * time.Minute},
		{At: 5 * time.Minute, Nodes: []int{0}, Recovery: 10 * time.Minute}, // overlaps
		{At: time.Hour, Nodes: []int{1}, Recovery: 30 * time.Minute},
	}
	down := NodeDowntime(events, 3, 2*time.Hour)
	if down[0] != 15*time.Minute {
		t.Fatalf("node0 downtime = %v, want 15m (merged)", down[0])
	}
	if down[1] != 30*time.Minute {
		t.Fatalf("node1 downtime = %v", down[1])
	}
	if down[2] != 0 {
		t.Fatalf("node2 downtime = %v", down[2])
	}
}

func TestNodeDowntimeClampsToHorizon(t *testing.T) {
	events := []Event{{At: 50 * time.Minute, Nodes: []int{0}, Recovery: time.Hour}}
	down := NodeDowntime(events, 1, time.Hour)
	if down[0] != 10*time.Minute {
		t.Fatalf("downtime = %v, want clamped 10m", down[0])
	}
}

func TestApplicationDowntime1Safe(t *testing.T) {
	events := []Event{
		{At: 0, Nodes: []int{0}, Recovery: time.Hour},                         // maskable
		{At: 2 * time.Hour, Nodes: nodeRange(0, 80), Recovery: 3 * time.Hour}, // rack burst
	}
	// 1-safe scheme: the single-node event is masked for free, the rack
	// burst takes the app down for its full recovery.
	if d := ApplicationDowntime(events, 1, 0, 24*time.Hour); d != 3*time.Hour {
		t.Fatalf("1-safe downtime = %v, want 3h", d)
	}
	// Meteor Shower: both events are survivable; downtime is two fast
	// recoveries.
	if d := ApplicationDowntime(events, 1<<30, 10*time.Second, 24*time.Hour); d != 20*time.Second {
		t.Fatalf("MS downtime = %v, want 20s", d)
	}
}

func TestApplicationAvailabilityOrdersSchemes(t *testing.T) {
	// Over a realistic Google-model year, Meteor Shower's availability
	// must dominate a 1-safe scheme's, because rack/power bursts dominate
	// the downtime and only MS masks them.
	events := Generate(GoogleDC(), 2400, Year, 7)
	oneSafe := ApplicationAvailability(events, 1, 10*time.Second, Year)
	ms := ApplicationAvailability(events, 1<<30, 30*time.Second, Year)
	if ms <= oneSafe {
		t.Fatalf("MS availability %.6f not above 1-safe %.6f", ms, oneSafe)
	}
	if ms < 0.99 {
		t.Fatalf("MS availability %.6f unrealistically low", ms)
	}
	if oneSafe > 0.999 {
		t.Fatalf("1-safe availability %.6f unrealistically high given burst rates", oneSafe)
	}
}

func TestApplicationDowntimeEmpty(t *testing.T) {
	if ApplicationDowntime(nil, 1, 0, time.Hour) != 0 {
		t.Fatal("empty trace has downtime")
	}
	if ApplicationAvailability(nil, 1, 0, 0) != 0 {
		t.Fatal("degenerate horizon availability must be 0")
	}
}
