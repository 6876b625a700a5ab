package main

import "testing"

func TestClosedFormCountMatchesReferenceRun(t *testing.T) {
	for _, c := range []struct {
		phones int
		limit  uint64
	}{{1, 10}, {3, 50}, {40, 400}, {40, 40}} {
		got, _, err := referenceRun(tmiConfig(workload{phones: c.phones}, c.limit, 7))
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedDeliveries(c.phones, c.limit); got != want {
			t.Errorf("phones=%d limit=%d: reference delivered %d, closed form %d", c.phones, c.limit, got, want)
		}
	}
}
