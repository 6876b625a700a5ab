package failure

import (
	"sort"
	"time"
)

// Availability analytics over a failure trace: given the events (each with
// affected nodes and a recovery duration), compute per-node downtime and
// cluster-level availability. This turns Table I's rates into the
// service-level numbers an operator cares about, and quantifies why
// 1-safety is not enough: a k-safe scheme masks events affecting <= k
// nodes, so its visible downtime shrinks as k grows — but only a scheme
// that survives whole-burst failures masks the rack and power events that
// dominate the trace.

// Interval is a closed-open downtime interval for some set of nodes.
type Interval struct {
	Start time.Duration
	End   time.Duration
	Nodes int // how many nodes were down
}

// NodeDowntime returns each node's total downtime over the horizon,
// overlapping events merged per node.
func NodeDowntime(events []Event, nNodes int, horizon time.Duration) []time.Duration {
	type iv struct{ s, e time.Duration }
	perNode := make([][]iv, nNodes)
	for _, ev := range events {
		end := ev.At + ev.Recovery
		if end > horizon {
			end = horizon
		}
		for _, n := range ev.Nodes {
			if n >= 0 && n < nNodes {
				perNode[n] = append(perNode[n], iv{ev.At, end})
			}
		}
	}
	out := make([]time.Duration, nNodes)
	for n, ivs := range perNode {
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		curS, curE := ivs[0].s, ivs[0].e
		for _, v := range ivs[1:] {
			if v.s <= curE {
				if v.e > curE {
					curE = v.e
				}
				continue
			}
			out[n] += curE - curS
			curS, curE = v.s, v.e
		}
		out[n] += curE - curS
	}
	return out
}

// ApplicationDowntime returns how long an application is unavailable under
// a fault-tolerance scheme that masks failures affecting at most
// maskableNodes nodes simultaneously. Any event larger than that takes the
// application down for the event's recovery duration (overlaps merged).
// maskableNodes = 1 models the classic 1-safe schemes the paper critiques;
// a large value models Meteor Shower's whole-application rollback, whose
// downtime is its recovery time instead (pass recoveryPerEvent).
func ApplicationDowntime(events []Event, maskableNodes int, recoveryPerEvent time.Duration, horizon time.Duration) time.Duration {
	type iv struct{ s, e time.Duration }
	var ivs []iv
	for _, ev := range events {
		var end time.Duration
		if len(ev.Nodes) > maskableNodes {
			end = ev.At + ev.Recovery // unmaskable: down until nodes return
		} else if recoveryPerEvent > 0 {
			end = ev.At + recoveryPerEvent // masked, but pay recovery time
		} else {
			continue
		}
		if end > horizon {
			end = horizon
		}
		if end > ev.At {
			ivs = append(ivs, iv{ev.At, end})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total time.Duration
	curS, curE := ivs[0].s, ivs[0].e
	for _, v := range ivs[1:] {
		if v.s <= curE {
			if v.e > curE {
				curE = v.e
			}
			continue
		}
		total += curE - curS
		curS, curE = v.s, v.e
	}
	total += curE - curS
	return total
}

// ApplicationAvailability is 1 - ApplicationDowntime/horizon.
func ApplicationAvailability(events []Event, maskableNodes int, recoveryPerEvent, horizon time.Duration) float64 {
	if horizon <= 0 {
		return 0
	}
	d := ApplicationDowntime(events, maskableNodes, recoveryPerEvent, horizon)
	return 1 - float64(d)/float64(horizon)
}
