// Package placement owns where HAUs live and how they move. It models the
// cluster's failure-domain topology (racks / power domains, the same
// NodesPerRack geometry internal/failure samples correlated bursts from),
// provides pluggable placement policies — round-robin, rack-spread, and
// load-aware — and a rebalancer that watches per-node load with hysteresis
// and issues live migrations through the cluster layer.
//
// The design point follows the failure model (paper §II-B1): large bursts
// are rack- or power-aligned, so a placement that packs an application's
// HAUs into one failure domain turns a routine rack event into a
// whole-application outage. Rack-spread placement bounds the loss of any
// single-domain burst to ⌈HAUs/racks⌉.
package placement

// Topology maps worker-node indices onto failure domains. Nodes are
// numbered contiguously and racks are contiguous ranges of NodesPerRack
// nodes — identical to the geometry failure.Generate kills by, so a
// "rack" here is exactly the co-failure unit of the burst model.
type Topology struct {
	Nodes        int
	NodesPerRack int
}

// NewTopology returns the failure-domain geometry for a cluster.
// nodesPerRack <= 0 (or >= nodes) collapses to a single failure domain.
func NewTopology(nodes, nodesPerRack int) Topology {
	if nodes < 1 {
		nodes = 1
	}
	if nodesPerRack <= 0 || nodesPerRack > nodes {
		nodesPerRack = nodes
	}
	return Topology{Nodes: nodes, NodesPerRack: nodesPerRack}
}

// Racks returns the number of failure domains (the last may be partial).
func (t Topology) Racks() int {
	if t.NodesPerRack <= 0 {
		return 1
	}
	return (t.Nodes + t.NodesPerRack - 1) / t.NodesPerRack
}

// RackOf returns the failure domain of a node.
func (t Topology) RackOf(node int) int {
	if t.NodesPerRack <= 0 {
		return 0
	}
	return node / t.NodesPerRack
}
