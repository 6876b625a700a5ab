// Package graph models the query network of a stream application: a
// directed acyclic graph whose vertices are HAUs (High Availability Units)
// and whose edges are data streams (paper §II-A).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a mutable DAG of named HAUs. The zero value is not usable; call
// New. Mutation is not goroutine-safe; the runtime treats a validated graph
// as immutable.
type Graph struct {
	nodes map[string]bool
	out   map[string][]string
	in    map[string][]string
}

// New returns an empty query network.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]bool),
		out:   make(map[string][]string),
		in:    make(map[string][]string),
	}
}

// AddNode registers an HAU id. Adding the same id twice is an error so that
// application builders catch copy-paste mistakes early.
func (g *Graph) AddNode(id string) error {
	if id == "" {
		return errors.New("graph: empty node id")
	}
	if g.nodes[id] {
		return fmt.Errorf("graph: duplicate node %q", id)
	}
	g.nodes[id] = true
	return nil
}

// MustAddNode is AddNode for static application topologies.
func (g *Graph) MustAddNode(id string) {
	if err := g.AddNode(id); err != nil {
		panic(err)
	}
}

// AddEdge registers a stream from -> to. Both endpoints must exist and the
// edge must be new.
func (g *Graph) AddEdge(from, to string) error {
	if !g.nodes[from] {
		return fmt.Errorf("graph: edge from unknown node %q", from)
	}
	if !g.nodes[to] {
		return fmt.Errorf("graph: edge to unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on %q", from)
	}
	for _, d := range g.out[from] {
		if d == to {
			return fmt.Errorf("graph: duplicate edge %q -> %q", from, to)
		}
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
	return nil
}

// MustAddEdge is AddEdge for static application topologies.
func (g *Graph) MustAddEdge(from, to string) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// Has reports whether id is a node of g.
func (g *Graph) Has(id string) bool { return g.nodes[id] }

// Nodes returns all node ids in deterministic (sorted) order.
func (g *Graph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ds := range g.out {
		n += len(ds)
	}
	return n
}

// Upstream returns the ids with an edge into id, in insertion order. The
// index of an upstream in this slice is the HAU's input port number.
func (g *Graph) Upstream(id string) []string {
	return append([]string(nil), g.in[id]...)
}

// Downstream returns the ids that id has an edge to, in insertion order.
// The index of a downstream in this slice is the HAU's output port number.
func (g *Graph) Downstream(id string) []string {
	return append([]string(nil), g.out[id]...)
}

// InDegree returns the number of input streams of id.
func (g *Graph) InDegree(id string) int { return len(g.in[id]) }

// OutDegree returns the number of output streams of id.
func (g *Graph) OutDegree(id string) int { return len(g.out[id]) }

// Sources returns nodes with no upstream neighbours, sorted.
func (g *Graph) Sources() []string {
	var ids []string
	for id := range g.nodes {
		if len(g.in[id]) == 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Sinks returns nodes with no downstream neighbours, sorted.
func (g *Graph) Sinks() []string {
	var ids []string
	for id := range g.nodes {
		if len(g.out[id]) == 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// TopoOrder returns a topological ordering of the nodes, or an error if the
// graph contains a cycle. Ties are broken lexicographically so the order is
// deterministic.
func (g *Graph) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for id := range g.nodes {
		indeg[id] = len(g.in[id])
	}
	var ready []string
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	order := make([]string, 0, len(g.nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []string
		for _, d := range g.out[id] {
			indeg[d]--
			if indeg[d] == 0 {
				unlocked = append(unlocked, d)
			}
		}
		sort.Strings(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(order) != len(g.nodes) {
		return nil, errors.New("graph: cycle detected")
	}
	return order, nil
}

// Validate checks that the graph is a well-formed query network: non-empty,
// acyclic, has at least one source and one sink, and every node is
// reachable from some source (no disconnected islands that would never see
// a token).
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return errors.New("graph: empty")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	srcs := g.Sources()
	if len(srcs) == 0 {
		return errors.New("graph: no source")
	}
	if len(g.Sinks()) == 0 {
		return errors.New("graph: no sink")
	}
	seen := make(map[string]bool)
	var stack []string
	stack = append(stack, srcs...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		stack = append(stack, g.out[id]...)
	}
	if len(seen) != len(g.nodes) {
		for _, id := range g.Nodes() {
			if !seen[id] {
				return fmt.Errorf("graph: node %q unreachable from any source", id)
			}
		}
	}
	return nil
}

// Clone returns an independent deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	for id := range g.nodes {
		c.nodes[id] = true
	}
	for id, ds := range g.out {
		c.out[id] = append([]string(nil), ds...)
	}
	for id, us := range g.in {
		c.in[id] = append([]string(nil), us...)
	}
	return c
}

// Renamed returns a deep copy of g with every node id passed through f.
// Edge insertion order — and therefore every input and output port index —
// is preserved, which a rebuild through the public AddNode/AddEdge API
// could not guarantee (Nodes() sorts). The cluster layer uses it to
// namespace an application's HAU ids when several applications share one
// fleet. f must be injective over g's node ids.
func (g *Graph) Renamed(f func(string) string) *Graph {
	c := New()
	for id := range g.nodes {
		c.nodes[f(id)] = true
	}
	for id, ds := range g.out {
		rds := make([]string, len(ds))
		for i, d := range ds {
			rds[i] = f(d)
		}
		c.out[f(id)] = rds
	}
	for id, us := range g.in {
		rus := make([]string, len(us))
		for i, u := range us {
			rus[i] = f(u)
		}
		c.in[f(id)] = rus
	}
	return c
}

// Union returns a new graph containing every node and edge of the given
// graphs. The inputs must have disjoint node id sets; a duplicate id
// returns an error. Per-node edge order (port indices) is preserved.
func Union(gs ...*Graph) (*Graph, error) {
	c := New()
	for _, g := range gs {
		for id := range g.nodes {
			if c.nodes[id] {
				return nil, fmt.Errorf("graph: union: duplicate node %q", id)
			}
			c.nodes[id] = true
		}
		for id, ds := range g.out {
			c.out[id] = append([]string(nil), ds...)
		}
		for id, us := range g.in {
			c.in[id] = append([]string(nil), us...)
		}
	}
	return c, nil
}

// PortOf returns the input port index on `to` that carries the stream from
// `from`, or -1 if no such edge exists.
func (g *Graph) PortOf(from, to string) int {
	for i, u := range g.in[to] {
		if u == from {
			return i
		}
	}
	return -1
}

// OutPortOf returns the output port index on `from` that carries the
// stream to `to`, or -1 if no such edge exists.
func (g *Graph) OutPortOf(from, to string) int {
	for i, d := range g.out[from] {
		if d == to {
			return i
		}
	}
	return -1
}

// Depth returns, per node, the length of the longest path from any source
// to that node. Sources have depth 0. Useful for estimating cascading token
// propagation time (MS-src checkpoints proceed in token order, §IV-B).
func (g *Graph) Depth() (map[string]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make(map[string]int, len(order))
	for _, id := range order {
		d := 0
		for _, u := range g.in[id] {
			if depth[u]+1 > d {
				d = depth[u] + 1
			}
		}
		depth[id] = d
	}
	return depth, nil
}

func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
