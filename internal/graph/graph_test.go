package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// diamond builds the 5-node HAU graph from Fig. 6 of the paper:
// 1 -> 2 -> {3,4} -> 5.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"1", "2", "3", "4", "5"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("1", "2")
	g.MustAddEdge("2", "3")
	g.MustAddEdge("2", "4")
	g.MustAddEdge("3", "5")
	g.MustAddEdge("4", "5")
	return g
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	if err := g.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a"); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestAddNodeEmpty(t *testing.T) {
	if err := New().AddNode(""); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	if err := g.AddEdge("a", "x"); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	if err := g.AddEdge("x", "a"); err == nil {
		t.Fatal("edge from unknown node accepted")
	}
	if err := g.AddEdge("a", "a"); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b"); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if got := g.Sources(); len(got) != 1 || got[0] != "1" {
		t.Fatalf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != "5" {
		t.Fatalf("Sinks = %v", got)
	}
}

func TestDegreesAndNeighbours(t *testing.T) {
	g := diamond(t)
	if g.InDegree("5") != 2 || g.OutDegree("2") != 2 {
		t.Fatalf("degrees wrong: in(5)=%d out(2)=%d", g.InDegree("5"), g.OutDegree("2"))
	}
	up := g.Upstream("5")
	if len(up) != 2 || up[0] != "3" || up[1] != "4" {
		t.Fatalf("Upstream(5) = %v", up)
	}
	down := g.Downstream("2")
	if len(down) != 2 || down[0] != "3" || down[1] != "4" {
		t.Fatalf("Downstream(2) = %v", down)
	}
}

func TestPortOf(t *testing.T) {
	g := diamond(t)
	if p := g.PortOf("3", "5"); p != 0 {
		t.Fatalf("PortOf(3,5) = %d", p)
	}
	if p := g.PortOf("4", "5"); p != 1 {
		t.Fatalf("PortOf(4,5) = %d", p)
	}
	if p := g.PortOf("1", "5"); p != -1 {
		t.Fatalf("PortOf(1,5) = %d, want -1", p)
	}
}

func TestOutPortOf(t *testing.T) {
	g := diamond(t)
	if p := g.OutPortOf("2", "3"); p != 0 {
		t.Fatalf("OutPortOf(2,3) = %d", p)
	}
	if p := g.OutPortOf("2", "4"); p != 1 {
		t.Fatalf("OutPortOf(2,4) = %d", p)
	}
	if p := g.OutPortOf("1", "5"); p != -1 {
		t.Fatalf("OutPortOf(1,5) = %d, want -1", p)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Downstream(from) {
			if pos[from] >= pos[to] {
				t.Fatalf("order %v violates %s -> %s", order, from, to)
			}
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g := diamond(t)
	a, _ := g.TopoOrder()
	for i := 0; i < 10; i++ {
		b, _ := g.TopoOrder()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("nondeterministic topo order: %v vs %v", a, b)
			}
		}
	}
}

func TestCycleDetected(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddNode("c")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	g.MustAddEdge("c", "a")
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a cyclic graph")
	}
}

func TestValidate(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// An unreachable island: u -> v with no path from the sources of the
	// main component... u is itself a source, so build a node pair
	// reachable from nothing by giving it an in-edge from a cycle-free
	// island sink? Instead: node with in-edge only from itself is
	// impossible (self loops rejected). Use two islands where one has no
	// source at all: x <-> y would be a cycle. So test unreachability via
	// a lone sink node with an in-edge from a node that is its own
	// island's sink.
	g2 := diamond(t)
	g2.MustAddNode("island-a")
	g2.MustAddNode("island-b")
	g2.MustAddEdge("island-a", "island-b")
	// island-a is a source, so this is still valid.
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDepth(t *testing.T) {
	g := diamond(t)
	d, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"1": 0, "2": 1, "3": 2, "4": 2, "5": 3}
	for id, w := range want {
		if d[id] != w {
			t.Fatalf("Depth[%s] = %d, want %d", id, d[id], w)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustAddNode("new")
	c.MustAddEdge("5", "new")
	if g.Has("new") || g.OutDegree("5") != 0 {
		t.Fatal("clone mutation leaked into original")
	}
	if c.NumNodes() != g.NumNodes()+1 {
		t.Fatal("clone node count wrong")
	}
}

func TestNumEdges(t *testing.T) {
	g := diamond(t)
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
}

// randomDAG builds a random DAG by only adding edges from lower to higher
// indices, which guarantees acyclicity.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
		g.MustAddNode(ids[i])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(3) == 0 {
				g.MustAddEdge(ids[i], ids[j])
			}
		}
	}
	return g
}

func TestQuickTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(20))
		order, err := g.TopoOrder()
		if err != nil || len(order) != g.NumNodes() {
			return false
		}
		pos := map[string]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Downstream(from) {
				if pos[from] >= pos[to] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDepthMonotoneAlongEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r, 2+r.Intn(15))
		d, err := g.Depth()
		if err != nil {
			return false
		}
		for _, from := range g.Nodes() {
			for _, to := range g.Downstream(from) {
				if d[to] <= d[from] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRenamedPreservesPorts(t *testing.T) {
	g := New()
	for _, id := range []string{"S1", "S2", "M", "K"} {
		g.MustAddNode(id)
	}
	// Port order is the edge insertion order: S2 lands on M's port 0.
	g.MustAddEdge("S2", "M")
	g.MustAddEdge("S1", "M")
	g.MustAddEdge("M", "K")
	r := g.Renamed(func(id string) string { return "A/" + id })
	if r.NumNodes() != 4 || r.NumEdges() != 3 {
		t.Fatalf("renamed graph has %d nodes / %d edges", r.NumNodes(), r.NumEdges())
	}
	if got := r.PortOf("A/S2", "A/M"); got != 0 {
		t.Fatalf("A/S2 -> A/M port = %d, want 0", got)
	}
	if got := r.PortOf("A/S1", "A/M"); got != 1 {
		t.Fatalf("A/S1 -> A/M port = %d, want 1", got)
	}
	if got := r.Upstream("A/M"); len(got) != 2 || got[0] != "A/S2" || got[1] != "A/S1" {
		t.Fatalf("upstream of A/M = %v", got)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("renamed graph invalid: %v", err)
	}
	// The original is untouched.
	if !g.Has("S1") || g.Has("A/S1") {
		t.Fatal("Renamed mutated the receiver")
	}
}

func TestUnionDisjointApps(t *testing.T) {
	mk := func(prefix string) *Graph {
		g := New()
		g.MustAddNode(prefix + "S")
		g.MustAddNode(prefix + "K")
		g.MustAddEdge(prefix+"S", prefix+"K")
		return g
	}
	u, err := Union(mk("A/"), mk("B/"))
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 4 || u.NumEdges() != 2 {
		t.Fatalf("union has %d nodes / %d edges", u.NumNodes(), u.NumEdges())
	}
	// Two disjoint DAGs still form a valid query network: every node is
	// reachable from some source.
	if err := u.Validate(); err != nil {
		t.Fatalf("union invalid: %v", err)
	}
	if _, err := Union(mk("A/"), mk("A/")); err == nil {
		t.Fatal("union of overlapping graphs must fail")
	}
}
