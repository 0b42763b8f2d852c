package dag

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// diamond builds a -> {b, c} -> d with unit payloads.
func diamond() (*Graph, [4]NodeID) {
	g := New("diamond")
	a := g.AddTask("a", "fa")
	b := g.AddTask("b", "fb")
	c := g.AddTask("c", "fc")
	d := g.AddTask("d", "fd")
	g.Connect(a, b, 100)
	g.Connect(a, c, 200)
	g.Connect(b, d, 300)
	g.Connect(c, d, 400)
	return g, [4]NodeID{a, b, c, d}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New("g")
	for i := 0; i < 5; i++ {
		id := g.AddTask("n", "f")
		if int(id) != i {
			t.Fatalf("node %d got ID %d", i, id)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
}

func TestWidthDefaultsToOne(t *testing.T) {
	g := New("g")
	id := g.AddNode(Node{Name: "x", Kind: KindTask})
	if g.Node(id).Width != 1 {
		t.Fatalf("Width = %d, want 1", g.Node(id).Width)
	}
}

func TestSuccsPreds(t *testing.T) {
	g, n := diamond()
	succs := g.Succs(n[0])
	if len(succs) != 2 || succs[0] != n[1] || succs[1] != n[2] {
		t.Fatalf("Succs(a) = %v", succs)
	}
	preds := g.Preds(n[3])
	if len(preds) != 2 || preds[0] != n[1] || preds[1] != n[2] {
		t.Fatalf("Preds(d) = %v", preds)
	}
	if g.InDegree(n[0]) != 0 || g.OutDegree(n[0]) != 2 {
		t.Fatal("degree mismatch for source")
	}
	if g.InDegree(n[3]) != 2 || g.OutDegree(n[3]) != 0 {
		t.Fatal("degree mismatch for sink")
	}
}

// TestOutEdgeMatchesOutEdges: the non-copying accessor walks the same
// edge indexes, in the same order, as the copying one, and OutEdges still
// hands out a copy.
func TestOutEdgeMatchesOutEdges(t *testing.T) {
	g, n := diamond()
	for _, id := range n {
		want := g.OutEdges(id)
		if len(want) != g.OutDegree(id) {
			t.Fatalf("node %d: OutEdges has %d entries, OutDegree %d", id, len(want), g.OutDegree(id))
		}
		for i, ei := range want {
			if got := g.OutEdge(id, i); got != ei {
				t.Fatalf("node %d: OutEdge(%d) = %d, OutEdges has %d", id, i, got, ei)
			}
		}
	}
	g.OutEdges(n[0])[0] = 99
	if g.OutEdge(n[0], 0) != 0 {
		t.Fatal("writing to the OutEdges result changed the graph")
	}
}

func TestSourcesSinks(t *testing.T) {
	g, n := diamond()
	src := g.Sources()
	if len(src) != 1 || src[0] != n[0] {
		t.Fatalf("Sources = %v", src)
	}
	snk := g.Sinks()
	if len(snk) != 1 || snk[0] != n[3] {
		t.Fatalf("Sinks = %v", snk)
	}
}

func TestTopoSortDiamond(t *testing.T) {
	g, n := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("topo order violates edge %d->%d: %v", e.From, e.To, order)
		}
	}
	if order[0] != n[0] || order[len(order)-1] != n[3] {
		t.Fatalf("order = %v", order)
	}
}

func TestCycleDetected(t *testing.T) {
	g := New("cyc")
	a := g.AddTask("a", "f")
	b := g.AddTask("b", "f")
	c := g.AddTask("c", "f")
	g.Connect(a, b, 0)
	g.Connect(b, c, 0)
	g.Connect(c, a, 0)
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Fatalf("TopoSort err = %v, want ErrCycle", err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate err = %v, want ErrCycle", err)
	}
}

func TestValidateEmpty(t *testing.T) {
	g := New("empty")
	if err := g.Validate(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Validate err = %v, want ErrEmpty", err)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	g := New("g")
	a := g.AddTask("a", "f")
	defer func() {
		if recover() == nil {
			t.Error("self-loop did not panic")
		}
	}()
	g.Connect(a, a, 0)
}

func TestUnknownEdgeEndpointPanics(t *testing.T) {
	g := New("g")
	a := g.AddTask("a", "f")
	defer func() {
		if recover() == nil {
			t.Error("edge to unknown node did not panic")
		}
	}()
	g.Connect(a, NodeID(99), 0)
}

func TestNegativePayloadPanics(t *testing.T) {
	g := New("g")
	a := g.AddTask("a", "f")
	b := g.AddTask("b", "f")
	defer func() {
		if recover() == nil {
			t.Error("negative payload did not panic")
		}
	}()
	g.Connect(a, b, -1)
}

func TestCriticalPathPicksHeavierBranch(t *testing.T) {
	g, n := diamond()
	// Node costs 1s each; branch via c has heavier edges (200+400 weight).
	es := g.Edges()
	for i := range es {
		g.SetEdgeWeight(i, float64(es[i].Bytes))
	}
	path, length, err := g.CriticalPath(func(nd Node) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{n[0], n[2], n[3]}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if length != 1+200+1+400+1 {
		t.Fatalf("length = %v, want 603", length)
	}
}

func TestCriticalEdges(t *testing.T) {
	g, n := diamond()
	path := []NodeID{n[0], n[1], n[3]}
	idx := g.CriticalEdges(path)
	if len(idx) != 2 {
		t.Fatalf("CriticalEdges = %v", idx)
	}
	es := g.Edges()
	if es[idx[0]].From != n[0] || es[idx[0]].To != n[1] || es[idx[1]].From != n[1] || es[idx[1]].To != n[3] {
		t.Fatalf("wrong edges: %v", idx)
	}
}

func TestTotalBytes(t *testing.T) {
	g, _ := diamond()
	if got := g.TotalBytes(); got != 1000 {
		t.Fatalf("TotalBytes = %d, want 1000", got)
	}
}

func TestTaskCountSkipsVirtual(t *testing.T) {
	g := New("g")
	g.AddTask("a", "f")
	g.AddVirtual("start")
	g.AddTask("b", "f")
	if g.TaskCount() != 2 {
		t.Fatalf("TaskCount = %d, want 2", g.TaskCount())
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, n := diamond()
	cp := g.Clone()
	cp.SetEdgeWeight(0, 999)
	cp.SetWidth(n[0], 7)
	if g.Edges()[0].Weight == 999 {
		t.Fatal("edge weight mutation leaked into original")
	}
	if g.Node(n[0]).Width == 7 {
		t.Fatal("width mutation leaked into original")
	}
	extra := cp.AddTask("x", "f")
	cp.Connect(n[3], extra, 1)
	if g.Len() == cp.Len() {
		t.Fatal("clone node append affected original length")
	}
}

func TestSetWidthValidation(t *testing.T) {
	g, n := diamond()
	g.SetWidth(n[0], 4)
	if g.Node(n[0]).Width != 4 {
		t.Fatal("SetWidth did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetWidth(0) did not panic")
		}
	}()
	g.SetWidth(n[0], 0)
}

func TestKindString(t *testing.T) {
	if KindTask.String() != "task" || KindVirtual.String() != "virtual" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind = %q", Kind(9).String())
	}
}

// randomDAG builds a random DAG: edges only from lower to higher IDs, so it
// is acyclic by construction.
func randomDAG(seed uint64, n int) *Graph {
	rng := sim.NewRand(seed)
	g := New("rand")
	for i := 0; i < n; i++ {
		g.AddTask("n", "f")
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				g.AddEdge(Edge{From: NodeID(i), To: NodeID(j), Bytes: int64(rng.Intn(1000)), Weight: rng.Float64()})
			}
		}
	}
	return g
}

// Property: TopoSort of a forward-edge random DAG is a valid topological
// order covering every node exactly once.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		g := randomDAG(seed, n)
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := make([]int, n)
		seen := make([]bool, n)
		for i, id := range order {
			if seen[id] {
				return false
			}
			seen[id] = true
			pos[id] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the critical path length is >= the length of any single
// source-to-sink chain we can greedily construct, and the path itself is a
// connected chain of edges.
func TestCriticalPathProperty(t *testing.T) {
	cost := func(nd Node) float64 { return 1 }
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%25) + 2
		g := randomDAG(seed, n)
		path, length, err := g.CriticalPath(cost)
		if err != nil {
			return false
		}
		// Path must be a chain of real edges.
		for i := 0; i+1 < len(path); i++ {
			found := false
			for _, s := range g.Succs(path[i]) {
				if s == path[i+1] {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		// Recompute the path's own length; must equal reported length.
		sum := 0.0
		for _, id := range path {
			sum += cost(g.Node(id))
		}
		for _, ei := range g.CriticalEdges(path) {
			sum += g.Edges()[ei].Weight
		}
		if diff := sum - length; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		// Greedy heaviest-successor walk can never beat the critical path.
		cur := NodeID(0)
		walk := cost(g.Node(cur))
		for {
			edges := g.OutEdges(cur)
			if len(edges) == 0 {
				break
			}
			best, bestW := -1, -1.0
			for _, ei := range edges {
				if w := g.Edges()[ei].Weight; w > bestW {
					bestW, best = w, ei
				}
			}
			e := g.Edges()[best]
			walk += e.Weight + cost(g.Node(e.To))
			cur = e.To
		}
		return walk <= length+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone produces a structurally identical graph.
func TestClonePropertyEqual(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		g := randomDAG(seed, n)
		cp := g.Clone()
		if cp.Len() != g.Len() || cp.NumEdges() != g.NumEdges() {
			return false
		}
		ge, ce := g.Edges(), cp.Edges()
		for i := range ge {
			if ge[i] != ce[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopoSort200(b *testing.B) {
	g := randomDAG(1, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPath200(b *testing.B) {
	g := randomDAG(1, 200)
	cost := func(nd Node) float64 { return 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.CriticalPath(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDOT(t *testing.T) {
	g := New("viz")
	a := g.AddTask("fetch", "ffetch")
	vs := g.AddVirtual("p:start")
	b := g.AddTask("work", "fwork")
	g.SetWidth(b, 4)
	g.MarkForeach(b)
	g.Connect(a, vs, 2<<20)
	g.Connect(vs, b, 2<<20)
	idx := g.NumEdges() - 1
	g.SetEdgeCond(idx, "$x > 1")
	dot := g.DOT()
	for _, want := range []string{
		"digraph \"viz\"", "shape=box", "shape=diamond", `fetch\\nffetch`,
		"×4", "n0 -> n1", "style=dashed", "2.1MB",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Balanced braces, terminated.
	if !strings.HasSuffix(dot, "}\n") {
		t.Error("DOT not terminated")
	}
}
