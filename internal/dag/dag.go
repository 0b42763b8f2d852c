// Package dag implements the workflow graph model used throughout FaaSFlow:
// directed acyclic graphs whose nodes are function invocation steps and
// whose edges carry data-transfer weights (the 99%-ile transfer latency the
// paper's DAG parser records) and payload sizes.
//
// The graph distinguishes real task nodes from the virtual start/end nodes
// the parser inserts around parallel, switch and foreach steps (§4.1.1);
// virtual nodes participate in triggering but never execute a function and
// must stay atomic with their step when the scheduler partitions the graph.
package dag

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0,
// in insertion order.
type NodeID int

// Kind classifies a node.
type Kind int

const (
	// KindTask is a real function invocation.
	KindTask Kind = iota
	// KindVirtual is a parser-inserted start/end marker; it triggers its
	// successors instantly and runs no function.
	KindVirtual
)

func (k Kind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindVirtual:
		return "virtual"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a workflow step.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	// Function names the function spec this node invokes (empty for
	// virtual nodes). Several nodes may invoke the same function.
	Function string
	// Group names the atomic step this node belongs to (the parser keeps
	// a parallel/switch/foreach step atomic across partitioning). Empty
	// for plain task nodes.
	Group string
	// Foreach marks nodes inside a foreach step: the control-plane node
	// fans out to Width data-plane executors at runtime.
	Foreach bool
	// Width is the number of data-plane executors a foreach node maps to
	// (the paper's Map(v)); 1 for every other node.
	Width int
}

// Edge is a data dependency between two nodes.
type Edge struct {
	From, To NodeID
	// Bytes is the payload carried along this edge per invocation.
	Bytes int64
	// Weight is the edge cost used by the scheduler's critical-path
	// grouping: the observed 99%-ile transfer latency in seconds. Before
	// runtime feedback exists it defaults to Bytes at reference bandwidth.
	Weight float64
	// Cond is a switch-branch condition expression; empty on ordinary
	// edges. Conditional edges out of one node form its switch: at
	// runtime the first edge whose condition holds is taken and the rest
	// are skipped (when the invocation carries arguments — without
	// arguments every branch runs, the paper's provisioning behaviour).
	Cond string
}

// Graph is a mutable DAG. Build it with AddNode/AddEdge, then Validate.
type Graph struct {
	Name  string
	nodes []Node
	edges []Edge
	succ  [][]int // node -> indexes into edges
	pred  [][]int
}

// New returns an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

// AddNode appends a node and returns its ID. The node's ID field is set by
// the graph; any value in n.ID is ignored. Width defaults to 1.
func (g *Graph) AddNode(n Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	if n.Width <= 0 {
		n.Width = 1
	}
	g.nodes = append(g.nodes, n)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return n.ID
}

// AddTask is shorthand for adding a task node invoking function fn.
func (g *Graph) AddTask(name, fn string) NodeID {
	return g.AddNode(Node{Name: name, Kind: KindTask, Function: fn})
}

// AddVirtual is shorthand for adding a virtual marker node.
func (g *Graph) AddVirtual(name string) NodeID {
	return g.AddNode(Node{Name: name, Kind: KindVirtual})
}

// AddEdge appends a dependency edge. Self-loops panic immediately; cycles
// through longer paths are caught by Validate.
func (g *Graph) AddEdge(e Edge) {
	if !g.valid(e.From) || !g.valid(e.To) {
		panic(fmt.Sprintf("dag: edge %d->%d references unknown node", e.From, e.To))
	}
	if e.From == e.To {
		panic(fmt.Sprintf("dag: self-loop on node %d", e.From))
	}
	if e.Bytes < 0 {
		panic(fmt.Sprintf("dag: negative payload on edge %d->%d", e.From, e.To))
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.succ[e.From] = append(g.succ[e.From], idx)
	g.pred[e.To] = append(g.pred[e.To], idx)
}

// Connect is shorthand for AddEdge with a byte payload and zero weight.
func (g *Graph) Connect(from, to NodeID, bytes int64) {
	g.AddEdge(Edge{From: from, To: to, Bytes: bytes})
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// Len reports the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID. It panics on unknown IDs.
func (g *Graph) Node(id NodeID) Node {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: unknown node %d", id))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in ID order. The slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edge returns edge i (an index from OutEdges or InEdges) without copying
// the edge list.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns all edges. The slice is a copy.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// SetEdgeBytes updates the payload size of edge i.
func (g *Graph) SetEdgeBytes(i int, b int64) {
	if b < 0 {
		panic("dag: negative payload")
	}
	g.edges[i].Bytes = b
}

// SetEdgeCond attaches a switch condition to edge i.
func (g *Graph) SetEdgeCond(i int, cond string) {
	g.edges[i].Cond = cond
}

// SetEdgeWeight updates the scheduler weight of edge i (runtime feedback).
func (g *Graph) SetEdgeWeight(i int, w float64) {
	g.edges[i].Weight = w
}

// SetWidth updates a node's foreach fan-out width (runtime feedback of the
// paper's Map(v) metric).
func (g *Graph) SetWidth(id NodeID, w int) {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: unknown node %d", id))
	}
	if w <= 0 {
		panic("dag: width must be positive")
	}
	g.nodes[id].Width = w
}

// MarkForeach flags a node as a foreach data-plane executor.
func (g *Graph) MarkForeach(id NodeID) {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: unknown node %d", id))
	}
	g.nodes[id].Foreach = true
}

// SetGroup stamps a node with its atomic partitioning group.
func (g *Graph) SetGroup(id NodeID, group string) {
	if !g.valid(id) {
		panic(fmt.Sprintf("dag: unknown node %d", id))
	}
	g.nodes[id].Group = group
}

// Succs returns the successor node IDs of id, in edge insertion order.
func (g *Graph) Succs(id NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.succ[id]))
	for _, ei := range g.succ[id] {
		out = append(out, g.edges[ei].To)
	}
	return out
}

// Preds returns the predecessor node IDs of id, in edge insertion order.
func (g *Graph) Preds(id NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.pred[id]))
	for _, ei := range g.pred[id] {
		out = append(out, g.edges[ei].From)
	}
	return out
}

// OutEdges returns indexes (into Edges()) of the edges leaving id.
func (g *Graph) OutEdges(id NodeID) []int {
	out := make([]int, len(g.succ[id]))
	copy(out, g.succ[id])
	return out
}

// OutEdge returns the index of id's i-th out-edge (0 <= i < OutDegree(id)),
// in insertion order. Hot loops use it instead of OutEdges, which copies.
func (g *Graph) OutEdge(id NodeID, i int) int { return g.succ[id][i] }

// InEdges returns indexes of the edges entering id.
func (g *Graph) InEdges(id NodeID) []int {
	out := make([]int, len(g.pred[id]))
	copy(out, g.pred[id])
	return out
}

// InDegree reports the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.pred[id]) }

// OutDegree reports the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.succ[id]) }

// Sources returns the IDs of nodes with no predecessors.
func (g *Graph) Sources() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.pred[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Sinks returns the IDs of nodes with no successors.
func (g *Graph) Sinks() []NodeID {
	var out []NodeID
	for i := range g.nodes {
		if len(g.succ[i]) == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// ErrCycle is returned by Validate and TopoSort when the graph contains a
// directed cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// ErrEmpty is returned by Validate for a graph with no nodes.
var ErrEmpty = errors.New("dag: graph has no nodes")

// TopoSort returns the node IDs in a topological order (Kahn's algorithm,
// deterministic: ties broken by node ID).
func (g *Graph) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	// Min-ID-first ready set for determinism.
	var ready []NodeID
	for i := range g.nodes {
		if indeg[i] == 0 {
			ready = append(ready, NodeID(i))
		}
	}
	order := make([]NodeID, 0, len(g.nodes))
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool { return ready[a] < ready[b] })
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, ei := range g.succ[id] {
			to := g.edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate checks structural invariants: non-empty and acyclic.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return ErrEmpty
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// CriticalPath returns the longest path through the DAG, where path length
// is the sum of node costs plus edge weights, together with its total
// length. nodeCost maps a node to its cost in the same unit as edge
// weights (typically seconds of execution time); virtual nodes should cost
// zero. The returned slice lists node IDs source→sink.
func (g *Graph) CriticalPath(nodeCost func(Node) float64) ([]NodeID, float64, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	dist := make([]float64, len(g.nodes))
	from := make([]NodeID, len(g.nodes))
	for i := range from {
		from[i] = -1
	}
	for _, id := range order {
		cost := nodeCost(g.nodes[id])
		dist[id] += cost
		for _, ei := range g.succ[id] {
			e := g.edges[ei]
			cand := dist[id] + e.Weight
			if cand > dist[e.To] || (cand == dist[e.To] && from[e.To] == -1) {
				dist[e.To] = cand
				from[e.To] = id
			}
		}
	}
	best := NodeID(0)
	for i := range g.nodes {
		if dist[i] > dist[best] {
			best = NodeID(i)
		}
	}
	var path []NodeID
	for id := best; id != -1; id = from[id] {
		path = append(path, id)
	}
	// Reverse into source→sink order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[best], nil
}

// CriticalEdges returns the indexes of the edges along the given path.
func (g *Graph) CriticalEdges(path []NodeID) []int {
	var out []int
	for i := 0; i+1 < len(path); i++ {
		for _, ei := range g.succ[path[i]] {
			if g.edges[ei].To == path[i+1] {
				out = append(out, ei)
				break
			}
		}
	}
	return out
}

// TotalBytes reports the sum of payload bytes over all edges — the data a
// single invocation moves when every edge crosses the network (the paper's
// Figure 5 FaaS-mode number).
func (g *Graph) TotalBytes() int64 {
	var sum int64
	for _, e := range g.edges {
		sum += e.Bytes
	}
	return sum
}

// TaskCount reports the number of real task nodes.
func (g *Graph) TaskCount() int {
	n := 0
	for _, nd := range g.nodes {
		if nd.Kind == KindTask {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{Name: g.Name}
	cp.nodes = append([]Node(nil), g.nodes...)
	cp.edges = append([]Edge(nil), g.edges...)
	cp.succ = make([][]int, len(g.succ))
	cp.pred = make([][]int, len(g.pred))
	for i := range g.succ {
		cp.succ[i] = append([]int(nil), g.succ[i]...)
		cp.pred[i] = append([]int(nil), g.pred[i]...)
	}
	return cp
}

// DOT renders the graph in Graphviz dot syntax. Task nodes are boxes
// labeled "name\nfunction"; virtual markers are small diamonds; edges are
// labeled with their payload in MB (omitted when zero) and conditions.
func (g *Graph) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [fontsize=11];\n", g.Name)
	for _, n := range g.nodes {
		switch n.Kind {
		case KindVirtual:
			fmt.Fprintf(&sb, "  n%d [shape=diamond, width=0.3, height=0.3, label=\"\", tooltip=%q];\n", n.ID, n.Name)
		default:
			label := n.Name
			if n.Function != "" {
				label += "\\n" + n.Function
			}
			if n.Width > 1 {
				label += fmt.Sprintf("\\n×%d", n.Width)
			}
			fmt.Fprintf(&sb, "  n%d [shape=box, label=%q];\n", n.ID, label)
		}
	}
	for _, e := range g.edges {
		var attrs []string
		if e.Bytes > 0 {
			attrs = append(attrs, fmt.Sprintf("label=%q", fmt.Sprintf("%.2gMB", float64(e.Bytes)/1e6)))
		}
		if e.Cond != "" {
			attrs = append(attrs, fmt.Sprintf("style=dashed, tooltip=%q", e.Cond))
		}
		if len(attrs) > 0 {
			fmt.Fprintf(&sb, "  n%d -> n%d [%s];\n", e.From, e.To, strings.Join(attrs, ", "))
		} else {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", e.From, e.To)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
