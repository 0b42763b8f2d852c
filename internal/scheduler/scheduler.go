// Package scheduler implements FaaSFlow's Graph Scheduler (paper §4.1):
// the master-side component that partitions a workflow DAG into function
// groups and assigns each group to a worker node.
//
// The core is Algorithm 1 — greedy grouping along the critical path:
// repeatedly take the heaviest edge on the current critical path whose two
// endpoint groups can legally merge (capacity, in-memory quota, contention
// pairs) and merge them, bin-packing the merged group onto a worker. Edges
// internal to a group cost local-memory latency instead of network
// latency, so each merge reshapes the critical path and the loop converges
// when no critical edge can merge.
//
// The scheduler never executes anything: its output is a Placement that
// the per-worker engines deploy (red-black, §4.2.2).
package scheduler

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Input carries everything one partition iteration needs.
type Input struct {
	Graph *dag.Graph
	// ExecSeconds is the node cost model for critical-path computation
	// (virtual nodes should return 0).
	ExecSeconds func(dag.Node) float64
	// Scale maps each node to its average scaled instance count Scale(v);
	// missing entries default to 1. Multiplied by the node's foreach Width
	// to obtain container demand.
	Scale map[dag.NodeID]float64
	// Contention is the paper's cont(G): function-name pairs that must not
	// share a group.
	Contention [][2]string
	// Workers lists candidate worker node IDs.
	Workers []string
	// Cap is each worker's container capacity (the artifact's scale_limit,
	// or cluster.Node.Capacity()).
	Cap map[string]int
	// Quota is the workflow's in-memory storage budget Quota(G) in bytes;
	// localized edge payloads must fit inside it.
	Quota int64
	// RemoteBps and LocalBps translate edge bytes into critical-path
	// weights for cross-group and intra-group edges respectively.
	RemoteBps float64
	LocalBps  float64
	// Seed drives the initial hash assignment.
	Seed uint64
	// Bus, when attached, receives a PlacementEvent per decision. Workflow
	// and Now label the event (the scheduler itself is clock-free).
	Bus      *obs.Bus
	Workflow string
	Now      sim.Time
}

// publish emits the placement decision on the input's bus, if any.
func (in *Input) publish(p *Placement) {
	if !in.Bus.Active() {
		return
	}
	groups := make([]obs.PlacementGroup, len(p.Groups))
	for i, g := range p.Groups {
		groups[i] = obs.PlacementGroup{Worker: g.Worker, Nodes: len(g.Nodes), Demand: g.Demand}
	}
	in.Bus.Publish(obs.PlacementEvent{
		Workflow:       in.Workflow,
		Groups:         groups,
		Iterations:     p.Iterations,
		LocalizedBytes: p.LocalizedBytes,
		At:             in.Now,
	})
}

func (in *Input) defaults() error {
	if in.Graph == nil {
		return fmt.Errorf("scheduler: nil graph")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if len(in.Workers) == 0 {
		return fmt.Errorf("scheduler: no workers")
	}
	if in.ExecSeconds == nil {
		in.ExecSeconds = func(dag.Node) float64 { return 0 }
	}
	if in.RemoteBps <= 0 {
		in.RemoteBps = 50e6
	}
	if in.LocalBps <= 0 {
		in.LocalBps = 8e9
	}
	if in.Cap == nil {
		in.Cap = map[string]int{}
	}
	for _, w := range in.Workers {
		if _, ok := in.Cap[w]; !ok {
			in.Cap[w] = 1 << 30 // effectively unlimited
		}
	}
	return nil
}

// Group is one set of co-scheduled nodes.
type Group struct {
	Nodes  []dag.NodeID
	Worker string
	// Demand is the container demand Σ Scale(v)·Width(v) over task nodes.
	Demand float64
}

// Placement is the scheduler's output.
type Placement struct {
	Groups []Group
	// Worker maps every node to its assigned worker.
	Worker map[dag.NodeID]string
	// LocalizedBytes is the algorithm's mem_consume: the edge payload that
	// will live in worker memory.
	LocalizedBytes int64
	// Iterations counts merge attempts until convergence.
	Iterations int
}

// String renders the placement as one line per group:
// "group 0 on w2 (demand 5): fetch resize publish".
func (p *Placement) String() string {
	var sb strings.Builder
	for i, grp := range p.Groups {
		fmt.Fprintf(&sb, "group %d on %s (demand %.0f): %d node(s)\n",
			i, grp.Worker, grp.Demand, len(grp.Nodes))
	}
	fmt.Fprintf(&sb, "%d groups, %d localized bytes, %d iterations\n",
		len(p.Groups), p.LocalizedBytes, p.Iterations)
	return sb.String()
}

// LocalEdge reports whether an edge stays on one worker under p.
func (p *Placement) LocalEdge(e dag.Edge) bool {
	return p.Worker[e.From] == p.Worker[e.To]
}

// LocalityBytes reports how many of the graph's payload bytes travel
// worker-locally under p, and the total.
func (p *Placement) LocalityBytes(g *dag.Graph) (local, total int64) {
	for _, e := range g.Edges() {
		total += e.Bytes
		if p.LocalEdge(e) {
			local += e.Bytes
		}
	}
	return local, total
}

// Schedule runs Algorithm 1 and returns the placement. The caller's graph
// is not mutated; weight updates happen on a private clone.
func Schedule(in Input) (*Placement, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	in.Graph = in.Graph.Clone()
	s := newState(in)
	if err := s.feasible(); err != nil {
		return nil, err
	}
	// Pre-merge atomic steps: nodes sharing a WDL group label move as one.
	if err := s.mergeAtomicGroups(); err != nil {
		return nil, err
	}

	iterations := 0
	for {
		iterations++
		merged, err := s.mergeOnce()
		if err != nil {
			return nil, err
		}
		if !merged {
			break
		}
	}
	p := s.placement(iterations)
	in.publish(p)
	return p, nil
}

// HashPartition is the paper's first-iteration strategy (used before any
// runtime feedback exists) and the natural baseline for ablation: each
// atomic unit is hashed onto a worker with no locality reasoning.
func HashPartition(in Input) (*Placement, error) {
	if err := in.defaults(); err != nil {
		return nil, err
	}
	s := newState(in)
	if err := s.feasible(); err != nil {
		return nil, err
	}
	if err := s.mergeAtomicGroups(); err != nil {
		return nil, err
	}
	p := s.placement(1)
	in.publish(p)
	return p, nil
}

type state struct {
	in      Input
	g       *dag.Graph
	parent  []int // union-find
	demand  []float64
	worker  []string // per-root assignment
	capUsed map[string]float64
	// fns caches each root's function-name set for contention checks.
	fns        []map[string]bool
	memConsume int64
	rng        *sim.Rand
}

func newState(in Input) *state {
	g := in.Graph
	n := g.Len()
	s := &state{
		in:      in,
		g:       g,
		parent:  make([]int, n),
		demand:  make([]float64, n),
		worker:  make([]string, n),
		capUsed: map[string]float64{},
		fns:     make([]map[string]bool, n),
		rng:     sim.NewRand(in.Seed ^ 0x5bd1e995),
	}
	for i := 0; i < n; i++ {
		s.parent[i] = i
		node := g.Node(dag.NodeID(i))
		if node.Kind == dag.KindTask {
			scale := 1.0
			if v, ok := in.Scale[node.ID]; ok && v > 0 {
				scale = v
			}
			s.demand[i] = scale * float64(node.Width)
			s.fns[i] = map[string]bool{node.Function: true}
		} else {
			s.fns[i] = map[string]bool{}
		}
	}
	// Hash-based initial assignment (paper: random in Line 1, hash-based
	// first partition iteration), but never overload a worker and never
	// co-locate a contention pair when a feasible alternative exists.
	// Deterministic given the seed.
	for i := 0; i < n; i++ {
		start := s.rng.Intn(len(in.Workers))
		pick := ""
		for off := 0; off < len(in.Workers); off++ {
			w := in.Workers[(start+off)%len(in.Workers)]
			if s.capUsed[w]+s.demand[i] > float64(in.Cap[w])+1e-9 {
				continue
			}
			if s.workerContended(w, s.fns[i], i) {
				continue
			}
			pick = w
			break
		}
		if pick == "" {
			// Relax contention, keep capacity.
			for off := 0; off < len(in.Workers); off++ {
				w := in.Workers[(start+off)%len(in.Workers)]
				if s.capUsed[w]+s.demand[i] <= float64(in.Cap[w])+1e-9 {
					pick = w
					break
				}
			}
		}
		if pick == "" {
			pick = s.leastLoaded()
		}
		s.worker[i] = pick
		s.capUsed[pick] += s.demand[i]
	}
	return s
}

// workerContended reports whether placing a group with function set fns on
// worker w would co-locate a declared contention pair with a group already
// on w. exclude identifies roots that are moving (ignored in the scan).
func (s *state) workerContended(w string, fns map[string]bool, exclude ...int) bool {
	if len(s.in.Contention) == 0 {
		return false
	}
	skip := map[int]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	for i := 0; i < s.g.Len(); i++ {
		if s.find(i) != i || s.worker[i] != w || skip[i] {
			continue
		}
		for _, pair := range s.in.Contention {
			if (fns[pair[0]] && s.fns[i][pair[1]]) || (fns[pair[1]] && s.fns[i][pair[0]]) {
				return true
			}
		}
	}
	return false
}

func (s *state) find(i int) int {
	for s.parent[i] != i {
		s.parent[i] = s.parent[s.parent[i]]
		i = s.parent[i]
	}
	return i
}

// mergeAtomicGroups unions nodes that share a WDL step group label.
func (s *state) mergeAtomicGroups() error {
	byLabel := map[string][]int{}
	for i := 0; i < s.g.Len(); i++ {
		if lbl := s.g.Node(dag.NodeID(i)).Group; lbl != "" {
			byLabel[lbl] = append(byLabel[lbl], i)
		}
	}
	labels := make([]string, 0, len(byLabel))
	for lbl := range byLabel {
		labels = append(labels, lbl)
	}
	sort.Strings(labels)
	for _, lbl := range labels {
		ids := byLabel[lbl]
		for _, other := range ids[1:] {
			if err := s.union(s.find(ids[0]), s.find(other), true); err != nil {
				return fmt.Errorf("scheduler: atomic step %q cannot be grouped: %w", lbl, err)
			}
		}
	}
	return nil
}

// union merges two roots; force relaxes the capacity check (atomic steps
// must merge even when no worker has headroom, landing on the least-loaded
// worker), which is why mergeAtomicGroups uses it.
func (s *state) union(a, b int, force bool) error {
	if a == b {
		return nil
	}
	if err := s.unionChecked(a, b); err == nil {
		return nil
	} else if !force {
		return err
	}
	// Forced merge: release and place on the least-loaded worker.
	total := s.demand[a] + s.demand[b]
	s.capUsed[s.worker[a]] -= s.demand[a]
	s.capUsed[s.worker[b]] -= s.demand[b]
	w := s.leastLoaded()
	s.parent[b] = a
	s.demand[a] = total
	for fn := range s.fns[b] {
		s.fns[a][fn] = true
	}
	s.worker[a] = w
	s.capUsed[w] += total
	return nil
}

// feasible reports whether total demand fits total capacity at all.
func (s *state) feasible() error {
	var demand, capacity float64
	for i := 0; i < s.g.Len(); i++ {
		demand += s.demand[i]
	}
	for _, w := range s.in.Workers {
		capacity += float64(s.in.Cap[w])
	}
	if demand > capacity+1e-9 {
		return fmt.Errorf("scheduler: demand %.1f exceeds cluster capacity %.1f", demand, capacity)
	}
	return nil
}

// mergeOnce performs one Algorithm-1 iteration: walk the critical path's
// edges heaviest-first and merge the first legal pair. Reports whether a
// merge happened.
func (s *state) mergeOnce() (bool, error) {
	s.refreshWeights()
	path, _, err := s.g.CriticalPath(s.nodeCost)
	if err != nil {
		return false, err
	}
	edgeIdxs := s.g.CriticalEdges(path)
	sort.SliceStable(edgeIdxs, func(i, j int) bool {
		return s.g.Edge(edgeIdxs[i]).Bytes > s.g.Edge(edgeIdxs[j]).Bytes
	})
	for _, ei := range edgeIdxs {
		e := s.g.Edge(ei)
		ra, rb := s.find(int(e.From)), s.find(int(e.To))
		if ra == rb {
			continue
		}
		total := s.demand[ra] + s.demand[rb]
		if total > s.maxCap() {
			continue
		}
		crossBytes := s.crossBytes(ra, rb)
		if s.memConsume+crossBytes > s.in.Quota {
			continue
		}
		if s.contended(ra, rb) {
			continue
		}
		if err := s.unionChecked(ra, rb); err != nil {
			continue // no worker fits right now; try the next edge
		}
		s.memConsume += crossBytes
		return true, nil
	}
	return false, nil
}

func (s *state) maxCap() float64 {
	m := 0
	for _, w := range s.in.Workers {
		if s.in.Cap[w] > m {
			m = s.in.Cap[w]
		}
	}
	return float64(m)
}

// crossBytes sums payloads on edges between two roots — the bytes that
// become memory-resident when the groups merge.
func (s *state) crossBytes(ra, rb int) int64 {
	var sum int64
	for i := range s.g.NumEdges() {
		e := s.g.Edge(i)
		fa, fb := s.find(int(e.From)), s.find(int(e.To))
		if (fa == ra && fb == rb) || (fa == rb && fb == ra) {
			sum += e.Bytes
		}
	}
	return sum
}

// contended reports whether merging the two roots would co-locate a
// declared contention pair.
func (s *state) contended(ra, rb int) bool {
	for _, pair := range s.in.Contention {
		inA := s.fns[ra][pair[0]] || s.fns[rb][pair[0]]
		inB := s.fns[ra][pair[1]] || s.fns[rb][pair[1]]
		if inA && inB {
			// Only a problem when the pair spans the merge or sits in one
			// side already (pre-existing violation can't be introduced by
			// us, so check the spanning case).
			sameSideA := s.fns[ra][pair[0]] && s.fns[ra][pair[1]]
			sameSideB := s.fns[rb][pair[0]] && s.fns[rb][pair[1]]
			if !sameSideA && !sameSideB {
				return true
			}
		}
	}
	return false
}

// unionChecked merges two roots after the caller verified quota and
// contention; it still validates capacity via bin-packing.
func (s *state) unionChecked(a, b int) error {
	total := s.demand[a] + s.demand[b]
	// Release both groups' demands, then best-fit the merged demand.
	s.capUsed[s.worker[a]] -= s.demand[a]
	s.capUsed[s.worker[b]] -= s.demand[b]
	best := ""
	bestSlack := 0.0
	for _, w := range s.in.Workers {
		slack := float64(s.in.Cap[w]) - s.capUsed[w]
		if slack+1e-9 < total {
			continue
		}
		if s.workerContended(w, mergedFns(s.fns[a], s.fns[b]), a, b) {
			continue
		}
		if best == "" || slack < bestSlack {
			best, bestSlack = w, slack
		}
	}
	if best == "" {
		// Roll back the release.
		s.capUsed[s.worker[a]] += s.demand[a]
		s.capUsed[s.worker[b]] += s.demand[b]
		return fmt.Errorf("no worker fits demand %.1f", total)
	}
	s.parent[b] = a
	s.demand[a] = total
	for fn := range s.fns[b] {
		s.fns[a][fn] = true
	}
	s.worker[a] = best
	s.capUsed[best] += total
	return nil
}

// mergedFns unions two function sets without mutating either.
func mergedFns(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for fn := range a {
		out[fn] = true
	}
	for fn := range b {
		out[fn] = true
	}
	return out
}

func (s *state) leastLoaded() string {
	best := s.in.Workers[0]
	bestSlack := float64(s.in.Cap[best]) - s.capUsed[best]
	for _, w := range s.in.Workers[1:] {
		if slack := float64(s.in.Cap[w]) - s.capUsed[w]; slack > bestSlack {
			best, bestSlack = w, slack
		}
	}
	return best
}

// nodeCost returns the node's execution cost plus nothing; edge weights are
// supplied via effective transfer time in edgeWeight (CriticalPath uses
// stored Weight, so refresh them first).
func (s *state) nodeCost(n dag.Node) float64 {
	if n.Kind != dag.KindTask {
		return 0
	}
	return s.in.ExecSeconds(n)
}

// refreshWeights recomputes every edge's critical-path weight from its
// payload and current group locality.
func (s *state) refreshWeights() {
	for i := range s.g.NumEdges() {
		e := s.g.Edge(i)
		bps := s.in.RemoteBps
		if s.find(int(e.From)) == s.find(int(e.To)) {
			bps = s.in.LocalBps
		}
		s.g.SetEdgeWeight(i, float64(e.Bytes)/bps)
	}
}

func (s *state) placement(iterations int) *Placement {
	groups := map[int]*Group{}
	worker := make(map[dag.NodeID]string, s.g.Len())
	for i := 0; i < s.g.Len(); i++ {
		r := s.find(i)
		grp := groups[r]
		if grp == nil {
			grp = &Group{Worker: s.worker[r], Demand: s.demand[r]}
			groups[r] = grp
		}
		grp.Nodes = append(grp.Nodes, dag.NodeID(i))
		worker[dag.NodeID(i)] = s.worker[r]
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := &Placement{
		Worker:         worker,
		LocalizedBytes: s.memConsume,
		Iterations:     iterations,
	}
	for _, r := range roots {
		out.Groups = append(out.Groups, *groups[r])
	}
	return out
}
