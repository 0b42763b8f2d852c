// Package wdl implements FaaSFlow's Workflow Definition Language (paper
// §4.1.1): a declarative description of a serverless workflow that the
// Graph Scheduler's DAG Parser compiles into a dag.Graph.
//
// A definition is YAML (via the yamlite subset parser) or JSON with this
// shape:
//
//	name: video-pipeline
//	default_output: 1048576        # bytes a task sends each successor
//	steps:
//	  - name: split
//	    type: task                 # optional when function is present
//	    function: splitter
//	    output: 4194304
//	  - name: transcode
//	    type: foreach
//	    width: 4
//	    steps:
//	      - name: chunk
//	        function: transcoder
//	  - name: merge
//	    type: parallel
//	    branches:
//	      - steps: [...]
//	      - steps: [...]
//	  - name: choose
//	    type: switch
//	    choices:
//	      - condition: "$quality > 720"
//	        steps: [...]
//	  - name: upload
//	    function: uploader
//
// Top-level steps run as a sequence. Parallel, switch and foreach steps are
// bracketed by virtual start/end nodes that keep the step atomic during
// graph partitioning; per the paper, switch branches are provisioned like
// parallel branches (containers are kept for every branch), so the parser
// treats them identically and records the condition as metadata only.
package wdl

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/dag"
	"repro/internal/wdl/yamlite"
)

// Workflow is a compiled workflow definition.
type Workflow struct {
	Name  string
	Graph *dag.Graph
	// Conditions maps a switch step name to its branch condition
	// expressions, in branch order.
	Conditions map[string][]string
	// DefaultOutput is the fallback per-edge payload in bytes.
	DefaultOutput int64
}

// Error describes a semantic problem in a workflow definition.
type Error struct {
	Step string
	Msg  string
}

func (e *Error) Error() string {
	if e.Step == "" {
		return "wdl: " + e.Msg
	}
	return fmt.Sprintf("wdl: step %q: %s", e.Step, e.Msg)
}

// Parse compiles a YAML workflow definition.
func Parse(src string) (*Workflow, error) {
	root, err := yamlite.ParseMap(src)
	if err != nil {
		return nil, err
	}
	return compileRoot(root)
}

// ParseJSON compiles a JSON workflow definition with the same schema.
func ParseJSON(src []byte) (*Workflow, error) {
	var raw any
	dec := json.NewDecoder(strings.NewReader(string(src)))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("wdl: invalid JSON: %w", err)
	}
	root, ok := normalizeJSON(raw).(map[string]any)
	if !ok {
		return nil, &Error{Msg: "JSON root must be an object"}
	}
	return compileRoot(root)
}

// normalizeJSON converts json.Number values into the int64/float64 shapes
// the compiler shares with yamlite.
func normalizeJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			x[k] = normalizeJSON(vv)
		}
		return x
	case []any:
		for i, vv := range x {
			x[i] = normalizeJSON(vv)
		}
		return x
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
	default:
		return v
	}
}

type compiler struct {
	g          *dag.Graph
	outBytes   map[dag.NodeID]int64
	names      map[string]bool
	conditions map[string][]string
	defaultOut int64
	anon       int
}

func compileRoot(root map[string]any) (*Workflow, error) {
	name, _ := yamlite.String(root, "name")
	if name == "" {
		return nil, &Error{Msg: "workflow is missing a name"}
	}
	for key := range root {
		switch key {
		case "name", "default_output", "steps":
		default:
			return nil, &Error{Msg: fmt.Sprintf("unknown top-level key %q", key)}
		}
	}
	steps, ok := yamlite.Seq(root, "steps")
	if !ok || len(steps) == 0 {
		return nil, &Error{Msg: "workflow has no steps"}
	}
	c := &compiler{
		g:          dag.New(name),
		outBytes:   map[dag.NodeID]int64{},
		names:      map[string]bool{},
		conditions: map[string][]string{},
	}
	if d, ok := yamlite.Int(root, "default_output"); ok {
		if d < 0 {
			return nil, &Error{Msg: "default_output must be non-negative"}
		}
		c.defaultOut = d
	}
	if _, _, err := c.compileSequence(steps, "steps"); err != nil {
		return nil, err
	}
	c.propagateVirtualBytes()
	if err := c.g.Validate(); err != nil {
		return nil, err
	}
	return &Workflow{
		Name:          name,
		Graph:         c.g,
		Conditions:    c.conditions,
		DefaultOutput: c.defaultOut,
	}, nil
}

// connect wires every exit to every entry, carrying the exit node's output
// payload. Edges leaving virtual nodes get their payloads in a final
// propagation pass (propagateVirtualBytes) once the whole graph exists.
func (c *compiler) connect(exits, entries []dag.NodeID) {
	for _, u := range exits {
		for _, v := range entries {
			c.g.Connect(u, v, c.outBytes[u])
		}
	}
}

// propagateVirtualBytes resolves payloads through virtual markers so data
// volumes survive pass-through nodes: a virtual start broadcasts what it
// received, a virtual end aggregates what its branches produced. Runs in
// topological order, so chains of virtual nodes resolve too.
func (c *compiler) propagateVirtualBytes() {
	order, err := c.g.TopoSort()
	if err != nil {
		return // Validate reports the cycle to the caller.
	}
	for _, id := range order {
		if c.g.Node(id).Kind != dag.KindVirtual {
			continue
		}
		var in int64
		for _, ei := range c.g.InEdges(id) {
			in += c.g.Edge(ei).Bytes
		}
		for _, ei := range c.g.OutEdges(id) {
			c.g.SetEdgeBytes(ei, in)
		}
	}
}

// compileSequence compiles a list of steps chained head-to-tail and returns
// the first step's entries and the last step's exits.
func (c *compiler) compileSequence(steps []any, ctx string) (entries, exits []dag.NodeID, err error) {
	for i, raw := range steps {
		sm, ok := raw.(map[string]any)
		if !ok {
			return nil, nil, &Error{Step: ctx, Msg: fmt.Sprintf("step %d is not a mapping", i+1)}
		}
		en, ex, err := c.compileStep(sm)
		if err != nil {
			return nil, nil, err
		}
		if entries == nil {
			entries = en
		} else {
			c.connect(exits, en)
		}
		exits = ex
	}
	return entries, exits, nil
}

func (c *compiler) stepName(sm map[string]any, typ string) (string, error) {
	name, ok := yamlite.String(sm, "name")
	if !ok || name == "" {
		c.anon++
		name = fmt.Sprintf("%s-%d", typ, c.anon)
	}
	if c.names[name] {
		return "", &Error{Step: name, Msg: "duplicate step name"}
	}
	c.names[name] = true
	return name, nil
}

func (c *compiler) compileStep(sm map[string]any) (entries, exits []dag.NodeID, err error) {
	typ, _ := yamlite.String(sm, "type")
	if typ == "" {
		if _, hasFn := yamlite.String(sm, "function"); hasFn {
			typ = "task"
		} else {
			return nil, nil, &Error{Msg: "step has neither type nor function"}
		}
	}
	switch typ {
	case "task":
		return c.compileTask(sm)
	case "sequence":
		name, err := c.stepName(sm, "sequence")
		if err != nil {
			return nil, nil, err
		}
		steps, ok := yamlite.Seq(sm, "steps")
		if !ok || len(steps) == 0 {
			return nil, nil, &Error{Step: name, Msg: "sequence has no steps"}
		}
		return c.compileSequence(steps, name)
	case "parallel":
		return c.compileBranches(sm, "parallel", "branches", nil)
	case "switch":
		return c.compileSwitch(sm)
	case "foreach":
		return c.compileForeach(sm)
	default:
		name, _ := yamlite.String(sm, "name")
		return nil, nil, &Error{Step: name, Msg: fmt.Sprintf("unknown step type %q", typ)}
	}
}

func (c *compiler) compileTask(sm map[string]any) ([]dag.NodeID, []dag.NodeID, error) {
	name, err := c.stepName(sm, "task")
	if err != nil {
		return nil, nil, err
	}
	fn, ok := yamlite.String(sm, "function")
	if !ok || fn == "" {
		return nil, nil, &Error{Step: name, Msg: "task is missing a function"}
	}
	out := c.defaultOut
	if v, ok := yamlite.Int(sm, "output"); ok {
		if v < 0 {
			return nil, nil, &Error{Step: name, Msg: "output must be non-negative"}
		}
		out = v
	}
	id := c.g.AddTask(name, fn)
	c.outBytes[id] = out
	return []dag.NodeID{id}, []dag.NodeID{id}, nil
}

// compileBranches compiles a parallel-shaped step: virtual start, a set of
// branch sub-sequences, virtual end. conditions, when non-nil, receives the
// per-branch condition strings (switch steps).
func (c *compiler) compileBranches(sm map[string]any, typ, listKey string, conditions *[]string) ([]dag.NodeID, []dag.NodeID, error) {
	name, err := c.stepName(sm, typ)
	if err != nil {
		return nil, nil, err
	}
	branches, ok := yamlite.Seq(sm, listKey)
	if !ok || len(branches) == 0 {
		return nil, nil, &Error{Step: name, Msg: fmt.Sprintf("%s has no %s", typ, listKey)}
	}
	first := dag.NodeID(c.g.Len())
	start := c.g.AddVirtual(name + ":start")
	end := c.g.AddVirtual(name + ":end")
	for i, raw := range branches {
		bm, ok := raw.(map[string]any)
		if !ok {
			return nil, nil, &Error{Step: name, Msg: fmt.Sprintf("branch %d is not a mapping", i+1)}
		}
		var cond string
		if conditions != nil {
			cond, _ = yamlite.String(bm, "condition")
			*conditions = append(*conditions, cond)
		}
		steps, ok := yamlite.Seq(bm, "steps")
		if !ok || len(steps) == 0 {
			return nil, nil, &Error{Step: name, Msg: fmt.Sprintf("branch %d has no steps", i+1)}
		}
		en, ex, err := c.compileSequence(steps, fmt.Sprintf("%s[%d]", name, i))
		if err != nil {
			return nil, nil, err
		}
		firstEdge := c.g.NumEdges()
		c.connect([]dag.NodeID{start}, en)
		if conditions != nil {
			// Stamp the branch's entry edges with its condition so the
			// engine can pick one branch at runtime.
			for ei := firstEdge; ei < c.g.NumEdges(); ei++ {
				c.g.SetEdgeCond(ei, cond)
			}
		}
		c.connect(ex, []dag.NodeID{end})
	}
	c.markGroup(first, name)
	return []dag.NodeID{start}, []dag.NodeID{end}, nil
}

func (c *compiler) compileSwitch(sm map[string]any) ([]dag.NodeID, []dag.NodeID, error) {
	var conds []string
	en, ex, err := c.compileBranches(sm, "switch", "choices", &conds)
	if err != nil {
		return nil, nil, err
	}
	// The start node's name is "<step>:start"; recover the step name.
	stepName := strings.TrimSuffix(c.g.Node(en[0]).Name, ":start")
	c.conditions[stepName] = conds
	return en, ex, nil
}

func (c *compiler) compileForeach(sm map[string]any) ([]dag.NodeID, []dag.NodeID, error) {
	name, err := c.stepName(sm, "foreach")
	if err != nil {
		return nil, nil, err
	}
	width := 1
	if v, ok := yamlite.Int(sm, "width"); ok {
		if v <= 0 {
			return nil, nil, &Error{Step: name, Msg: "width must be positive"}
		}
		width = int(v)
	}
	steps, ok := yamlite.Seq(sm, "steps")
	if !ok || len(steps) == 0 {
		return nil, nil, &Error{Step: name, Msg: "foreach has no steps"}
	}
	first := dag.NodeID(c.g.Len())
	start := c.g.AddVirtual(name + ":start")
	end := c.g.AddVirtual(name + ":end")
	en, ex, err := c.compileSequence(steps, name)
	if err != nil {
		return nil, nil, err
	}
	c.connect([]dag.NodeID{start}, en)
	c.connect(ex, []dag.NodeID{end})
	// Mark every task inside the foreach with its data-plane width: the
	// control-plane node maps to `width` executors at runtime (Map(v)).
	last := dag.NodeID(c.g.Len())
	for id := first; id < last; id++ {
		n := c.g.Node(id)
		if n.Kind == dag.KindTask && n.Foreach == false {
			c.setForeach(id, width)
		}
	}
	c.markGroup(first, name)
	return []dag.NodeID{start}, []dag.NodeID{end}, nil
}

// setForeach marks a node as a foreach executor of the given width.
func (c *compiler) setForeach(id dag.NodeID, width int) {
	// dag.Graph has no direct setter for Foreach; rebuild via SetWidth plus
	// the foreach flag maintained on the node. We reach in through the
	// exported mutators only.
	c.g.SetWidth(id, width)
	c.g.MarkForeach(id)
}

// markGroup stamps every node added since firstID with the atomic group
// label. Outer composite steps stamp after inner ones, so the outermost
// step owns the final label — exactly the atomicity the paper needs when
// partitioning (a foreach containing a parallel moves as one unit).
func (c *compiler) markGroup(firstID dag.NodeID, group string) {
	last := dag.NodeID(c.g.Len())
	for id := firstID; id < last; id++ {
		c.g.SetGroup(id, group)
	}
}
