package wdl

import (
	"strings"
	"testing"

	"repro/internal/dag"
)

const videoWDL = `
name: video-pipeline
default_output: 1000
steps:
  - name: split
    function: splitter
    output: 4000
  - name: transcode
    type: foreach
    width: 4
    steps:
      - name: chunk
        function: transcoder
        output: 2000
  - name: merge
    function: merger
`

func mustParse(t *testing.T, src string) *Workflow {
	t.Helper()
	wf, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return wf
}

func nodeByName(t *testing.T, g *dag.Graph, name string) dag.Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not found", name)
	return dag.Node{}
}

func TestSimpleSequence(t *testing.T) {
	wf := mustParse(t, `
name: seq
steps:
  - name: a
    function: f1
    output: 10
  - name: b
    function: f2
`)
	g := wf.Graph
	if g.Len() != 2 || g.NumEdges() != 1 {
		t.Fatalf("len=%d edges=%d", g.Len(), g.NumEdges())
	}
	e := g.Edges()[0]
	if e.Bytes != 10 {
		t.Fatalf("edge bytes = %d, want 10", e.Bytes)
	}
	a := nodeByName(t, g, "a")
	if a.Function != "f1" || a.Kind != dag.KindTask {
		t.Fatalf("a = %+v", a)
	}
}

func TestDefaultOutputApplied(t *testing.T) {
	wf := mustParse(t, `
name: seq
default_output: 777
steps:
  - name: a
    function: f1
  - name: b
    function: f2
`)
	if wf.Graph.Edges()[0].Bytes != 777 {
		t.Fatalf("edge bytes = %d, want default 777", wf.Graph.Edges()[0].Bytes)
	}
	if wf.DefaultOutput != 777 {
		t.Fatalf("DefaultOutput = %d", wf.DefaultOutput)
	}
}

func TestParallelStructure(t *testing.T) {
	wf := mustParse(t, `
name: par
steps:
  - name: pre
    function: f0
    output: 100
  - name: fan
    type: parallel
    branches:
      - steps:
          - name: b1
            function: f1
            output: 10
      - steps:
          - name: b2
            function: f2
            output: 20
  - name: post
    function: f3
`)
	g := wf.Graph
	// pre, fan:start, fan:end, b1, b2, post = 6 nodes
	if g.Len() != 6 {
		t.Fatalf("len = %d, want 6", g.Len())
	}
	start := nodeByName(t, g, "fan:start")
	end := nodeByName(t, g, "fan:end")
	if start.Kind != dag.KindVirtual || end.Kind != dag.KindVirtual {
		t.Fatal("start/end not virtual")
	}
	if g.OutDegree(start.ID) != 2 || g.InDegree(end.ID) != 2 {
		t.Fatal("fan-out/fan-in degree mismatch")
	}
	// Atomic group stamped on all nodes of the step.
	for _, nm := range []string{"fan:start", "fan:end", "b1", "b2"} {
		if nodeByName(t, g, nm).Group != "fan" {
			t.Fatalf("node %s group = %q, want fan", nm, nodeByName(t, g, nm).Group)
		}
	}
	if nodeByName(t, g, "pre").Group != "" {
		t.Fatal("pre should have no group")
	}
	// Payload pass-through: pre(100) -> start broadcasts 100 to branches;
	// b1(10)+b2(20) -> end aggregates 30 to post.
	for _, e := range g.Edges() {
		switch {
		case e.From == start.ID:
			if e.Bytes != 100 {
				t.Fatalf("start->branch bytes = %d, want 100", e.Bytes)
			}
		case e.From == end.ID:
			if e.Bytes != 30 {
				t.Fatalf("end->post bytes = %d, want 30", e.Bytes)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForeachWidthAndFlags(t *testing.T) {
	wf := mustParse(t, videoWDL)
	g := wf.Graph
	chunk := nodeByName(t, g, "chunk")
	if !chunk.Foreach || chunk.Width != 4 {
		t.Fatalf("chunk = %+v, want foreach width 4", chunk)
	}
	if chunk.Group != "transcode" {
		t.Fatalf("chunk group = %q", chunk.Group)
	}
	split := nodeByName(t, g, "split")
	if split.Foreach || split.Width != 1 {
		t.Fatalf("split = %+v", split)
	}
}

func TestSwitchConditions(t *testing.T) {
	wf := mustParse(t, `
name: sw
steps:
  - name: decide
    type: switch
    choices:
      - condition: "$q > 720"
        steps:
          - name: hd
            function: fhd
      - condition: "$q <= 720"
        steps:
          - name: sd
            function: fsd
`)
	conds := wf.Conditions["decide"]
	if len(conds) != 2 || conds[0] != "$q > 720" || conds[1] != "$q <= 720" {
		t.Fatalf("conditions = %#v", conds)
	}
	g := wf.Graph
	if nodeByName(t, g, "hd").Group != "decide" {
		t.Fatal("switch group not stamped")
	}
}

func TestSwitchConditionsStampedOnEdges(t *testing.T) {
	wf := mustParse(t, `
name: sw
steps:
  - name: pre
    function: f0
  - name: decide
    type: switch
    choices:
      - condition: "$q > 720"
        steps:
          - name: hd
            function: fhd
      - steps:
          - name: sd
            function: fsd
  - name: post
    function: f1
`)
	g := wf.Graph
	start := nodeByName(t, g, "decide:start")
	hd := nodeByName(t, g, "hd")
	sd := nodeByName(t, g, "sd")
	condOf := func(from, to dag.NodeID) string {
		for _, e := range g.Edges() {
			if e.From == from && e.To == to {
				return e.Cond
			}
		}
		t.Fatalf("edge %d->%d missing", from, to)
		return ""
	}
	if got := condOf(start.ID, hd.ID); got != "$q > 720" {
		t.Fatalf("hd branch cond = %q", got)
	}
	if got := condOf(start.ID, sd.ID); got != "" {
		t.Fatalf("default branch cond = %q, want empty", got)
	}
	// Non-switch edges carry no condition.
	pre := nodeByName(t, g, "pre")
	if got := condOf(pre.ID, start.ID); got != "" {
		t.Fatalf("ordinary edge cond = %q", got)
	}
}

func TestNestedCompositeOutermostGroupWins(t *testing.T) {
	wf := mustParse(t, `
name: nest
steps:
  - name: outer
    type: foreach
    width: 2
    steps:
      - name: inner
        type: parallel
        branches:
          - steps:
              - name: x
                function: fx
          - steps:
              - name: y
                function: fy
`)
	g := wf.Graph
	for _, nm := range []string{"x", "y", "inner:start", "inner:end"} {
		if got := nodeByName(t, g, nm).Group; got != "outer" {
			t.Fatalf("node %s group = %q, want outer", nm, got)
		}
	}
	if !nodeByName(t, g, "x").Foreach {
		t.Fatal("nested task not marked foreach")
	}
}

func TestSequenceStepType(t *testing.T) {
	wf := mustParse(t, `
name: s
steps:
  - name: grp
    type: sequence
    steps:
      - name: a
        function: f1
      - name: b
        function: f2
`)
	if wf.Graph.Len() != 2 || wf.Graph.NumEdges() != 1 {
		t.Fatalf("sequence step compiled to %d nodes %d edges", wf.Graph.Len(), wf.Graph.NumEdges())
	}
}

func TestAnonymousStepNames(t *testing.T) {
	wf := mustParse(t, `
name: anon
steps:
  - function: f1
  - function: f2
`)
	names := map[string]bool{}
	for _, n := range wf.Graph.Nodes() {
		if names[n.Name] {
			t.Fatalf("duplicate generated name %q", n.Name)
		}
		names[n.Name] = true
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing name", "steps:\n  - function: f\n", "missing a name"},
		{"no steps", "name: x\n", "no steps"},
		{"unknown key", "name: x\nbogus: 1\nsteps:\n  - function: f\n", "unknown top-level key"},
		{"unknown type", "name: x\nsteps:\n  - name: s\n    type: zigzag\n", "unknown step type"},
		{"task no function", "name: x\nsteps:\n  - name: s\n    type: task\n", "missing a function"},
		{"no type no function", "name: x\nsteps:\n  - name: s\n", "neither type nor function"},
		{"dup step name", "name: x\nsteps:\n  - name: s\n    function: f\n  - name: s\n    function: f\n", "duplicate step name"},
		{"parallel no branches", "name: x\nsteps:\n  - name: p\n    type: parallel\n", "has no branches"},
		{"foreach no steps", "name: x\nsteps:\n  - name: fe\n    type: foreach\n    width: 2\n", "has no steps"},
		{"foreach bad width", "name: x\nsteps:\n  - name: fe\n    type: foreach\n    width: 0\n    steps:\n      - function: f\n", "width must be positive"},
		{"negative output", "name: x\nsteps:\n  - name: s\n    function: f\n    output: -5\n", "non-negative"},
		{"negative default", "name: x\ndefault_output: -1\nsteps:\n  - function: f\n", "non-negative"},
		{"empty sequence step", "name: x\nsteps:\n  - name: sq\n    type: sequence\n", "no steps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestParseJSON(t *testing.T) {
	src := `{
  "name": "jsonflow",
  "default_output": 500,
  "steps": [
    {"name": "a", "function": "f1", "output": 100},
    {"name": "p", "type": "parallel", "branches": [
      {"steps": [{"name": "b", "function": "f2"}]},
      {"steps": [{"name": "c", "function": "f3"}]}
    ]},
    {"name": "d", "function": "f4"}
  ]
}`
	wf, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if wf.Name != "jsonflow" || wf.Graph.Len() != 6 {
		t.Fatalf("wf = %s with %d nodes", wf.Name, wf.Graph.Len())
	}
	b := nodeByName(t, wf.Graph, "b")
	if b.Group != "p" {
		t.Fatalf("b group = %q", b.Group)
	}
}

func TestParseJSONErrors(t *testing.T) {
	if _, err := ParseJSON([]byte("not json")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if _, err := ParseJSON([]byte(`[1,2]`)); err == nil {
		t.Fatal("array root accepted")
	}
}

func TestYAMLAndJSONProduceSameGraph(t *testing.T) {
	y := mustParse(t, videoWDL)
	j, err := ParseJSON([]byte(`{
  "name": "video-pipeline",
  "default_output": 1000,
  "steps": [
    {"name": "split", "function": "splitter", "output": 4000},
    {"name": "transcode", "type": "foreach", "width": 4,
     "steps": [{"name": "chunk", "function": "transcoder", "output": 2000}]},
    {"name": "merge", "function": "merger"}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	if y.Graph.Len() != j.Graph.Len() || y.Graph.NumEdges() != j.Graph.NumEdges() {
		t.Fatalf("YAML %d/%d vs JSON %d/%d nodes/edges",
			y.Graph.Len(), y.Graph.NumEdges(), j.Graph.Len(), j.Graph.NumEdges())
	}
	yn, jn := y.Graph.Nodes(), j.Graph.Nodes()
	for i := range yn {
		if yn[i] != jn[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, yn[i], jn[i])
		}
	}
	ye, je := y.Graph.Edges(), j.Graph.Edges()
	for i := range ye {
		if ye[i] != je[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ye[i], je[i])
		}
	}
}

func TestCompiledGraphIsAlwaysValid(t *testing.T) {
	// Deeply nested composite; the result must validate (acyclic, non-empty).
	wf := mustParse(t, `
name: deep
steps:
  - name: a
    function: f
  - name: l1
    type: parallel
    branches:
      - steps:
          - name: l2
            type: foreach
            width: 3
            steps:
              - name: l3
                type: switch
                choices:
                  - condition: x
                    steps:
                      - name: leaf1
                        function: f
      - steps:
          - name: leaf2
            function: f
  - name: z
    function: f
`)
	if err := wf.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// a is the only source of the acyclic graph, so every leaf is
	// reachable from it, and every leaf drains into z, the only sink.
	g := wf.Graph
	a := nodeByName(t, g, "a")
	z := nodeByName(t, g, "z")
	if src := g.Sources(); len(src) != 1 || src[0] != a.ID {
		t.Fatalf("sources = %v, want only a (%d)", src, a.ID)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != z.ID {
		t.Fatalf("sinks = %v, want only z (%d)", snk, z.ID)
	}
}

func BenchmarkParseVideoWDL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(videoWDL); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzParse: Parse never panics on malformed WDL; errors are the only
// acceptable failure mode.
func FuzzParse(f *testing.F) {
	f.Add(videoWDL)
	f.Add("")
	f.Add("name: x\nsteps:\n  - name: a\n    function: f\n")
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
	})
}

// FuzzParseJSON: ParseJSON never panics on malformed JSON workflows.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(`{"name": "jsonflow", "default_output": 500, "steps": [
  {"name": "a", "function": "f1", "output": 100},
  {"name": "p", "type": "parallel", "branches": [
    {"steps": [{"name": "b", "function": "f2"}]},
    {"steps": [{"name": "c", "function": "f3"}]}]},
  {"name": "d", "function": "f4"}]}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`[1,2]`))
	f.Fuzz(func(t *testing.T, src []byte) {
		_, _ = ParseJSON(src)
	})
}
